"""
Brute-force law verification
============================

The suites quantify each law over a bounded universe and cross-check the
fast predicates against independent formulations: cancellation probes for
epic/monic, inverse search for isomorphisms, product divisibility for weak
division.  Reports are deterministic for a given universe and carry
re-runnable counterexamples on failure.
"""

from fractions import Fraction

from factorcat import INTERVAL, SUITES, UniverseSpec, all_passed, run_suite

# small integer universe: signs, a few primes, one composite
universe = UniverseSpec(pool=(-1, 1, 2, 3, 6), max_len=2,
                        exhaustive_limit=40_000, sample_size=4_000)
reports = run_suite(universe)
for report in reports:
    status = "PASS" if report.passed else f"FAIL ({sum(report.failed_by_law.values())})"
    print(f"{report.suite:<18} {report.cases:>7} cases  {status}")
print("all passed:", all_passed(reports))

# the interval monoid runs only the order-theoretic suites: every tuple has
# exactly one arrow to the empty tuple there
interval_universe = UniverseSpec(
    monoid=INTERVAL, pool=(Fraction(1), Fraction(1, 2), Fraction(2, 3)), max_len=2
)
for report in run_suite(interval_universe):
    print(f"interval {report.suite:<18} {report.cases:>5} cases  "
          f"{'PASS' if report.passed else 'FAIL'}")

print("registered suites:", ", ".join(SUITES))
