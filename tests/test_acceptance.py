"""Acceptance criteria: exact reproduction of the worked examples plus the
law suites over the default universe, each with a wall-clock budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import random
import time
from fractions import Fraction
from itertools import product as iter_product

from factorcat import (
    FactorTuple,
    INTERVAL,
    Morphism,
    ZX,
    atomic_chain,
    compose,
    decompose_eip,
    empty_tuple,
    enumerate_irreducible_factorizations,
    hom_set,
    is_weak_equivalence,
    is_weakly_irreducible,
    is_weakly_prime,
    tensor_objects,
    total_witness,
    weak_div_diagram,
    weakly_divides,
    zeta_mor,
    zeta_obj,
)

from builders import zm, zt
from sampling import sample_extension, sample_morphism

DEFAULT_POOL = (-1, 1, 2, 3, 5, 6)


def criterion(number, label, budget_seconds, body, elapsed=None):
    """Run body and hold it to the budget; ``elapsed`` is the time of work
    done before the call, which the budget then covers instead of body's."""
    start = time.perf_counter()
    try:
        body()
    except Exception:
        print(f"criterion {number} FAIL {label}")
        raise
    if elapsed is None:
        elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"
    )
    print(f"criterion {number} PASS {label} ({elapsed:.2f}s)")


def pool_tuples(max_len=3, pool=DEFAULT_POOL):
    for k in range(1, max_len + 1):
        yield from (zt(*combo) for combo in iter_product(pool, repeat=k))


def test_criterion_1_hom_count_goldens():
    def body():
        assert len(hom_set(zt(6, 35), zt(2, 3, 5, 7))) == 1
        assert len(hom_set(zt(1, 2), zt(1, 2))) == 2
        assert len(hom_set(zt(1, 1), zt(3, 3, 3))) == 8
        assert len(hom_set(zt(2, 2), zt(3, 3))) == 0
        rng = random.Random(2026)
        for _ in range(20):
            entries = tuple(
                Fraction(rng.randint(1, 9), rng.randint(9, 24))
                for _ in range(rng.randint(0, 3))
            )
            t = FactorTuple(INTERVAL, entries)
            assert len(hom_set(t, empty_tuple(INTERVAL))) == 1

    criterion(1, "hom-count goldens", 1.0, body)


def test_criterion_2_decomposition_golden():
    def body():
        m = zm([6, 1, 35], [2, 7, 33, 65], [1, 3, 1, 3])
        d = decompose_eip(m)
        assert d.epsilon.values == (1, 3)
        assert d.delta.codomain == zt(66, 455)
        assert d.phi.values == (1, 2, 1, 2)
        assert d.ratios == (11, 13)
        assert d.composed() == m

    criterion(2, "canonical decomposition golden", 1.0, body)


def test_criterion_3_weak_divisibility_golden():
    def body():
        f = zm([2], [6], [1])
        g = zm([5], [105], [1])
        assert weakly_divides(f, g)
        assert total_witness(f) == 3
        assert total_witness(g) == 21
        assert not weakly_divides(g, f)
        diagram = weak_div_diagram(f, g)  # the weakdiv_diagram law checks the six legs
        assert is_weak_equivalence(diagram.mu)
        assert is_weak_equivalence(diagram.eta)

    criterion(3, "weak divisibility golden", 1.0, body)


def test_criterion_4_classification_goldens():
    def body():
        m = zm([2], [6], [1])
        assert is_weakly_irreducible(m) and is_weakly_prime(m)
        assert total_witness(m) == 3

        # every factorization morphism over the default pool is in W
        for cod in pool_tuples():
            m_len = len(cod)
            for n_len in range(1, m_len + 1):
                for values in iter_product(range(1, n_len + 1), repeat=m_len):
                    if len(set(values)) != n_len:
                        continue
                    fibers = [1] * n_len
                    for pos, target in enumerate(values):
                        fibers[target - 1] *= cod.entries[pos]
                    fact = Morphism(zt(*fibers), cod, values)
                    assert is_weak_equivalence(fact)

        # every drop-unit morphism over the default pool is in W
        for dom in pool_tuples():
            unit_positions = [
                i for i, e in enumerate(dom.entries) if ZX.is_invertible(e)
            ]
            keep_always = [
                i for i in range(len(dom)) if i not in unit_positions
            ]
            for mask in range(2 ** len(unit_positions)):
                dropped = {
                    unit_positions[j]
                    for j in range(len(unit_positions))
                    if mask >> j & 1
                }
                kept = [i for i in range(len(dom)) if i not in dropped]
                assert set(keep_always) <= set(kept)
                cod = zt(*(dom.entries[i] for i in kept))
                values = tuple(i + 1 for i in kept)
                eps = Morphism(dom, cod, values)
                assert is_weak_equivalence(eps)

        # a divisibility morphism is in W exactly when its ratio is a unit
        for length in range(1, 4):
            for z in iter_product(DEFAULT_POOL, repeat=length):
                for ratios in iter_product(DEFAULT_POOL, repeat=length):
                    scaled = tuple(r * e for r, e in zip(ratios, z))
                    m_div = Morphism(
                        zt(*z), zt(*scaled), tuple(range(1, length + 1))
                    )
                    total = 1
                    for r in ratios:
                        total *= r
                    assert is_weak_equivalence(m_div) == ZX.is_invertible(total)

    criterion(4, "classification goldens", 5.0, body)


def test_criterion_5_oracle_suites_default_universe(cold_default_verify):
    # the session fixture ran the suites once from cold caches, and timed them
    def body():
        reports = cold_default_verify.reports
        assert len(reports) == 7
        for report in reports:
            assert report.passed, (report.suite, report.failures[:2])

    criterion(5, "oracle suites on the default universe", 60.0, body,
              elapsed=cold_default_verify.elapsed)


def test_criterion_6_zeta_laws():
    def body():
        rng = random.Random(60)
        # witnesses capped so every tuple product stays inside the 2**31
        # trial-division range, worst case included
        for _ in range(500):
            f = sample_morphism(rng, witness_bound=1000)
            g = sample_extension(rng, f.codomain, witness_bound=1000)
            assert zeta_mor(compose(g, f)) == zeta_mor(g) + zeta_mor(f)
            for m in (f, g):
                z = zeta_mor(m)
                assert (z == 0) == is_weak_equivalence(m)
                assert (z == 1) == is_weakly_irreducible(m)
            assert zeta_obj(tensor_objects(f.domain, g.domain)) == zeta_obj(
                f.domain
            ) + zeta_obj(g.domain)

    criterion(6, "zeta length laws on 500 sampled composable pairs", 10.0, body)


def test_criterion_7_atomic_chains():
    def body():
        rng = random.Random(70)
        for _ in range(100):
            m = sample_morphism(rng, witness_bound=10_000)
            assert abs(total_witness(m)) <= 10_000
            chain = atomic_chain(m)
            assert chain.composed() == m
            assert chain.irr_count == zeta_mor(m)

    criterion(7, "atomic chains recompose with the right length", 10.0, body)


def test_criterion_8_factorization_probes():
    def body():
        assert ZX.divisor_class_representatives(12) == [1, 2, 3, 4, 6, 12]
        rng = random.Random(80)
        for _ in range(50):
            value = rng.randint(2, 5000) * rng.choice((1, -1))
            found = enumerate_irreducible_factorizations(ZX, value)
            assert len(found.classes) == 1
            assert not found.truncated

    criterion(8, "finite-factorization probes", 5.0, body)
