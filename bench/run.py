"""factorcat benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Workloads (see ``workloads.py``): ``verify-default``,
``query-stream`` and ``hom-enum``.  BENCHMARK.json gates the first two;
hom-enum's timings spread by 15-25% between runs on a shared 2-vCPU
virtual machine, a variation the speed probe below does not track, so it
is run by hand.

With ``--trace 0`` the run measures whole passes over the workload's inputs
until S seconds are up and reports the end-to-end metrics, rescaled to a
reference machine speed (see SpeedProbe).  With ``--trace 1`` it first
makes the same untraced passes, then replays exactly those operations under
tracing (see ``tracing.py``) and reports the per-layer metrics; spans go to
``.bench_out/`` in the checkout.

Every output is checked.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line before
it is the run record (interpreter, nproc, git sha, load average at start and
end, and the workload's own named metrics).

``--record`` writes the seed-0 output digests of query-stream and hom-enum
to ``expected.json``; do that only when the workloads themselves change.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import signal
import subprocess
import sys
from pathlib import Path
from statistics import mean, median
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import factorcat.cli; print(time.perf_counter() - t)"
)
SETUP_REPEATS = 3
PROBE_INTERVAL_S = 0.1
REFERENCE_PROBE_S = 0.0005


def probe_kernel() -> int:
    """A fixed pure-Python workload: tuple building, hashing, dict updates."""
    d = {}
    for i in range(1500):
        t = (i, i * 7 % 13, i >> 2)
        d[t] = len(t) + (i in d)
    return len(d)


class SpeedProbe:
    """Times ``probe_kernel`` every 100 ms from a SIGALRM handler, in the
    same thread as the workload.

    A shared virtual machine can change speed by 1.5x over tens of seconds
    (seen on a 2-vCPU VM), and the kernel's time follows those changes.
    ``scale`` turns a timing taken over an interval into the timing at the
    reference speed, where the kernel takes REFERENCE_PROBE_S: the interval
    is multiplied by the mean probe speed within it.  A change to the
    library moves rescaled timings as much as raw ones, since the kernel
    does not use the library."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (when, kernel seconds)

    def _fire(self, signum, frame) -> None:
        t0 = perf_counter()
        probe_kernel()
        self.samples.append((t0, perf_counter() - t0))

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._fire)
        self._fire(None, None)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            self._fire(None, None)

    def scale(self, t0: float, t1: float) -> float:
        inside = [s for t, s in self.samples if t0 <= t <= t1]
        if not inside:  # an interval shorter than the probe period
            inside = [min(self.samples, key=lambda ts: abs(ts[0] - t0))[1]]
        return REFERENCE_PROBE_S * mean(1 / s for s in inside)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def measure_setup(make, seed: int, expected):
    """Median cold import of the library (fresh interpreters) plus median
    input generation; returns (seconds, (start, end), workload)."""
    start = perf_counter()
    imports = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, capture_output=True,
            text=True, timeout=60, check=True,
        )
        imports.append(float(out.stdout))
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        workload = make(seed, expected=expected)
        builds.append(perf_counter() - t0)
    return median(imports) + median(builds), (start, perf_counter()), workload


class Run:
    """Outcome of driving a workload: latency and work of each pass."""

    def __init__(self):
        self.passes: list[list[float]] = []  # operation latencies, one list per pass
        self.work: list[int] = []
        self.spans: list[list[float]] = []  # [start, end] of each pass
        self.checks = 0
        self.failed = 0

    @property
    def latencies(self) -> list[float]:
        return [t for lat in self.passes for t in lat]


def drive(workload, seconds: float | None, count: int | None = None, tracer=None) -> Run:
    """Run whole passes until S seconds are up, or exactly ``count``
    operations.  Caches are cleared before each new pass."""
    from workloads import clear_library_caches

    out = Run()
    size = len(workload.inputs)
    start = perf_counter()
    i = 0
    while True:
        if count is None:
            if i and i % size == 0 and perf_counter() - start >= seconds:
                break
        elif i >= count:
            break
        if i % size == 0:
            if i:
                if tracer is not None:
                    tracer.fold_cache()
                clear_library_caches()
            now = perf_counter()
            if out.spans:
                out.spans[-1][1] = now
            out.passes.append([])
            out.work.append(0)
            out.spans.append([now, now])
        latency, work, checks, failed = workload.run(i, tracer)
        out.passes[-1].append(latency)
        out.work[-1] += work
        out.checks += checks
        out.failed += failed
        i += 1
    out.spans[-1][1] = perf_counter()
    return out


def end_to_end(name: str, run: Run, setup_s: float, probe: SpeedProbe, setup_window):
    """The gated metrics and the workload's own named ones.

    Gated timings are rescaled to the reference speed (see SpeedProbe) and
    taken as the median over passes of each pass's figure; the named
    metrics in the run record are the raw ones.  Tail latencies go to the
    record only."""
    scales = [probe.scale(t0, t1) for t0, t1 in run.spans]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    gated = {
        "op_p50_us": (median(median(lat) * f for lat, f in zip(run.passes, scales)) * 1e6, "us"),
        "work_per_s": (median(w / (sum(lat) * f) for lat, w, f in zip(run.passes, run.work, scales)), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s * probe.scale(*setup_window), "s"),
    }
    p50 = median(median(lat) for lat in run.passes) * 1e6
    rate = median(w / sum(lat) for lat, w in zip(run.passes, run.work))
    named = {
        "verify-default": {"verify_wall_s": (p50 / 1e6, "s")},
        "query-stream": {
            "query_qps": (rate, "1/s"),
            "query_p50_us": (p50, "us"),
            "query_p99_us": (median(percentile(lat, 99) for lat in run.passes) * 1e6, "us"),
        },
        "hom-enum": {"enum_morphisms_per_s": (rate, "1/s"), "enum_p50_us": (p50, "us")},
    }[name]
    named.update(
        setup_s=(setup_s, "s"),
        peak_rss_mb=(rss_mb, "MB"),
        ops_failed_ratio=(run.failed / run.checks, "ratio"),
        speed_scale=(median(scales), "ratio"),
    )
    return gated, named


def as_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def load_expected(name: str, seed: int) -> dict | None:
    if not EXPECTED.is_file():
        return None
    recorded = json.loads(EXPECTED.read_text())
    return recorded.get(name) if recorded["seed"] == seed else None


def record() -> None:
    from workloads import HomEnum, QueryStream

    recorded = {"seed": 0}
    for make, key in ((QueryStream, "blocks"), (HomEnum, "requests")):
        workload = make(0)
        drive(workload, 0.0)
        recorded[make.name] = {key: workload.digests()}
    EXPECTED.write_text(json.dumps(recorded, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("verify-default", "query-stream", "hom-enum"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite expected.json")
    args = parser.parse_args(argv)
    if not (SRC / "factorcat" / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record:
        record()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    from workloads import WORKLOADS, clear_library_caches

    load_start = os.getloadavg()
    with SpeedProbe().running() as probe:
        setup_s, setup_window, workload = measure_setup(
            WORKLOADS[args.workload], args.seed, load_expected(args.workload, args.seed)
        )
        reference = drive(workload, args.seconds)
    attempted, failed = reference.checks, reference.failed
    if args.trace:
        from tracing import Tracer

        clear_library_caches()
        gc.collect()
        tracer = Tracer()
        with tracer.active():
            traced = drive(workload, None, count=len(reference.latencies), tracer=tracer)
        attempted += traced.checks
        failed += traced.failed
        metrics = tracer.metrics(sum(traced.latencies), sum(reference.latencies))
        tracer.write(ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
        extra = {"profile_samples": tracer.samples}
    else:
        e2e, named = end_to_end(args.workload, reference, setup_s, probe, setup_window)
        metrics = as_json(e2e)
        extra = {"named_metrics": as_json(named)}
    print(json.dumps({"record": {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "operations": len(reference.latencies),
        "passes": len(reference.passes),
        **extra,
    }}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
