"""Instrumentation for traced runs, all applied from outside the library.

- Spans (name, start, end, parent) around the benchmark's calls into public
  functions: universe build and each suite under ``verify``, decode / query
  operation / encode for each query, each ``hom_set``.  They are kept in
  flat arrays and written out when the run ends.
- Call counters: the counted methods are wrapped for the traced pass and
  restored afterwards.
- Self time per library module from a statistical profiler: a CPU-time
  interval timer (SIGPROF) samples the running frame, and each sample is
  charged to the innermost frame that belongs to a library module, so time
  in builtins and the standard library goes to the module that called it.
  Deterministic profiling (cProfile) slows the verify workload by about
  3.3x, which would push a traced run past its time limit.
- GC pauses through ``gc.callbacks``, hom-cache counters through
  ``hom_index_tuples.cache_info()``.
"""

from __future__ import annotations

import contextlib
import gc
import gzip
import json
import signal
from array import array
from pathlib import Path
from statistics import median
from time import perf_counter

import factorcat
from factorcat import FactorTuple, Morphism, hom_index_tuples, monoids, oracle

from workloads import KINDS, VERIFY_CASES

MODULES = ("monoids", "category", "monoidal", "weq", "divisibility", "oracle", "encoding", "cli")
SAMPLE_INTERVAL_S = 0.002

# metric -> (owners, attribute); every owner that defines the attribute itself
# gets a counting wrapper
_MONOID_CLASSES = [c for c in vars(monoids).values()
                   if isinstance(c, type) and issubclass(c, monoids.Monoid)]
COUNTERS = {
    "monoids.validate_calls": (_MONOID_CLASSES, "validate"),
    "monoids.eq_calls": (_MONOID_CLASSES, "__eq__"),
    "monoids.fiber_feasible_calls": (_MONOID_CLASSES, "fiber_feasible"),
    "monoids.factor_calls": (_MONOID_CLASSES, "factor_irreducibles"),
    "category.morphism_inits": ([Morphism], "__post_init__"),
    "category.tuple_inits": ([FactorTuple], "__post_init__"),
}

# name -> (unit, better), in the order they are printed
PER_LAYER = {
    **{name: ("count", "lower") for name in COUNTERS},
    **{f"{m}.self_s": ("s", "lower") for m in MODULES},
    "category.hom_enum_s": ("s", "lower"),
    "category.hom_nodes_per_morphism": ("ratio", "lower"),
    "category.hom_cache_hits": ("count", "higher"),
    "category.hom_cache_misses": ("count", "lower"),
    "category.hom_cache_hit_ratio": ("ratio", "higher"),
    "category.hom_cache_entries": ("count", "lower"),
    **{f"query.{k}_p50_us": ("us", "lower") for k in KINDS},
    "encoding.decode_us": ("us", "lower"),
    "encoding.encode_us": ("us", "lower"),
    "encoding.decoded_entries": ("count", "higher"),
    "oracle.universe_build_s": ("s", "lower"),
    **{f"oracle.suite.{s}_s": ("s", "lower") for s in VERIFY_CASES},
    "runtime.gc_pause_s": ("s", "lower"),
    "runtime.gc_collections": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _counting(fn, cell):
    def counted(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)

    return counted


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack: list[int] = []
        self.cells = {name: [0] for name in COUNTERS}
        self.samples: dict[str, int] = {}
        self.enum_samples = 0
        self.enum_morphisms = 0
        self.decoded_entries = 0
        self.gc_pause = 0.0
        self.gc_collections = 0
        self._gc_t0 = 0.0
        self.wall = 0.0
        self.cache_hits = self.cache_misses = self.cache_entries = 0
        self._labels: dict[str, str | None] = {}
        self._package = str(Path(factorcat.__file__).parent)
        self._bench = str(Path(__file__).parent)

    # -- spans -------------------------------------------------------------

    def _add(self, name: str, t0: float, t1: float, parent: int) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(ident)
        self.start.append(t0)
        self.end.append(t1)
        self.parent.append(parent)
        return len(self.start) - 1

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._add(name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.end[index] = perf_counter()

    def query_spans(self, kind: str, t0, t1, t2, t3, entries: int) -> None:
        q = self._add("query", t0, t3, -1)
        self._add("encoding.decode", t0, t1, q)
        self._add(f"query.{kind}", t1, t2, q)
        self._add("encoding.encode", t2, t3, q)
        self.decoded_entries += entries

    def hom_span(self, t0: float, t1: float, morphisms: int) -> None:
        self._add("category.hom_set", t0, t1, -1)
        self.enum_morphisms += morphisms

    @contextlib.contextmanager
    def verify_spans(self, cli_module):
        """Route ``verify`` through the benchmark, so that the universe build
        and each suite get a span; reports and output are unchanged."""
        original = cli_module.run_suite

        def run_suite(u, names=None):
            with self.span("oracle.universe_build"):
                oracle.universe_objects(u)
                oracle.universe_homs(u)
                self.enum_morphisms += len(oracle.universe_morphisms(u))
            reports = []
            for name in names or oracle.SUITES:  # the default universe runs them all
                with self.span(f"oracle.suite.{name}"):
                    reports += oracle.run_suite(u, [name])
            return reports

        cli_module.run_suite = run_suite
        try:
            yield
        finally:
            cli_module.run_suite = original

    def durations(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {name: [] for name in self.names}
        for n, s, e in zip(self.name_id, self.start, self.end):
            out[self.names[n]].append(e - s)
        return out

    def write(self, path: Path) -> None:
        """One JSON line per span: [name, start_s, end_s, parent line or -1]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for n, s, e, p in zip(self.name_id, self.start, self.end, self.parent):
                fh.write(json.dumps([self.names[n], s, e, p]) + "\n")

    # -- hom cache ---------------------------------------------------------

    def fold_cache(self) -> None:
        """Add the hom cache's counters to the totals; call before a clear."""
        info = getattr(hom_index_tuples, "cache_info", None)
        if info is not None:
            info = info()
            self.cache_hits += info.hits
            self.cache_misses += info.misses
            self.cache_entries = max(self.cache_entries, info.currsize)

    # -- profiler, counters, GC --------------------------------------------

    def _label(self, filename: str):
        label = self._labels.get(filename, "")
        if label == "":
            path = Path(filename)
            if str(path.parent) == self._package:
                label = path.stem
            elif str(path.parent) == self._bench and filename != __file__:
                label = "bench"
            else:
                # stdlib, generated code and the counting wrappers: charge the
                # caller (a sample taken on entry to a wrapper belongs there)
                label = None
            self._labels[filename] = label
        return label

    def _sample(self, signum, frame) -> None:
        label = None
        in_enum = False
        while frame is not None:
            code = frame.f_code
            if label is None:
                label = self._label(code.co_filename)
            if code.co_name == "hom_index_tuples":
                in_enum = True
                break
            frame = frame.f_back
        label = label or "other"
        self.samples[label] = self.samples.get(label, 0) + 1
        self.enum_samples += in_enum

    def _gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = perf_counter()
        else:
            self.gc_pause += perf_counter() - self._gc_t0
            self.gc_collections += 1

    @contextlib.contextmanager
    def active(self):
        patched = []
        for name, (owners, attr) in COUNTERS.items():
            for owner in owners:
                if attr in vars(owner):
                    original = vars(owner)[attr]
                    setattr(owner, attr, _counting(original, self.cells[name]))
                    patched.append((owner, attr, original))
        previous = signal.signal(signal.SIGPROF, self._sample)
        gc.callbacks.append(self._gc)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        t0 = perf_counter()
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            self.wall = perf_counter() - t0
            signal.signal(signal.SIGPROF, previous)
            gc.callbacks.remove(self._gc)
            for owner, attr, original in patched:
                setattr(owner, attr, original)
            self.fold_cache()

    # -- per-layer metrics -----------------------------------------------------

    def metrics(self, traced_s: float, untraced_s: float) -> dict:
        """Per-layer metrics of a traced pass that took traced_s of library
        time, against untraced_s for the same operations untraced.  A sample
        stands for an equal share of the traced pass's wall time."""
        per_sample = self.wall / (sum(self.samples.values()) or 1)
        spans = self.durations()

        def p50_us(name):
            values = spans.get(name)
            return median(values) * 1e6 if values else 0.0

        feasible = self.cells["monoids.fiber_feasible_calls"][0]
        lookups = self.cache_hits + self.cache_misses
        values = {
            **{name: cell[0] for name, cell in self.cells.items()},
            **{f"{m}.self_s": self.samples.get(m, 0) * per_sample for m in MODULES},
            "category.hom_enum_s": self.enum_samples * per_sample,
            "category.hom_nodes_per_morphism": feasible / self.enum_morphisms if self.enum_morphisms else 0.0,
            "category.hom_cache_hits": self.cache_hits,
            "category.hom_cache_misses": self.cache_misses,
            "category.hom_cache_hit_ratio": self.cache_hits / lookups if lookups else 0.0,
            "category.hom_cache_entries": self.cache_entries,
            **{f"query.{k}_p50_us": p50_us(f"query.{k}") for k in KINDS},
            "encoding.decode_us": p50_us("encoding.decode"),
            "encoding.encode_us": p50_us("encoding.encode"),
            "encoding.decoded_entries": self.decoded_entries,
            "oracle.universe_build_s": sum(spans.get("oracle.universe_build", ())),
            **{f"oracle.suite.{s}_s": sum(spans.get(f"oracle.suite.{s}", ())) for s in VERIFY_CASES},
            "runtime.gc_pause_s": self.gc_pause,
            "runtime.gc_collections": self.gc_collections,
            "trace.overhead_ratio": traced_s / untraced_s,
        }
        return {name: {"value": values[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}

