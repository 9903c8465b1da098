"""Spans and counters around framekit's public functions, for the traced run.

Wrappers live here, not in the program: ``Tracer.install`` replaces each
traced function in every framekit module namespace that holds it (``frames``
and ``verify`` import names with ``from .x import y``, and ``verify.SUITES``
holds the suite functions in a dict), plus the ``__post_init__`` of the four
element types.  Spans are kept in memory as
``(span id, name, start ns, end ns, parent span id, run id)`` and written out
when the benchmark ends; counters live per thread and are summed at the end,
so counts are exact under the suite thread pool.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
import tracemalloc
from collections import Counter

MODULES = ("framekit", "framekit.spaces", "framekit.frames", "framekit.catalog",
           "framekit.verify", "framekit.cli")

NORMS = ("lp_norm", "linf_norm", "grid_lp_norm", "amalgam_norm")
PAIRINGS = ("pairing_psi", "pairing_phi", "pairing_phi_pq")
ELEMENTS = ("SeqVector", "DualSeq", "GridFunction", "AmalgamFunction")
SUITE_NAMES = ("besselian", "duality", "james", "unconditionality")

# Function name -> span name, for every traced function that gets a span.
SPANNED = {
    "frame_from_label": "catalog.frame_from_label",
    "derive_rng": "frames.derive_rng",
    "coefficient_products": "frames.coefficient_products",
    "synthesis_partial": "frames.synthesis_partial",
    "estimate_frame_constant": "frames.estimate_frame_constant",
    "duality_constant_check": "frames.duality_constant_check",
    "unconditional_probe": "frames.unconditional_probe",
    "shrinking_tail": "frames.shrinking_tail",
    "boundedly_complete_tail": "frames.boundedly_complete_tail",
    "reflexivity_probe": "frames.reflexivity_probe",
    "spec_for_label": "verify.spec_for_label",
    "run_all": "verify.run_all",
    "write_reports": "verify.write_reports",
    "main": "cli.main",
    **{n: "spaces." + n for n in NORMS},
    **{f"run_{s}_suite": f"verify.suite.{s}" for s in SUITE_NAMES},
}

# Per-layer metrics: name -> unit.  BENCHMARK.json lists the same names.
PER_LAYER_UNITS = {
    "catalog.build_calls": "count",
    "catalog.build_s": "s",
    "catalog.build_alloc_peak_mib": "MiB",
    "frames.derive_rng_calls": "count",
    "frames.derive_rng_s": "s",
    "frames.sweep_pairs": "count",
    "frames.sweep_gen_s": "s",
    "frames.coeff_products_calls": "count",
    "frames.coeff_products_s": "s",
    "frames.batch_route_calls": "count",
    "frames.generic_route_calls": "count",
    "frames.frame_pair_calls": "count",
    "frames.zero_pairs": "count",
    "frames.useful_pair_ratio": "ratio",
    "frames.uncond_probe_calls": "count",
    "frames.uncond_probe_s": "s",
    "frames.uncond_terms": "count",
    "frames.tail_calls": "count",
    "frames.tail_s": "s",
    "frames.tail_terms": "count",
    "frames.synthesis_s": "s",
    "spaces.elements_built": "count",
    "spaces.norm_calls": "count",
    "spaces.norm_s": "s",
    "spaces.pairing_calls": "count",
    **{f"verify.suite_s.{s}": "s" for s in SUITE_NAMES},
    "verify.suite_self_s": "s",
    "verify.task_wait_s": "s",
    "verify.parallel_efficiency": "ratio",
    "verify.serialize_s": "s",
    "verify.report_bytes": "bytes",
    "cli.self_s": "s",
    "trace.run_s": "s",
}


def _is_zero(element) -> bool:
    """Zero test on the raw representation, so it calls no traced function."""
    if hasattr(element, "entries"):
        return not element.entries
    if hasattr(element, "prefix"):
        return element.tail == 0.0 and not any(element.prefix)
    if hasattr(element, "coefficients"):
        return not element.coefficients.any()
    return all(not c.coefficients.any() for c in element.cells.values())


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self) -> None:
        self.run_id = "setup"
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._thread_counts: list[Counter] = []
        self._register = threading.Lock()
        self._build_lock = threading.Lock()
        self._zero_cache: dict[int, tuple] = {}
        self._counted_before: Counter = Counter()
        self.run_counts: dict[str, Counter] = {}
        self.alloc_peaks: dict[str, float] = {}  # run id -> MiB
        self.workers: dict[int, int] = {}  # run_all span id -> workers
        # Worker threads of verify.run_all start with an empty span stack;
        # their root spans hang under the open run_all span.
        self._pool_parent = None

    def start_run(self, run_id: str) -> None:
        """Close the counters of the current run and start the next one.

        Called from the main thread between rounds, when no worker runs.
        """
        total = self.total_counts()
        self.run_counts[self.run_id] = total - self._counted_before
        self._counted_before = total
        self._zero_cache.clear()
        self.run_id = run_id

    def total_counts(self) -> Counter:
        total = Counter()
        for c in self._thread_counts:
            total.update(c)
        return total

    # -- primitives -------------------------------------------------------

    def counts(self) -> Counter:
        try:
            return self._local.counts
        except AttributeError:
            c = self._local.counts = Counter()
            with self._register:
                self._thread_counts.append(c)
            return c

    def _open(self):
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        sid = next(self._ids)
        parent = stack[-1] if stack else self._pool_parent
        stack.append(sid)
        return sid, parent, time.perf_counter_ns()

    def _close(self, name: str, sid: int, parent, t0: int) -> None:
        t1 = time.perf_counter_ns()
        self._local.stack.pop()
        self.spans.append((sid, name, t0, t1, parent, self.run_id))

    def spanned(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            opened = tracer._open()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(name, *opened)

        return wrapped

    def counted(self, key: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            tracer.counts()[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    # -- layer-specific wrappers -------------------------------------------

    def _route(self, fn, batch_attrs):
        tracer = self

        @functools.wraps(fn)
        def wrapped(F, *args, **kwargs):
            batch = all(getattr(F, a) is not None for a in batch_attrs)
            tracer.counts()["batch_route" if batch else "generic_route"] += 1
            return fn(F, *args, **kwargs)

        return wrapped

    def _frame_pair(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapped(F, n):
            pair = fn(F, n)
            c = tracer.counts()
            c["frame_pair"] += 1
            cache = tracer._zero_cache
            zero = False
            for e in pair:
                hit = cache.get(id(e))
                if hit is None:  # keep e alive so its id is not reused
                    hit = cache[id(e)] = (e, _is_zero(e))
                zero = zero or hit[1]
            if zero:
                c["zero_pairs"] += 1
            return pair

        return wrapped

    def _terms(self, fn, key, terms_of):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.counts()[key] += terms_of(*args, **kwargs)
            return result

        return wrapped

    def _sweep(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            gen = fn(*args, **kwargs)
            timed_next = tracer.spanned("frames.ball_pair_sweep", gen.__next__)
            while True:
                try:
                    pair = timed_next()
                except StopIteration:
                    return
                tracer.counts()["sweep_pairs"] += 1
                yield pair

        return wrapped

    def _build(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            # tracemalloc is process-wide: builds on the thread pool take
            # turns so that start and stop pair up.
            with tracer._build_lock:
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    run = tracer.run_id
                    tracer.alloc_peaks[run] = max(tracer.alloc_peaks.get(run, 0.0), peak)

        return wrapped

    def _thread_cpu(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            t0 = time.thread_time_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.counts()["suite_cpu_ns"] += time.thread_time_ns() - t0

        return wrapped

    def _run_all(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapped(specs, workers=1, suites=None):
            opened = tracer._open()
            tracer.workers[opened[0]] = max(1, int(workers))
            tracer._pool_parent = opened[0]
            try:
                return fn(specs, workers=workers, suites=suites)
            finally:
                tracer._pool_parent = None
                tracer._close("verify.run_all", *opened)

        return wrapped

    def _write_reports(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            paths = fn(*args, **kwargs)
            tracer.counts()["report_bytes"] += sum(os.path.getsize(p) for p in paths)
            return paths

        return wrapped

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import importlib

        mods = [importlib.import_module(m) for m in MODULES]
        spaces, frames, verify = mods[1], mods[2], mods[4]

        wrappers = {}  # id(original) -> wrapper
        for fname, span in SPANNED.items():
            orig = next(vars(m)[fname] for m in mods if fname in vars(m))
            inner = orig
            if fname.startswith("run_") and fname.endswith("_suite"):
                inner = self._thread_cpu(orig)
            elif fname == "coefficient_products":
                inner = self._route(orig, ("coeff_batch", "eval_batch"))
            elif fname == "synthesis_partial":
                inner = self._route(orig, ("coeff_batch", "synth_batch"))
            elif fname == "unconditional_probe":
                inner = self._terms(orig, "uncond_terms",
                                    lambda F, x, N, trials, seed: N * (1 + 2 * trials))
            elif fname in ("shrinking_tail", "boundedly_complete_tail"):
                inner = self._terms(orig, "tail_terms", lambda F, c, N, M: M - N)
            elif fname == "write_reports":
                inner = self._write_reports(orig)
            if fname == "run_all":
                wrappers[id(orig)] = self._run_all(orig)
            elif fname == "frame_from_label":  # lock waits stay outside the span
                wrappers[id(orig)] = self._build(self.spanned(span, orig))
            else:
                wrappers[id(orig)] = self.spanned(span, inner)
        for fname in PAIRINGS:
            orig = getattr(spaces, fname)
            wrappers[id(orig)] = self.counted("pairing_calls", orig)
        wrappers[id(frames.frame_pair)] = self._frame_pair(frames.frame_pair)
        wrappers[id(frames.ball_pair_sweep)] = self._sweep(frames.ball_pair_sweep)

        for mod in mods:
            for name, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, name, wrappers[id(value)])
        for key, fn in list(verify.SUITES.items()):
            verify.SUITES[key] = wrappers[id(fn)]
        for cls_name in ELEMENTS:
            cls = getattr(spaces, cls_name)
            cls.__post_init__ = self.counted("elements_built", cls.__post_init__)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.run_counts}, fh)
            fh.write("\n")


def _covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0, lo
    for s, e in sorted(intervals):
        s, e = max(s, end), min(e, hi)
        if e > s:
            total += e - s
            end = e
    return total


def layer_metrics(tracer: Tracer, runs: tuple[str, ...], round_s: float,
                  scale: float) -> dict[str, float]:
    """Per-layer metrics over the runs named in ``runs`` (all closed).

    Span times are multiplied by ``scale``, the first round's host-speed
    factor, so that they read at the same nominal speed as ``round_s``.
    """
    spans = [s for s in tracer.spans if s[5] in runs]
    counts = Counter()
    for r in runs:
        counts.update(tracer.run_counts[r])
    by_id = {s[0]: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s[4], []).append(s)

    def dur(s):
        return (s[3] - s[2]) * scale / 1e9

    def self_s(s):
        kids = [(k[2], k[3]) for k in children.get(s[0], ())]
        return (s[3] - s[2] - _covered_ns(kids, s[2], s[3])) * scale / 1e9

    def named(name):
        return [s for s in spans if s[1] == name]

    norm_names = {"spaces." + n for n in NORMS}
    top_norms = [
        s for s in spans
        if s[1] in norm_names and (s[4] not in by_id or by_id[s[4]][1] not in norm_names)
    ]
    tails = named("frames.shrinking_tail") + named("frames.boundedly_complete_tail")
    suites = [s for s in spans if s[1].startswith("verify.suite.")]
    run_alls = named("verify.run_all")
    pooled = [s for s in suites if s[4] in {r[0] for r in run_alls}]
    wait = sum((s[2] - by_id[s[4]][2]) * scale / 1e9 for s in pooled)
    # Suite threads waiting for the interpreter lock use no CPU, so this
    # reads about 1/workers when the pool gives no speed-up.
    capacity = sum((r[3] - r[2]) / 1e9 * tracer.workers.get(r[0], 1) for r in run_alls)
    pair_calls = counts["frame_pair"]

    m = {
        "catalog.build_calls": len(named("catalog.frame_from_label")),
        "catalog.build_s": sum(map(dur, named("catalog.frame_from_label"))),
        "catalog.build_alloc_peak_mib": max(
            (tracer.alloc_peaks.get(r, 0.0) for r in runs), default=0.0),
        "frames.derive_rng_calls": len(named("frames.derive_rng")),
        "frames.derive_rng_s": sum(map(dur, named("frames.derive_rng"))),
        "frames.sweep_pairs": counts["sweep_pairs"],
        "frames.sweep_gen_s": sum(map(dur, named("frames.ball_pair_sweep"))),
        "frames.coeff_products_calls": len(named("frames.coefficient_products")),
        "frames.coeff_products_s": sum(map(dur, named("frames.coefficient_products"))),
        "frames.batch_route_calls": counts["batch_route"],
        "frames.generic_route_calls": counts["generic_route"],
        "frames.frame_pair_calls": pair_calls,
        "frames.zero_pairs": counts["zero_pairs"],
        "frames.useful_pair_ratio": (
            (pair_calls - counts["zero_pairs"]) / pair_calls if pair_calls else 0.0),
        "frames.uncond_probe_calls": len(named("frames.unconditional_probe")),
        "frames.uncond_probe_s": sum(map(dur, named("frames.unconditional_probe"))),
        "frames.uncond_terms": counts["uncond_terms"],
        "frames.tail_calls": len(tails),
        "frames.tail_s": sum(map(dur, tails)),
        "frames.tail_terms": counts["tail_terms"],
        "frames.synthesis_s": sum(map(dur, named("frames.synthesis_partial"))),
        "spaces.elements_built": counts["elements_built"],
        "spaces.norm_calls": len(top_norms),
        "spaces.norm_s": sum(map(dur, top_norms)),
        "spaces.pairing_calls": counts["pairing_calls"],
        **{f"verify.suite_s.{n}": sum(map(dur, named(f"verify.suite.{n}")))
           for n in SUITE_NAMES},
        "verify.suite_self_s": sum(map(self_s, suites)),
        "verify.task_wait_s": wait,
        "verify.parallel_efficiency": (
            counts["suite_cpu_ns"] / 1e9 / capacity if capacity else 0.0),
        "verify.serialize_s": sum(map(dur, named("verify.write_reports"))),
        "verify.report_bytes": counts["report_bytes"],
        "cli.self_s": sum(map(self_s, named("cli.main"))),
        "trace.run_s": round_s,
    }
    return m
