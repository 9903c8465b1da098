"""The benchmark's workloads: seeded inputs, timed calls, term counts, checks.

``setup(name, seed, workdir, small)`` imports framekit, builds the frames
for the workload's labels and makes the seeded inputs; the time it takes is
the ``setup_s`` metric.  It returns the calls of one round: each call is one
operation, timed on its own and checked after the clock stops.  framekit is
imported inside ``setup`` so that a fresh process can time the import.

``small`` shrinks every size for the check self-test; the benchmark never
sets it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import checks

HAAR_P = 3.0
HAAR_J, HAAR_SAMPLES, HAAR_ELEMENTS = 11, 8, 8
L1_SCHEDULE = (4, 16, 64, 256, 512)  # horizons up to 2 * 512 = 1024
SMALL_LABELS = ("l1-canonical", "haar:p=2:J=4", "amalgam:p=2:q=2:J=2:window=-1,1")
SMALL_SAMPLES = 16
# suite-parallel runs the default labels and schedules with fewer samples
# and trials, so that several rounds fit in one run and the median over
# rounds absorbs a stalled one.
PARALLEL_SAMPLES, PARALLEL_TRIALS = 200, 5


@dataclass
class Op:
    """One operation: a call to time and a check of its output."""

    call: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass
class Round:
    ops: list[Op]
    terms: int  # frame terms one round covers; see terms_of_spec


# ---------------------------------------------------------------------------
# terms: fixed by the workload's arguments, not counted from the program
# ---------------------------------------------------------------------------


def sweep_pairs(label: str, samples: int) -> int:
    """Pairs of one unit-ball sweep: extreme pairs plus seeded samples.

    The extreme-pair counts are those of the sweep the workloads were
    defined with (l1: 12 x 33 signed points; Haar: 32 x 32 normalised steps;
    amalgam: 8 steps per window cell on each side).  They stay fixed, so a
    sweep that skips pairs raises terms_per_s.
    """
    f = checks.parse_label(label)
    if f["kind"] == "l1-canonical":
        extreme = 12 * 33
    elif f["kind"] == "haar":
        extreme = min(2 ** f["J"], 32) ** 2
    else:
        extreme = ((f["hi"] - f["lo"] + 1) * min(2 ** f["J"], 8)) ** 2
    return extreme + samples


def terms_of_spec(spec) -> int:
    """Terms of the four suites on one spec."""
    label, schedule = spec.label, spec.schedule
    cap = checks.max_rank(label)
    n_max = schedule[-1]
    pairs = sweep_pairs(label, spec.samples)
    sweeps = 3 * pairs * n_max  # besselian, duality primal and dual
    uncond = spec.uncond_elements * sum(
        N * (1 + 2 * spec.trials) for N in schedule if cap is None or N <= cap)
    legs = 1 if label == "l1-canonical" else 2
    candidates = 4 + spec.probe_samples  # extreme candidates + random draws
    horizon = (lambda N: 2 * N) if cap is None else (lambda N: max(N, min(2 * N, cap)))
    tails = legs * candidates * sum(horizon(N) - N for N in schedule)
    return sweeps + uncond + tails


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def suite_specs(seed: int, small: bool, **overrides):
    from framekit import verify

    if small:
        return [verify.spec_for_label(lbl, seed=seed, samples=SMALL_SAMPLES)
                for lbl in SMALL_LABELS]
    return [verify.spec_for_label(lbl, seed=seed, **overrides)
            for lbl in verify.DEFAULT_FRAME_LABELS]


def _bundle_check(specs):
    schedules = {s.label: s.schedule for s in specs}
    return lambda obj: checks.check_bundle(obj, schedules)


def suite_default(seed: int, workdir: str, small: bool) -> Round:
    """`framekit suite all` in process; with small, one call per small label."""
    from framekit import cli

    specs = suite_specs(seed, small)
    argv = ["suite", "all", "--seed", str(seed), "--out", workdir]
    calls = [(argv, specs)]
    if small:
        calls = [(argv + ["--frame", s.label, "--samples", str(s.samples)], [s])
                 for s in specs]

    def call(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(code, check_bundle):
        if code != 0:
            return [f"framekit suite all exited {code}"]
        with open(os.path.join(workdir, "report.json"), encoding="utf-8") as fh:
            obj = json.load(fh)
        with open(os.path.join(workdir, "report.csv"), encoding="utf-8") as fh:
            text = fh.read()
        return checks.check_same_rows(obj, text) + check_bundle(obj)

    return Round(
        ops=[Op(lambda a=a: call(a), lambda code, c=_bundle_check(ss): check(code, c))
             for a, ss in calls],
        terms=sum(terms_of_spec(s) for s in specs),
    )


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def suite_parallel(seed: int, workdir: str, small: bool) -> Round:
    """verify.run_all over the default labels on nproc worker threads."""
    from framekit import verify

    specs = tuple(suite_specs(seed, small, samples=PARALLEL_SAMPLES,
                              trials=PARALLEL_TRIALS))
    check_bundle = _bundle_check(specs)

    def check(bundle):
        obj = bundle.to_json_obj()
        return checks.check_same_rows(obj, bundle.to_csv()) + check_bundle(obj)

    return Round(
        ops=[Op(lambda: verify.run_all(specs, workers=nproc()), check)],
        terms=sum(terms_of_spec(s) for s in specs),
    )


def haar_fine(seed: int, workdir: str, small: bool) -> Round:
    """Duality check and full reconstructions on a fine Haar grid at p = 3."""
    import numpy as np

    from framekit import catalog, frames, spaces

    J, samples, count = (5, 2, 2) if small else (HAAR_J, HAAR_SAMPLES, HAAR_ELEMENTS)
    N = 2**J
    F = catalog.frame_from_label(f"haar:p={HAAR_P:g}:J={J}")
    rng = np.random.default_rng(seed)
    inputs = [spaces.GridFunction(J, rng.standard_normal(N)) for _ in range(count)]

    ops = [Op(lambda: frames.duality_constant_check(F, N, samples, seed),
              lambda est: checks.check_haar_estimates(est, HAAR_P))]
    for x in inputs:
        ops.append(Op(
            lambda x=x: frames.synthesis_partial(F, x, N),
            lambda y, x=x: checks.check_reconstruction(x.coefficients, y.coefficients,
                                                       HAAR_P),
        ))
    terms = 2 * sweep_pairs(F.label, samples) * N + count * N
    return Round(ops=ops, terms=terms)


def l1_tails(seed: int, workdir: str, small: bool) -> Round:
    """The James suite on the canonical l1 frame out to horizon 1024."""
    from framekit import catalog, verify

    schedule = (4, 16, 64) if small else L1_SCHEDULE
    catalog.frame_from_label("l1-canonical")
    spec = verify.ExperimentSpec(label="l1-canonical", schedule=schedule, seed=seed)
    candidates = 4 + spec.probe_samples
    return Round(
        ops=[Op(lambda: verify.run_james_suite(spec),
                lambda rep: checks.check_l1_james(rep.to_json_obj(), schedule))],
        terms=candidates * sum(schedule),  # horizon 2N: M - N = N per candidate
    )


WORKLOADS = {
    "suite-default": suite_default,
    "suite-parallel": suite_parallel,
    "haar-fine": haar_fine,
    "l1-tails": l1_tails,
}


def setup(name: str, seed: int, workdir: str, small: bool = False) -> Round:
    return WORKLOADS[name](seed, workdir, small)
