"""Runnable experiment suites over the frame catalog.

Each suite turns one structural claim into measurements with explicit
truncations and pass/fail rows: besselian bounds and constant estimates,
matched-budget duality of constants, shrinking / boundedly-complete decay
(the reflexivity probe), and rearrangement stability of partial sums.

Everything a suite emits is a pure function of its ExperimentSpec.  Bundles
carry no timestamps and no environment state, so two runs with the same
specs are byte-identical regardless of worker count; wall-clock times are
logged, never serialized.
"""

from __future__ import annotations

import contextvars
import csv
import io
import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional

from . import __version__
from .catalog import frame_from_label
from .frames import (
    FrameReport,
    ProbeConfig,
    ProbeResult,
    covering_truncation,
    frame_has_zero_elements,
    reflexivity_probe,
    seeded_ball_point,
    sweep_arrays,
    unconditional_sweep,
    validate_schedule,
)

__all__ = [
    "ExperimentSpec",
    "ReportBundle",
    "DEFAULT_FRAME_LABELS",
    "SUITES",
    "default_specs",
    "spec_for_label",
    "run_besselian_suite",
    "run_duality_suite",
    "run_james_suite",
    "run_unconditionality_suite",
    "run_all",
    "write_reports",
]

log = logging.getLogger(__name__)

DEFAULT_FRAME_LABELS = (
    "l1-canonical",
    "haar:p=2:J=8",
    "amalgam:p=2:q=2:J=4:window=-1,1",
)

_DEFAULT_SCHEDULE = (4, 16, 64, 256)
# Appending a frame's exact-reconstruction horizon to the schedule is only
# worth it while the suites stay interactive.
_FULL_TRUNCATION_CAP = 1024


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything a suite needs to be reproducible."""

    label: str
    schedule: tuple[int, ...] = _DEFAULT_SCHEDULE
    samples: int = 2000
    seed: int = 42
    trials: int = 50
    uncond_elements: int = 3
    probe_samples: int = 8
    abs_tol: float = 1e-9
    rel_tol: float = 0.05
    deviation_tol: float = 1e-10
    tail_tol: float = 1e-6

    def __post_init__(self) -> None:
        object.__setattr__(self, "schedule", validate_schedule(self.schedule))
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.uncond_elements < 1:
            raise ValueError(
                f"need at least one probe element, got {self.uncond_elements}"
            )
        if self.probe_samples < 0:
            raise ValueError(f"probe samples must be >= 0, got {self.probe_samples}")
        for name in ("abs_tol", "rel_tol", "deviation_tol", "tail_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    def to_json_obj(self) -> dict:
        return {
            "label": self.label,
            "schedule": list(self.schedule),
            "samples": self.samples,
            "seed": self.seed,
            "trials": self.trials,
            "uncond_elements": self.uncond_elements,
            "probe_samples": self.probe_samples,
            "abs_tol": self.abs_tol,
            "rel_tol": self.rel_tol,
            "deviation_tol": self.deviation_tol,
            "tail_tol": self.tail_tol,
        }

    @classmethod
    def from_json_obj(cls, obj) -> "ExperimentSpec":
        return cls(
            label=obj["label"],
            schedule=tuple(obj["schedule"]),
            samples=int(obj["samples"]),
            seed=int(obj["seed"]),
            trials=int(obj["trials"]),
            uncond_elements=int(obj["uncond_elements"]),
            probe_samples=int(obj["probe_samples"]),
            abs_tol=float(obj["abs_tol"]),
            rel_tol=float(obj["rel_tol"]),
            deviation_tol=float(obj["deviation_tol"]),
            tail_tol=float(obj["tail_tol"]),
        )


def spec_for_label(label: str, **overrides) -> ExperimentSpec:
    """A spec with a schedule adapted to the frame's representable range.

    Truncations beyond the frame's rank range are dropped; the frame's
    exact-reconstruction horizon is appended when it is modest enough to
    keep the suites interactive.
    """
    if "schedule" in overrides and overrides["schedule"] is not None:
        return ExperimentSpec(label=label, **overrides)
    overrides.pop("schedule", None)
    F = frame_from_label(label)
    sched = list(_DEFAULT_SCHEDULE)
    if F.max_rank is not None:
        sched = [n for n in sched if n <= F.max_rank]
        if not sched:
            sched = [F.max_rank]
    full = F.full_truncation
    if full is not None and full <= _FULL_TRUNCATION_CAP and full > sched[-1]:
        sched.append(full)
    return ExperimentSpec(label=label, schedule=tuple(sched), **overrides)


def default_specs() -> tuple[ExperimentSpec, ...]:
    return tuple(spec_for_label(label) for label in DEFAULT_FRAME_LABELS)


# ---------------------------------------------------------------------------
# results that several suites of one spec share
# ---------------------------------------------------------------------------


class _SpecResults:
    """The results that several suites of one spec read: the frame, and the
    sweep's constants and margins, computed on first use; and draws, the
    run's table of the unconditionality probe's trial draws (see
    frames.unconditional_sweep).

    run_all's task for a spec makes one and runs the spec's suites against
    it, on one thread, so no entry needs a lock (the draw table, shared by
    the run's tasks, only gains entries that are functions of their keys);
    a suite called on its own makes its own and so computes its own, with a
    table of its own.
    """

    def __init__(self, spec: ExperimentSpec, draws: Optional[dict] = None) -> None:
        self.spec = spec
        self.frame = frame_from_label(spec.label)
        self.draws = {} if draws is None else draws

    @cached_property
    def sweep(self) -> tuple[list[float], list[float]]:
        """(constant, margin) per scheduled truncation, where the margin is
        the max of besselian_sum - L-hat ||x|| ||x*|| over the swept pairs."""
        spec = self.spec
        nx, nxs, S = sweep_arrays(self.frame, spec.schedule, spec.samples, spec.seed)
        lhat = S.max(axis=0)
        # (lhat * nx) * nxs is Python's left-to-right lhat * nx * nxs.
        margins = (S - lhat * nx[:, None] * nxs[:, None]).max(axis=0)
        return lhat.tolist(), margins.tolist()


# The results of the spec whose run_all task is running.  Only that task
# sets it, in a context of its own.
_SPEC_RESULTS: contextvars.ContextVar[Optional[_SpecResults]] = contextvars.ContextVar(
    "framekit_spec_results", default=None
)


def _results_for(spec: ExperimentSpec) -> _SpecResults:
    results = _SPEC_RESULTS.get()
    if results is None or results.spec is not spec:
        results = _SpecResults(spec)
    return results


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def run_besselian_suite(spec: ExperimentSpec) -> FrameReport:
    """Constant estimates per truncation plus bound checks over the sweep.

    The bound row verifies besselian_sum(x, x*) <= L-hat * ||x|| * ||x*||
    for every swept pair, where L-hat is the estimate over the same sweep
    (so its budget is a superset of every pair it is checked against).
    """
    shared = _results_for(spec)
    n_max = spec.schedule[-1]
    constants, margins = shared.sweep
    flags = ["zero-elements"] if frame_has_zero_elements(shared.frame, n_max) else []

    probes: list[ProbeResult] = []
    for N, lhat, margin in zip(spec.schedule, constants, margins):
        probes.append(ProbeResult("constant", N, lhat))
        probes.append(
            ProbeResult(
                "besselian-bound-margin",
                N,
                margin,
                passed=margin <= spec.abs_tol,
                tolerance=spec.abs_tol,
            )
        )
    monotone = all(a <= b for a, b in zip(constants, constants[1:]))
    probes.append(
        ProbeResult(
            "constant-monotone",
            n_max,
            1.0 if monotone else 0.0,
            passed=monotone,
        )
    )
    if flags and constants[-1] == 0.0:
        flags.append("degenerate")
    return FrameReport(
        label=spec.label,
        suite="besselian",
        truncation=n_max,
        constant=constants[-1],
        seed=spec.seed,
        samples=spec.samples,
        probes=tuple(probes),
        flags=tuple(flags),
    )


def run_duality_suite(spec: ExperimentSpec) -> FrameReport:
    """Constant estimates for a frame and its dual frame at matched budgets.

    The dual frame's sweep is the frame's sweep mirrored, and the besselian
    sum is symmetric under that mirror (see frames.duality_constant_check),
    so one sweep gives both columns, and the relative gap
    |primal - dual| / max(primal, dual) is 0 by construction.  The gap row
    gets teeth only from an estimator that is not mirror-symmetric.
    """
    shared = _results_for(spec)
    n_max = spec.schedule[-1]
    constants, _ = shared.sweep

    probes: list[ProbeResult] = []
    for N, lhat in zip(spec.schedule, constants):
        probes.append(ProbeResult("constant-primal", N, lhat))
        probes.append(ProbeResult("constant-dual", N, lhat))
        probes.append(
            ProbeResult(
                "duality-gap-rel", N, 0.0, passed=True, tolerance=spec.rel_tol
            )
        )
    return FrameReport(
        label=spec.label,
        suite="duality",
        truncation=n_max,
        constant=constants[-1],
        seed=spec.seed,
        samples=spec.samples,
        probes=tuple(probes),
        flags=("zero-elements",) if frame_has_zero_elements(shared.frame, n_max) else (),
    )


def run_james_suite(spec: ExperimentSpec) -> FrameReport:
    """Shrinking / boundedly-complete decay probe with fixed verdict strings.

    A conclusive verdict -- decay consistent with reflexivity, or an explicit
    non-shrinking / non-boundedly-complete witness -- counts as a pass; only
    "inconclusive" fails the suite.
    """
    F = frame_from_label(spec.label)
    cfg = ProbeConfig(
        schedule=spec.schedule,
        samples=spec.probe_samples,
        seed=spec.seed,
        tail_tol=spec.tail_tol,
    )
    return reflexivity_probe(F, cfg, suite="james")


def run_unconditionality_suite(spec: ExperimentSpec) -> FrameReport:
    """Rearrangement and sign-flip stability of partial expansions.

    Pass/fail applies only at truncations that cover exact reconstruction of
    every sampled element (finite sums commute, so the deviation must vanish
    there); shorter truncations are reported as information.
    """
    shared = _results_for(spec)
    F = shared.frame
    elements = [
        seeded_ball_point(F.space, spec.seed, "uncond-element", k)
        for k in range(spec.uncond_elements)
    ]
    coverings = [covering_truncation(F, x) for x in elements]
    cover_all: Optional[int] = None
    if all(c is not None for c in coverings):
        cover_all = max(coverings) if coverings else None

    probes: list[ProbeResult] = []
    notes: list[str] = []
    if cover_all is None:
        notes.append(
            "no finite covering truncation for the sampled elements; all rows informational"
        )
    schedule = tuple(
        N for N in spec.schedule if F.max_rank is None or N <= F.max_rank
    )
    per_truncation = unconditional_sweep(
        F, elements, schedule, spec.trials, spec.seed, shared.draws
    )
    for N, results in zip(schedule, per_truncation):
        deviation = max(r.deviation for r in results)
        flip = max(r.sign_flip_norm for r in results)
        checkable = cover_all is not None and N >= cover_all
        probes.append(
            ProbeResult(
                "permutation-deviation",
                N,
                deviation,
                passed=deviation <= spec.deviation_tol if checkable else None,
                tolerance=spec.deviation_tol if checkable else None,
            )
        )
        probes.append(ProbeResult("signflip-partial-norm", N, flip))
    return FrameReport(
        label=spec.label,
        suite="unconditionality",
        truncation=spec.schedule[-1],
        constant=0.0,
        seed=spec.seed,
        samples=spec.uncond_elements,
        probes=tuple(probes),
        flags=("zero-elements",) if frame_has_zero_elements(F, spec.schedule[-1]) else (),
        notes=tuple(notes),
    )


SUITES: dict[str, Callable[[ExperimentSpec], FrameReport]] = {
    "besselian": run_besselian_suite,
    "duality": run_duality_suite,
    "james": run_james_suite,
    "unconditionality": run_unconditionality_suite,
}


# ---------------------------------------------------------------------------
# bundles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReportBundle:
    """A manifest plus reports sorted by (suite, frame label)."""

    manifest: dict
    reports: tuple[FrameReport, ...]

    def all_pass(self) -> bool:
        return all(r.all_pass() for r in self.reports)

    def to_json_obj(self) -> dict:
        return {
            "manifest": self.manifest,
            "reports": [r.to_json_obj() for r in self.reports],
        }

    def to_json(self) -> str:
        return (
            json.dumps(self.to_json_obj(), indent=2, sort_keys=True, allow_nan=False)
            + "\n"
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["suite", "frame", "N", "metric", "value", "pass"])
        for report in self.reports:
            writer.writerows(report.csv_rows())
        return buf.getvalue()

    @classmethod
    def from_json_obj(cls, obj) -> "ReportBundle":
        return cls(
            manifest=obj["manifest"],
            reports=tuple(FrameReport.from_json_obj(r) for r in obj["reports"]),
        )


def run_all(
    specs: Iterable[ExperimentSpec],
    workers: int = 1,
    suites: Optional[Iterable[str]] = None,
) -> ReportBundle:
    """Run the selected suites (default: all) over the specs.

    Each spec is one task, which runs the selected suites in order against
    one _SpecResults, so the spec's unit-ball sweep is computed once and
    shared by the suites that read it, and dropped when the task ends (each
    frame records its own zero-pair scan).  Every task gets the run's one
    table of trial draws, so specs with the same seed and trials draw each
    truncation's permutations and signs once; the table holds only
    read-only arrays, and is dropped when the run ends.  With workers > 1
    the tasks run on a thread pool.
    Reports are sorted afterwards, and every random draw is keyed by (seed,
    purpose, index), so the bundle is byte-identical whatever the degree of
    parallelism.
    """
    specs = tuple(specs)
    names = tuple(sorted(suites)) if suites is not None else tuple(sorted(SUITES))
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")

    def run_spec(spec, draws):
        _SPEC_RESULTS.set(_SpecResults(spec, draws))  # in this task's own context
        reports = []
        for name in names:
            start = time.perf_counter()
            reports.append(SUITES[name](spec))
            log.info(
                "suite %s on %s finished in %.3f s",
                name,
                spec.label,
                time.perf_counter() - start,
            )
        return reports

    draws: dict = {}

    def task(spec):
        return contextvars.copy_context().run(run_spec, spec, draws)

    if workers <= 1:
        per_spec = [task(spec) for spec in specs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_spec = list(pool.map(task, specs))
    reports = [report for spec_reports in per_spec for report in spec_reports]

    manifest = {
        "version": __version__,
        "suites": list(names),
        "specs": [
            s.to_json_obj() for s in sorted(specs, key=lambda s: s.label)
        ],
    }
    return ReportBundle(
        manifest=manifest,
        reports=tuple(sorted(reports, key=lambda r: (r.suite, r.label))),
    )


def write_reports(bundle: ReportBundle, out_dir: str) -> tuple[str, str]:
    """Write report.json and report.csv under out_dir; returns the paths."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "report.json")
    csv_path = os.path.join(out_dir, "report.csv")
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(bundle.to_json())
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(bundle.to_csv())
    return json_path, csv_path
