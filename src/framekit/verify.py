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

import csv
import dataclasses
import io
import json
import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from . import __version__
from .catalog import frame_from_label
from .frames import (
    _HORIZON_FACTOR,
    Frame,
    _integer,
    _memo,
    _zero_pair_scan,
    check_schedule,
    covering_truncation,
    frame_has_zero_elements,
    seeded_ball_points,
    sweep_arrays,
    unconditional_sweep,
    worst_tails,
)

__all__ = [
    "JsonRecord",
    "ProbeResult",
    "FrameReport",
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
    "reflexivity_probe",
    "run_all",
    "write_reports",
    "json_text",
    "csv_text",
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


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


class JsonRecord:
    """A frozen dataclass serialized field by field: ``to_json_obj`` maps
    each field's name to its value, and ``from_json_obj`` passes the same
    keys back to the constructor, whose __post_init__ restores the types.
    A missing key raises KeyError; other keys are ignored."""

    def to_json_obj(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @classmethod
    def from_json_obj(cls, obj):
        return cls(**{f.name: obj[f.name] for f in dataclasses.fields(cls)})


@dataclass(frozen=True)
class ProbeResult(JsonRecord):
    """One measured figure: (metric name, truncation, value, pass/fail).

    ``passed`` is None for purely informational rows (no pass criterion).
    """

    name: str
    truncation: int
    value: float
    passed: Optional[bool] = None
    tolerance: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "truncation", int(self.truncation))
        object.__setattr__(self, "value", float(self.value))
        if self.passed is not None:
            object.__setattr__(self, "passed", bool(self.passed))
        if self.tolerance is not None:
            object.__setattr__(self, "tolerance", float(self.tolerance))
        if not math.isfinite(self.value):
            raise ValueError(f"probe {self.name!r} produced non-finite {self.value}")


@dataclass(frozen=True)
class FrameReport(JsonRecord):
    """Everything one suite run measured on one frame.

    Reproducible from (label, truncation, seed, samples): no timestamps, no
    environment state.  Serializes to JSON and to flat CSV rows of
    (suite, frame, N, metric, value, pass).
    """

    label: str
    suite: str
    truncation: int
    constant: float
    seed: int
    samples: int
    probes: tuple[ProbeResult, ...] = ()
    verdict: Optional[str] = None
    flags: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "truncation", int(self.truncation))
        object.__setattr__(self, "constant", float(self.constant))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "samples", int(self.samples))
        if not math.isfinite(self.constant) or self.constant < 0.0:
            raise ValueError(f"constant must be finite and >= 0, got {self.constant}")
        object.__setattr__(self, "probes", tuple(self.probes))
        object.__setattr__(self, "flags", tuple(self.flags))
        object.__setattr__(self, "notes", tuple(self.notes))

    def all_pass(self) -> bool:
        return all(p.passed is not False for p in self.probes)

    def to_json_obj(self) -> dict:
        return {**super().to_json_obj(), "probes": [p.to_json_obj() for p in self.probes]}

    @classmethod
    def from_json_obj(cls, obj) -> "FrameReport":
        probes = [ProbeResult.from_json_obj(p) for p in obj["probes"]]
        return super().from_json_obj({**obj, "probes": probes})

    def csv_rows(self) -> list[list[str]]:
        rows = []
        for p in self.probes:
            passed = "" if p.passed is None else ("pass" if p.passed else "fail")
            rows.append(
                [self.suite, self.label, str(p.truncation), p.name, repr(p.value), passed]
            )
        return rows


VERDICT_CONSISTENT = "consistent with reflexive"
VERDICT_NON_SHRINKING = "non-shrinking witness found"
VERDICT_NON_BOUNDEDLY_COMPLETE = "non-boundedly-complete witness found"
VERDICT_INCONCLUSIVE = "inconclusive"
VERDICT_DEGENERATE = "degenerate"


@dataclass(frozen=True)
class ExperimentSpec(JsonRecord):
    """Everything a suite needs to be reproducible; the James suite reads
    schedule, probe_samples (random candidates per probe leg), seed and
    tail_tol."""

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
        object.__setattr__(self, "schedule", check_schedule(self.schedule))
        for name in ("samples", "seed", "trials", "uncond_elements", "probe_samples"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
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
            tol = getattr(self, name)
            if not (math.isfinite(tol) and tol > 0):
                raise ValueError(f"{name} must be positive and finite, got {tol}")


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

    run_all's task for a spec makes one and passes it to the spec's suites,
    on one thread (the draw table, shared by the run's tasks, only gains
    entries that are functions of their keys); a suite called without one
    makes its own, with a table of its own.
    """

    def __init__(self, spec: ExperimentSpec, draws: Optional[dict] = None) -> None:
        self.spec = spec
        self.frame = frame_from_label(spec.label)
        self.draws = {} if draws is None else draws

    @_memo
    def sweep(self) -> tuple[list[float], list[float]]:
        """(constant, margin) per scheduled truncation, where the margin is
        the max of besselian_sum - L-hat ||x|| ||x*|| over the swept pairs."""
        spec = self.spec
        nx, nxs, S = sweep_arrays(self.frame, spec.schedule, spec.samples, spec.seed)
        lhat = S.max(axis=0)
        # (lhat * nx) * nxs is Python's left-to-right lhat * nx * nxs.
        margins = (S - lhat * nx[:, None] * nxs[:, None]).max(axis=0)
        return lhat.tolist(), margins.tolist()


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _report(spec: ExperimentSpec, suite: str, probes, **fields) -> FrameReport:
    """The report of spec's suite with rows probes: spec's label and seed,
    its last truncation, its sample budget and constant 0.0 unless fields
    give them, and any other FrameReport field from fields."""
    fields = {"constant": 0.0, "samples": spec.samples, **fields}
    return FrameReport(
        spec.label, suite, spec.schedule[-1], seed=spec.seed, probes=probes, **fields
    )


def _zero_flags(F: Frame, spec: ExperimentSpec) -> tuple[str, ...]:
    """("zero-elements",) when a pair of F up to spec's last truncation has
    a zero vector or functional, else ()."""
    return ("zero-elements",) if frame_has_zero_elements(F, spec.schedule[-1]) else ()


def run_besselian_suite(
    spec: ExperimentSpec, shared: Optional[_SpecResults] = None
) -> FrameReport:
    """Constant estimates per truncation plus bound checks over the sweep.

    The bound row verifies besselian_sum(x, x*) <= L-hat * ||x|| * ||x*||
    for every swept pair, where L-hat is the estimate over the same sweep
    (so its budget is a superset of every pair it is checked against).
    """
    shared = shared or _SpecResults(spec)
    n_max = spec.schedule[-1]
    constants, margins = shared.sweep
    flags = _zero_flags(shared.frame, spec)

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
        flags += ("degenerate",)
    return _report(spec, "besselian", probes, constant=constants[-1], flags=flags)


def run_duality_suite(
    spec: ExperimentSpec, shared: Optional[_SpecResults] = None
) -> FrameReport:
    """Constant estimates for a frame and its dual frame at matched budgets.

    The dual frame's sweep is the frame's sweep mirrored, and the besselian
    sum is symmetric under that mirror (see frames.duality_constant_check),
    so one sweep gives both columns, and the relative gap
    |primal - dual| / max(primal, dual) is 0 by construction.  The gap row
    gets teeth only from an estimator that is not mirror-symmetric.
    """
    shared = shared or _SpecResults(spec)
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
    return _report(
        spec, "duality", probes, constant=constants[-1], flags=_zero_flags(shared.frame, spec)
    )


def reflexivity_probe(F: Frame, spec: ExperimentSpec) -> FrameReport:
    """Decay evidence for the shrinking and boundedly-complete properties.

    For each scheduled truncation N each leg's row is the worst tail norm
    over a fixed candidate family (deterministic extreme points first, then
    seeded random draws) with horizon M = 2N (frames.worst_tails).  Verdicts
    are evidence, never proofs: tails that decay below the tolerance are
    "consistent with reflexive"; a tail that stalls is a witness once the
    schedule reaches the frame's full truncation (before it, the tail may
    still vanish, and the leg stays undecided with a note); anything in
    between is inconclusive.  Frames that are identically zero up to the
    probe horizon are flagged degenerate.  The spec gives the schedule, the
    random candidates per leg (probe_samples), the seed and the tail
    tolerance; the report is the James suite's.
    """
    schedule = spec.schedule
    probes: list[ProbeResult] = []
    notes: list[str] = []

    any_zero, degenerate = _zero_pair_scan(F, _HORIZON_FACTOR * schedule[-1])
    settled = F.full_truncation is None or schedule[-1] >= F.full_truncation

    def run_leg(name: str, dual: bool) -> tuple[str, float]:
        # A NaN tail makes its row raise (ProbeResult).
        values = worst_tails(F, dual, schedule, spec.probe_samples, spec.seed)
        probes.extend(ProbeResult(f"{name}-tail", N, v) for N, v in zip(schedule, values))
        first, last = values[0], values[-1]
        if last <= spec.tail_tol:
            return "ok", last
        if last < 0.5 * first:
            return "undecided", last
        if settled:
            return "witness", last  # the tail stalled instead of decaying
        notes.append(
            f"{name} tail stalls at {last:.6g}, but the schedule ends before the "
            f"full truncation {F.full_truncation}, where it may still vanish"
        )
        return "undecided", last

    shrink_state, shrink_last = run_leg("shrinking", True)
    if F.space.bidual_representable:
        bc_state, bc_last = run_leg("boundedly-complete", False)
    else:
        bc_state = "not representable"
        notes.append(
            "boundedly-complete leg skipped: bidual elements have no finite "
            "representation on this space"
        )

    if degenerate:
        verdict = VERDICT_DEGENERATE
    elif shrink_state == "witness":
        verdict = VERDICT_NON_SHRINKING
        notes.append(
            f"shrinking tail stalls at {shrink_last:.6g} "
            f"(first candidate is the constant all-ones pattern)"
        )
    elif bc_state == "witness":
        verdict = VERDICT_NON_BOUNDEDLY_COMPLETE
        notes.append(f"boundedly-complete tail stalls at {bc_last:.6g}")
    elif shrink_state == "ok" and bc_state == "ok":
        verdict = VERDICT_CONSISTENT
    else:
        verdict = VERDICT_INCONCLUSIVE

    conclusive = verdict != VERDICT_INCONCLUSIVE
    probes.append(
        ProbeResult("verdict-conclusive", schedule[-1], float(conclusive), passed=conclusive)
    )
    return _report(
        spec,
        "james",
        probes,
        samples=spec.probe_samples,
        verdict=verdict,
        flags=("zero-elements",) if any_zero else (),
        notes=notes,
    )


def run_james_suite(
    spec: ExperimentSpec, shared: Optional[_SpecResults] = None
) -> FrameReport:
    """Shrinking / boundedly-complete decay probe with fixed verdict strings.

    A conclusive verdict -- decay consistent with reflexivity, or an explicit
    non-shrinking / non-boundedly-complete witness -- counts as a pass; only
    "inconclusive" fails the suite.
    """
    F = shared.frame if shared else frame_from_label(spec.label)
    return reflexivity_probe(F, spec)


def run_unconditionality_suite(
    spec: ExperimentSpec, shared: Optional[_SpecResults] = None
) -> FrameReport:
    """Rearrangement and sign-flip stability of partial expansions.

    Pass/fail applies only at truncations that cover exact reconstruction of
    every sampled element (finite sums commute, so the deviation must vanish
    there); shorter truncations are reported as information.
    """
    shared = shared or _SpecResults(spec)
    F = shared.frame
    elements = seeded_ball_points(F.space, spec.seed, "uncond-element", spec.uncond_elements)
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
    return _report(
        spec,
        "unconditionality",
        probes,
        samples=spec.uncond_elements,
        flags=_zero_flags(F, spec),
        notes=notes,
    )


SUITES: dict[str, Callable[..., FrameReport]] = {
    "besselian": run_besselian_suite,
    "duality": run_duality_suite,
    "james": run_james_suite,
    "unconditionality": run_unconditionality_suite,
}


def _failed_report(spec: ExperimentSpec, suite: str, exc: Exception) -> FrameReport:
    """The report of a suite that raised exc: one failed suite-error row."""
    row = ProbeResult("suite-error", spec.schedule[-1], 0.0, passed=False)
    return _report(spec, suite, [row], notes=[f"{type(exc).__name__}: {exc}"])


# ---------------------------------------------------------------------------
# bundles
# ---------------------------------------------------------------------------


def json_text(obj) -> str:
    """obj as an artifact's JSON text: strict (a non-finite number raises
    ValueError, before any file is opened), keys sorted, indent 2, one
    trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def csv_text(header: list[str], rows: Iterable[list[str]]) -> str:
    """The header and rows as an artifact's CSV text, with "\\n" line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@dataclass(frozen=True)
class ReportBundle(JsonRecord):
    """A manifest plus reports sorted by (suite, frame label)."""

    manifest: dict
    reports: tuple[FrameReport, ...]

    def all_pass(self) -> bool:
        return all(r.all_pass() for r in self.reports)

    def to_json_obj(self) -> dict:
        return {**super().to_json_obj(), "reports": [r.to_json_obj() for r in self.reports]}

    def to_json(self) -> str:
        return json_text(self.to_json_obj())

    def to_csv(self) -> str:
        header = ["suite", "frame", "N", "metric", "value", "pass"]
        return csv_text(header, (row for r in self.reports for row in r.csv_rows()))

    @classmethod
    def from_json_obj(cls, obj) -> "ReportBundle":
        reports = tuple(FrameReport.from_json_obj(r) for r in obj["reports"])
        return super().from_json_obj({**obj, "reports": reports})


def run_all(
    specs: Iterable[ExperimentSpec],
    workers: int = 1,
    suites: Optional[Iterable[str]] = None,
) -> ReportBundle:
    """Run the selected suites (default: all) over the specs.

    Each spec is one task, which passes one _SpecResults to the selected
    suites in order, so the spec's unit-ball sweep is computed once and
    shared by the suites that read it, and dropped when the task ends (each
    frame keeps its own zero-pair scan, extreme-pair sums and atom table,
    which no seed or budget changes).  Every task gets the run's one
    table of trial draws, so specs with the same seed and trials draw each
    truncation's permutations and signs once; the table holds only
    read-only arrays, and is dropped when the run ends.  With workers > 1
    the tasks run on a thread pool.  A suite that raises an Exception gives
    a failed report (_failed_report), and the other suites still run.
    Reports are sorted afterwards, and every random draw is keyed by (seed,
    purpose, index), so the bundle is byte-identical whatever the degree of
    parallelism.
    """
    specs = tuple(specs)
    names = tuple(sorted(suites)) if suites is not None else tuple(sorted(SUITES))
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")

    draws: dict = {}

    def run_spec(spec):
        shared = _SpecResults(spec, draws)
        reports = []
        for name in names:
            start = time.perf_counter()
            try:
                reports.append(SUITES[name](spec, shared))
            except Exception as exc:
                log.exception("suite %s on %s raised", name, spec.label)
                reports.append(_failed_report(spec, name, exc))
            log.info(
                "suite %s on %s finished in %.3f s",
                name,
                spec.label,
                time.perf_counter() - start,
            )
        return reports

    if workers <= 1:
        per_spec = [run_spec(spec) for spec in specs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_spec = list(pool.map(run_spec, specs))
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
