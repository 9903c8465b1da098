"""Experiment suites, report bundles, and their determinism contract."""

import dataclasses
import itertools
import json
import sys
import threading

import numpy as np
import pytest

import framekit.catalog as catalog
import framekit.frames as frames_module
import framekit.verify as verify
from framekit.catalog import frame_from_label
from framekit.cli import main
from framekit.frames import dual_frame, estimate_frame_constant
from framekit.frames import seeded_ball_point, unconditional_sweep
from framekit.verify import (
    DEFAULT_FRAME_LABELS,
    SUITES,
    ExperimentSpec,
    ReportBundle,
    default_specs,
    run_all,
    run_besselian_suite,
    run_duality_suite,
    run_james_suite,
    run_unconditionality_suite,
    spec_for_label,
    write_reports,
)


def mini_spec(label, **kw):
    defaults = dict(schedule=(2, 8), samples=15, probe_samples=3, trials=5)
    defaults.update(kw)
    return ExperimentSpec(label=label, **defaults)


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(label="l1-canonical", schedule=())
    with pytest.raises(ValueError):
        ExperimentSpec(label="l1-canonical", schedule=(4, 4))
    with pytest.raises(ValueError):
        ExperimentSpec(label="l1-canonical", schedule=(16, 4))
    with pytest.raises(ValueError):
        ExperimentSpec(label="l1-canonical", samples=0)
    # every tolerance is positive and finite: NaN fails every comparison,
    # so a "<= 0" check let it through, and the bundle then failed to
    # serialize
    for name in ("abs_tol", "rel_tol", "deviation_tol", "tail_tol"):
        for bad in (float("nan"), float("inf"), float("-inf"), 0.0, -1.0):
            with pytest.raises(ValueError, match=name):
                ExperimentSpec(label="l1-canonical", **{name: bad})


def test_spec_counts_seed_and_schedule_are_integers():
    # a float count failed deep inside the besselian and duality suites, a
    # float schedule entry was truncated, and a float seed was written to
    # the manifest as given but hashed as its truncation
    for name in ("samples", "seed", "trials", "uncond_elements", "probe_samples"):
        for bad in (20.5, 20.0, True, "20", None):
            with pytest.raises(ValueError, match=name):
                ExperimentSpec(label="l1-canonical", **{name: bad})
    for bad in ((4.5, 16), (4, 16.0), (True, 16), (4, np.float64(16))):
        with pytest.raises(ValueError, match="schedule"):
            ExperimentSpec(label="l1-canonical", schedule=bad)
    obj = mini_spec("l1-canonical").to_json_obj()
    for name, bad in (("samples", 20.5), ("seed", 1.5), ("schedule", [4.5, 16])):
        with pytest.raises(ValueError, match=name):
            ExperimentSpec.from_json_obj(json.loads(json.dumps({**obj, name: bad})))
    # numpy integers are integers, and are stored as Python ints, so the
    # manifest still serializes
    spec = ExperimentSpec(
        label="l1-canonical", schedule=(np.int64(4), np.int32(16)), samples=np.int64(20),
        seed=np.uint8(7), trials=np.int16(3), uncond_elements=np.int64(2),
        probe_samples=np.int64(0),
    )
    assert spec == ExperimentSpec(
        label="l1-canonical", schedule=(4, 16), samples=20, seed=7, trials=3,
        uncond_elements=2, probe_samples=0,
    )
    assert all(type(v) is int for v in spec.schedule)
    assert all(
        type(getattr(spec, name)) is int
        for name in ("samples", "seed", "trials", "uncond_elements", "probe_samples")
    )
    json.dumps(spec.to_json_obj())


def test_spec_round_trip():
    spec = mini_spec("haar:p=2:J=3", seed=7)
    assert ExperimentSpec.from_json_obj(json.loads(json.dumps(spec.to_json_obj()))) == spec


def test_spec_for_label_adapts_schedule():
    assert spec_for_label("l1-canonical").schedule == (4, 16, 64, 256)
    assert spec_for_label("haar:p=2:J=8").schedule == (4, 16, 64, 256)
    # ranks above 2^J are dropped; a modest exact-reconstruction horizon is
    # appended
    assert spec_for_label("haar:p=2:J=3").schedule == (4, 8)
    assert spec_for_label("amalgam:p=2:q=2:J=4:window=-1,1").schedule == (
        4, 16, 64, 256, 274,
    )
    assert spec_for_label("haar:p=2:J=5", schedule=(2, 3)).schedule == (2, 3)


def test_default_specs_cover_default_labels():
    specs = default_specs()
    assert tuple(s.label for s in specs) == DEFAULT_FRAME_LABELS
    assert all(s.samples == 2000 and s.seed == 42 for s in specs)


# ---------------------------------------------------------------------------
# individual suites
# ---------------------------------------------------------------------------


def test_besselian_suite_l1():
    report = run_besselian_suite(mini_spec("l1-canonical"))
    assert report.all_pass()
    constants = [p.value for p in report.probes if p.name == "constant"]
    assert constants == [1.0, 1.0]
    assert report.constant == 1.0
    monotone = [p for p in report.probes if p.name == "constant-monotone"]
    assert len(monotone) == 1 and monotone[0].passed


def test_besselian_suite_haar_p2():
    report = run_besselian_suite(mini_spec("haar:p=2:J=3", samples=60))
    assert report.all_pass()
    assert report.constant == pytest.approx(1.0, abs=1e-6)


def test_besselian_suite_zero_frame_is_degenerate():
    report = run_besselian_suite(mini_spec("zero"))
    assert report.constant == 0.0
    assert "degenerate" in report.flags
    assert "zero-elements" in report.flags
    assert report.all_pass()  # a flagged frame is not a failed check


def test_duality_suite_rows():
    report = run_duality_suite(mini_spec("haar:p=1.5:J=3", samples=40))
    assert report.all_pass()
    gaps = [p for p in report.probes if p.name == "duality-gap-rel"]
    assert len(gaps) == 2
    assert all(g.value <= 0.05 and g.passed for g in gaps)
    report = run_duality_suite(mini_spec("haar:p=2:J=3", samples=40))
    primal = [p.value for p in report.probes if p.name == "constant-primal"]
    dual = [p.value for p in report.probes if p.name == "constant-dual"]
    assert primal[-1] == pytest.approx(1.0, abs=1e-6)
    assert dual[-1] == pytest.approx(1.0, abs=1e-6)
    report = run_duality_suite(mini_spec("l1-canonical"))
    primal = [p.value for p in report.probes if p.name == "constant-primal"]
    dual = [p.value for p in report.probes if p.name == "constant-dual"]
    assert primal[-1] == 1.0
    assert abs(dual[-1] - 1.0) <= 1e-9


def test_james_suite_verdicts():
    assert run_james_suite(mini_spec("haar:p=3:J=3")).verdict == "consistent with reflexive"
    report = run_james_suite(mini_spec("l1-canonical"))
    assert report.verdict == "non-shrinking witness found"
    assert report.suite == "james"
    assert report.all_pass()
    # the amalgam frame needs its full horizon (rank 74 at J=3) in the
    # schedule before the tails can vanish
    amalgam = run_james_suite(mini_spec("amalgam:p=2:q=2:J=3:window=-1,1", schedule=(4, 16, 74)))
    assert amalgam.verdict == "consistent with reflexive"


DECAY, STALL, HALVED = (1.0, 1e-8), (1.0, 0.9), (1.0, 0.4)
SHRINK_STALL = "shrinking tail stalls at 0.9 (first candidate is the constant all-ones pattern)"
BIDUAL_SKIPPED = (
    "boundedly-complete leg skipped: bidual elements have no finite representation on this space"
)
# id: (label, schedule, degenerate, shrinking tails, boundedly-complete
# tails or None for a leg that must not run, verdict, notes); haar:p=3:J=4
# reaches its full truncation at 16, and l1 has none
JUDGING = {
    "consistent": ("haar:p=3:J=4", (4, 16), False, DECAY, DECAY, "CONSISTENT", ()),
    "non-shrinking": ("haar:p=3:J=4", (4, 16), False, STALL, DECAY, "NON_SHRINKING",
                      (SHRINK_STALL,)),
    "non-boundedly-complete": ("haar:p=3:J=4", (4, 16), False, DECAY, STALL,
                               "NON_BOUNDEDLY_COMPLETE",
                               ("boundedly-complete tail stalls at 0.9",)),
    "shrinking-witness-first": ("haar:p=3:J=4", (4, 16), False, STALL, STALL, "NON_SHRINKING",
                                (SHRINK_STALL,)),
    "undecided": ("haar:p=3:J=4", (4, 16), False, DECAY, HALVED, "INCONCLUSIVE", ()),
    "stall-before-full-truncation": (
        "haar:p=3:J=4", (2, 8), False, STALL, DECAY, "INCONCLUSIVE",
        ("shrinking tail stalls at 0.9, but the schedule ends before the full truncation "
         "16, where it may still vanish",),
    ),
    "degenerate-first": ("haar:p=3:J=4", (4, 16), True, STALL, STALL, "DEGENERATE", ()),
    "bidual-skipped": ("l1-canonical", (4, 16), False, DECAY, None, "INCONCLUSIVE",
                       (BIDUAL_SKIPPED,)),
    "bidual-skipped-witness": ("l1-canonical", (4, 16), False, STALL, None, "NON_SHRINKING",
                               (BIDUAL_SKIPPED, SHRINK_STALL)),
}


@pytest.mark.parametrize(
    "label, schedule, degenerate, shrinking, complete, verdict, notes",
    list(JUDGING.values()), ids=list(JUDGING),
)
def test_reflexivity_probe_judges_each_verdict(
    monkeypatch, label, schedule, degenerate, shrinking, complete, verdict, notes
):
    # the judging alone, on tails given per leg: every verdict, the
    # non-boundedly-complete one included, which no catalog frame reaches
    def tails(F, dual, sched, samples, seed):
        assert sched == schedule and (dual or complete is not None)
        return list(shrinking if dual else complete)

    monkeypatch.setattr(verify, "worst_tails", tails)
    monkeypatch.setattr(verify, "_zero_pair_scan", lambda F, upto: (degenerate, degenerate))
    spec = ExperimentSpec(label, schedule=schedule)
    report = verify.reflexivity_probe(frame_from_label(label), spec)
    assert report.verdict == getattr(verify, "VERDICT_" + verdict)
    assert report.notes == notes
    assert report.flags == (("zero-elements",) if degenerate else ())
    rows = {(p.name, p.truncation): p for p in report.probes}
    legs = [("shrinking", shrinking)] + ([("boundedly-complete", complete)] if complete else [])
    assert len(rows) == 2 * len(legs) + 1
    for name, values in legs:
        assert [rows[(f"{name}-tail", N)].value for N in schedule] == list(values)
    conclusive = rows[("verdict-conclusive", schedule[-1])]
    assert conclusive.passed is (verdict != "INCONCLUSIVE")
    assert conclusive.value == float(verdict != "INCONCLUSIVE")


def test_unconditionality_suite_rows():
    report = run_unconditionality_suite(mini_spec("haar:p=2:J=3"))
    assert report.all_pass()
    rows = {(p.name, p.truncation): p for p in report.probes}
    # N = 2 does not cover reconstruction: informational only
    assert rows[("permutation-deviation", 2)].passed is None
    # N = 8 covers level-3 elements exactly: checked and passing
    assert rows[("permutation-deviation", 8)].passed is True
    assert rows[("permutation-deviation", 8)].value <= 1e-10
    assert ("signflip-partial-norm", 8) in rows


def test_unconditionality_suite_amalgam():
    spec = mini_spec("amalgam:p=2:q=2:J=3:window=-1,1", schedule=(4, 74))
    report = run_unconditionality_suite(spec)
    assert report.all_pass()
    checked = [p for p in report.probes if p.name == "permutation-deviation" and p.passed is not None]
    assert checked and all(p.value <= 1e-10 for p in checked)


# ---------------------------------------------------------------------------
# bundles
# ---------------------------------------------------------------------------


def test_run_all_empty_is_empty_bundle_with_manifest():
    bundle = run_all(())
    assert bundle.reports == ()
    assert bundle.manifest["specs"] == []
    assert bundle.manifest["suites"] == sorted(SUITES)
    assert "version" in bundle.manifest
    assert bundle.all_pass()


def test_run_all_sorts_and_passes():
    specs = [mini_spec("haar:p=2:J=3", samples=25), mini_spec("l1-canonical", samples=25)]
    bundle = run_all(specs)
    assert len(bundle.reports) == len(SUITES) * 2
    keys = [(r.suite, r.label) for r in bundle.reports]
    assert keys == sorted(keys)
    assert bundle.all_pass()


def test_run_all_rejects_unknown_suite():
    with pytest.raises(ValueError):
        run_all([mini_spec("l1-canonical")], suites=("nope",))


def test_every_report_carries_its_spec_label():
    # the fields in another order name the same frame, whose own label
    # lists them in the catalog's order
    spec = mini_spec("haar:J=3:p=2")
    assert frame_from_label(spec.label).label == "haar:p=2:J=3"
    bundle = run_all([spec])
    assert [r.label for r in bundle.reports] == [spec.label] * len(SUITES)


def test_run_all_suite_subset():
    bundle = run_all([mini_spec("l1-canonical")], suites=("james",))
    assert [r.suite for r in bundle.reports] == ["james"]
    assert bundle.manifest["suites"] == ["james"]


def test_bundle_byte_identical_across_runs_and_workers():
    specs = [mini_spec("haar:p=2:J=3", samples=20), mini_spec("l1-canonical", samples=20)]
    one = run_all(specs, workers=1)
    again = run_all(specs, workers=1)
    parallel = run_all(specs, workers=8)
    assert one.to_json() == again.to_json() == parallel.to_json()
    assert one.to_csv() == again.to_csv() == parallel.to_csv()


def test_shared_sweep_rows_match_per_frame_estimates():
    specs = [spec_for_label(label, samples=50) for label in DEFAULT_FRAME_LABELS]
    bundle = run_all(specs, suites=("besselian", "duality"))
    for spec in specs:
        F = frame_from_label(spec.label)
        Fd = dual_frame(F)
        rows = {
            (r.suite, p.name, p.truncation): p.value
            for r in bundle.reports
            if r.label == spec.label
            for p in r.probes
        }
        for N in spec.schedule:
            lhat = estimate_frame_constant(F, N, spec.samples, spec.seed)
            assert rows[("besselian", "constant", N)] == lhat
            assert rows[("duality", "constant-primal", N)] == lhat
            ld = estimate_frame_constant(Fd, N, spec.samples, spec.seed)
            assert rows[("duality", "constant-dual", N)] == ld


def test_sweep_margins_match_the_per_pair_generator():
    # the margins on arrays are bit for bit Python's left-to-right
    # sums[i] - lhat * nx * nxs, maximized pair by pair
    for label in DEFAULT_FRAME_LABELS + ("haar:p=3:J=6",):
        spec = spec_for_label(label)
        nx, nxs, S = frames_module.sweep_arrays(
            frame_from_label(label), spec.schedule, spec.samples, spec.seed
        )
        rows = list(zip(nx.tolist(), nxs.tolist(), S.tolist()))
        constants = [max(sums[i] for _, _, sums in rows) for i in range(len(spec.schedule))]
        margins = [
            max(sums[i] - lhat * nx * nxs for nx, nxs, sums in rows)
            for i, lhat in enumerate(constants)
        ]
        got = verify._SpecResults(spec).sweep
        assert [[v.hex() for v in vs] for vs in got] == [
            [v.hex() for v in vs] for vs in (constants, margins)
        ]


def _scan_spied_frames(labels, synthesized):
    """Fresh frames for the labels whose syntheses record (label, role,
    rank) for every unit vector the zero-pair scan passes them."""
    def counted(label, role, synth):
        def wrapped(units):
            if sys._getframe(1).f_code.co_name == "_zero_pair_scan":
                ranks = units.argmax(axis=-1) + 1
                synthesized.extend((label, role, int(n)) for n in ranks)
            return synth(units)

        return wrapped

    frames = {}
    for label in labels:
        F = frame_from_label(label)
        a = counted(label, "a", F.synth_batch)
        b = a if F.dual_synth_batch is F.synth_batch else counted(label, "b", F.dual_synth_batch)
        frames[label] = dataclasses.replace(F, synth_batch=a, dual_synth_batch=b)
    return frames


def test_run_all_sweeps_each_spec_once(monkeypatch):
    calls, synthesized, frames, received = [], [], {}, []
    sweep_arrays = verify.sweep_arrays

    def spy(*args):
        calls.append(("sweep_arrays", args[0].label))
        return sweep_arrays(*args)

    def spied(suite):
        def wrapped(spec, shared=None):
            received.append((spec.label, shared))
            return suite(spec, shared)

        return wrapped

    monkeypatch.setattr(verify, "sweep_arrays", spy)
    for name, suite in list(SUITES.items()):
        monkeypatch.setitem(SUITES, name, spied(suite))
    monkeypatch.setattr(verify, "frame_from_label", lambda label: frames[label])
    specs = [
        mini_spec("l1-canonical"),
        mini_spec("haar:p=2:J=3"),
        mini_spec("amalgam:p=2:q=2:J=2:window=-1,1"),
    ]
    labels = [s.label for s in specs]
    once = sorted(("sweep_arrays", label) for label in labels)

    def run(suites=None):
        # each run starts from frames that have scanned nothing; across the
        # run no rank goes through one synthesis twice in the zero-pair scan
        frames.update(_scan_spied_frames(labels, synthesized))
        synthesized.clear()
        received.clear()
        bundle = run_all(specs, workers=4, suites=suites)
        assert len(set(synthesized)) == len(synthesized)
        assert {label for label, _role, _n in synthesized} == set(labels)
        # every selected suite of a spec gets the spec's one _SpecResults,
        # and no two specs get the same one
        by_label = {}
        for label, shared in received:
            by_label.setdefault(label, []).append(shared)
        assert sorted(by_label) == sorted(labels)
        for label, got in by_label.items():
            assert len(got) == len(suites or SUITES)
            assert got[0].spec.label == label and all(s is got[0] for s in got)
        assert len({id(got[0]) for got in by_label.values()}) == len(labels)
        return bundle

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter lock over often
    try:
        # every selection: one sweep per spec if besselian or duality runs
        for k in range(1, len(SUITES) + 1):
            for suites in itertools.combinations(sorted(SUITES), k):
                calls.clear()
                run(suites)
                assert sorted(calls) == (once if {"besselian", "duality"} & set(suites) else [])
        # nothing outlives the call: a second run computes everything again
        calls.clear()
        first = run()
        second = run()
        assert sorted(calls) == sorted(once + once)
    finally:
        sys.setswitchinterval(interval)
    assert first.to_json() == second.to_json() == run_all(specs).to_json()
    # a suite called directly computes its own
    calls.clear()
    run_besselian_suite(specs[0])
    run_duality_suite(specs[0])
    assert [c[0] for c in calls] == ["sweep_arrays", "sweep_arrays"]
    # suites given one _SpecResults sweep once between them
    calls.clear()
    shared = verify._SpecResults(specs[0])
    run_besselian_suite(specs[0], shared)
    run_duality_suite(specs[0], shared)
    assert [c[0] for c in calls] == ["sweep_arrays"]


def _cold_start() -> None:
    """Drop every cached frame and trial draw, so that the next run builds
    its frames, their descriptors' caches and every memo entry anew."""
    catalog._catalog_frame.cache_clear()
    frames_module._trial_draws.cache_clear()


def test_cold_run_all_on_shared_labels_writes_the_serial_bytes():
    # Two specs per label share one frame, its descriptors and what they
    # cache (extreme points and norms, zero-pair ranks, the frame's memo
    # entries); from a cold start the workers race to build them.
    labels = ("l1-canonical", "haar:p=3:J=4", "amalgam:p=3:q=1.5:J=2:window=-3,1")
    specs = [mini_spec(label, seed=seed) for seed in (3, 4) for label in labels]
    _cold_start()
    serial = run_all(specs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter lock over often
    try:
        _cold_start()
        parallel = run_all(specs, workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert parallel.to_json() == serial.to_json()
    assert parallel.to_csv() == serial.to_csv()


def test_run_all_draws_each_trial_once_per_process(monkeypatch):
    # Haar and the amalgam share the seed, 50 trials and N = 4, 16, 64,
    # 256: from a cold draw memo a run derives one stream per (trial,
    # truncation), 200 for Haar and 50 more for the amalgam's N = 274;
    # verify passes no draw table, and a second run derives none
    streams, arguments = [], []
    derive_rng, unconditional_sweep = frames_module.derive_rng, verify.unconditional_sweep

    def derived(seed, *keys):
        streams.append(keys)
        return derive_rng(seed, *keys)

    def sweep(*args, **kwargs):
        arguments.append((len(args), kwargs))
        return unconditional_sweep(*args, **kwargs)

    monkeypatch.setattr(frames_module, "derive_rng", derived)
    monkeypatch.setattr(verify, "unconditional_sweep", sweep)
    specs = default_specs()
    frames_module._trial_draws.cache_clear()
    first = run_all(specs)
    trials = [keys[1] for keys in streams if keys[0] == "unconditional"]
    assert len(trials) == 250
    assert sorted(trials) == sorted(list(range(50)) * 5)
    assert arguments == [(5, {})] * len(specs)
    # the memo holds read-only arrays, one entry per (seed, trials, N)
    draws = frames_module._trial_draws
    assert draws.cache_info().currsize == 5
    streams.clear()
    for N in (4, 16, 64, 256, 274):
        position, signs = draws(42, 50, N)
        assert type(position) is type(signs) is np.ndarray
        assert not position.flags.writeable and not signs.flags.writeable
    # the memo outlives the run: a second run derives no trial stream
    second = run_all(specs)
    assert [keys for keys in streams if keys[0] == "unconditional"] == []
    assert second.to_json() == first.to_json()


def test_shared_draws_give_the_serial_bytes_on_any_worker_count():
    # from a cold start the tasks race to fill the memos; whichever task
    # builds an entry, every report keeps the bytes of one worker and of
    # specs run alone
    specs = default_specs()
    serial = run_all(specs)
    alone = [run_all([spec]) for spec in specs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter lock over often
    try:
        _cold_start()
        two = run_all(specs, workers=2)
        _cold_start()
        many = run_all(specs + specs, workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert two.to_json() == serial.to_json() and two.to_csv() == serial.to_csv()
    assert many.reports[::2] == serial.reports
    by_spec = {(r.suite, r.label): r for bundle in alone for r in bundle.reports}
    assert [by_spec[(r.suite, r.label)] for r in serial.reports] == list(serial.reports)


def test_run_all_sweeps_specs_concurrently(monkeypatch):
    # each spec's sweep waits for the other's: the barrier breaks unless
    # the two tasks sweep at the same time, and the duality suite reads the
    # besselian suite's sweep without sweeping again
    barrier = threading.Barrier(2, timeout=10)
    sweep_arrays = verify.sweep_arrays

    def waiting(*args):
        barrier.wait()
        return sweep_arrays(*args)

    specs = [mini_spec("l1-canonical"), mini_spec("haar:p=2:J=4")]
    suites = ("besselian", "duality")
    serial = run_all(specs, suites=suites)
    monkeypatch.setattr(verify, "sweep_arrays", waiting)
    parallel = run_all(specs, workers=2, suites=suites)
    assert not barrier.broken
    assert parallel.to_json() == serial.to_json()


def test_a_suite_that_raises_gives_a_failed_report(monkeypatch, tmp_path):
    specs = [mini_spec("l1-canonical"), mini_spec("haar:p=2:J=4")]
    intact = run_all(specs)

    def boom(spec, shared=None):
        raise RuntimeError(f"no probe for {spec.label}")

    monkeypatch.setitem(SUITES, "james", boom)
    bundles = [run_all(specs, workers=w) for w in (1, 2)]
    assert bundles[0].to_json() == bundles[1].to_json()
    assert bundles[0].to_csv() == bundles[1].to_csv()
    failed = [r for r in bundles[0].reports if r.suite == "james"]
    assert [r.label for r in failed] == sorted(s.label for s in specs)
    for report in failed:
        assert [(p.name, p.passed) for p in report.probes] == [("suite-error", False)]
        assert report.notes == (f"RuntimeError: no probe for {report.label}",)
    # the other suites' reports are kept as they were
    kept = [r for r in bundles[0].reports if r.suite != "james"]
    assert kept == [r for r in intact.reports if r.suite != "james"]
    assert not bundles[0].all_pass()
    # the bundle is still written, and the run exits 2
    argv = ["suite", "all", "--frame", "l1-canonical", "--samples", "15", "--out"]
    assert main(argv + [str(tmp_path / "w1")]) == 2
    assert main(argv + [str(tmp_path / "w2"), "--workers", "2"]) == 2
    for name in ("report.json", "report.csv"):
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()
    report = json.loads((tmp_path / "w1" / "report.json").read_text())["reports"]
    assert [r["suite"] for r in report if r["notes"]] == ["james"]


def test_the_unconditionality_suite_draws_its_elements_as_one_block(monkeypatch):
    # rows 0..E-1 of the "uncond-element" stream, one draw, and each is the
    # element seeded_ball_point gives for its index
    seen, draws = [], []

    def sweep(F, elements, *args):
        seen.append(list(elements))
        return unconditional_sweep(F, elements, *args)

    def ball_blocks(space, seed, purpose, bounds, original=frames_module._ball_blocks):
        draws.append((purpose, list(bounds)))
        return original(space, seed, purpose, bounds)

    monkeypatch.setattr(verify, "unconditional_sweep", sweep)
    monkeypatch.setattr(frames_module, "_ball_blocks", ball_blocks)
    for label in DEFAULT_FRAME_LABELS:
        spec = mini_spec(label, uncond_elements=5, seed=11)
        F = frame_from_label(label)
        draws.clear()
        run_unconditionality_suite(spec)
        assert draws == [("uncond-element", [(0, 5)])], label
        assert seen.pop() == [
            seeded_ball_point(F.space, 11, "uncond-element", k) for k in range(5)
        ], label


def test_bundle_json_round_trip():
    bundle = run_all([mini_spec("l1-canonical", samples=10)], suites=("besselian",))
    back = ReportBundle.from_json_obj(json.loads(bundle.to_json()))
    assert back.to_json() == bundle.to_json()
    with pytest.raises(ValueError):  # artifacts are strict JSON
        verify.json_text({"value": float("nan")})


def test_bundle_csv_shape():
    bundle = run_all([mini_spec("l1-canonical", samples=10)], suites=("besselian", "james"))
    lines = bundle.to_csv().splitlines()
    assert lines[0] == "suite,frame,N,metric,value,pass"
    assert len(lines) > 1
    assert all(line.count(",") == 5 for line in lines)


def test_write_reports_creates_files(tmp_path):
    bundle = run_all([mini_spec("l1-canonical", samples=10)], suites=("besselian",))
    json_path, csv_path = write_reports(bundle, str(tmp_path / "out"))
    with open(json_path, encoding="utf-8") as fh:
        assert ReportBundle.from_json_obj(json.load(fh)).to_json() == bundle.to_json()
    with open(csv_path, encoding="utf-8") as fh:
        assert fh.read() == bundle.to_csv()
