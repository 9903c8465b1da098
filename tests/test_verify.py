"""Experiment suites, report bundles, and their determinism contract."""

import dataclasses
import itertools
import json
import sys

import numpy as np
import pytest

import framekit.frames as frames_module
import framekit.verify as verify
from framekit.catalog import frame_from_label
from framekit.frames import besselian_sweep, sweep_constants
from framekit.frames import dual_frame, estimate_frame_constant
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
    with pytest.raises(ValueError):
        ExperimentSpec(label="l1-canonical", rel_tol=0.0)


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
        rows = besselian_sweep(frame_from_label(label), spec.schedule, spec.samples, spec.seed)
        constants = sweep_constants(rows)
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
    calls, synthesized, frames = [], [], {}
    sweep_arrays = verify.sweep_arrays

    def spy(*args):
        calls.append(("sweep_arrays", args[0].label))
        return sweep_arrays(*args)

    monkeypatch.setattr(verify, "sweep_arrays", spy)
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
        bundle = run_all(specs, workers=4, suites=suites)
        assert len(set(synthesized)) == len(synthesized)
        assert {label for label, _role, _n in synthesized} == set(labels)
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


def test_cold_run_all_on_shared_labels_writes_the_serial_bytes():
    # Two specs per label share one frame, its descriptors and what they
    # cache (extreme points and norms, zero-pair ranks); from a cold start
    # the workers race to build them.
    labels = ("l1-canonical", "haar:p=3:J=4", "amalgam:p=3:q=1.5:J=2:window=-3,1")
    specs = [mini_spec(label, seed=seed) for seed in (3, 4) for label in labels]
    frame_from_label.cache_clear()
    serial = run_all(specs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter lock over often
    try:
        frame_from_label.cache_clear()
        parallel = run_all(specs, workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert parallel.to_json() == serial.to_json()
    assert parallel.to_csv() == serial.to_csv()


def test_run_all_draws_each_trial_once_per_run(monkeypatch):
    # Haar and the amalgam share the seed, 50 trials and N = 4, 16, 64,
    # 256: one table per run holds their draws, so a run draws 200 (trial,
    # truncation) pairs for Haar and 50 more for the amalgam's N = 274, and
    # derives 50 streams for each
    draws, streams, tables = [], [], []
    trial_draws, derive_rng = frames_module._trial_draws, frames_module.derive_rng
    unconditional_sweep = verify.unconditional_sweep

    def drawn(rngs, starts, N):
        draws.append(len(rngs))
        return trial_draws(rngs, starts, N)

    def derived(seed, *keys):
        streams.append(keys[0])
        return derive_rng(seed, *keys)

    def sweep(*args):
        tables.append(args[-1])
        return unconditional_sweep(*args)

    monkeypatch.setattr(frames_module, "_trial_draws", drawn)
    monkeypatch.setattr(frames_module, "derive_rng", derived)
    monkeypatch.setattr(verify, "unconditional_sweep", sweep)
    specs = default_specs()
    first = run_all(specs)
    assert sum(draws) == 250
    assert streams.count("unconditional") == 100
    # one table for every spec of the run, holding read-only arrays only
    assert len(tables) == len(specs) and all(t is tables[0] for t in tables)
    assert len(tables[0]) == 5
    for position, signs in tables[0].values():
        assert type(position) is type(signs) is np.ndarray
        assert not position.flags.writeable and not signs.flags.writeable
    # no table outlives its run: a second run draws everything again
    first_table = tables[0]
    draws.clear()
    streams.clear()
    tables.clear()
    second = run_all(specs)
    assert sum(draws) == 250 and streams.count("unconditional") == 100
    assert len(tables) == len(specs) and tables[0] is not first_table
    assert second.to_json() == first.to_json()


def test_shared_draws_give_the_serial_bytes_on_any_worker_count():
    # the tasks race to fill one table; whichever task draws a truncation,
    # every report keeps the bytes of one worker and of specs run alone
    specs = default_specs()
    serial = run_all(specs)
    alone = [run_all([spec]) for spec in specs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter lock over often
    try:
        two = run_all(specs, workers=2)
        many = run_all(specs + specs, workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert two.to_json() == serial.to_json() and two.to_csv() == serial.to_csv()
    assert many.reports[::2] == serial.reports
    by_spec = {(r.suite, r.label): r for bundle in alone for r in bundle.reports}
    assert [by_spec[(r.suite, r.label)] for r in serial.reports] == list(serial.reports)


def test_bundle_json_round_trip():
    bundle = run_all([mini_spec("l1-canonical", samples=10)], suites=("besselian",))
    back = ReportBundle.from_json_obj(json.loads(bundle.to_json()))
    assert back.to_json() == bundle.to_json()


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
