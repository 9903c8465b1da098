"""Exit codes, artifacts, and stdout contract of the command-line front door."""

import csv
import json
import time
import tracemalloc

import numpy as np
import pytest

import framekit.cli as cli
import framekit.verify as verify
from framekit.catalog import frame_from_label
from framekit.cli import main
from framekit.frames import estimate_frame_constant, synthesis_partial
from framekit.spaces import AmalgamFunction, GridFunction, SeqVector, amalgam_norm, grid_lp_norm
from framekit.verify import FrameReport, ProbeResult


@pytest.fixture(autouse=True)
def in_tmp_dir(tmp_path, monkeypatch):
    # artifacts default to the working directory; keep them out of the repo
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FRAMEKIT_SEED", raising=False)
    return tmp_path


def write_element(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def seq_file(tmp_path, pairs, name="elem.json"):
    return write_element(tmp_path / name, SeqVector.from_pairs(pairs).to_json_obj())


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------


def test_expand_l1_exact(tmp_path, capsys):
    elem = seq_file(tmp_path, [(1, 5.0), (2, 7.0), (3, 11.0)])
    assert main(["expand", "--frame", "l1-canonical", "--input", elem, "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "residual: 0" in out
    artifact = json.loads((tmp_path / "expand.json").read_text())
    assert artifact["coefficients"] == [5.0, 7.0, 11.0]
    assert artifact["residual"] == 0.0
    # the partial sum round-trips through the space deserializer
    assert SeqVector.from_json_obj(artifact["partial_sum"]) == SeqVector.from_pairs(
        [(1, 5.0), (2, 7.0), (3, 11.0)]
    )


def test_expand_defaults_to_covering_truncation(tmp_path):
    elem = seq_file(tmp_path, [(2, 1.0), (6, -2.0)])
    assert main(["expand", "--frame", "l1-canonical", "--input", elem]) == 0
    artifact = json.loads((tmp_path / "expand.json").read_text())
    assert artifact["truncation"] == 6
    assert artifact["residual"] == 0.0


def test_expand_haar_h3(tmp_path):
    h3 = write_element(tmp_path / "h3.json", GridFunction(2, (1.0, -1.0, 0.0, 0.0)).to_json_obj())
    assert main(["expand", "--frame", "haar:p=2:J=4", "--input", h3, "--n", "16"]) == 0
    artifact = json.loads((tmp_path / "expand.json").read_text())
    assert artifact["residual"] <= 1e-12
    rebuilt = GridFunction.from_json_obj(artifact["partial_sum"])
    assert grid_lp_norm(rebuilt - GridFunction(2, (1.0, -1.0, 0.0, 0.0)), 2.0) <= 1e-12


def test_expand_truncation_zero_reports_full_norm(tmp_path, capsys):
    elem = seq_file(tmp_path, [(1, 3.0), (2, -4.0)])
    assert main(["expand", "--frame", "l1-canonical", "--input", elem, "--n", "0"]) == 0
    artifact = json.loads((tmp_path / "expand.json").read_text())
    assert artifact["residual"] == 7.0
    assert artifact["coefficients"] == []
    assert "residual: 7" in capsys.readouterr().out


def test_expand_csv_format(tmp_path):
    elem = seq_file(tmp_path, [(1, 1.5), (2, 2.5)])
    out = tmp_path / "coeffs.csv"
    assert main([
        "expand", "--frame", "l1-canonical", "--input", elem,
        "--n", "2", "--format", "csv", "--out", str(out),
    ]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows == [["n", "coefficient"], ["1", "1.5"], ["2", "2.5"]]


def test_expand_usage_errors(tmp_path, capsys):
    elem = seq_file(tmp_path, [(1, 1.0)])
    assert main(["expand", "--input", elem]) == 1  # no frame
    assert main(["expand", "--frame", "nope", "--input", elem]) == 1
    assert main(["expand", "--frame", "l1-canonical"]) == 1  # no input
    bad = write_element(tmp_path / "bad.json", {"not": "an element"})
    assert main(["expand", "--frame", "l1-canonical", "--input", bad]) == 1
    # integer fields hold integers: no float and no bool is truncated into one
    amalgam = "amalgam:p=2:q=2:J=1:window=-1,1"
    for label, obj, field in (
        ("l1-canonical", [[1.5, 2.0]], "sequence index"),
        ("l1-canonical", [[True, 3.0]], "sequence index"),
        ("haar:p=2:J=2", {"level": 2.7, "coefficients": [1.0] * 4}, "level"),
        (amalgam, {"window": [-1.5, 1], "level": 0, "cells": {}}, "window bound"),
    ):
        capsys.readouterr()
        elem = write_element(tmp_path / "int.json", obj)
        assert main(["expand", "--frame", label, "--input", elem]) == 1
        assert f"{field} must be an integer" in capsys.readouterr().err
    assert main([
        "expand", "--frame", "haar:p=2:J=2", "--input",
        write_element(tmp_path / "f.json", GridFunction(1, (1.0, 0.0)).to_json_obj()),
        "--n", "9",
    ]) == 1
    assert "error:" in capsys.readouterr().err


def test_expand_rejects_non_finite_input(tmp_path, capsys):
    elem = tmp_path / "nan.json"
    elem.write_text('{"level": 1, "coefficients": [NaN, 1]}', encoding="utf-8")
    for cmd in (["expand"], ["tabulate", "--curve", "residual", "--schedule", "1,4"]):
        capsys.readouterr()
        assert main(cmd + ["--frame", "haar:p=2:J=2", "--input", str(elem)]) == 1
        assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "expand.json").exists()


# ---------------------------------------------------------------------------
# constant
# ---------------------------------------------------------------------------


def test_constant_l1(tmp_path, capsys):
    assert main(["constant", "--frame", "l1-canonical", "--n", "8", "--samples", "50"]) == 0
    out = capsys.readouterr().out
    assert "constant: 1" in out
    artifact = json.loads((tmp_path / "constant.json").read_text())
    assert artifact == {
        "frame": "l1-canonical",
        "truncation": 8,
        "samples": 50,
        "seed": 42,
        "constant": 1.0,
    }


def test_constant_defaults_to_full_truncation(tmp_path):
    assert main(["constant", "--frame", "haar:p=2:J=3", "--samples", "40"]) == 0
    artifact = json.loads((tmp_path / "constant.json").read_text())
    assert artifact["truncation"] == 8
    assert artifact["constant"] == pytest.approx(1.0, abs=1e-6)


def test_constant_seed_precedence(tmp_path, monkeypatch):
    monkeypatch.setenv("FRAMEKIT_SEED", "7")
    assert main(["constant", "--frame", "l1-canonical", "--n", "4", "--samples", "5"]) == 0
    assert json.loads((tmp_path / "constant.json").read_text())["seed"] == 7

    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 123\nsamples = 6\n", encoding="utf-8")
    assert main([
        "constant", "--frame", "l1-canonical", "--n", "4", "--config", str(cfg),
    ]) == 0
    artifact = json.loads((tmp_path / "constant.json").read_text())
    assert artifact["seed"] == 123  # config beats environment
    assert artifact["samples"] == 6

    assert main([
        "constant", "--frame", "l1-canonical", "--n", "4",
        "--seed", "9", "--config", str(cfg),
    ]) == 0
    assert json.loads((tmp_path / "constant.json").read_text())["seed"] == 9


def test_constant_rejects_bad_truncation():
    assert main(["constant", "--frame", "haar:p=2:J=2", "--n", "5"]) == 1
    assert main(["constant", "--frame", "l1-canonical", "--n", "0"]) == 1


def test_malformed_config_file(tmp_path):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("this line has no equals sign\n", encoding="utf-8")
    assert main(["constant", "--frame", "l1-canonical", "--config", str(cfg)]) == 1


@pytest.mark.parametrize("key", ["samples", "seed"])
def test_nan_in_a_config_file_exits_one(tmp_path, capsys, key):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(f"{key} = nan\n", encoding="utf-8")
    for argv in (
        ["constant", "--frame", "l1-canonical", "--n", "4"],
        ["suite", "james", "--frame", "l1-canonical", "--schedule", "4,16"],
        ["tabulate", "--frame", "l1-canonical", "--curve", "constant", "--schedule", "4"],
    ):
        capsys.readouterr()
        assert main(argv + ["--config", str(cfg)]) == 1
        assert "expected an integer, got 'nan'" in capsys.readouterr().err
    assert not list(tmp_path.glob("constant.*")) and not list(tmp_path.glob("report.*"))


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("seed = 5\nsampels = 5\n", 2, "unknown key 'sampels'"),
        ("samples = 5\n# comment\nsamples = 6\n", 3, "repeated key 'samples'"),
    ],
    ids=["unknown", "repeated"],
)
def test_unknown_or_repeated_config_keys_exit_one(tmp_path, capsys, text, line, message):
    # both exited 0 before: the misspelt key was ignored (2000 samples ran),
    # and the last of the repeated values won
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    for argv in (
        ["constant", "--frame", "l1-canonical", "--n", "4"],
        ["suite", "james", "--frame", "l1-canonical", "--schedule", "4,16"],
        ["tabulate", "--frame", "l1-canonical", "--curve", "constant", "--schedule", "4"],
    ):
        assert main(argv + ["--config", str(cfg)]) == 1, argv
        assert f"{cfg}:{line}: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_nan_seed_in_the_environment_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FRAMEKIT_SEED", "nan")
    assert main(["constant", "--frame", "l1-canonical", "--n", "4", "--samples", "5"]) == 1
    assert "expected an integer, got 'nan'" in capsys.readouterr().err
    assert not (tmp_path / "constant.json").exists()
    # an explicit seed is read first, so the environment is never parsed
    assert main(["constant", "--frame", "l1-canonical", "--n", "4", "--samples", "5", "--seed", "3"]) == 0


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def test_suite_single_frame_passes(tmp_path, capsys):
    assert main([
        "suite", "all", "--frame", "haar:p=2:J=3", "--samples", "20", "--out", str(tmp_path / "r"),
    ]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    bundle = json.loads((tmp_path / "r" / "report.json").read_text())
    assert {r["suite"] for r in bundle["reports"]} == {
        "besselian", "duality", "james", "unconditionality",
    }
    csv_lines = (tmp_path / "r" / "report.csv").read_text().splitlines()
    assert csv_lines[0] == "suite,frame,N,metric,value,pass"


def test_suite_james_l1_witness_is_success(tmp_path, capsys):
    assert main(["suite", "james", "--frame", "l1-canonical", "--out", str(tmp_path)]) == 0
    assert "non-shrinking witness found" in capsys.readouterr().out
    bundle = json.loads((tmp_path / "report.json").read_text())
    assert bundle["reports"][0]["verdict"] == "non-shrinking witness found"


def test_suite_unknown_name_is_usage_error(capsys):
    assert main(["suite", "nosuch"]) == 1
    assert "error:" in capsys.readouterr().err


def test_suite_failure_exits_two(tmp_path, monkeypatch):
    def failing(spec, shared=None):
        return FrameReport(
            label=spec.label, suite="james", truncation=4, constant=0.0,
            seed=spec.seed, samples=1,
            probes=(ProbeResult("verdict-conclusive", 4, 0.0, passed=False),),
            verdict="inconclusive",
        )

    monkeypatch.setitem(verify.SUITES, "james", failing)
    assert main([
        "suite", "james", "--frame", "l1-canonical", "--out", str(tmp_path),
    ]) == 2


def test_suite_stdout_formats(tmp_path, capsys):
    assert main([
        "suite", "besselian", "--frame", "l1-canonical", "--samples", "10",
        "--schedule", "2,4", "--out", str(tmp_path), "--format", "csv",
    ]) == 0
    out = capsys.readouterr().out
    assert out.startswith("suite,frame,N,metric,value,pass")


def test_suite_empty_schedule_is_usage_error():
    assert main(["suite", "besselian", "--frame", "l1-canonical", "--schedule", ""]) == 1


# ---------------------------------------------------------------------------
# tabulate
# ---------------------------------------------------------------------------


def test_tabulate_haar_residual_curve_is_nonincreasing(capsys):
    assert main([
        "tabulate", "--frame", "haar:p=2:J=4", "--curve", "residual",
        "--schedule", "1,2,4,8,16",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "N,residual"
    values = [float(row.split(",")[1]) for row in lines[1:]]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[-1] <= 1e-10


def test_tabulate_l1_tail_curve_is_constant_one(capsys):
    assert main([
        "tabulate", "--frame", "l1-canonical", "--curve", "shrinking-tail",
        "--schedule", "4,16,64",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "N,shrinking-tail"
    assert [row.split(",")[1] for row in lines[1:]] == ["1", "1", "1"]


def test_tabulate_empty_schedule_yields_header_only(capsys):
    assert main([
        "tabulate", "--frame", "l1-canonical", "--curve", "residual", "--schedule", "",
    ]) == 0
    assert capsys.readouterr().out == "N,residual\n"


def test_tabulate_constant_curve_to_file(tmp_path):
    out = tmp_path / "curve.csv"
    assert main([
        "tabulate", "--frame", "l1-canonical", "--curve", "constant",
        "--schedule", "2,4", "--samples", "10", "--out", str(out),
    ]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows == [["N", "constant"], ["2", "1"], ["4", "1"]]


@pytest.mark.parametrize(
    "label",
    ["haar:p=2:J=8", "haar:p=3:J=6", "amalgam:p=2:q=2:J=4:window=-1,1", "l1-canonical"],
)
def test_tabulate_constant_curve_matches_per_truncation_estimates(tmp_path, label):
    # one sweep over the sorted schedule gives each truncation's estimate
    # bit for bit, in the order the schedule was given
    out = tmp_path / "curve.json"
    assert main([
        "tabulate", "--frame", label, "--curve", "constant", "--schedule", "64,4,16,4",
        "--samples", "30", "--format", "json", "--out", str(out),
    ]) == 0
    rows = json.loads(out.read_text())["rows"]
    F = frame_from_label(label)
    assert rows == [[N, estimate_frame_constant(F, N, 30, 42)] for N in (64, 4, 16, 4)]


def test_oversized_label_exits_one(capsys):
    assert main(["constant", "--frame", "haar:p=2:J=20"]) == 1
    assert "J <= 12" in capsys.readouterr().err


def test_labels_with_unknown_or_repeated_fields_exit_one(tmp_path, capsys):
    # both exited 0 before: the unknown field was ignored, and the last p won
    for label, message in (
        ("haar:p=3:J=6:foo=1", "unknown field 'foo'"),
        ("haar:p=3:p=2:J=4", "repeated field 'p'"),
    ):
        assert main(["constant", "--frame", label, "--out", str(tmp_path / "c.json")]) == 1
        err = capsys.readouterr().err
        assert repr(label) in err and message in err, label


def test_exponents_past_the_sampler_cap_exit_one(capsys):
    # each of these ran before, with norms that overflowed or underflowed:
    # p = 1e4 and p = 1.000001 wrote suite-error rows and exited 2, p = 1e3
    # exited 0 with a quarter of its sampled x at zero, and p = 1e16 or
    # q = 1e16 failed on a conjugate rounded to 1 without naming the label
    for argv in (
        ["suite", "all", "--frame", "haar:p=1e4:J=3", "--samples", "50"],
        ["suite", "all", "--frame", "haar:p=1.000001:J=3", "--samples", "50"],
        ["suite", "all", "--frame", "haar:p=1e3:J=3", "--samples", "50"],
        ["constant", "--frame", "haar:p=1e16:J=2"],
        ["constant", "--frame", "amalgam:p=2:q=1e16:J=2:window=-1,1"],
    ):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        label = argv[argv.index("--frame") + 1]
        assert repr(label) in err and "its conjugate at most 256" in err, argv


def test_oversized_element_files_exit_one_before_allocation(tmp_path, capsys):
    grid = write_element(
        tmp_path / "grid.json", {"level": 100_000_000, "coefficients": [1.0]}
    )
    wide = write_element(
        tmp_path / "wide.json",
        {"window": [-100_000_000, 100_000_000], "level": 0, "cells": {}},
    )
    far = write_element(tmp_path / "far.json", [[1_000_000, 1.0]])
    haar, amalgam = "haar:p=2:J=2", "amalgam:p=2:q=2:J=2:window=-1,1"
    for label in (haar, amalgam, "l1-canonical"):
        frame_from_label(label)  # built outside the trace
    tracemalloc.start()
    try:
        start = time.perf_counter()
        assert main(["expand", "--frame", haar, "--input", grid]) == 1
        assert main(["expand", "--frame", amalgam, "--input", wide]) == 1
        assert main(["expand", "--frame", "l1-canonical", "--input", far]) == 1
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert elapsed < 5.0
    err = capsys.readouterr().err
    assert "2^100000000 coefficients" in err
    assert "at most 256 cells" in err
    assert "sequence indices are at most 65536, got 1000000" in err


def test_unbounded_frames_cap_cli_truncations(tmp_path, capsys):
    # l1 has no largest rank, and every operator is dense up to N
    start = time.perf_counter()
    assert main(["constant", "--frame", "l1-canonical", "--n", "65537", "--samples", "1"]) == 1
    assert main([
        "tabulate", "--frame", "l1-canonical", "--curve", "constant", "--schedule", "4,65537",
    ]) == 1
    assert time.perf_counter() - start < 1.0
    assert "exceeds the truncation cap 65536" in capsys.readouterr().err
    elem = seq_file(tmp_path, [(65536, 1.0)])
    assert main(["expand", "--frame", "l1-canonical", "--input", elem, "--n", "65536"]) == 0
    assert json.loads((tmp_path / "expand.json").read_text())["residual"] == 0.0


def test_cli_sample_budgets_are_capped(tmp_path, capsys, monkeypatch):
    # the sweep reserves its result arrays before it draws, so a budget past
    # the cap, like one below 1, is a usage error before any sweep, suite or
    # estimate runs
    def refuse(*args, **kwargs):
        raise AssertionError("frame work ran")

    for name in ("estimate_frame_constant", "sweep_arrays", "run_all"):
        monkeypatch.setattr(cli, name, refuse)
    assert cli._MAX_SAMPLES == 10**6
    for bad in (str(cli._MAX_SAMPLES + 1), "0"):
        cfg = tmp_path / "budget.cfg"
        cfg.write_text(f"samples = {bad}\n", encoding="utf-8")
        for argv in (
            ["constant", "--frame", "l1-canonical", "--n", "4", "--samples", bad],
            ["constant", "--frame", "l1-canonical", "--n", "4", "--config", str(cfg)],
            ["suite", "all", "--frame", "l1-canonical", "--samples", bad],
            ["suite", "besselian", "--samples", bad],
            ["tabulate", "--frame", "l1-canonical", "--curve", "constant", "--samples", bad],
        ):
            assert main(argv) == 1, argv
            assert f"samples must be in 1..1000000, got {bad}" in capsys.readouterr().err


def test_cli_truncations_are_capped_on_every_unbounded_frame(tmp_path, capsys):
    # amalgam frames have a full truncation but no largest rank: past the
    # full truncation every pair is zero, and operators are dense up to N
    label = "amalgam:p=2:q=2:J=1:window=0,0"
    F = frame_from_label(label)  # built outside the trace
    tracemalloc.start()
    try:
        code = main(["constant", "--frame", label, "--n", "100000000", "--samples", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert peak < 2**20
    assert "exceeds the truncation cap 65536" in capsys.readouterr().err
    full = str(F.full_truncation)
    assert main(["constant", "--frame", label, "--n", full, "--samples", "1"]) == 0
    assert json.loads((tmp_path / "constant.json").read_text())["truncation"] == F.full_truncation
    # suite schedules are capped the same way
    start = time.perf_counter()
    assert main(["suite", "unconditionality", "--frame", label, "--schedule", "4,100000000"]) == 1
    assert main(["suite", "all", "--frame", "l1-canonical", "--schedule", "4,65537"]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.count("exceeds the truncation cap") == 2
    # a full truncation past the element-file cap stays reachable
    wide = frame_from_label("amalgam:p=2:q=2:J=8:window=0,60")
    assert wide.full_truncation > 65536
    top = str(wide.full_truncation)
    assert main(["tabulate", "--frame", wide.label, "--curve", "constant",
                 "--schedule", f"1,{wide.full_truncation + 1}"]) == 1
    assert f"exceeds the truncation cap {top}" in capsys.readouterr().err


def test_cli_refuses_amalgam_labels_with_oversized_extreme_points(capsys):
    label = "amalgam:p=2:q=2:J=12:window=-128,127"
    tracemalloc.start()
    try:
        for argv in (
            ["suite", "besselian", "--frame", label, "--schedule", "4"],
            ["constant", "--frame", label, "--n", "4", "--samples", "1"],
            ["tabulate", "--frame", label, "--curve", "constant", "--schedule", "4"],
        ):
            assert main(argv) == 1, argv
            assert "extreme points hold at most 8388608 values" in capsys.readouterr().err
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_expand_residual_of_inputs_outside_the_model(tmp_path):
    # a grid finer than the frame's level and mass outside the amalgam
    # window: the residual is the typed norm of x - S_N x
    rng = np.random.default_rng(43)
    fine = GridFunction(5, rng.standard_normal(32))
    wide = AmalgamFunction(
        (-2, 2), {m: GridFunction(3, rng.standard_normal(8)) for m in range(-2, 3)}
    )
    haar, amalgam = "haar:p=3:J=3", "amalgam:p=3:q=1.5:J=2:window=-1,1"
    for label, x, norm in (
        (haar, fine, lambda r: grid_lp_norm(r, 3.0)),
        (amalgam, wide, lambda r: amalgam_norm(r, 3.0, 1.5)),
    ):
        F = frame_from_label(label)
        n = F.max_rank or F.full_truncation
        elem = write_element(tmp_path / "x.json", x.to_json_obj())
        assert main(["expand", "--frame", label, "--input", elem, "--n", str(n)]) == 0
        residual = json.loads((tmp_path / "expand.json").read_text())["residual"]
        assert residual == norm(x - synthesis_partial(F, x, n)) > 0.1


def test_tabulate_residual_from_input_file(tmp_path, capsys):
    elem = seq_file(tmp_path, [(1, 2.0), (3, 2.0)])
    assert main([
        "tabulate", "--frame", "l1-canonical", "--curve", "residual",
        "--schedule", "1,2,3", "--input", elem,
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [row.split(",")[1] for row in lines[1:]] == ["2", "2", "0"]


def test_tabulate_requires_known_curve(capsys):
    assert main(["tabulate", "--frame", "l1-canonical", "--curve", "wiggle"]) == 1
    assert main(["tabulate", "--frame", "l1-canonical"]) == 1


def test_tabulate_json_format(capsys):
    assert main([
        "tabulate", "--frame", "l1-canonical", "--curve", "shrinking-tail",
        "--schedule", "4,8", "--format", "json",
    ]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["curve"] == "shrinking-tail"
    assert data["rows"] == [[4, 1.0], [8, 1.0]]


# ---------------------------------------------------------------------------
# top-level parsing
# ---------------------------------------------------------------------------


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["paint"]) == 1
    assert main([]) == 1
    assert "error:" in capsys.readouterr().err
