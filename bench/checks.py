"""Output checks for the benchmark's workloads.

Every bound below comes from a property the method must have, never from a
stored copy of an earlier output.  Each check returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io

# Rounding slack for values that equal 1 in exact arithmetic but are sums of
# a few hundred to a few thousand rounded products.
ONE_TOL = 1e-12
DEVIATION_TOL = 1e-10
RESIDUAL_TOL = 1e-10
# The canonical l1 probe elements are unit-ball draws supported on indices
# 1..24 (the sampler's support bound), so truncations >= 24 cover them.
L1_COVER = 24
NON_SHRINKING = "non-shrinking witness found"
CONSTANT_ROWS = ("constant", "constant-primal", "constant-dual")


def parse_label(label: str) -> dict:
    """Label -> {"kind", and p, q, J, lo, hi where present}."""
    kind, _, rest = label.partition(":")
    out: dict = {"kind": kind}
    for part in filter(None, rest.split(":")):
        key, _, value = part.partition("=")
        if key == "window":
            lo, hi = value.split(",")
            out["lo"], out["hi"] = int(lo), int(hi)
        elif key == "J":
            out["J"] = int(value)
        else:
            out[key] = float(value)
    return out


def diagonal_rank(m: int, n: int) -> int:
    """Rank of (translation m, base rank n) on the diagonals |m| + n = s."""
    s = abs(m) + n
    return (s - 1) ** 2 + m + s


def max_rank(label: str):
    f = parse_label(label)
    return 2 ** f["J"] if f["kind"] == "haar" else None


def covering(label: str) -> int:
    """A truncation past which every probe element of the label is exact."""
    f = parse_label(label)
    if f["kind"] == "l1-canonical":
        return L1_COVER
    if f["kind"] == "haar":
        return 2 ** f["J"]
    return max(diagonal_rank(m, 2 ** f["J"]) for m in range(f["lo"], f["hi"] + 1))


def _is_orthonormal(label: str) -> bool:
    f = parse_label(label)
    return f["kind"] in ("haar", "amalgam") and f["p"] == 2.0 and f.get("q", 2.0) == 2.0


# ---------------------------------------------------------------------------
# suite bundles
# ---------------------------------------------------------------------------


def rows_from_json(obj: dict) -> list[tuple]:
    return [
        (r["suite"], r["label"], int(p["truncation"]), p["name"], float(p["value"]),
         p["passed"])
        for r in obj["reports"] for p in r["probes"]
    ]


def rows_from_csv(text: str) -> list[tuple]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["suite", "frame", "N", "metric", "value", "pass"]:
        raise ValueError("report.csv has no header row")
    passed = {"": None, "pass": True, "fail": False}
    return [(s, f, int(n), m, float(v), passed[ok]) for s, f, n, m, v, ok in rows[1:]]


def check_same_rows(json_obj: dict, csv_text: str) -> list[str]:
    """report.json and report.csv must carry the same rows in the same order."""
    try:
        from_csv = rows_from_csv(csv_text)
    except (ValueError, KeyError) as exc:
        return [f"report.csv does not parse: {exc}"]
    from_json = rows_from_json(json_obj)
    if from_csv == from_json:
        return []
    if len(from_csv) != len(from_json):
        return [f"report.csv has {len(from_csv)} rows, report.json {len(from_json)}"]
    first = next(i for i, (a, b) in enumerate(zip(from_json, from_csv)) if a != b)
    return [f"row {first} differs: json {from_json[first]} csv {from_csv[first]}"]


def check_bundle(json_obj: dict, schedules: dict[str, tuple[int, ...]]) -> list[str]:
    """Property checks on a suite bundle; ``schedules`` maps label -> schedule."""
    problems: list[str] = []
    rows = rows_from_json(json_obj)
    series: dict[tuple, list[tuple[int, float]]] = {}
    for suite, label, N, metric, value, passed in rows:
        if passed is False:
            problems.append(f"{suite} {label} N={N} {metric}: row failed")
        series.setdefault((suite, label, metric), []).append((N, value))

    for label, schedule in schedules.items():
        cap = max_rank(label)
        for suite in ("besselian", "duality"):
            metrics = ("constant",) if suite == "besselian" else CONSTANT_ROWS[1:]
            for metric in metrics:
                got = series.get((suite, label, metric), [])
                if [n for n, _ in got] != list(schedule):
                    problems.append(f"{suite} {label} {metric}: truncations "
                                    f"{[n for n, _ in got]} != schedule {list(schedule)}")
                values = [v for _, v in got]
                if any(b < a for a, b in zip(values, values[1:])):
                    problems.append(f"{suite} {label} {metric}: decreases in N: {values}")
                for N, v in got:
                    if label == "l1-canonical" and v != 1.0:
                        problems.append(f"{suite} {label} N={N} {metric} = {v!r}, not 1")
                    elif _is_orthonormal(label) and abs(v - 1.0) > ONE_TOL:
                        problems.append(f"{suite} {label} N={N} {metric} = {v!r}, not 1")

        if label == "l1-canonical":
            tails = series.get(("james", label, "shrinking-tail"), [])
            if not tails:
                problems.append(f"james {label}: no shrinking-tail rows")
            problems += [f"james {label} N={N} shrinking-tail = {v!r}, not 1"
                         for N, v in tails if v != 1.0]

        cover = covering(label)
        checked = [(N, v) for N, v in series.get(("unconditionality", label,
                                                  "permutation-deviation"), [])
                   if N >= cover and (cap is None or N <= cap)]
        if not checked:
            problems.append(f"unconditionality {label}: no row at a covering "
                            f"truncation (>= {cover})")
        problems += [f"unconditionality {label} N={N} permutation-deviation = {v!r}"
                     for N, v in checked if v > DEVIATION_TOL]

    for report in json_obj["reports"]:
        if report["suite"] == "james" and report["label"] == "l1-canonical":
            if report["verdict"] != NON_SHRINKING:
                problems.append(f"james l1-canonical verdict {report['verdict']!r}")
    return problems


# ---------------------------------------------------------------------------
# single calls
# ---------------------------------------------------------------------------


def burkholder_bound(p: float) -> float:
    """p* - 1 with p* = max(p, p/(p-1)): the Haar unconditional constant on L_p."""
    return max(p, p / (p - 1.0)) - 1.0


def check_haar_estimates(estimates: tuple[float, float], p: float) -> list[str]:
    """Primal and dual estimates of a Haar frame on L_p lie in [1, p* - 1]."""
    hi = burkholder_bound(p)
    return [
        f"{side} estimate {v!r} outside [1, {hi}]"
        for side, v in zip(("primal", "dual"), estimates)
        if not (1.0 - ONE_TOL <= v <= hi + ONE_TOL)
    ]


def relative_residual(x, y, p: float) -> float:
    """||x - y||_p / ||x||_p for coefficient arrays on one dyadic grid."""
    import numpy as np

    def norm(c):
        return float(np.mean(np.abs(c) ** p) ** (1.0 / p))

    return norm(np.asarray(x) - np.asarray(y)) / norm(x)


def check_reconstruction(x, y, p: float) -> list[str]:
    r = relative_residual(x, y, p)
    return [] if r <= RESIDUAL_TOL else [f"relative residual {r!r} > {RESIDUAL_TOL}"]


def check_l1_james(report: dict, schedule: tuple[int, ...]) -> list[str]:
    """The l1 probe must find the all-ones witness with every tail exactly 1."""
    problems = []
    if report["verdict"] != NON_SHRINKING:
        problems.append(f"verdict {report['verdict']!r}, expected {NON_SHRINKING!r}")
    tails = [(p["truncation"], p["value"]) for p in report["probes"]
             if p["name"] == "shrinking-tail"]
    if [n for n, _ in tails] != list(schedule):
        problems.append(f"tail truncations {[n for n, _ in tails]} != {list(schedule)}")
    problems += [f"shrinking-tail at N={n} is {v!r}, not 1" for n, v in tails if v != 1.0]
    return problems

