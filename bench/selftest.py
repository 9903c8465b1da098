"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs every workload once at a small size and requires every check to pass,
then corrupts outputs one way at a time and requires the check to fail on
each.  Exit status 0 when all of that holds.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys

import checks
import run
import workloads


def _set(obj, suite, label, metric, N, value):
    """Copy of a bundle JSON object with one probe value replaced."""
    obj = copy.deepcopy(obj)
    hits = [p for r in obj["reports"] if (r["suite"], r["label"]) == (suite, label)
            for p in r["probes"] if (p["name"], p["truncation"]) == (metric, N)]
    assert len(hits) == 1, (suite, label, metric, N)
    hits[0]["value"] = value
    return obj


def bundle_corruptions(obj, schedules):
    l1, haar, amalgam = workloads.SMALL_LABELS
    last = {lbl: s[-1] for lbl, s in schedules.items()}
    verdict = copy.deepcopy(obj)
    next(r for r in verdict["reports"]
         if (r["suite"], r["label"]) == ("james", l1))["verdict"] = "consistent with reflexive"
    failed_row = copy.deepcopy(obj)
    failed_row["reports"][0]["probes"][-1]["passed"] = False
    dropped = copy.deepcopy(obj)
    for r in dropped["reports"]:
        if (r["suite"], r["label"]) == ("besselian", haar):
            r["probes"] = [p for p in r["probes"] if p["truncation"] != 4]
    decreasing = _set(_set(obj, "besselian", amalgam, "constant", 4, 1.0 + 5e-13),
                      "besselian", amalgam, "constant", 16, 1.0)
    return {
        "Haar p=2 constant of 1.5": _set(obj, "besselian", haar, "constant", 4, 1.5),
        "amalgam p=q=2 dual constant of 0.9": _set(obj, "duality", amalgam,
                                                   "constant-dual", 4, 0.9),
        "l1 constant of 0.99": _set(obj, "duality", l1, "constant-primal", 16, 0.99),
        "l1 tail of 0.9": _set(obj, "james", l1, "shrinking-tail", 16, 0.9),
        "constant decreasing in N": decreasing,
        "permutation deviation 1e-6 at covering N": _set(
            obj, "unconditionality", haar, "permutation-deviation", last[haar], 1e-6),
        "l1 verdict changed": verdict,
        "a failed pass row": failed_row,
        "a missing truncation": dropped,
    }


def main() -> int:
    run._use_local_framekit()
    workdir = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    bad: list[str] = []

    def expect(what, problems, fail):
        ok = bool(problems) == fail
        print(f"{'ok  ' if ok else 'FAIL'} {what}: "
              f"{'fails' if problems else 'passes'}" + (f" ({problems[0]})" if problems else ""))
        if not ok:
            bad.append(what)

    try:
        for name in workloads.WORKLOADS:
            rnd = workloads.setup(name, 7, workdir, small=True)
            for k, op in enumerate(rnd.ops):
                expect(f"{name} small op {k}", op.check(op.call()), fail=False)

        specs = workloads.suite_specs(7, small=True)
        schedules = {s.label: s.schedule for s in specs}
        from framekit import verify

        bundle = verify.run_all(specs)
        obj = bundle.to_json_obj()
        expect("bundle as produced", checks.check_bundle(obj, schedules), fail=False)
        for what, corrupt in bundle_corruptions(obj, schedules).items():
            expect(what, checks.check_bundle(corrupt, schedules), fail=True)
        text = bundle.to_csv()
        expect("report files agree", checks.check_same_rows(obj, text), fail=False)
        lines = text.splitlines(keepends=True)
        lines[1] = lines[1].replace(",1.0,", ",1.0000000000000002,", 1)
        expect("report.csv value differs from report.json",
               checks.check_same_rows(obj, "".join(lines)), fail=True)

        bound = checks.burkholder_bound(workloads.HAAR_P)
        expect("Haar p=3 estimates 1 and p*-1", checks.check_haar_estimates((1.0, bound), 3.0),
               fail=False)
        for est in ((bound + 0.5, 1.0), (1.0, 0.9), (float("nan"), 1.0)):
            expect(f"Haar p=3 estimates {est}", checks.check_haar_estimates(est, 3.0), fail=True)

        import numpy as np

        x = np.random.default_rng(7).standard_normal(64)
        y = x.copy()
        y[5] += 1e-6
        expect("reconstruction off by 1e-6 in one cell",
               checks.check_reconstruction(x, y, 3.0), fail=True)

        schedule = (4, 16, 64)
        report = verify.run_james_suite(
            verify.ExperimentSpec(label="l1-canonical", schedule=schedule, seed=7)).to_json_obj()
        expect("l1 James report as produced", checks.check_l1_james(report, schedule),
               fail=False)
        tail = copy.deepcopy(report)
        tail["probes"][1]["value"] = 0.9
        expect("l1 James tail of 0.9", checks.check_l1_james(tail, schedule), fail=True)
        verdict = dict(report, verdict="inconclusive")
        expect("l1 James verdict inconclusive", checks.check_l1_james(verdict, schedule),
               fail=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("all checks behave" if not bad else f"{len(bad)} check(s) misbehave: {bad}")
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
