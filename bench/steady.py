"""Steadiness check: two sets of benchmark runs of the same code.

    python3 bench/steady.py [--runs 10] [--workloads haar-fine,l1-tails]

Runs ``bench/run.py`` once per (set, workload, seed), one run at a time,
with the run length from BENCHMARK.json.  There are two sets; set k = 0, 1
uses seeds ``1000 * k + 1 .. 1000 * k + runs``.  For each workload and end-to-end
metric it prints the median and the quartile spread (q3 - q1) / median of
each set, and whether

* the spread stays within the metric's bound (setup_s is exempt, as its
  median is what the bound guards), and below a third of it;
* the median of the second set is no worse than the first set's by more
  than the bound;
* the share of failed operations is the same in both sets.

All raw results go to ``bench/out/steady.json``.  The exit status is 0 when
every check holds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETS = 2


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(cmd: list[str], workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        cmd + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["log"] = [line for line in proc.stderr.splitlines() if line.startswith("bench:")]
    return result


def analyse(bench: dict, results: dict) -> bool:
    ok = True
    for workload, sets in results.items():
        print(f"\n{workload}")
        shares = {f"{r['failed']}/{r['attempted']}" for runs in sets for r in runs}
        if len({r["failed"] / r["attempted"] for runs in sets for r in runs}) > 1:
            ok = False
            print(f"  FAIL failed shares differ: {sorted(shares)}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            lower = m["better"] == "lower"
            medians, cells = [], []
            for runs in sets:
                vals = [r["metrics"][name]["value"] for r in runs]
                s = spread(vals)
                medians.append(statistics.median(vals))
                flag = "" if s < bound / 3 else (" (>1/3 bound)" if s <= bound else " SPREAD")
                if s > bound and name != "setup_s":
                    ok = False
                cells.append(f"median {medians[-1]:.6g} spread {s:.3f}{flag}")
            first, second = medians
            worse = (second / first - 1) if lower else (1 - second / first)
            drift = f"  worse by {worse:+.3f}"
            if worse > bound:
                ok = False
                drift += " DRIFT"
            print(f"  {name:<14} bound {bound:<5} " + " | ".join(cells) + drift)
    print("\nsteady" if ok else "\nNOT steady")
    return ok


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="seeds per set and workload")
    ap.add_argument("--workloads", default=",".join(names))
    args = ap.parse_args(argv)

    results: dict[str, list[list[dict]]] = {}
    for k in range(SETS):
        for workload in args.workloads.split(","):
            runs = results.setdefault(workload, [])
            runs.append([])
            for seed in range(1000 * k + 1, 1000 * k + args.runs + 1):
                t0 = time.monotonic()
                r = run_once(bench["command"], workload, seed, bench["run_seconds"])
                runs[-1].append(r)
                vals = " ".join(f"{n}={v['value']:.6g}" for n, v in r["metrics"].items())
                print(f"set {k + 1} {workload} seed {seed} ({time.monotonic() - t0:.0f} s): "
                      f"failed {r['failed']}/{r['attempted']} {vals}", *r["log"],
                      sep="\n  ", flush=True)
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    with open(os.path.join(BENCH, "out", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    return 0 if analyse(bench, results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
