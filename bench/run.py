"""framekit benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload suite-default --seed 1 --seconds 20 --trace 0

Run from anywhere; framekit is imported from ``src/`` next to this
directory, never from an installed copy.  The run

* times ``setup_s`` in fresh child processes (median of SETUP_PROBES), one
  at a time, each from its first framekit import until its inputs are ready;
* runs whole rounds of the workload's calls until the next round would end
  past ``--seconds`` (at least one round), timing each call and checking its
  output after the clock stops;
* prints, as its last stdout line, one JSON object with ``correct``,
  ``attempted``, ``failed`` and the metrics: the end-to-end ones with
  ``--trace 0``, the per-layer ones (from setup plus the first round,
  traced) with ``--trace 1``.

Times are rescaled to a nominal host speed (``hostspeed.py``), since the
shared host's own speed drifts.  BLAS is held to one thread, so the only
compute threads are the suite pool's nproc workers.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from hostspeed import HostSpeed

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
SETUP_PROBES = 11


def _die(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _use_local_framekit() -> None:
    if not os.path.isfile(os.path.join(SRC, "framekit", "__init__.py")):
        _die(f"no framekit sources under {SRC}")
    sys.path.insert(0, SRC)


def _import_framekit() -> None:
    import framekit

    expected = os.path.join(SRC, "framekit", "__init__.py")
    if os.path.realpath(framekit.__file__) != os.path.realpath(expected):
        _die(f"imported framekit from {framekit.__file__}, expected {expected}")


def _setup_probe(workload: str, seed: int) -> float:
    """Child-process entry: time import + frames + inputs, once."""
    workdir = os.path.join(OUT, f"probe-{os.getpid()}")
    t0 = time.perf_counter()
    _import_framekit()
    import workloads

    workloads.setup(workload, seed, workdir)
    return time.perf_counter() - t0


def _median_setup_s(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            _die(f"set-up probe exited {proc.returncode}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _peak_rss_mib() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    with HostSpeed() as speed:
        return _run(workloads, workload, seed, seconds, trace, speed)


def _run(workloads, workload: str, seed: int, seconds: float, trace: bool,
         speed: HostSpeed) -> dict:
    setup_s = None
    if not trace:
        t0 = time.perf_counter()
        setup_raw = _median_setup_s(workload, seed)
        setup_s = speed.at_nominal_speed(setup_raw, t0, time.perf_counter())
    _import_framekit()
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    workdir = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        rnd = workloads.setup(workload, seed, workdir)
        attempted = failed = 0
        correct = True
        round_times: list[float] = []
        raw_times: list[float] = []
        start = time.perf_counter()
        while True:
            if tracer is not None:
                tracer.start_run(f"round-{len(round_times) + 1}")
            round_start = time.perf_counter()
            busy = 0.0
            for op in rnd.ops:
                attempted += 1
                t0 = time.perf_counter()
                try:
                    out = op.call()
                except Exception:  # a raising call is a failed operation
                    busy += time.perf_counter() - t0
                    traceback.print_exc()
                    failed += 1
                    continue
                busy += time.perf_counter() - t0
                try:
                    problems = op.check(out)
                except Exception as exc:
                    problems = [f"check raised {exc!r}"]
                if problems:
                    failed += 1
                    correct = False
                    for p in problems:
                        print(f"bench: check failed: {p}", file=sys.stderr)
            raw_times.append(busy)
            round_times.append(speed.at_nominal_speed(busy, round_start, time.perf_counter()))
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds:
                break
        if tracer is not None:
            tracer.start_run("end")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is not None:
        from tracing import PER_LAYER_UNITS, layer_metrics

        tracer.write(os.path.join(OUT, f"trace-{workload}-seed{seed}.json"))
        values = layer_metrics(tracer, ("setup", "round-1"), round_times[0],
                               scale=round_times[0] / raw_times[0])
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    else:
        run_s = statistics.median(round_times)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "terms_per_s": {"value": rnd.terms / run_s, "unit": "terms/s"},
            "peak_rss_mib": {"value": _peak_rss_mib(), "unit": "MiB"},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "rounds": round_times,
            "kernel_ms": [1e3 * k for _, k in speed.samples]}


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _use_local_framekit()
    if args.setup_probe:
        print(repr(_setup_probe(args.workload, args.seed)))
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    rounds, kernel_ms = result.pop("rounds"), result.pop("kernel_ms")
    print(f"bench: {args.workload} seed {args.seed}: rounds at nominal speed "
          + " ".join(f"{t:.3f}" for t in rounds) + f" s; {len(kernel_ms)} speed samples, "
          f"median {statistics.median(kernel_ms):.3f} ms", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
