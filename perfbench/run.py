#!/usr/bin/env python3
"""ffgas benchmark: run one workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 15 --trace 0

Workloads, metrics, units and regression bounds are listed in
BENCHMARK.json. Each process of a run is a fresh interpreter (worker.py),
so peak memory is per workload and set-up includes ``import ffgas``.

With ``--trace 0`` the run starts three processes in turn; each sets the
workload up and then measures it for a third of ``--seconds``, so set-up is
timed three times and the pooled rounds come from three processes. The
end-to-end metrics are the median set-up time, the median
wall and CPU time of a round of fixed work, the median peak resident
memory, and the share of operations that passed their output check. With
``--trace 1`` one process reports the per-layer metrics from wrapped module
attributes, the tracing overhead, and the ROADMAP baseline table.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give the run's stamp (versions,
BLAS threads, seed) and every metric by name and unit, error_rate included.
The program gets no BLAS thread setting from here: users run the defaults.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
PROCESSES = 3
TIME_LIMIT_S = 170.0


def launch(args, workdir, started, seconds):
    """Run worker.py to completion; return its result and its set-up time."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=max(1.0, TIME_LIMIT_S - (t0 - started)))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # CLOCK_MONOTONIC is system-wide, so the two processes share the clock
    return result, result["setup_end"] - t0


def main(argv=None):
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ffgas" / "__init__.py").is_file():
        print(f"perfbench: no ffgas source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]

    workdir = ROOT / ".perfbench_tmp" / f"{os.getpid()}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        procs = 1 if args.trace else PROCESSES
        results, setups = [], []
        for _ in range(procs):
            result, setup_s = launch(args, workdir, started,
                                     args.seconds / procs)
            results.append(result)
            setups.append(setup_s)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        walls = [w for r in results for w in r["walls"]]
        if args.trace:
            measured = result["layers"]
        else:
            measured = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(walls),
                "cpu_s": statistics.median(
                    c for r in results for c in r["cpus"]),
                "peak_rss_mb": statistics.median(
                    r["peak_rss_kb"] for r in results) / 1024.0,
                "success_rate": 1.0 - failed / attempted,
            }
    except (RuntimeError, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in declared}
    print("stamp " + json.dumps({**result["stamp"],
                                 "workload": args.workload,
                                 "seconds": args.seconds,
                                 "trace": args.trace}))
    rows = [(k, v["value"], v["unit"]) for k, v in metrics.items()]
    if not args.trace:
        rows.append(("error_rate", failed / attempted, "ratio"))
        rows.append(("rounds", len(walls), "count"))
    width = max(len(r[0]) for r in rows)
    for name, value, unit in rows:
        print(f"{args.workload}  {name:<{width}}  {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
