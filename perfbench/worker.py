#!/usr/bin/env python3
"""One benchmark process: set a workload up, then measure it or exit.

run.py starts this script in a fresh interpreter, so set-up time includes
interpreter start and ``import ffgas``. Set-up ends after the config load
and one untimed, checked warm-up operation; then the process runs rounds
until ``--seconds`` have passed. With ``--trace 1`` it alternates untraced
and traced rounds, so the tracing overhead is measured in the same
process, then times the ROADMAP baseline table. The last line of stdout is
one JSON object.
"""
import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import ffgas  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def git_commit(root):
    """HEAD commit read from .git without running git; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest(src):
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def blas_info():
    """Each loaded OpenBLAS library with its build string and thread count."""
    out = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.rsplit("/", 1)[-1]})
    for path in libs:
        lib = ctypes.CDLL(path)
        info = {}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}",
                                  None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.argtypes, threads.restype = [], ctypes.c_int
                    config.argtypes, config.restype = [], ctypes.c_char_p
                    info = {"config": config().decode(),
                            "threads": threads()}
                    break
            if info:
                break
        out[Path(path).name] = info
    return out


def stamp(seed):
    import scipy
    return {"commit": git_commit(ROOT), "src_sha256": src_digest(ROOT / "src"),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_info(),
            "numba_enabled": bool(ffgas.NUMBA_ENABLED),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "seed": seed}


class Runner:
    """Runs rounds of a workload and counts attempted and failed operations."""

    def __init__(self, workload, seed, tracer=None, patches=()):
        self.wl = workload
        self.seed = seed
        self.tracer = tracer
        self.patches = patches
        self.attempted = 0
        self.failed = 0

    def warmup(self):
        self.run(self.wl.warmup(np.random.default_rng([self.seed, 0])), 0)

    def round(self, r, traced=False):
        """Run round r; return its timed wall and CPU seconds."""
        return self.run(self.wl.inputs(np.random.default_rng([self.seed, r])),
                        r, traced)

    def run(self, ops, r, traced=False):
        wall = cpu = 0.0
        for inp in ops:
            self.attempted += 1
            ctx = (self.tracer.installed(self.patches) if traced
                   else contextlib.nullcontext())
            try:
                with ctx:
                    w0, c0 = time.perf_counter(), time.process_time()
                    out = self.wl.run(inp)
                    c1, w1 = time.process_time(), time.perf_counter()
                wall += w1 - w0
                cpu += c1 - c0
                self.wl.check(inp, out)
            except Exception as exc:  # counted, reported, and the run goes on
                self.failed += 1
                print(f"{self.wl.name} round {r}: {type(exc).__name__}: "
                      f"{exc}", file=sys.stderr)
        return wall, cpu


def _median_metrics(rows):
    return {k: statistics.median(row[k] for row in rows) for k in rows[0]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](Path(args.workdir))
    tracer = patches = None
    if args.trace:
        import layers
        tracer, patches = spans.Tracer(), layers.patches()
        with tracer.installed(patches):
            wl.setup()
        config_loads = [s.end - s.start for s in tracer.spans
                        if s.name == "config.load"]
    else:
        wl.setup()
    runner = Runner(wl, args.seed, tracer, patches)
    runner.warmup()
    result = {"setup_end": time.monotonic()}
    walls, cpus = {False: [], True: []}, []
    per_round = []
    deadline = time.perf_counter() + args.seconds
    r = 1
    while True:
        traced = bool(args.trace) and r % 2 == 0
        if traced:
            tracer.reset()
        wall, cpu = runner.round(r, traced)
        walls[traced].append(wall)
        if traced:
            per_round.append(layers.round_metrics(
                spans.summarize(tracer.spans), tracer.counts))
            config_loads += [s.end - s.start for s in tracer.spans
                             if s.name == "config.load"]
        else:
            cpus.append(cpu)
        r += 1
        if (time.perf_counter() >= deadline
                and (not args.trace or walls[True])):
            break
    result.update(walls=walls[False], cpus=cpus, stamp=stamp(args.seed))
    if args.trace:
        m = _median_metrics(per_round)
        m["config.load_s"] = statistics.median(config_loads)
        m["trace.wall_s"] = statistics.median(walls[True])
        m["trace.untraced_wall_s"] = statistics.median(walls[False])
        m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
        table, rows, failures = layers.baseline_table()
        m.update(table)
        runner.attempted += rows
        runner.failed += len(failures)
        for msg in failures:
            print(msg, file=sys.stderr)
        result["layers"] = m
    result.update(peak_rss_kb=resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss, attempted=runner.attempted,
        failed=runner.failed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
