"""Benchmark of the bimodalnet command line.

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Set-up (datasets and fixed ensemble members, see ``make_inputs.py``) runs
in a child process, so the peak resident set reported is that of the process
running the CLI commands. The timed part repeats the workload's command
cycle (see ``workloads.py``) in a closed loop, one command at a time, for
``--seconds``.

``--trace 0`` prints the end-to-end metrics: median throughput of each
command kind, median set-up time over several set-ups, peak RSS.
``--trace 1`` alternates untraced and traced cycles and prints the
per-layer metrics (medians over traced cycles, per cycle) plus the tracing
overhead. A JSON line with the machine and working set precedes the result,
which is the last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NPROC = len(os.sched_getaffinity(0))
# Fixed before numpy loads, so it never comes from the caller's environment.
# Paper-scale steps run ~1.4x faster at 2 threads than at 1 on a 2-core VM, but
# the run-to-run spread of their throughput was 11-15% at 2 threads against
# 5-7% at 1, so the benchmark measures one thread.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.path.insert(0, os.path.join(ROOT, "src"))

SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120


def run_setup(workload: str, seed: int, workdir: str, repeats: int) -> list[float]:
    """Set up in a child process, ``repeats`` times or more; returns each set-up's seconds."""
    child = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                      "make_inputs.py"),
         workload, str(seed), workdir, str(repeats)],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        stdout=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return json.loads(child.stdout)


def machine_info(w, workdir: str) -> dict:
    import numpy as np

    import workloads
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    libc = ctypes.CDLL(None)
    libc.sysconf.restype = ctypes.c_long
    sizes = {os.path.basename(p): os.path.getsize(p)
             for p in workloads.paths(workdir).values() if os.path.exists(p)}
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        # glibc sysconf names _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE
        "l2_bytes": libc.sysconf(191),
        "l3_bytes": libc.sysconf(194),
        "working_set": {
            "trainable_bytes": workloads.trainable_bytes(workdir),
            "dataset_bytes": sizes.get("train.bin", 0) + sizes.get("test.bin", 0),
            "file_bytes": sizes,
        },
        "workload": {"name": w.name, "n_train": w.n_train, "n_test": w.n_test,
                     "epochs": w.epochs, "reads_per_cycle": w.reads_per_cycle},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "bimodalnet", "__init__.py")):
        print(f"error: no bimodalnet sources under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # the benchmark's modules import bimodalnet, so they load after the check above
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        setup_times = run_setup(w.name, args.seed, workdir,
                                SETUP_REPEATS if args.trace == 0 else 1)
        commands = workloads.cycle(w, args.seed, workdir)
        trained = workloads.paths(workdir)["trained"]
        tracer = spans.Tracer()
        runs = []  # (pass number, traced, CommandResult, span table)
        passes = 0
        start = time.perf_counter()
        while passes == 0 or time.perf_counter() - start < args.seconds or (
                args.trace == 1 and passes < 2):
            # with --trace 1, odd passes are traced and even ones give the baseline
            traced = args.trace == 1 and passes % 2 == 1
            with tracer if traced else contextlib.nullcontext():
                for kind, cmd, samples in commands:
                    tracer.table = {}
                    result = workloads.run_command(kind, cmd, samples, trained)
                    runs.append((passes, traced, result, tracer.table))
            passes += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        results = [r for _, _, r, _ in runs]
        problems = workloads.check(w, workdir, results)
        info = machine_info(w, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def throughput(kind: str, traced: bool) -> float:
        # failed commands are left out, unless all failed: the run is then incorrect
        ran = [r for _, t, r, _ in runs if t == traced and r.kind == kind]
        passed = [r for r in ran if not r.error]
        return statistics.median(r.samples_per_s for r in passed or ran)

    if args.trace == 0:
        metrics = {"setup_s": {"value": statistics.median(setup_times), "unit": "s"}}
        for kind in workloads.COMMANDS:
            metrics[f"{kind}_samples_per_s"] = {"value": throughput(kind, False),
                                                "unit": "samples/s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MiB"}
    else:
        traced_passes = [[(r.kind, r.seconds, table) for n, t, r, table in runs if n == i]
                         for i in range(1, passes, 2)]
        values = {}
        for per_pass in map(spans.layer_metrics, traced_passes):
            for name, value in per_pass.items():
                values.setdefault(name, []).append(value)
        values = {name: statistics.median(v) for name, v in values.items()}
        # latency percentiles pool the steps of every traced pass
        values.update(spans.latency_metrics(
            [c for per_pass in traced_passes for c in per_pass]))
        for kind in workloads.COMMANDS:
            values[f"tracing.{kind}_samples_per_s.delta"] = (
                throughput(kind, True) - throughput(kind, False))
        metrics = {name: {"value": value, "unit": spans.unit(name)}
                   for name, value in values.items()}

    print(json.dumps({"machine": info, "problems": problems}))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(results),
        "failed": sum(1 for r in results if r.error),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
