"""Per-command memory of a perfbench workload's command cycle.

Usage: python scripts/rss_cycle.py --workload eval-paper [--seed 1] [--passes 3] [--traced]

Sets the workload up in a child process, then runs ``--passes`` passes of
its command cycle in this process, one CLI command at a time, as
``perfbench/run.py`` does (same inputs, same argv, BLAS on one thread).
Prints one JSON line per command: the pass, its kind, exit code, seconds,
this process's peak resident set after it (``ru_maxrss``, MiB), its resident
set after it (``rss_mb``, from ``/proc/self/statm``) and the minor page
faults taken during it, so that a memory claim can name the command that
sets the peak, and pages a command leaves resident show even when an
earlier peak is higher. With ``--traced`` each line also gives the peak of
the bytes the command allocated through Python's allocators while it ran
(``traced_peak_mb``, from ``tracemalloc``, which covers numpy's arrays), so
that a memory claim can tell array bytes from heap placement; tracing costs
time and its own memory, so the other figures of a traced run are not those
of an untraced one. perfbench is imported, not changed.
"""

import argparse
import importlib.util
import json
import os
import resource
import sys
import tempfile
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def load_perfbench():
    """perfbench's run module (which pins the BLAS threads and puts ``src``
    on the path before numpy loads) and its workloads module."""
    sys.path.insert(0, PERFBENCH)
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  os.path.join(PERFBENCH, "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    import workloads
    return run, workloads


def resident_mb() -> float:
    """This process's resident set now, in MiB (Linux ``/proc/self/statm``)."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / float(1 << 20)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--traced", action="store_true",
                        help="also print each command's tracemalloc peak")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be >= 1")
    run, workloads = load_perfbench()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix="rss-cycle-") as workdir:
        run.run_setup(w.name, args.seed, workdir, 1)
        commands = workloads.cycle(w, args.seed, workdir)
        trained = workloads.paths(workdir)["trained"]
        for n in range(args.passes):
            for kind, cmd, samples in commands:
                if args.traced:
                    tracemalloc.start()
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                result = workloads.run_command(kind, cmd, samples, trained)
                usage = resource.getrusage(resource.RUSAGE_SELF)
                row = {
                    "pass": n, "kind": kind, "exit_code": result.exit_code,
                    "seconds": round(result.seconds, 4),
                    "maxrss_mb": round(usage.ru_maxrss / 1024.0, 1),
                    "rss_mb": round(resident_mb(), 1),
                    "minor_faults": usage.ru_minflt - before,
                }
                if args.traced:
                    row["traced_peak_mb"] = round(tracemalloc.get_traced_memory()[1]
                                                  / float(1 << 20), 1)
                    tracemalloc.stop()
                print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
