"""Write one workload's inputs several times; print each set-up's seconds as JSON.

    python3 perfbench/make_inputs.py <workload> <seed> <workdir> <min repeats>

run.py calls it in a child process, so that the peak resident set it
reports belongs to the CLI commands alone. Set-up repeats at least
<min repeats> times and, when that is above 1, for at least one second.
"""

import json
import sys

import workloads

MIN_SECONDS = 1.0


def main(workload: str, seed: int, workdir: str, min_repeats: int) -> None:
    w = workloads.WORKLOADS[workload]
    times: list[float] = []
    while len(times) < min_repeats or (min_repeats > 1 and sum(times) < MIN_SECONDS):
        times.append(workloads.setup(w, seed, workdir))
    print(json.dumps(times))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3], int(sys.argv[4]))
