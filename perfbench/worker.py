"""Child process of the benchmark.

    python3 perfbench/worker.py generate --workload W --seed N --data DIR
    python3 perfbench/worker.py measure --workload W --seed N --data DIR --seconds S --trace 0|1

`generate` writes the workload's TSVs; `measure` loads them and prints
its result as one JSON line. They are separate processes so that the
measured process's peak RSS excludes dataset generation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("generate", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--data", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from workloads import WORKLOADS, generate

    workload = WORKLOADS[args.workload]
    if args.mode == "generate":
        # the dataset cache sits beside the run directories
        generate(workload, args.seed, args.data, os.path.join(os.path.dirname(args.data), "cache"))
        return 0
    if args.trace:
        import traced

        result = traced.run(workload, args.data)
    else:
        import untraced

        result = untraced.run(workload, args.data, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
