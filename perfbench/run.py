"""time2box benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload c07-te-tns --seed 7 --seconds 20 --trace 0

Run from the repository root. The run generates the workload's TSVs from
the seed in one child process, measures them in another, and prints two
JSON lines: a record of what was run (machine, inputs, raw samples), then
the result with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer split. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORK_DIR = os.path.join(ROOT, ".perfbench")
CHILD_TIMEOUT_S = 170
# one BLAS thread, so each run is a single thread of a single process
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def describe_inputs(data_dir: str, counts: dict) -> dict:
    """SHA-256 of each TSV, with the per-scope-kind statement counts the
    measured process read from it (the rows `time2box stats` prints)."""
    out = {}
    for sp in ("train", "valid", "test"):
        with open(os.path.join(data_dir, f"{sp}.txt"), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        out[sp] = {"sha256": digest, "counts": counts.get(sp)}
    return out


def describe_machine() -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = None
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        git = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = git.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": THREAD_ENV,
        "git_commit": commit,
    }


def child(mode: str, args, data_dir: str) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, WORKER, mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--data", data_dir,
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    env = {**os.environ, **THREAD_ENV, "PYTHONHASHSEED": "0"}
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "time2box", "__init__.py")):
        print(f"no time2box sources under {ROOT}/src; run from a repository checkout", file=sys.stderr)
        return 2

    data_dir = os.path.join(WORK_DIR, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        for mode in ("generate", "measure"):
            proc = child(mode, args, data_dir)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                print(f"{mode} step exited with code {proc.returncode}", file=sys.stderr)
                return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "machine": describe_machine(),
            "problems": result.pop("problems"),
            "details": result.pop("details"),
        }
        record["inputs"] = describe_inputs(data_dir, record["details"].pop("counts", {}))
    except subprocess.TimeoutExpired as exc:
        print(f"child process timed out after {exc.timeout} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"run": record}))
    print(json.dumps({key: result[key] for key in RESULT_KEYS}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
