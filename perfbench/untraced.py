"""Untraced run: the end-to-end metrics, through the CLI's entry points only.

Only `data.load_dataset`, `data.add_inverse_relations`, `training.train`,
`evaluation.eval_link_prediction` and `evaluation.eval_time_prediction`
are called, so a refactor of the program's internals cannot break this
run.

First one train() call of `model_steps` gives the model that is evaluated,
and one link and one time evaluation over all their statements give the
reports and the quality guards (`link_mrr`, `time_gaeiou10`). Then the run
is a sequence of rounds, each of which times short units: set-up (only in
the first `setup_repeats` rounds), TRAIN_UNITS train() calls of
UNIT_STEPS steps with training seeds 0, 1, ..., so that the units cover
different batches, and the link and time evaluations split into about 16
chunks of statements. Rounds repeat until the train, link and time units
together have taken `--seconds`, and at least MIN_ROUNDS times. Every
round must give the same parameters (compared by digest) and chunk
reports as the first.

A train() call also pays once for what a training run pays once:
initialising the parameters, Adam's first-step moment arrays, and the
log line of step 1. UNIT_STEPS is long enough to make that a small share
of a unit: on wd12k a call costs about 7.5 ms beyond its steps (about
52 ms each), 2% of an 8-step unit; on c07 it is below the noise.

Every timed unit, set-ups included, runs between two runs of the
calibration kernel (see calibration.py), and its time is taken at the
reference speed: its wall time over the mean of the two kernel times,
times calibration.REFERENCE_S. In a workload's `stream_phases` the
kernel's stream part alone takes the place of the whole kernel. A unit's
time is the median of its samples over the rounds, and a phase's
throughput is its whole work over the sum of its units' times, so every
chunk counts with its own cost. `setup_s` is the median of the set-ups.
The loop's `--seconds` include the kernel's runs. The wall-clock figures
go to the run record.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import resource
import statistics
import time
import traceback

import numpy as np

from calibration import REFERENCE_S, STREAM_REFERENCE_S, Kernel
from workloads import (
    LEARN, LINK_FILTER, SPLITS, TIME_K, TIME_TAU, chunks, link_statements, per_year_queries, time_statements,
)

MIN_ROUNDS = 3
TRAIN_UNITS = 2
UNIT_STEPS = 8


class Ops:
    """Operations attempted and failed, plus the reasons the run is not correct."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, n: int, why: str) -> None:
        self.attempted += n
        self.failed += n
        self.problems.append(why)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dataset_paths(data_dir: str) -> list[str]:
    return [f"{data_dir}/{sp}.txt" for sp in SPLITS]


def train_config(workload, steps: int):
    from time2box.model import Variant
    from time2box.training import TrainConfig

    return TrainConfig(
        **LEARN,
        steps=steps,
        eval_every=steps,
        beta=workload.beta,
        variant=Variant.parse(workload.variant),
    )


def without_valid(kb):
    """The KB with its valid split emptied, so train() never validates."""
    return dataclasses.replace(kb, splits={**kb.splits, "valid": []})


def params_equal(a, b) -> bool:
    return params_digest(a) == params_digest(b)


def params_digest(params) -> str:
    """SHA-256 over every parameter array's name and bytes."""
    digest = hashlib.sha256()
    for name in sorted(params.arrays):
        digest.update(name.encode())
        digest.update(params.arrays[name].tobytes())
    return digest.hexdigest()


def params_finite(params) -> bool:
    return all(np.isfinite(a).all() for a in params.arrays.values())


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


class Samples:
    """Wall times of the timed units, each with the mean of the kernel
    times right before and after it."""

    def __init__(self, kernel: Kernel, stream_phases: tuple[str, ...]):
        self.kernel = kernel
        self.stream_phases = stream_phases
        self.wall: dict[str, list[float]] = {}
        self.kernel_s: dict[str, list[list[float]]] = {}
        self.restart()

    def restart(self) -> float:
        """Run the kernel before a unit that does not follow another one
        directly; return the seconds it took."""
        self.before = self.kernel()
        return self.before[0]

    def add(self, name: str, seconds: float) -> float:
        """Record one unit and run the kernel after it; return the seconds
        the unit and that kernel run took."""
        after = self.kernel()
        self.wall.setdefault(name, []).append(seconds)
        self.kernel_s.setdefault(name, []).append([(b + a) / 2 for b, a in zip(self.before, after)])
        self.before = after
        return seconds + after[0]

    def reference_s(self, name: str) -> float:
        """Median time of one unit at the reference speed: against the whole
        kernel, or its stream part for a phase in `stream_phases`."""
        if name.split(".")[0] in self.stream_phases:
            part, reference = 1, STREAM_REFERENCE_S
        else:
            part, reference = 0, REFERENCE_S
        return statistics.median(
            w / k[part] * reference for w, k in zip(self.wall[name], self.kernel_s[name])
        )


def run(workload, data_dir: str, seconds: float) -> dict:
    from time2box.data import add_inverse_relations, load_dataset
    from time2box.evaluation import eval_link_prediction, eval_time_prediction
    from time2box.training import train

    ops = Ops()
    metrics: dict[str, tuple[float, str]] = {}
    details: dict = {}
    unit_config = train_config(workload, UNIT_STEPS)
    variant = unit_config.variant

    def load():
        base = load_dataset(*dataset_paths(data_dir))
        return base, add_inverse_relations(base)

    def setup():
        return load()[1]

    def link(stmts):
        return eval_link_prediction(stmts, params, kb, variant, filter_splits=LINK_FILTER)

    def time_eval(stmts):
        return eval_time_prediction(stmts, params, kb, variant, k=TIME_K, tau=TIME_TAU)

    # set-up, the evaluated model and the full reports
    phase, n_ops = "setup", 1
    samples = Samples(Kernel(), workload.stream_phases)
    try:
        (base, kb), setup_s = timed(load)
        samples.add("setup", setup_s)
        details["counts"] = {sp: base.type_counts(sp) for sp in SPLITS}
        base = None
        link_stmts, time_stmts = link_statements(workload, kb), time_statements(workload, kb)
        n_link = sum(per_year_queries(s) for s in link_stmts)
        phase, n_ops = "train", workload.model_steps + n_link + len(time_stmts)
        params, _ = train(without_valid(kb), train_config(workload, workload.model_steps))
        if not params_finite(params):
            raise FloatingPointError("non-finite parameters after training")
        ops.attempted += workload.model_steps
        phase, n_ops = "link", n_link + len(time_stmts)
        link_report = link(link_stmts)
        ops.attempted += n_link
        phase, n_ops = "time", len(time_stmts)
        time_report = time_eval(time_stmts)
        ops.attempted += len(time_stmts)
    except Exception:
        ops.fail(n_ops, f"{phase} raised:\n" + traceback.format_exc())
        return result(ops, metrics, details)
    check_reports(ops, link_report, link_stmts, time_report, time_stmts)
    metrics["link_mrr"] = (link_report.overall.mrr, "score")
    metrics["time_gaeiou10"] = (time_report.overall.get("gaeiou@10", float("nan")), "score")
    details["link"] = {"statements": len(link_stmts), "queries": n_link}
    details["time"] = {"evaluated": time_report.n_evaluated, "skipped": time_report.n_skipped}

    # timed rounds of short units
    link_chunks = chunks(link_stmts, per_year_queries)
    time_chunks = chunks(time_stmts, lambda s: 1)
    units = [(f"train.{i}", dataclasses.replace(unit_config, seed=i)) for i in range(TRAIN_UNITS)]
    units += [(f"link.{i}", c) for i, c in enumerate(link_chunks)]
    units += [(f"time.{i}", c) for i, c in enumerate(time_chunks)]
    unit_ops = {name: work.steps for name, work in units[:TRAIN_UNITS]}
    unit_ops |= {f"link.{i}": sum(per_year_queries(s) for s in c) for i, c in enumerate(link_chunks)}
    unit_ops |= {f"time.{i}": len(c) for i, c in enumerate(time_chunks)}
    first: dict = {}
    rounds, spent = 0, 0.0
    try:
        while rounds < MIN_ROUNDS or spent < seconds:
            # tape cycles left by the previous round's train() calls are
            # collected first, so that neither the set-up's time nor peak RSS
            # depends on how many rounds ran
            gc.collect()
            spent += samples.restart()
            if rounds < workload.setup_repeats - 1:
                phase, pending = "setup", 1
                kb = None  # the old KB is freed before the next one is built
                kb, setup_s = timed(setup)
                samples.add("setup", setup_s)
            for name, work in units:
                phase, pending = name, unit_ops[name]
                if name.startswith("train"):
                    (trained, _), seconds_taken = timed(train, without_valid(kb), work)
                    if not params_finite(trained):
                        raise FloatingPointError("non-finite parameters after training")
                    out = params_digest(trained)
                    trained = None
                else:
                    evaluate = link if name.startswith("link") else time_eval
                    report, seconds_taken = timed(evaluate, work)
                    out = report.to_text()
                ops.attempted += pending
                if first.setdefault(name, out) != out:
                    ops.problems.append(f"round {rounds}: {name} gave a different result than in round 0")
                spent += samples.add(name, seconds_taken)
            rounds += 1
    except Exception:
        ops.fail(pending, f"{phase} raised in round {rounds}:\n" + traceback.format_exc())

    details["rounds"] = rounds
    details["samples_s"] = {"wall": samples.wall, "kernel": samples.kernel_s}
    metrics["setup_s"] = (samples.reference_s("setup"), "s")
    details["wall"] = {"setup_s": statistics.median(samples.wall["setup"])}
    if all(name in samples.wall for name, _ in units):
        work = {
            "train_steps_per_s": ("train", TRAIN_UNITS * unit_config.steps, "steps/s"),
            "link_queries_per_s": ("link", n_link, "queries/s"),
            "time_statements_per_s": ("time", time_report.n_evaluated, "statements/s"),
        }
        for metric, (prefix, n, unit) in work.items():
            names = [name for name, _ in units if name.split(".")[0] == prefix]
            metrics[metric] = (n / sum(samples.reference_s(name) for name in names), unit)
            details["wall"][metric] = n / sum(statistics.median(samples.wall[name]) for name in names)
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB")
    return result(ops, metrics, details)


def check_reports(ops: Ops, link_report, link_stmts, time_report, time_stmts) -> None:
    if link_report.overall.count != len(link_stmts):
        ops.problems.append(f"link report counts {link_report.overall.count} of {len(link_stmts)} statements")
    if not 0.0 < link_report.overall.mrr <= 1.0:
        ops.problems.append(f"link MRR {link_report.overall.mrr} outside (0, 1]")
    if time_report.n_evaluated + time_report.n_skipped != len(time_stmts):
        ops.problems.append("time report does not account for every statement")
    gae = time_report.overall.get("gaeiou@10", float("nan"))
    if not 0.0 < gae <= 1.0:
        ops.problems.append(f"gaeIOU@10 {gae} outside (0, 1]")


def result(ops: Ops, metrics: dict, details: dict) -> dict:
    return {
        "correct": ops.failed == 0 and not ops.problems,
        "attempted": max(ops.attempted, 1),
        "failed": ops.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "problems": ops.problems,
        "details": details,
    }
