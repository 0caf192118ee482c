"""Traced run: the per-layer split, and the guard that it times the same program.

The loops of `load_dataset`, `train`, `eval_link_prediction` and
`eval_time_prediction` are rebuilt here from the finer public functions of
`data`, `training`, `autodiff`, `model` and `evaluation`, and every call is
timed from outside. Each phase first runs its entry point untraced, then
the rebuilt loop. The guard requires the same vocabularies and split
sizes, bitwise-equal parameters and identical report text; the untraced
over traced wall time of a phase is its `trace.overhead_ratio`.

When a finer function the rebuild needs no longer exists, that phase's
layers are reported as absent and the phase is not compared; the change
that renamed the function updates the rebuild.
"""

from __future__ import annotations

import gc
import statistics
import time
import traceback

import numpy as np

from timing import Spans
from untraced import (
    Ops, dataset_paths, params_equal, params_finite, peak_rss_mb, result, train_config, without_valid,
)
from untraced import timed as timed_call
from workloads import LINK_FILTER, SPLITS, TIME_K, TIME_TAU, link_statements, per_year_queries, time_statements

TIMED_LAYERS = {
    "setup": (),
    "train": ("training.sample", "training.batch_loss", "autodiff.backward", "autodiff.densify", "training.adam"),
    "link": ("model.box_of_query", "model.score_entities", "data.filter_lookup", "evaluation.rank"),
    "time": ("evaluation.score_timeline", "evaluation.greedy_coalesce", "evaluation.interval_metrics"),
}
OTHER_LAYERS = {
    "setup": ("data.parse_s", "data.build_kb_s", "data.add_inverse_relations_s", "data.peak_rss_mb"),
    "train": ("autodiff.tape_nodes", "autodiff.tape_nodes.total", "training.tneg_fallback_ratio", "training.tneg_samples"),
    "link": ("evaluation.link_queries",),
    "time": ("evaluation.time_statements", "evaluation.time_skipped"),
}


class Absent(Exception):
    """A finer function the rebuilt loop calls is gone."""


def need(owner, *names):
    missing = [n for n in names if not hasattr(owner, n)]
    if missing:
        owner_name = getattr(owner, "__name__", type(owner).__name__)
        raise Absent(", ".join(f"{owner_name}.{n}" for n in missing))
    return [getattr(owner, n) for n in names]


def kb_summary(kb) -> tuple:
    return (
        tuple(kb.entities.labels),
        tuple(kb.relations.labels),
        kb.axis,
        {sp: len(kb.splits[sp]) for sp in SPLITS},
    )


# --------------------------------------------------------------------------
# rebuilt loops


def rebuilt_setup(paths, out: dict):
    import time2box.data as data

    Vocab, parse_statement, TimeAxis, build_kb, add_inverse_relations = need(
        data, "Vocab", "parse_statement", "TimeAxis", "build_kb", "add_inverse_relations"
    )
    entities, relations = Vocab(), Vocab()
    raw = {}
    t0 = time.perf_counter()
    for sp, path in zip(SPLITS, paths):
        with open(path, encoding="utf-8") as fh:
            raw[sp] = [
                parse_statement(line, entities, relations, line_no)
                for line_no, line in enumerate(fh, start=1)
                if line.strip()
            ]
    t1 = time.perf_counter()
    # the axis spans the training split's years, as load_dataset sets it
    years = [y for st in raw["train"] for y in (st.scope.start, st.scope.end) if y is not None]
    axis = TimeAxis(origin=min(years), length=max(years) - min(years) + 1)
    base = build_kb(raw, entities, relations, axis)
    t2 = time.perf_counter()
    kb = add_inverse_relations(base)
    t3 = time.perf_counter()
    out["data.parse_s"] = (t1 - t0, "s")
    out["data.build_kb_s"] = (t2 - t1, "s")
    out["data.add_inverse_relations_s"] = (t3 - t2, "s")
    return base, kb


def rebuilt_train(kb, config, spans: Spans, out: dict):
    import time2box.autodiff as ad
    import time2box.training as training
    from time2box.model import ParameterStore

    make_training_sample, batch_loss, Adam, TrainingDiverged = need(
        training, "make_training_sample", "batch_loss", "Adam", "TrainingDiverged"
    )
    backward, densify = need(ad, "backward", "densify")
    need(Adam, "step")
    need(ParameterStore, "initialize", "clamp_offsets")

    # the same two random streams train() derives from the training seed
    init_rng, batch_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(2)
    )
    params = ParameterStore.initialize(
        config.d, kb.n_entities, kb.n_relations, kb.axis.length, config.gamma, config.alpha, init_rng
    )
    adam = Adam(config.lr)
    statements = kb.splits["train"]
    m = config.time_negatives
    tape_nodes, tneg_samples, tneg_fallbacks = [], 0, 0
    for step in range(1, config.steps + 1):
        picks = batch_rng.integers(0, len(statements), size=config.batch)
        with spans.span("training.sample"):
            batch = [make_training_sample(statements[i], kb, config, batch_rng) for i in picks]
        with spans.span("training.batch_loss"):
            loss, tape = batch_loss(batch, params, config.beta)
        if not np.isfinite(float(loss.value)):
            raise TrainingDiverged(f"loss is {float(loss.value)} at step {step}")
        with spans.span("autodiff.backward"):
            gmap = backward(tape, loss)
        with spans.span("autodiff.densify"):
            grads = densify(gmap, params.arrays)
        with spans.span("training.adam"):
            adam.step(params.arrays, grads)
            params.clamp_offsets()
        tape_nodes.append(len(tape.nodes))
        if m > 0:
            temporal = [s for s in batch if s.statement.scope.is_temporal]
            tneg_samples += len(temporal)
            tneg_fallbacks += sum(len(s.negatives_times) < m for s in temporal)
    out["autodiff.tape_nodes"] = (statistics.median(tape_nodes), "count")
    out["autodiff.tape_nodes.total"] = (sum(tape_nodes), "count")
    out["training.tneg_samples"] = (tneg_samples, "count")
    out["training.tneg_fallback_ratio"] = (tneg_fallbacks / tneg_samples if tneg_samples else 0.0, "ratio")
    return params


def query_times(stmt) -> list:
    """Timestamps a statement's link queries use, as eval_link_prediction expands them."""
    from time2box.data import ScopeKind

    scope = stmt.scope
    if scope.kind is ScopeKind.NO_TIME:
        return [None]
    if scope.kind is ScopeKind.LEFT_OPEN:
        return [scope.end]
    if scope.kind is ScopeKind.CLOSED:
        return list(range(scope.start, scope.end + 1))
    return [scope.start]


def rebuilt_link(stmts, params, kb, variant, spans: Spans, out: dict):
    import time2box.evaluation as evaluation
    import time2box.model as model
    from time2box.data import ScopeKind

    QueryPlan, box_of_query, score_entities = need(model, "QueryPlan", "box_of_query", "score_entities")
    MetricBlock, LinkPredReport, VALIDITY_BUCKETS = need(
        evaluation, "MetricBlock", "LinkPredReport", "VALIDITY_BUCKETS"
    )
    timed_objects, atemporal_objects = need(kb.filter, "timed_objects", "atemporal_objects")
    bucket_of = {
        ScopeKind.NO_TIME: "no-time",
        ScopeKind.INSTANT: "instant",
        ScopeKind.RIGHT_OPEN: "open-interval",
        ScopeKind.LEFT_OPEN: "open-interval",
        ScopeKind.CLOSED: "closed-interval",
    }
    by_type = {b: [] for b in VALIDITY_BUCKETS}
    all_ranks = []
    for stmt in stmts:
        ranks = []
        for t in query_times(stmt):
            plan = QueryPlan(
                stmt.s,
                stmt.r,
                () if t is None else (t,),
                projector_kind=variant.projector_kind,
                use_tr=variant.use_tr,
            )
            with spans.span("model.box_of_query"):
                box = box_of_query(plan, params)
            with spans.span("model.score_entities"):
                scores = score_entities(box, params)
            with spans.span("data.filter_lookup"):
                if t is None:
                    known = atemporal_objects(stmt.s, stmt.r, splits=LINK_FILTER)
                else:
                    known = timed_objects(stmt.s, stmt.r, t, splits=LINK_FILTER)
            with spans.span("evaluation.rank"):
                gold_score = scores[stmt.o]
                competing = np.ones(len(scores), dtype=bool)
                for e in known:
                    competing[e] = False
                competing[stmt.o] = False
                ranks.append(1 + int(np.count_nonzero(scores[competing] >= gold_score)))
        avg = float(np.mean(ranks))
        all_ranks.append(avg)
        by_type[bucket_of[stmt.scope.kind]].append(avg)
    out["evaluation.link_queries"] = (len(spans.samples.get("evaluation.rank", ())), "count")
    return LinkPredReport(
        overall=MetricBlock.from_ranks(all_ranks),
        by_type={name: MetricBlock.from_ranks(r) for name, r in by_type.items() if r},
        filter_splits=tuple(LINK_FILTER),
    )


def rebuilt_time(stmts, params, kb, variant, spans: Spans, out: dict):
    import time2box.evaluation as evaluation

    (gold_interval, score_timeline, greedy_coalesce, giou, aeiou, gaeiou,
     duration_bucket, TimePredReport, DURATION_BUCKETS) = need(
        evaluation, "gold_interval", "score_timeline", "greedy_coalesce", "giou", "aeiou", "gaeiou",
        "duration_bucket", "TimePredReport", "DURATION_BUCKETS",
    )
    rows, n_skipped = [], 0
    for stmt in stmts:
        gold = gold_interval(stmt)
        if gold is None:
            n_skipped += 1
            continue
        with spans.span("evaluation.score_timeline"):
            timeline = score_timeline(stmt.s, stmt.r, stmt.o, params, kb, variant)
        with spans.span("evaluation.greedy_coalesce"):
            predicted = greedy_coalesce(timeline, TIME_K, TIME_TAU)
        with spans.span("evaluation.interval_metrics"):
            values = {}
            for name, fn in (("giou", giou), ("aeiou", aeiou), ("gaeiou", gaeiou)):
                per_pred = [fn(gold, iv) for iv in predicted]
                values[f"{name}@1"] = per_pred[0]
                values[f"{name}@{TIME_K}"] = max(per_pred)
        rows.append((duration_bucket(gold.duration), values))

    def means(selected):
        if not selected:
            return {}
        return {key: float(np.mean([v[key] for v in selected])) for key in selected[0]}

    report = TimePredReport(n_evaluated=len(rows), n_skipped=n_skipped)
    report.overall = means([v for _, v in rows])
    for bucket in DURATION_BUCKETS:
        bucket_rows = [v for b, v in rows if b == bucket]
        report.counts[bucket] = len(bucket_rows)
        if bucket_rows:
            report.by_duration[bucket] = means(bucket_rows)
    out["evaluation.time_statements"] = (report.n_evaluated, "count")
    out["evaluation.time_skipped"] = (n_skipped, "count")
    return report


# --------------------------------------------------------------------------
# the run


def timed(fn, *args, **kwargs):
    """timed_call after a full collection, so no phase pays for another's garbage."""
    gc.collect()
    return timed_call(fn, *args, **kwargs)


def run(workload, data_dir: str) -> dict:
    from time2box.data import add_inverse_relations, load_dataset
    from time2box.evaluation import eval_link_prediction, eval_time_prediction
    from time2box.training import train

    ops = Ops()
    spans = Spans()
    out: dict[str, tuple[float, str]] = {}
    details: dict = {"absent": {}}
    paths = dataset_paths(data_dir)

    def rebuild(phase: str, fn, *args):
        """Run a rebuilt loop, timed; None when one of its functions is absent."""
        try:
            result, seconds = timed(fn, *args)
        except Absent as exc:
            details["absent"][phase] = {"missing": str(exc), "layers": TIMED_LAYERS[phase] + OTHER_LAYERS[phase]}
            return None, None
        return result, seconds

    pending = 1  # operations of the phase in progress, failed if it raises
    try:
        # set-up
        def entry_setup():
            base = load_dataset(*paths)
            return base, add_inverse_relations(base)

        (base, kb), entry_s = timed(entry_setup)
        want = (kb_summary(base), kb_summary(kb))
        details["counts"] = {sp: base.type_counts(sp) for sp in SPLITS}
        base = kb = None
        (pair, traced_s) = rebuild("setup", rebuilt_setup, paths, out)
        if pair is None:
            kb = add_inverse_relations(load_dataset(*paths))
        else:
            base, kb = pair
            out["data.peak_rss_mb"] = (peak_rss_mb(), "MiB")
            out["trace.overhead_ratio.setup"] = (entry_s / traced_s, "ratio")
            if (kb_summary(base), kb_summary(kb)) != want:
                ops.problems.append("rebuilt load differs from load_dataset + add_inverse_relations")
            base = None

        # training
        config = train_config(workload, workload.model_steps)
        train_kb = without_valid(kb)
        pending = config.steps
        (params, _), entry_s = timed(train, train_kb, config)
        if not params_finite(params):
            raise FloatingPointError("non-finite parameters after training")
        ops.attempted += config.steps
        rebuilt, traced_s = rebuild("train", rebuilt_train, train_kb, config, spans, out)
        if rebuilt is not None:
            ops.attempted += config.steps
            out["trace.overhead_ratio.train"] = (entry_s / traced_s, "ratio")
            if not params_equal(params, rebuilt):
                ops.problems.append("rebuilt train loop gives different parameters than train()")

        # link prediction
        stmts = link_statements(workload, kb)
        pending = sum(per_year_queries(s) for s in stmts)
        report, entry_s = timed(eval_link_prediction, stmts, params, kb, config.variant, filter_splits=LINK_FILTER)
        ops.attempted += pending
        rebuilt, traced_s = rebuild("link", rebuilt_link, stmts, params, kb, config.variant, spans, out)
        if rebuilt is not None:
            ops.attempted += pending
            out["trace.overhead_ratio.link"] = (entry_s / traced_s, "ratio")
            if rebuilt.to_text() != report.to_text():
                ops.problems.append("rebuilt link evaluation differs from eval_link_prediction")

        # time prediction
        stmts = time_statements(workload, kb)
        pending = len(stmts)
        report, entry_s = timed(eval_time_prediction, stmts, params, kb, config.variant, k=TIME_K, tau=TIME_TAU)
        ops.attempted += pending
        rebuilt, traced_s = rebuild("time", rebuilt_time, stmts, params, kb, config.variant, spans, out)
        if rebuilt is not None:
            ops.attempted += pending
            out["trace.overhead_ratio.time"] = (entry_s / traced_s, "ratio")
            if rebuilt.to_text() != report.to_text():
                ops.problems.append("rebuilt time evaluation differs from eval_time_prediction")
    except Exception:
        ops.fail(pending, "traced run raised:\n" + traceback.format_exc())

    metrics = dict(out)
    tails = {}
    for name in spans.samples:
        summary = spans.summary(name)
        metrics[f"{name}_ms"] = (summary["median"], "ms")
        metrics[f"{name}_ms.tail"] = (summary["tail"], "ms")
        metrics[f"{name}.calls"] = (summary["n"], "count")
        tails[name] = summary["tail_pct"]
    details["tail_percentile"] = tails
    return result(ops, metrics, details)
