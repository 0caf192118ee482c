"""Evaluation: filtered link-prediction ranking, time-interval prediction
via greedy coalescing, and the interval overlap metrics.

Ranking is filtered: known true answers from the chosen splits (other
than the query's own gold) are removed before the rank is computed, and
ties count above the gold. A closed-interval query is ranked once per
year of its interval and the ranks are averaged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import ScopeKind, Statement, TemporalKB
from .model import ParameterStore, Variant, box_scores, query_box, score_entities

DEFAULT_FILTER_SPLITS = ("train", "valid")

DURATION_BUCKETS = ("du=1", "1<du<=5", "du>5")


class NonFiniteScoreError(ValueError):
    """A gold entity scored NaN or infinity, so its rank would be meaningless."""


@dataclass(frozen=True)
class Interval:
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"interval lo {self.lo} > hi {self.hi}")

    @property
    def duration(self) -> int:
        return self.hi - self.lo + 1


@dataclass
class RankResult:
    query: tuple
    per_timestamp: list[int]

    @property
    def averaged(self) -> float:
        return float(np.mean(self.per_timestamp))


# ---------------------------------------------------------------------------
# interval overlap metrics


def _lengths(g_lo, g_hi, p_lo, p_hi):
    inter = np.maximum(0, np.minimum(g_hi, p_hi) - np.maximum(g_lo, p_lo) + 1)
    hull = np.maximum(g_hi, p_hi) - np.minimum(g_lo, p_lo) + 1
    union = (g_hi - g_lo + 1) + (p_hi - p_lo + 1) - inter
    gap = np.maximum(g_lo, p_lo) - np.minimum(g_hi, p_hi) + 1  # >= 2 when disjoint
    return inter, hull, union, gap


def giou_arrays(g_lo, g_hi, p_lo, p_hi):
    inter, hull, union, _ = _lengths(g_lo, g_hi, p_lo, p_hi)
    return inter / union - (hull - union) / hull


def aeiou_arrays(g_lo, g_hi, p_lo, p_hi):
    inter, hull, _, _ = _lengths(g_lo, g_hi, p_lo, p_hi)
    return np.where(inter > 0, inter / hull, 1.0 / hull)


def gaeiou_arrays(g_lo, g_hi, p_lo, p_hi):
    inter, hull, _, gap = _lengths(g_lo, g_hi, p_lo, p_hi)
    return np.where(inter > 0, inter / hull, (1.0 / np.where(inter > 0, 1, gap)) / hull)


def giou(gold: Interval, pred: Interval) -> float:
    """Intersection over union minus the hull fraction not covered by
    either interval; in (-1, 1], 1 iff the intervals coincide."""
    return float(giou_arrays(gold.lo, gold.hi, pred.lo, pred.hi))


def aeiou(gold: Interval, pred: Interval) -> float:
    """Intersection over hull when overlapping, else 1/hull; in (0, 1]."""
    return float(aeiou_arrays(gold.lo, gold.hi, pred.lo, pred.hi))


def gaeiou(gold: Interval, pred: Interval) -> float:
    """Like aeiou, but a disjoint prediction is further discounted by the
    gap length, so nearer misses score strictly higher; in (0, 1]."""
    return float(gaeiou_arrays(gold.lo, gold.hi, pred.lo, pred.hi))


METRICS = {"giou": giou_arrays, "aeiou": aeiou_arrays, "gaeiou": gaeiou_arrays}


@dataclass(frozen=True)
class PropertyViolation:
    clause: str  # "overlap" | "non-overlap"
    gold: Interval
    pred1: Interval
    pred2: Interval
    m1: float
    m2: float


def property_p_check(
    metric: str,
    trials: int,
    rng: np.random.Generator,
    span: int = 60,
    max_len: int = 15,
) -> list[PropertyViolation]:
    """Fuzz the required metric ordering on random (gold, pred1, pred2).

    Overlap clause (equal nonzero intersections): the prediction with the
    smaller hull must score strictly higher. Non-overlap clause (both
    disjoint from gold): the prediction with the smaller hull*gap product
    must score strictly higher. Triples covered by neither clause are
    skipped. Scores equal up to 1e-12 relative tolerance count as ties:
    equal-by-construction values can differ by an ulp when computed along
    different factorizations, while a genuine ordering gap is at least one
    integer in the hull or product and orders of magnitude larger.
    """
    fn = METRICS[metric]
    lo = rng.integers(0, span, size=(trials, 3))
    length = rng.integers(1, max_len + 1, size=(trials, 3))
    hi = lo + length - 1
    g_lo, p1_lo, p2_lo = lo[:, 0], lo[:, 1], lo[:, 2]
    g_hi, p1_hi, p2_hi = hi[:, 0], hi[:, 1], hi[:, 2]

    i1, h1, _, gap1 = _lengths(g_lo, g_hi, p1_lo, p1_hi)
    i2, h2, _, gap2 = _lengths(g_lo, g_hi, p2_lo, p2_hi)
    m1 = fn(g_lo, g_hi, p1_lo, p1_hi)
    m2 = fn(g_lo, g_hi, p2_lo, p2_hi)
    tol = 1e-12 * np.maximum(np.abs(m1), np.abs(m2))
    gt12 = m1 > m2 + tol
    gt21 = m2 > m1 + tol

    overlap_case = (i1 == i2) & (i1 > 0)
    overlap_bad = overlap_case & ((gt12 != (h1 < h2)) | (gt21 != (h2 < h1)))
    disjoint_case = (i1 == 0) & (i2 == 0)
    prod1, prod2 = h1 * gap1, h2 * gap2
    disjoint_bad = disjoint_case & (
        (gt12 != (prod1 < prod2)) | (gt21 != (prod2 < prod1))
    )

    violations = []
    for idx in np.flatnonzero(overlap_bad | disjoint_bad):
        violations.append(
            PropertyViolation(
                "overlap" if overlap_bad[idx] else "non-overlap",
                Interval(int(g_lo[idx]), int(g_hi[idx])),
                Interval(int(p1_lo[idx]), int(p1_hi[idx])),
                Interval(int(p2_lo[idx]), int(p2_hi[idx])),
                float(m1[idx]),
                float(m2[idx]),
            )
        )
    return violations


# ---------------------------------------------------------------------------
# link prediction


def rank_entity(
    query: tuple[int, int, int | None],
    gold: int,
    params: ParameterStore,
    kb: TemporalKB,
    filter_splits=DEFAULT_FILTER_SPLITS,
    variant=None,
) -> int:
    """Filtered rank of the gold entity for a query (s, r, t-or-None);
    ties with remaining non-gold entities count above the gold. A
    non-finite gold score raises NonFiniteScoreError instead of ranking first."""
    variant = variant or Variant()
    s, r, t = query
    box = query_box(params, variant, s, r, () if t is None else (t,))
    scores = score_entities(box, params)
    gold_score = scores[gold]
    if not np.isfinite(gold_score):
        raise NonFiniteScoreError(
            f"non-finite score {gold_score} for gold entity {gold} of query {query}"
        )
    if t is None:
        known = kb.filter.atemporal_objects(s, r, splits=filter_splits)
    else:
        known = kb.filter.timed_objects(s, r, t, splits=filter_splits)
    competing = np.ones(len(scores), dtype=bool)
    competing[np.fromiter(known, dtype=np.intp, count=len(known))] = False
    competing[gold] = False
    return 1 + int(np.count_nonzero(scores[competing] >= gold_score))


@dataclass
class MetricBlock:
    count: int = 0
    mrr: float = 0.0
    mr: float = 0.0
    hits1: float = 0.0
    hits3: float = 0.0
    hits10: float = 0.0

    @classmethod
    def from_ranks(cls, ranks: list[float]) -> "MetricBlock":
        if not ranks:
            return cls()
        arr = np.array(ranks, dtype=float)
        return cls(
            count=len(arr),
            mrr=float(np.mean(1.0 / arr)),
            mr=float(np.mean(arr)),
            hits1=float(np.mean(arr <= 1)),
            hits3=float(np.mean(arr <= 3)),
            hits10=float(np.mean(arr <= 10)),
        )

    def row(self) -> list[str]:
        return [
            str(self.count),
            f"{self.mrr:.6f}",
            f"{self.mr:.2f}",
            f"{self.hits1:.6f}",
            f"{self.hits3:.6f}",
            f"{self.hits10:.6f}",
        ]


VALIDITY_BUCKETS = ("open-interval", "closed-interval", "instant", "no-time")

_BUCKET_OF_KIND = {
    ScopeKind.NO_TIME: "no-time",
    ScopeKind.INSTANT: "instant",
    ScopeKind.RIGHT_OPEN: "open-interval",
    ScopeKind.LEFT_OPEN: "open-interval",
    ScopeKind.CLOSED: "closed-interval",
}


@dataclass
class LinkPredReport:
    overall: MetricBlock
    by_type: dict[str, MetricBlock]
    filter_splits: tuple[str, ...]

    def to_text(self) -> str:
        lines = [f"filter_splits={','.join(self.filter_splits)}"]
        for name, block in [("overall", self.overall)] + sorted(self.by_type.items()):
            for metric in ("count", "mrr", "mr", "hits1", "hits3", "hits10"):
                lines.append(f"{name}.{metric}={getattr(block, metric)}")
        return "\n".join(lines) + "\n"

    def breakdown_tsv(self) -> str:
        header = "type\tcount\tMRR\tMR\tHITS@1\tHITS@3\tHITS@10"
        rows = ["\t".join(["overall"] + self.overall.row())]
        for name in VALIDITY_BUCKETS:
            block = self.by_type.get(name, MetricBlock())
            rows.append("\t".join([name] + block.row()))
        return "\n".join([header] + rows) + "\n"


def statement_rank(
    stmt: Statement,
    params: ParameterStore,
    kb: TemporalKB,
    filter_splits=DEFAULT_FILTER_SPLITS,
    variant=None,
) -> RankResult:
    """Per-statement rank: a single query for no-time/instant statements,
    the known endpoint for half-open ones, and one query per year of a
    closed interval (averaged by the caller)."""
    scope = stmt.scope
    if scope.kind is ScopeKind.NO_TIME:
        ts: list[int | None] = [None]
    elif scope.kind is ScopeKind.INSTANT:
        ts = [scope.start]
    elif scope.kind is ScopeKind.RIGHT_OPEN:
        ts = [scope.start]
    elif scope.kind is ScopeKind.LEFT_OPEN:
        ts = [scope.end]
    else:
        ts = list(range(scope.start, scope.end + 1))
    ranks = [
        rank_entity((stmt.s, stmt.r, t), stmt.o, params, kb, filter_splits, variant) for t in ts
    ]
    return RankResult((stmt.s, stmt.r, stmt.o), ranks)


def eval_link_prediction(
    statements: list[Statement],
    params: ParameterStore,
    kb: TemporalKB,
    variant=None,
    filter_splits=DEFAULT_FILTER_SPLITS,
) -> LinkPredReport:
    """Filtered ranking over the given statements with a per-validity-type
    breakdown; closed intervals contribute their averaged rank."""
    by_type: dict[str, list[float]] = {b: [] for b in VALIDITY_BUCKETS}
    all_ranks: list[float] = []
    for stmt in statements:
        avg = statement_rank(stmt, params, kb, filter_splits, variant).averaged
        all_ranks.append(avg)
        by_type[_BUCKET_OF_KIND[stmt.scope.kind]].append(avg)
    return LinkPredReport(
        overall=MetricBlock.from_ranks(all_ranks),
        by_type={name: MetricBlock.from_ranks(r) for name, r in by_type.items() if r},
        filter_splits=tuple(filter_splits),
    )


# ---------------------------------------------------------------------------
# time prediction


def score_timeline(
    s: int, r: int, o: int, params: ParameterStore, kb: TemporalKB, variant=None
) -> np.ndarray:
    """Score of the fixed object o against the instant query box of
    (s, r, t) for every timestamp t on the axis."""
    times = np.arange(kb.axis.length)[:, None]
    box = query_box(params, variant or Variant(), s, r, times)
    obj = params.arrays["entity_emb"][o]
    return box_scores(obj, box.center_value(), box.offset_value(), params.gamma, params.alpha)


def check_coalesce_parameters(k: int, tau: float) -> None:
    """Raise ValueError unless k >= 1 and 0 < tau <= 1."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")


def greedy_coalesce(scores: np.ndarray, k: int, tau: float = 0.5) -> list[Interval]:
    """Turn per-timestamp scores into up to k ranked intervals.

    Probabilities come from a softmax over the scores. Each round seeds at
    the unconsumed argmax (earliest on ties) and repeatedly extends toward
    the unconsumed neighbor with the larger probability, left on ties,
    while that probability is at least tau times the seed's; the interval
    is then emitted and its timestamps consumed. A non-finite score raises
    NonFiniteScoreError instead of coalescing into plausible intervals.

    The walk stops only when no unconsumed neighbor reaches the threshold,
    so an interval is the whole run of unconsumed timestamps around its
    seed that reach it. The order of the steps, and so the tie rule, cannot
    change that run; it is grown here leftward first, then rightward.
    """
    check_coalesce_parameters(k, tau)
    bad = np.flatnonzero(~np.isfinite(scores))
    if len(bad):
        raise NonFiniteScoreError(f"non-finite score {scores[bad[0]]} at timestamp {bad[0]}")
    z = scores - np.max(scores)
    p = np.exp(z)
    p /= p.sum()
    # consumed timestamps hold -inf in both copies: `free` gives each seed by
    # argmax, and in `probs` they fall below every threshold (>= 0)
    free = p.astype(np.float64)
    probs = p.tolist()
    n = len(probs)
    n_free = n
    intervals: list[Interval] = []
    for _ in range(k):
        if not n_free:
            break
        seed = int(free.argmax())
        threshold = float(tau * p[seed])
        lo = hi = seed
        while lo > 0 and probs[lo - 1] >= threshold:
            lo -= 1
        while hi + 1 < n and probs[hi + 1] >= threshold:
            hi += 1
        free[lo : hi + 1] = -np.inf
        probs[lo : hi + 1] = [-np.inf] * (hi - lo + 1)
        n_free -= hi - lo + 1
        intervals.append(Interval(lo, hi))
    return intervals


def duration_bucket(duration: int) -> str:
    if duration <= 1:
        return "du=1"
    if duration <= 5:
        return "1<du<=5"
    return "du>5"


@dataclass
class TimePredReport:
    overall: dict[str, float] = field(default_factory=dict)  # "gaeiou@1" -> mean
    by_duration: dict[str, dict[str, float]] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    n_evaluated: int = 0
    n_skipped: int = 0  # half-open/no-time golds lack a closed gold interval

    def to_text(self) -> str:
        lines = [f"evaluated={self.n_evaluated}", f"skipped={self.n_skipped}"]
        lines += [f"{key}={value:.6f}" for key, value in sorted(self.overall.items())]
        for bucket in DURATION_BUCKETS:
            for key, value in sorted(self.by_duration.get(bucket, {}).items()):
                lines.append(f"{bucket}.{key}={value:.6f}")
        return "\n".join(lines) + "\n"

    def breakdown_tsv(self) -> str:
        metrics = [f"{m}@{k}" for m in ("giou", "aeiou", "gaeiou") for k in (1, 10)]
        header = "bucket\tcount\t" + "\t".join(metrics)
        rows = [
            "\t".join(
                ["overall", str(self.n_evaluated)]
                + [f"{self.overall.get(m, float('nan')):.6f}" for m in metrics]
            )
        ]
        for bucket in DURATION_BUCKETS:
            block = self.by_duration.get(bucket, {})
            rows.append(
                "\t".join(
                    [bucket, str(self.counts.get(bucket, 0))]
                    + [f"{block.get(m, float('nan')):.6f}" for m in metrics]
                )
            )
        return "\n".join([header] + rows) + "\n"


def gold_interval(stmt: Statement) -> Interval | None:
    """Closed gold interval of a statement; instants become [t, t];
    half-open and no-time scopes have no evaluable gold."""
    scope = stmt.scope
    if scope.kind is ScopeKind.INSTANT:
        return Interval(scope.start, scope.start)
    if scope.kind is ScopeKind.CLOSED:
        return Interval(scope.start, scope.end)
    return None


def eval_time_prediction(
    statements: list[Statement],
    params: ParameterStore,
    kb: TemporalKB,
    variant=None,
    k: int = 10,
    tau: float = 0.5,
) -> TimePredReport:
    """Score the full axis per statement, coalesce into k ranked intervals
    and report each metric at rank 1 and best-of-k, overall and by gold
    duration bucket.

    The loop only collects integer bounds: each evaluated statement's gold
    interval and bucket, and its predictions flattened with one offset per
    statement. Each metric then runs once over all (statement, prediction)
    pairs; @1 is read at the offsets and @k is the maximum over each
    statement's segment, so every mean is taken over the same float64
    values in statement order as a per-statement loop would give.
    """
    check_coalesce_parameters(k, tau)
    gold_lo: list[int] = []
    gold_hi: list[int] = []
    buckets: list[str] = []
    offsets: list[int] = []
    pred_lo: list[int] = []
    pred_hi: list[int] = []
    n_skipped = 0
    for stmt in statements:
        gold = gold_interval(stmt)
        if gold is None:
            n_skipped += 1
            continue
        timeline = score_timeline(stmt.s, stmt.r, stmt.o, params, kb, variant)
        predicted = greedy_coalesce(timeline, k, tau)
        gold_lo.append(gold.lo)
        gold_hi.append(gold.hi)
        buckets.append(duration_bucket(gold.duration))
        offsets.append(len(pred_lo))
        for iv in predicted:
            pred_lo.append(iv.lo)
            pred_hi.append(iv.hi)

    report = TimePredReport(n_evaluated=len(offsets), n_skipped=n_skipped)
    for bucket in DURATION_BUCKETS:
        report.counts[bucket] = buckets.count(bucket)
    if not offsets:
        return report
    starts = np.array(offsets)
    per_statement = np.diff(starts, append=len(pred_lo))
    g_lo = np.repeat(np.array(gold_lo), per_statement)
    g_hi = np.repeat(np.array(gold_hi), per_statement)
    p_lo, p_hi = np.array(pred_lo), np.array(pred_hi)
    columns: dict[str, np.ndarray] = {}
    for name, fn in METRICS.items():
        values = fn(g_lo, g_hi, p_lo, p_hi)
        columns[f"{name}@1"] = values[starts]
        columns[f"{name}@{k}"] = np.maximum.reduceat(values, starts)

    def means(rows) -> dict[str, float]:
        return {key: float(np.mean(column[rows])) for key, column in columns.items()}

    report.overall = means(slice(None))
    labels = np.array(buckets)
    for bucket in DURATION_BUCKETS:
        if report.counts[bucket]:
            report.by_duration[bucket] = means(labels == bucket)
    return report


def random_interval_baseline(
    golds: list[Interval],
    n_times: int,
    metric: str = "gaeiou",
    k: int = 10,
    trials: int = 200,
    rng: np.random.Generator | None = None,
) -> float:
    """Expected best-of-k metric of uniformly random intervals against the
    given golds, estimated by simulation (two uniform endpoints, sorted)."""
    rng = rng or np.random.default_rng(0)
    fn = METRICS[metric]
    g_lo = np.array([g.lo for g in golds])
    g_hi = np.array([g.hi for g in golds])
    total = 0.0
    for _ in range(trials):
        a = rng.integers(0, n_times, size=(len(golds), k))
        b = rng.integers(0, n_times, size=(len(golds), k))
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        vals = fn(g_lo[:, None], g_hi[:, None], lo, hi)
        total += float(np.mean(vals.max(axis=1)))
    return total / trials
