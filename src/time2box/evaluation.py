"""Evaluation: filtered link-prediction ranking, time-interval prediction
via greedy coalescing, and the interval overlap metrics.

Ranking is filtered: known true answers from the chosen splits (other
than the query's own gold) are removed before the rank is computed, and
ties count above the gold. A closed-interval query is ranked once per
year of its interval and the ranks are averaged; the per-year queries are
built, scored and ranked in chunks.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .data import ScopeKind, Statement, TemporalKB, discretize, scope_span
from . import model
from .model import (
    BoxEmbedding,
    ParameterStore,
    Variant,
    box_scores,
    query_box,
    run_tasks,
    score_entities,
)

DEFAULT_FILTER_SPLITS = ("train", "valid")

DURATION_BUCKETS = ("du=1", "1<du<=5", "du>5")


class NonFiniteScoreError(ValueError):
    """An entity scored NaN or infinity, so a rank or interval built on the
    scores would be meaningless."""


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


#: link queries built, scored and ranked together: at most this many per
#: chunk, which bounds the chunk's box temporaries (on c07 with d=64 a link
#: evaluation peaks at about 2.7 MiB under tracemalloc on two cores, 1.6 MiB
#: on one)
LINK_CHUNK_QUERIES = 128
#: and at most this many query x entity scores per chunk, but at least one
#: query, which bounds its (Q, |E|) score and mask arrays: on a 12.5k-entity
#: table a chunk is one query, since 5-query chunks scored no faster there
#: and raised the process's peak RSS by about 2 MiB. Both readings were taken
#: with scoring on one thread, before score_entities split a table over the
#: cores; they have not been repeated since.
LINK_CHUNK_SCORES = 1 << 13


def link_chunk_size(n_entities: int) -> int:
    """Queries per chunk: LINK_CHUNK_QUERIES, fewer on large entity tables."""
    return max(1, min(LINK_CHUNK_QUERIES, LINK_CHUNK_SCORES // max(1, n_entities)))


def link_query_times(stmt: Statement) -> list[int | None]:
    """Timestamps of a statement's link queries: None for no-time, else its
    discretization (the known endpoint for instants and half-open scopes,
    every year of a closed interval)."""
    return discretize(stmt.scope) if stmt.scope.is_temporal else [None]


def _chunk_scores(queries, params: ParameterStore, variant: Variant) -> np.ndarray:
    """(Q, |E|) scores of queries that all have a timestamp or all have none.

    The boxes are built with leading shape (Q, 1): the singleton axis keeps
    the DeepSets gate a per-query GEMV, so each box equals its single-query
    build bit for bit (a flat (Q,) batch would be a GEMM and differ).
    """
    s = np.array([q[0] for q in queries], dtype=np.intp)
    r = np.array([q[1] for q in queries], dtype=np.intp)
    times = np.array([[] if q[2] is None else [q[2]] for q in queries], dtype=np.intp)
    box = query_box(params, variant, s[:, None], r[:, None], times[:, None, :])
    return score_entities(BoxEmbedding(box.center_value()[:, 0], box.offset_value()[:, 0]), params)


def _filtered_ranks(
    queries, golds, scores: np.ndarray, kb: TemporalKB, filter_splits
) -> np.ndarray:
    """1 + the number of competing entities scoring at least the gold, per
    query; the gold and the known answers of filter_splits do not compete."""
    rows: list[int] = []
    cols: list[int] = []
    for j, (s, r, t) in enumerate(queries):
        if t is None:
            known = kb.filter.atemporal_objects(s, r, splits=filter_splits)
        else:
            known = kb.filter.timed_objects(s, r, t, splits=filter_splits)
        rows.extend([j] * len(known))
        cols.extend(known)
    competing = np.ones(scores.shape, dtype=bool)
    competing[rows, cols] = False
    here = np.arange(len(queries))
    competing[here, golds] = False
    competing &= scores >= scores[here, golds][:, None]
    return 1 + np.count_nonzero(competing, axis=1)


def rank_queries(
    queries: list[tuple[int, int, int | None]],
    golds: list[int],
    params: ParameterStore,
    kb: TemporalKB,
    filter_splits=DEFAULT_FILTER_SPLITS,
    variant=None,
) -> np.ndarray:
    """Filtered ranks of the gold entities of link queries (s, r, t-or-None),
    in query order; ties with remaining non-gold entities count above the gold.

    Queries without and with a timestamp are walked separately (their boxes
    have 0 and 1 time projections), in chunks of link_chunk_size queries:
    one query_box call, one score_entities pass and one masked count each.
    If any entity of a query scores NaN or infinity, NonFiniteScoreError
    is raised for the first such query instead of ranking around it; it
    names the entity by id and label and the query by labels and year
    ('-' for no time).
    """
    variant = variant or Variant()
    ranks = np.zeros(len(queries), dtype=np.int64)
    size = link_chunk_size(params.n_entities)
    bad: list[tuple[int, np.ndarray]] = []  # first non-finite query of each group
    for timed in (False, True):
        group = [i for i, q in enumerate(queries) if (q[2] is not None) == timed]
        for lo in range(0, len(group), size):
            chunk = group[lo : lo + size]
            chunk_queries = [queries[i] for i in chunk]
            scores = _chunk_scores(chunk_queries, params, variant)
            finite = np.isfinite(scores).all(axis=1)
            if not finite.all():
                j = int(np.argmin(finite))
                bad.append((chunk[j], scores[j]))
                break
            chunk_golds = [golds[i] for i in chunk]
            ranks[chunk] = _filtered_ranks(chunk_queries, chunk_golds, scores, kb, filter_splits)
    if bad:
        i, scores = min(bad, key=lambda item: item[0])
        e = int(np.flatnonzero(~np.isfinite(scores))[0])
        s, r, t = queries[i]
        labels = kb.entities.labels
        year = "-" if t is None else kb.axis.year_of(t)
        raise NonFiniteScoreError(
            f"non-finite score {scores[e]} for entity {e} ({labels[e]}) of query "
            f"({labels[s]}, {kb.relations.labels[r]}, {year})"
        )
    return ranks


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


def eval_link_prediction(
    statements: Iterable[Statement],
    params: ParameterStore,
    kb: TemporalKB,
    variant=None,
    filter_splits=DEFAULT_FILTER_SPLITS,
) -> LinkPredReport:
    """Filtered ranking over the given statements with a per-validity-type
    breakdown; closed intervals contribute their averaged rank.

    All statements are expanded up front into their per-year queries and
    ranked in chunks by rank_queries. The ranks are exact integers, so each
    statement's sum over its queries divided by their count is the same
    float64 as the mean of a per-query loop.
    """
    statements = list(statements)  # a Statements split builds its objects on access: read it once
    queries: list[tuple[int, int, int | None]] = []
    golds: list[int] = []
    offsets: list[int] = []
    for stmt in statements:
        offsets.append(len(queries))
        for t in link_query_times(stmt):
            queries.append((stmt.s, stmt.r, t))
            golds.append(stmt.o)
    by_type: dict[str, list[float]] = {b: [] for b in VALIDITY_BUCKETS}
    all_ranks: list[float] = []
    if statements:
        ranks = rank_queries(queries, golds, params, kb, filter_splits, variant)
        starts = np.array(offsets)
        counts = np.diff(starts, append=len(queries))
        all_ranks = (np.add.reduceat(ranks, starts) / counts).tolist()
        for stmt, avg in zip(statements, all_ranks):
            by_type[_BUCKET_OF_KIND[stmt.scope.kind]].append(avg)
    return LinkPredReport(
        overall=MetricBlock.from_ranks(all_ranks),
        by_type={name: MetricBlock.from_ranks(r) for name, r in by_type.items() if r},
        filter_splits=tuple(filter_splits),
    )


# ---------------------------------------------------------------------------
# time prediction


#: float64 elements of a time-prediction chunk's (statements, axis, d) box
#: centers: at most TIME_CHUNK_ELEMENTS // (T*d) statements, but at least one,
#: share one query_box call (25 on c07 with d=64, 5 on a 200-year axis); a
#: te,tns evaluation of c07's test split at d=64 then peaks at about 4.5 MiB
#: under tracemalloc
TIME_CHUNK_ELEMENTS = 1 << 16
#: a call of two or more chunks is split over the usable cores only when a
#: statement's (T, d) timeline boxes hold at least this many elements, so
#: that a chunk holds at most 8 statements: its numpy work is about
#: TIME_CHUNK_ELEMENTS whatever the axis, but its coalescing, which runs in
#: Python and holds the GIL, grows with its statements (a 200-year axis at
#: d=64 has 5 per chunk and threads; c07's 40-year axis has 25 and does not)
TIME_THREAD_ELEMENTS = 1 << 13


def time_chunk_size(n_times: int, d: int) -> int:
    """Statements per time-prediction chunk: TIME_CHUNK_ELEMENTS // (T*d), at least one."""
    return max(1, TIME_CHUNK_ELEMENTS // (n_times * d))


def _chunk_timelines(
    s: np.ndarray, r: np.ndarray, o: np.ndarray, params: ParameterStore, variant: Variant,
    n_times: int,
) -> np.ndarray:
    """(B, T) timelines of the statements (s[i], r[i], o[i]).

    The box does not depend on the object, so statements of one (relation,
    subject) pair that follow each other share one timeline box: U counts
    the runs of equal pairs, one query_box call builds the (U, T) boxes,
    and they are gathered back to (B, T) only when some run is longer than
    one. Each timeline equals a one-statement build bit for bit: every
    item-axis op is elementwise across boxes, and each matmul keeps its
    per-(box, timestamp) or per-box slice, so the DeepSets gate's pooled
    (U, T, d) array is U stacked (T, d) products, the one-statement build's.
    """
    starts = (s[1:] != s[:-1]) | (r[1:] != r[:-1])  # where a new run starts
    shared = not starts.all()
    if shared:
        first = np.concatenate(([True], starts))
        s, r = s[first], r[first]
    box = query_box(params, variant, s[:, None], r[:, None], np.arange(n_times)[:, None])
    center, offset = box.center_value(), box.offset_value()
    if shared:
        runs = np.cumsum(first) - 1
        center, offset = center[runs], offset[runs]
    obj = params.arrays["entity_emb"][o][:, None, :]
    return box_scores(obj, center, offset, params.gamma, params.alpha)


def score_timeline(
    s: int, r: int, o: int, params: ParameterStore, kb: TemporalKB, variant=None
) -> np.ndarray:
    """Score of the fixed object o against the instant query box of
    (s, r, t) for every timestamp t on the axis."""
    s, r, o = (np.array([i], dtype=np.intp) for i in (s, r, o))
    timelines = _chunk_timelines(s, r, o, params, variant or Variant(), kb.axis.length)
    return timelines[0]


def check_coalesce_parameters(k: int, tau: float) -> None:
    """Raise ValueError unless k >= 1 and 0 < tau <= 1."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")


def _coalesce_rows(timelines: np.ndarray, k: int, tau: float) -> list[list[int]]:
    """greedy_coalesce's intervals for every row of finite (B, T) float64
    timelines, as flat bounds [lo1, hi1, lo2, hi2, ...] per row.

    One softmax and one stable argsort serve the whole chunk: sorted by
    falling probability, earliest first on ties, each row's timestamps are
    its seeds in the order the rounds take them, so a round's seed is the
    first one not yet consumed. The intervals are grown over Python lists.
    """
    z = timelines - timelines.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    orders = np.argsort(-p, axis=1, kind="stable").tolist()
    out: list[list[int]] = []
    for probs, order in zip(p.tolist(), orders):
        # consumed timestamps hold -inf: below 0, and so below every threshold
        n = len(probs)
        pos = 0
        flat: list[int] = []
        for _ in range(k):
            while pos < n and probs[order[pos]] < 0.0:
                pos += 1
            if pos == n:
                break
            seed = order[pos]
            threshold = tau * probs[seed]
            lo = hi = seed
            while lo > 0 and probs[lo - 1] >= threshold:
                lo -= 1
            while hi + 1 < n and probs[hi + 1] >= threshold:
                hi += 1
            probs[lo : hi + 1] = [-np.inf] * (hi - lo + 1)
            flat += (lo, hi)
        out.append(flat)
    return out


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
    change that run; it is grown here leftward first, then rightward, by
    the one-row call of the walk that eval_time_prediction runs per chunk.
    """
    check_coalesce_parameters(k, tau)
    scores = np.asarray(scores, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(scores))
    if len(bad):
        raise NonFiniteScoreError(f"non-finite score {scores[bad[0]]} at timestamp {bad[0]}")
    flat = _coalesce_rows(scores[None, :], k, tau)[0]
    return [Interval(lo, hi) for lo, hi in zip(flat[0::2], flat[1::2])]


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
    if stmt.scope.kind in (ScopeKind.INSTANT, ScopeKind.CLOSED):
        return Interval(*scope_span(stmt.scope))
    return None


def eval_time_prediction(
    statements: Iterable[Statement],
    params: ParameterStore,
    kb: TemporalKB,
    variant=None,
    k: int = 10,
    tau: float = 0.5,
) -> TimePredReport:
    """Score the full axis per statement, coalesce into k ranked intervals
    and report each metric at rank 1 and best-of-k, overall and by gold
    duration bucket.

    Evaluable statements are grouped by relation, and within a relation by
    subject, both in order of first appearance, so that the statements of
    one (relation, subject) pair share chunks and their timeline box. The
    grouped statements are scored in chunks of time_chunk_size statements
    (one _chunk_timelines call each), which run across relations.
    A chunk's timelines are coalesced at once (one softmax and one argsort)
    and only their integer bounds are kept, by statement index, so memory
    is set by the chunk. If a timeline holds NaN or infinity,
    NonFiniteScoreError is raised for the first such statement in
    statement order; it names the statement by labels and the first
    non-finite year.

    A chunk is one task of model.run_tasks. A call of two or more chunks
    whose statements hold at least TIME_THREAD_ELEMENTS timeline elements
    each (a 200-year axis at d=64, not c07's 40 years) is split over the
    usable cores; any other call runs its chunks in order on the caller. A
    task writes only its own statements' bounds, or records its chunk's
    first non-finite statement, and a timeline's bits do not depend on the
    chunk or thread that builds it, so the report and the error are the
    one-thread loop's.

    The metrics then run once over all (statement, prediction) pairs in
    statement order: @1 is read at each statement's first prediction and
    @k is the maximum over its predictions, so every mean is taken over the
    same float64 values in the same order as a per-statement loop would give.
    """
    check_coalesce_parameters(k, tau)
    variant = variant or Variant()
    statements = list(statements)  # a Statements split builds its objects on access: read it once
    groups: dict[int, dict[int, list[int]]] = {}
    for i, stmt in enumerate(statements):
        if gold_interval(stmt) is not None:
            groups.setdefault(stmt.r, {}).setdefault(stmt.s, []).append(i)
    # per statement index: lo, hi of each prediction in rank order, flat
    bounds: list[list[int] | None] = [None] * len(statements)
    size = time_chunk_size(kb.axis.length, params.d)
    order = [i for by_subject in groups.values() for same in by_subject.values() for i in same]
    n_chunks = -(-len(order) // size)
    found: list[tuple[int, np.ndarray]] = []  # first non-finite statement of a chunk

    def task(c: int) -> None:
        chunk = order[c * size : (c + 1) * size]
        # found only grows, so a chunk skipped on a stale view of it still
        # cannot hold an earlier non-finite statement
        if found and min(chunk) > min(i for i, _ in found):
            return
        rows = [statements[i] for i in chunk]
        s = np.array([stmt.s for stmt in rows], dtype=np.intp)
        r = np.array([stmt.r for stmt in rows], dtype=np.intp)
        o = np.array([stmt.o for stmt in rows], dtype=np.intp)
        timelines = _chunk_timelines(s, r, o, params, variant, kb.axis.length)
        finite = np.isfinite(timelines).all(axis=1)
        if not finite.all():
            j = min(np.flatnonzero(~finite), key=chunk.__getitem__)
            found.append((chunk[j], timelines[j]))
            return
        for i, flat in zip(chunk, _coalesce_rows(timelines, k, tau)):
            bounds[i] = flat

    threads = 1
    if n_chunks > 1 and kb.axis.length * params.d >= TIME_THREAD_ELEMENTS:
        threads = min(model._usable_cores(), n_chunks)
    run_tasks(n_chunks, task, [()] * threads)
    if found:
        i, timeline = min(found, key=lambda item: item[0])
        t = int(np.flatnonzero(~np.isfinite(timeline))[0])
        stmt = statements[i]
        labels = kb.entities.labels
        raise NonFiniteScoreError(
            f"non-finite score {timeline[t]} at year {kb.axis.year_of(t)} of statement "
            f"({labels[stmt.s]}, {kb.relations.labels[stmt.r]}, {labels[stmt.o]})"
        )

    gold_lo: list[int] = []
    gold_hi: list[int] = []
    buckets: list[str] = []
    offsets: list[int] = []
    pred_lo: list[int] = []
    pred_hi: list[int] = []
    for stmt, flat in zip(statements, bounds):
        if flat is None:
            continue
        gold = gold_interval(stmt)
        gold_lo.append(gold.lo)
        gold_hi.append(gold.hi)
        buckets.append(duration_bucket(gold.duration))
        offsets.append(len(pred_lo))
        pred_lo.extend(flat[0::2])
        pred_hi.extend(flat[1::2])

    report = TimePredReport(n_evaluated=len(offsets), n_skipped=len(statements) - len(offsets))
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

    def means(rows, n: int) -> dict[str, float]:
        # np.mean's bits without its Python wrapper: the same sum, divided by n
        return {key: float(np.add.reduce(column[rows]) / n) for key, column in columns.items()}

    report.overall = means(slice(None), report.n_evaluated)
    labels = np.array(buckets)
    for bucket in DURATION_BUCKETS:
        if report.counts[bucket]:
            report.by_duration[bucket] = means(labels == bucket, report.counts[bucket])
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
