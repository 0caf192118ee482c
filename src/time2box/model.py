"""Box embeddings for temporal queries.

A query (s, r, ?o, t*) is answered by projecting the subject to a
relation box (all objects related to s under r), optionally to one or two
time boxes (all objects co-occurring with s at a timestamp), and taking
an attention/DeepSets intersection. Candidate objects are ranked by a
two-part point-to-box distance (autodiff.margin_loss's distances on the
training tape, box_scores and score_entities without one).

`query_box` is the only place query boxes are built: training's positive
and time-negative boxes, evaluation's link queries and timelines,
`predict` and the test oracle all call it (the oracle through the
single-query adapter `box_of_query`). All forward functions work on
single queries or batches (leading dimensions broadcast) and record on
an autodiff tape when one is given.
"""

from __future__ import annotations

import functools
import itertools
import os
import queue
import threading
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node, Tape

PROJECTOR_TE = "te"  # translation: center = e + r
PROJECTOR_DM = "dm"  # elementwise product: center = e * r

#: checkpoint block order; also the parameter-draw order at initialization
PARAM_ORDER = (
    "entity_emb",
    "relation_emb",
    "relation_off",
    "time_emb",
    "time_off",
    "w_att",
    "w_ds_in",
    "w_ds_hidden",
    "w_ds_out",
)


def param_shapes(d: int, n_entities: int, n_relations: int, n_times: int) -> dict[str, tuple]:
    """Shape of each parameter array, in PARAM_ORDER: the one layout that
    initialization and checkpoints share."""
    rows = (n_entities, n_relations, n_relations, n_times, n_times, d, d, d, d)
    return {name: (n, d) for name, n in zip(PARAM_ORDER, rows, strict=True)}


@dataclass
class BoxEmbedding:
    """Axis-aligned box: center and elementwise nonnegative offset.

    A point e lies inside iff center - offset <= e <= center + offset
    elementwise. Fields are numpy arrays, or tape nodes during training.
    """

    center: "Node | np.ndarray"
    offset: "Node | np.ndarray"

    def center_value(self) -> np.ndarray:
        return self.center.value if isinstance(self.center, Node) else self.center

    def offset_value(self) -> np.ndarray:
        return self.offset.value if isinstance(self.offset, Node) else self.offset


@dataclass(frozen=True)
class QueryPlan:
    """A concrete query: subject, relation, and 0-2 sampled timestamps."""

    subject: int
    relation: int
    time_projections: tuple[int, ...] = ()
    projector_kind: str = PROJECTOR_TE
    use_tr: bool = False

    def __post_init__(self):
        if len(self.time_projections) > 2:
            raise ValueError("a query plan carries at most 2 time projections")


@dataclass(frozen=True)
class Variant:
    """Model variant flags: projector kind plus the TR/SI/TNS toggles."""

    projector_kind: str = PROJECTOR_TE
    use_tr: bool = False
    use_si: bool = False
    use_tns: bool = False

    KNOWN = ("te", "dm", "tr", "si", "tns")

    @classmethod
    def parse(cls, spec: str) -> "Variant":
        names = [p.strip().lower() for p in spec.split(",") if p.strip()]
        unknown = [n for n in names if n not in cls.KNOWN]
        if unknown:
            raise ValueError(f"unknown variant name(s): {', '.join(unknown)}")
        kind = PROJECTOR_DM if "dm" in names else PROJECTOR_TE
        if "te" in names and "dm" in names:
            raise ValueError("te and dm projectors are mutually exclusive")
        return cls(kind, "tr" in names, "si" in names, "tns" in names)

    def encode(self) -> int:
        return (
            (1 if self.projector_kind == PROJECTOR_DM else 0)
            | (self.use_tr << 1)
            | (self.use_si << 2)
            | (self.use_tns << 3)
        )

    @classmethod
    def decode(cls, code: int) -> "Variant":
        return cls(
            PROJECTOR_DM if code & 1 else PROJECTOR_TE,
            bool(code & 2),
            bool(code & 4),
            bool(code & 8),
        )

    def __str__(self):
        parts = [self.projector_kind]
        parts += [n for n, on in (("tr", self.use_tr), ("si", self.use_si), ("tns", self.use_tns)) if on]
        return ",".join(parts)


class ParameterStore:
    """All learnable arrays plus the fixed hyperparameters (d, gamma, alpha).

    Scalar count is d*(|E| + 2|T| + 2|R|) + 4*d^2: one d-vector per entity,
    center and offset vectors per relation and per timestamp, and four
    biasless d x d matrices (one attention map, three DeepSets maps).
    """

    def __init__(self, arrays: dict[str, np.ndarray], gamma: float, alpha: float):
        missing = set(PARAM_ORDER) - set(arrays)
        if missing:
            raise ValueError(f"missing parameter arrays: {sorted(missing)}")
        self.arrays = arrays
        self.gamma = float(gamma)
        self.alpha = float(alpha)

    @classmethod
    def initialize(
        cls,
        d: int,
        n_entities: int,
        n_relations: int,
        n_times: int,
        gamma: float = 24.0,
        alpha: float = 0.5,
        rng: np.random.Generator | None = None,
    ) -> "ParameterStore":
        """Margin-scaled uniform init: centers in [-gamma/d, gamma/d],
        offsets in [0, gamma/d], Xavier-uniform intersection matrices."""
        rng = rng or np.random.default_rng(0)
        s = gamma / d
        xavier = np.sqrt(3.0 / d)
        bounds = {
            "entity_emb": (-s, s),
            "relation_emb": (-s, s),
            "relation_off": (0.0, s),
            "time_emb": (-s, s),
            "time_off": (0.0, s),
        }
        arrays = {
            name: rng.uniform(*bounds.get(name, (-xavier, xavier)), size=shape)
            for name, shape in param_shapes(d, n_entities, n_relations, n_times).items()
        }
        return cls(arrays, gamma, alpha)

    @property
    def d(self) -> int:
        return self.arrays["entity_emb"].shape[1]

    @property
    def n_entities(self) -> int:
        return self.arrays["entity_emb"].shape[0]

    @property
    def n_relations(self) -> int:
        return self.arrays["relation_emb"].shape[0]

    @property
    def n_times(self) -> int:
        return self.arrays["time_emb"].shape[0]

    def param_count(self) -> int:
        return sum(a.size for a in self.arrays.values())

    def clamp_offsets(self) -> None:
        """Keep stored offsets nonnegative (applied after optimizer steps)."""
        np.maximum(self.arrays["relation_off"], 0.0, out=self.arrays["relation_off"])
        np.maximum(self.arrays["time_off"], 0.0, out=self.arrays["time_off"])

    def copy(self) -> "ParameterStore":
        return ParameterStore(
            {k: v.copy() for k, v in self.arrays.items()}, self.gamma, self.alpha
        )

    def rows(self, tape, name: str, indices) -> Node:
        return ad.param_rows(tape, self.arrays[name], name, indices)

    def matrix(self, tape, name: str) -> Node:
        return ad.param_full(tape, self.arrays[name], name)


def _project(subject_emb: Node, projector_emb: Node, kind: str) -> Node:
    if kind == PROJECTOR_TE:
        return ad.add(subject_emb, projector_emb)
    if kind == PROJECTOR_DM:
        return ad.mul(subject_emb, projector_emb)
    raise ValueError(f"unknown projector kind {kind!r}")


def intersect_items(
    center_items: list[Node],
    offset_items: list[Node],
    params: ParameterStore,
    tape: Tape | None = None,
) -> BoxEmbedding:
    """Intersection over boxes given as parallel center/offset item lists
    (plus any extra attention-only center points appended by the caller).

    Center: elementwise attention over centers, weights softmaxed across
    items per dimension. Offset: elementwise min over offsets, downscaled
    by a sigmoid-gated DeepSets encoding, so the result is strictly
    smaller than every input in each dimension.
    """
    center = ad.attention_center(center_items, params.matrix(tape, "w_att"))
    w_ds = (params.matrix(tape, name) for name in ("w_ds_in", "w_ds_hidden", "w_ds_out"))
    return BoxEmbedding(center, ad.gated_min(offset_items, *w_ds))


def intersect(
    boxes: list[BoxEmbedding],
    params: ParameterStore,
    tr_point=None,
    tape: Tape | None = None,
) -> BoxEmbedding:
    """Intersect one or more boxes; `tr_point` (a vector or list of
    vectors) joins the center attention without contributing an offset."""
    if not boxes:
        raise ValueError("intersection needs at least one box")
    center_items = [b.center for b in boxes]
    if tr_point is not None:
        center_items += tr_point if isinstance(tr_point, (list, tuple)) else [tr_point]
    return intersect_items(center_items, [b.offset for b in boxes], params, tape)


def query_box(
    params: ParameterStore, variant: Variant, s, r, times, tape: Tape | None = None
) -> BoxEmbedding:
    """Answer boxes of the queries (s, r, ?o, times); the one place query
    boxes are built, for training, evaluation and predict alike.

    s, r and times[..., j] are index arrays whose shapes broadcast to the
    leading shape L of the result; times has k in {0, 1, 2} columns on its
    last axis. With k = 0 the result is the relation box itself. Otherwise
    the relation box is intersected with one time box per timestamp, and
    under the TR variant each timestamp also adds the point r + t to the
    center attention: items [rel, t1, tr1, t2, tr2].

    Offset nonnegativity is a store invariant (offsets are clamped at 0
    after every optimizer step); the lookups themselves stay identities so
    a zeroed offset dimension keeps receiving gradient and can regrow.
    """
    times = np.asarray(times, dtype=np.intp)
    kind = variant.projector_kind
    e = params.rows(tape, "entity_emb", s)
    rel = params.rows(tape, "relation_emb", r)
    box = BoxEmbedding(_project(e, rel, kind), params.rows(tape, "relation_off", r))
    if times.shape[-1] == 0:
        return box
    center_items, offset_items = [box.center], [box.offset]
    # the time projections take their own subject lookup: sharing e would
    # change the order in which backward sums its gradient, and the bits
    e = params.rows(tape, "entity_emb", s)
    for j in range(times.shape[-1]):
        t = times[..., j]
        t_emb = params.rows(tape, "time_emb", t)
        center_items.append(_project(e, t_emb, kind))
        offset_items.append(params.rows(tape, "time_off", t))
        if variant.use_tr:
            center_items.append(ad.add(params.rows(tape, "relation_emb", r), t_emb))
    return intersect_items(center_items, offset_items, params, tape)


def box_of_query(plan: QueryPlan, params: ParameterStore, tape: Tape | None = None) -> BoxEmbedding:
    """Answer box of a single query plan (see query_box)."""
    variant = Variant(plan.projector_kind, plan.use_tr)
    return query_box(params, variant, plan.subject, plan.relation, plan.time_projections, tape)


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")


#: float64 elements per scoring work buffer (512 KiB): a row block of
#: entity_emb and both buffers together stay inside a 2 MiB L2 cache
SCORE_BLOCK_ELEMENTS = 1 << 16


def box_scores(points, center, offset, gamma: float, alpha: float) -> np.ndarray:
    """log sigmoid(gamma - distance) of points to boxes with nonnegative
    offsets, without a tape; leading dimensions broadcast. The distance is
    ad.box_distance_value, the kernel training's ad.margin_loss runs, so a
    score here equals the training loss's log sigmoid(gamma - distance) bit
    for bit."""
    _check_alpha(alpha)
    points, center, offset = (np.asarray(a, dtype=np.float64) for a in (points, center, offset))
    shape = np.broadcast_shapes(points.shape, center.shape, offset.shape)
    total = ad.box_distance_value(
        points, center, center - offset, center + offset, alpha, np.empty(shape), np.empty(shape)
    )
    return ad.log_sigmoid_value(gamma - total)


def _usable_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_job(job, done: queue.SimpleQueue) -> None:
    """Run one job on a worker and put its error, or None, on `done`."""
    try:
        job()
    except BaseException as exc:  # handed to the caller, which raises it
        done.put(exc)
    else:
        done.put(None)


def _serve(inbox: queue.SimpleQueue) -> None:
    """A worker's loop; between jobs it holds no reference to the last one."""
    while True:
        _run_job(*inbox.get())


class _Workers:
    """Daemon threads that run jobs next to the calling thread, started on
    first use; being daemons, idle ones never delay interpreter exit."""

    def __init__(self):
        self.pid = os.getpid()
        self.lock = threading.Lock()
        self.inboxes: list[queue.SimpleQueue] = []

    def run(self, jobs: list) -> None:
        """Run jobs[0] on the calling thread and each later job on a worker of
        its own. Once every job has stopped, raise the caller's error, or else
        the first error a worker reported."""
        with self.lock:
            while len(self.inboxes) < len(jobs) - 1:
                inbox = queue.SimpleQueue()
                threading.Thread(target=_serve, args=(inbox,), daemon=True).start()
                self.inboxes.append(inbox)
            done = queue.SimpleQueue()
            for inbox, job in zip(self.inboxes, jobs[1:]):
                inbox.put((job, done))
            try:
                jobs[0]()
            finally:
                errors = [done.get() for _ in jobs[1:]]
        for error in errors:
            if error is not None:
                raise error


_workers: _Workers | None = None


def _scoring_workers() -> _Workers:
    """The process's task workers, made on the first threaded call. A forked
    child inherits the object but not its threads, so it makes its own."""
    global _workers
    if _workers is None or _workers.pid != os.getpid():
        _workers = _Workers()
    return _workers


def run_tasks(n_tasks: int, task, buffers: list[tuple]) -> None:
    """Run task(i, *buffers[t]) once for every i in range(n_tasks), on
    len(buffers) threads: thread t works in buffers[t].

    One set of buffers runs the tasks in index order on the calling thread.
    More sets split them between the caller and one worker per further set
    (_scoring_workers): each thread claims its next index from one shared
    counter, so a thread the machine slows claims fewer. The workers run
    under the caller's numpy error state, and an error in any thread is
    raised once every thread has stopped. Tasks may run at the same time, so
    a task writes only its own outputs (a shared list may take appends), and
    it must not call run_tasks itself.
    """
    if len(buffers) == 1:
        for i in range(n_tasks):
            task(i, *buffers[0])
        return
    claims = itertools.count()
    err, call = np.geterr(), np.geterrcall()

    def claim(*buffer) -> None:
        with np.errstate(call=call, **err):
            while (i := next(claims)) < n_tasks:  # next() is atomic under the GIL
                task(i, *buffer)

    _scoring_workers().run([functools.partial(claim, *buffer) for buffer in buffers])


def score_entities(box: BoxEmbedding, params: ParameterStore) -> np.ndarray:
    """Scores of every entity against one query box of shape (d,), as an
    (|E|,) array, or against Q boxes of shape (Q, d), as a (Q, |E|) array
    (evaluation path).

    Equal to box_scores over the whole entity table, but walks it in tasks
    of queries x entity rows of at most SCORE_BLOCK_ELEMENTS, so the work
    buffers are reused in cache: a row block holds up to
    SCORE_BLOCK_ELEMENTS // d entities, and as many queries as fit share it.

    A call of two or more such tasks is split over the usable cores by
    run_tasks, each thread into its own pair of buffers; a call of one task
    runs on the caller alone. A task writes its own slice of the scores
    from read-only inputs, so a score's bits do not depend on the thread
    that computes it. The log-sigmoid runs on the caller after the last
    task.
    """
    _check_alpha(params.alpha)
    emb = params.arrays["entity_emb"]
    center, offset = box.center_value(), box.offset_value()
    n, d = emb.shape
    queries, offset = center.reshape(-1, 1, d), offset.reshape(-1, 1, d)
    b_min, b_max = queries - offset, queries + offset
    q = len(queries)
    rows = max(1, min(n, SCORE_BLOCK_ELEMENTS // d))
    per_block = max(1, SCORE_BLOCK_ELEMENTS // (rows * d))
    row_blocks = -(-n // rows)
    q_blocks = range(0, q, per_block)
    n_tasks = len(q_blocks) * row_blocks
    buffers = []
    for _ in range(max(1, min(_usable_cores(), n_tasks))):
        clamped = np.empty((min(per_block, q), rows, d))
        buffers.append((clamped, np.empty_like(clamped)))
    scores = np.empty((q, n))

    def task(i: int, clamped: np.ndarray, diff: np.ndarray) -> None:
        """Distances of query block i // row_blocks to row block i % row_blocks."""
        q_lo, lo = q_blocks[i // row_blocks], rows * (i % row_blocks)
        qs = slice(q_lo, q_lo + per_block)
        block = emb[lo : lo + rows]
        k, m = len(queries[qs]), len(block)
        scores[qs, lo : lo + m] = ad.box_distance_value(
            block, queries[qs], b_min[qs], b_max[qs], params.alpha, clamped[:k, :m], diff[:k, :m]
        )

    run_tasks(n_tasks, task, buffers)
    for q_lo in q_blocks:
        qs = slice(q_lo, q_lo + per_block)
        # distances to scores per query block, so the log-sigmoid's
        # temporaries do not grow with Q
        scores[qs] = ad.log_sigmoid_value(params.gamma - scores[qs])
    return scores.reshape(center.shape[:-1] + (n,))
