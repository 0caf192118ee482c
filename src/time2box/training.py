"""Training: negative sampling, margin loss, Adam updates, checkpoints.

Each step draws a fresh batch of statements; closed-interval statements
re-sample their timestamp (or sub-interval) every time they are seen, so
the whole interval is eventually used. Entity negatives corrupt the
object, time negatives corrupt the timestamp with scope-consistent false
timestamps and score the true object against the rebuilt box.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape
from .data import ScopeKind, Statement, TemporalKB, scope_span
from .model import (
    PARAM_ORDER,
    ParameterStore,
    QueryPlan,
    Variant,
    param_shapes,
    query_box,
)

CHECKPOINT_MAGIC = b"T2B1"


class TrainingDiverged(RuntimeError):
    """Loss became non-finite."""


class CheckpointError(Exception):
    """Unreadable, truncated, or dimensionally inconsistent checkpoint."""


@dataclass(frozen=True)
class TrainConfig:
    d: int = 64
    k: int = 16  # entity negatives per positive (total negatives under TNS)
    m: int | None = None  # time negatives replacing entity ones; default k//2 under TNS
    lr: float = 1e-3
    batch: int = 256
    steps: int = 2000
    gamma: float = 24.0
    alpha: float = 0.5
    beta: float = 0.0  # time-smoothness weight
    variant: Variant = field(default_factory=Variant)
    seed: int = 0
    eval_every: int = 200

    def __post_init__(self):
        """Reject a configuration that could only fail, or train nothing,
        before any data is loaded."""
        for name in ("d", "k", "batch", "steps", "eval_every"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        for name in ("lr", "gamma"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and above 0, got {value}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError(f"beta must be finite and at least 0, got {self.beta}")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")
        if self.m is not None and not 0 <= self.m <= self.k:
            raise ValueError("m must satisfy 0 <= m <= k (time negatives replace entity ones)")

    @property
    def time_negatives(self) -> int:
        if not self.variant.use_tns:
            return 0
        return self.k // 2 if self.m is None else self.m


@dataclass
class TrainingSample:
    """One positive statement with its sampled query plan and negatives."""

    statement: Statement
    plan: QueryPlan
    negatives_entities: list[int]
    negatives_times: list[int]
    weight: float  # 1 / (number of training answers to the concrete query)


def plan_for_statement(stmt: Statement, variant: Variant, rng: np.random.Generator) -> QueryPlan:
    """Sample the query plan: half-open scopes use their known endpoint; a
    closed interval samples one timestamp, or a sub-interval under SI."""
    scope = stmt.scope
    if scope.kind is ScopeKind.NO_TIME:
        times: tuple[int, ...] = ()
    elif scope.kind is not ScopeKind.CLOSED:
        times = scope_span(scope)[:1]
    elif variant.use_si:
        a = int(rng.integers(scope.start, scope.end + 1))
        b = int(rng.integers(scope.start, scope.end + 1))
        times = (min(a, b), max(a, b))
    else:
        times = (int(rng.integers(scope.start, scope.end + 1)),)
    return QueryPlan(stmt.s, stmt.r, times, variant.projector_kind, variant.use_tr)


def sample_entity_negatives(
    positives: set[int], k: int, n: int, rng: np.random.Generator
) -> list[int]:
    """k distinct entities in range(n) outside positives, by uniform
    rejection sampling; after 100*k rejected draws the remaining slots are
    filled uniformly from all non-positive entities."""
    if n < k + len(positives):
        raise ValueError(
            f"cannot draw {k} negatives: only {n} entities and {len(positives)} known positives"
        )
    chosen: list[int] = []
    chosen_set: set[int] = set()
    budget = 100 * k
    while len(chosen) < k and budget > 0:
        draw = min(budget, 2 * k)
        for cand in rng.integers(0, n, size=draw).tolist():
            if cand not in positives and cand not in chosen_set:
                chosen.append(cand)
                chosen_set.add(cand)
                if len(chosen) == k:
                    break
        budget -= draw
    if len(chosen) < k:
        mask = np.ones(n, dtype=bool)
        mask[np.fromiter(positives, dtype=np.intp, count=len(positives))] = False
        mask[np.asarray(chosen, dtype=np.intp)] = False
        allowed = np.flatnonzero(mask)
        picks = rng.permutation(len(allowed))[: k - len(chosen)]
        chosen.extend(int(allowed[i]) for i in picks)
    return chosen


def sample_time_negatives(
    stmt: Statement, m: int, kb: TemporalKB, rng: np.random.Generator
) -> list[int]:
    """Up to m distinct timestamps t' at which (s, r, o, t') is false in
    training, restricted by scope: any t' for instants, t' < start for
    right-open, t' > end for left-open, t' outside [start, end] for
    closed. An empty result signals the caller to fall back to entity
    negatives."""
    if not stmt.scope.is_temporal:
        raise ValueError("time negatives need a temporal statement")
    if m < 1:
        raise ValueError("m must be at least 1")
    scope = stmt.scope
    allowed = kb.filter.false_times(stmt.s, stmt.r, stmt.o, kb.axis.length)
    if scope.kind is ScopeKind.RIGHT_OPEN:
        allowed[scope.start :] = False
    elif scope.kind is ScopeKind.LEFT_OPEN:
        allowed[: scope.end + 1] = False
    elif scope.kind is ScopeKind.CLOSED:
        allowed[scope.start : scope.end + 1] = False
    candidates = np.flatnonzero(allowed)
    if not len(candidates):
        return []
    take = min(m, len(candidates))
    picks = rng.choice(len(candidates), size=take, replace=False)
    return candidates[np.sort(picks)].tolist()


def check_negative_sampling(kb: TemporalKB, config: TrainConfig) -> None:
    """Raise ValueError when some training query could run out of entity
    negatives: k plus the most distinct training objects under one
    (s, r) key must not exceed |E|. The bound is computed once per KB."""
    most = kb.filter.max_train_objects
    if config.k + most > kb.n_entities:
        raise ValueError(
            f"cannot draw {config.k} negatives: only {kb.n_entities} entities and up to "
            f"{most} known positives per (subject, relation)"
        )


def make_training_sample(
    stmt: Statement, kb: TemporalKB, config: TrainConfig, rng: np.random.Generator
) -> TrainingSample:
    """Plan, negatives and 1/n_q weight of one statement. The key's training
    answers are read once per plan timestamp (once without time): entity
    negatives avoid their union, and n_q is their intersection's size."""
    plan = plan_for_statement(stmt, config.variant, rng)
    neg_times: list[int] = []
    m = config.time_negatives
    if m > 0 and stmt.scope.is_temporal:
        neg_times = sample_time_negatives(stmt, m, kb, rng)
    times = plan.time_projections
    if times:
        answers = [kb.filter.timed_objects(stmt.s, stmt.r, t, splits=("train",)) for t in times]
        positives, n_q = set.union(*answers), len(set.intersection(*answers))
    else:
        positives = kb.filter.atemporal_objects(stmt.s, stmt.r, splits=("train",))
        n_q = len(positives)
    k_entities = config.k - len(neg_times)
    neg_entities = sample_entity_negatives(positives, k_entities, kb.n_entities, rng)
    return TrainingSample(stmt, plan, neg_entities, neg_times, 1.0 / max(n_q, 1))


def smoothness(params: ParameterStore) -> float:
    """Lambda(T), the mean squared L2 difference of consecutive timestamp
    embeddings (autodiff.smoothness_value), as margin_loss adds it."""
    emb = params.arrays["time_emb"]
    if len(emb) < 2:
        return 0.0
    return float(ad.smoothness_value(emb[1:] - emb[:-1]))


def batch_loss(
    batch: list[TrainingSample], params: ParameterStore, beta: float = 0.0
) -> tuple["ad.Node", Tape]:
    """Weighted margin loss over the batch plus the smoothness penalty.

    Per sample: -log sig(gamma - D(o, box)) - (1/k) * sum log sig(D' - gamma)
    over its k negatives, multiplied by the sample's 1/n_q weight; the
    batch loss is the mean. Lambda(T) is added once, weighted by beta,
    when any statement in the batch is temporal.

    Samples are grouped by their numbers of time projections and of time
    negatives. The tape records each group's query boxes and row lookups,
    then one autodiff.margin_loss node over all of them.
    """
    if not batch:
        raise ValueError("empty batch")
    tape = Tape()
    groups: dict[tuple, list[TrainingSample]] = {}
    for sample in batch:
        key = (len(sample.plan.time_projections), len(sample.negatives_times))
        groups.setdefault(key, []).append(sample)

    loss_groups = []
    for (_, n_tneg), group in groups.items():
        plan0 = group[0].plan
        variant = Variant(plan0.projector_kind, plan0.use_tr)
        s_idx = np.array([g.plan.subject for g in group])
        r_idx = np.array([g.plan.relation for g in group])
        t_idx = np.array([g.plan.time_projections for g in group], dtype=np.intp)  # (n, k)
        box = query_box(params, variant, s_idx, r_idx, t_idx, tape)
        o_emb = params.rows(tape, "entity_emb", [g.statement.o for g in group])
        ne_emb = t_center = t_offset = None
        if group[0].negatives_entities:
            ne_emb = params.rows(tape, "entity_emb", [g.negatives_entities for g in group])
        if n_tneg:
            # one single-timestamp box per (statement, corrupted timestamp);
            # the (n, 1) subject and relation build each relation box once
            tneg_idx = np.array([g.negatives_times for g in group])  # (n, m)
            tbox = query_box(
                params, variant, s_idx[:, None], r_idx[:, None], tneg_idx[..., None], tape
            )
            t_center, t_offset = tbox.center, tbox.offset
        weights = np.array([g.weight for g in group])
        k = len(group[0].negatives_entities) + n_tneg
        loss_groups.append(
            ad.LossGroup(box.center, box.offset, o_emb, ne_emb, t_center, t_offset, weights, k)
        )

    smooth = None
    if beta > 0.0 and params.n_times > 1 and any(s.statement.scope.is_temporal for s in batch):
        # the timestamp table's rows 1..T-1 and rows 0..T-2
        smooth = (
            params.rows(tape, "time_emb", np.arange(1, params.n_times)),
            params.rows(tape, "time_emb", np.arange(0, params.n_times - 1)),
        )
    loss = ad.margin_loss(loss_groups, params.gamma, params.alpha, len(batch), smooth, beta)
    return loss, tape


#: float64 elements per Adam block (256 KiB per array): a block of m, v,
#: the parameters and the gradient plus both work buffers stay inside a
#: 2 MiB L2 cache. On a 12.5k x 64 table, 2^15 measured fastest; 2^14
#: and 2^16 were 4-6% slower
ADAM_BLOCK_ELEMENTS = 1 << 15

#: Adam's decay rates and epsilon. Adam's untouched rows take a zero
#: gradient's bits only while both decay rates lie above 0.5
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with decay rates 0.9/0.999 and epsilon 1e-8; updates run in
    sorted array order so training is bitwise deterministic.

    A gradient is a dense array or a (rows, g) pair from autodiff.row_sums:
    sorted unique rows and their gradients, or rows None and a dense g. A
    dense gradient touches every row. An array without one has a zero
    gradient.

    Each (n, d) array is updated in place, in blocks of whole rows of up
    to ADAM_BLOCK_ELEMENTS that all reuse one step's two work buffers. Per
    element the operations are those of m = b1*m + (1-b1)*g;
    v = b2*v + (1-b2)*(g*g); p -= lr * (m/bc1) / (sqrt(v/bc2) + eps), in
    that order, so the bits do not depend on the block size.

    Every row decays its moments and moves, but only a touched row adds
    its gradient terms. That gives a zero gradient's bits: there
    (1-b1)*g is +0.0, and m*b1 + 0.0 is m*b1 unless m*b1 is -0.0, which it
    never is. m starts at +0.0; with b1 above 0.5 a product m*b1 is -0.0
    only when m is, and a round-to-nearest sum is -0.0 only when both
    addends are. The same holds for v and b2.
    """

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(
        self,
        arrays: dict[str, np.ndarray],
        grads: dict[str, np.ndarray | tuple[np.ndarray | None, np.ndarray]],
    ) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        size = max((_block_rows(*arr.shape) * arr.shape[1] for arr in arrays.values()), default=1)
        work = np.empty((2, size))
        for name in sorted(arrays):
            arr = arrays[name]
            if name not in self.m:
                self.m[name] = np.zeros(arr.shape)
                self.v[name] = np.zeros(arr.shape)
            grad = grads.get(name, (np.empty(0, dtype=np.intp), np.empty((0, arr.shape[1]))))
            rows, g = grad if isinstance(grad, tuple) else (None, grad)
            if rows is None:
                rows = np.arange(len(arr))
            self._update(arr, self.m[name], self.v[name], rows, g, bc1, bc2, work)

    def _update(self, p, m, v, rows, g, bc1: float, bc2: float, work: np.ndarray) -> None:
        n, width = p.shape
        block = _block_rows(n, width)
        starts = range(0, n, block)
        cuts = np.searchsorted(rows, [*starts, n]).tolist()
        for i, lo in enumerate(starts):
            hi = min(lo + block, n)
            pb, mb, vb = p[lo:hi], m[lo:hi], v[lo:hi]
            a = work[0, : (hi - lo) * width].reshape(hi - lo, width)
            b = work[1, : (hi - lo) * width].reshape(hi - lo, width)
            mb *= ADAM_BETA1
            vb *= ADAM_BETA2
            c0, c1 = cuts[i], cuts[i + 1]
            if c0 < c1:
                # the block's touched rows' terms, in the work buffers
                g_m, g_v = a[: c1 - c0], b[: c1 - c0]
                np.multiply(1.0 - ADAM_BETA1, g[c0:c1], out=g_m)
                np.multiply(g[c0:c1], g[c0:c1], out=g_v)
                g_v *= 1.0 - ADAM_BETA2
                # a block whose every row is touched adds through a view
                touched = slice(None) if c1 - c0 == hi - lo else rows[c0:c1] - lo
                mb[touched] += g_m
                vb[touched] += g_v
            np.divide(mb, bc1, out=a)
            np.multiply(self.lr, a, out=a)
            np.divide(vb, bc2, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPS
            a /= b
            pb -= a


def _block_rows(n: int, width: int) -> int:
    """Rows per Adam block: at most ADAM_BLOCK_ELEMENTS elements, at least one row."""
    return max(1, min(n, ADAM_BLOCK_ELEMENTS // max(width, 1)))


@dataclass
class LogEntry:
    step: int
    loss: float
    valid_mrr: float
    smoothness: float | None = None

    def format(self) -> str:
        cols = [str(self.step), f"{self.loss:.6f}", f"{self.valid_mrr:.6f}"]
        if self.smoothness is not None:
            cols.append(f"{self.smoothness:.6f}")
        return "\t".join(cols)


# divergence is reported by TrainingDiverged, not by numpy's overflow warnings
@np.errstate(over="ignore", invalid="ignore")
def train(
    kb: TemporalKB, config: TrainConfig, progress=None
) -> tuple[ParameterStore, list[LogEntry]]:
    """Optimize a fresh ParameterStore on kb's training split.

    Returns the parameters at the best validation MRR seen (the final ones
    if the validation split is empty) and the training log. Randomness
    derives from config.seed via two spawned streams: one for
    initialization, one for batch/negative/timestamp sampling. Raises
    ValueError before the first step when the negative sampler could fail
    (see check_negative_sampling).
    """
    # cycle-free: evaluation imports model only
    from .evaluation import NonFiniteScoreError, eval_link_prediction

    check_negative_sampling(kb, config)
    init_rng, batch_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(2)
    )
    params = ParameterStore.initialize(
        config.d,
        kb.n_entities,
        kb.n_relations,
        kb.axis.length,
        config.gamma,
        config.alpha,
        init_rng,
    )
    adam = Adam(config.lr)
    statements = kb.splits["train"]
    # a Statements split builds its objects on access: read it once
    valid = list(kb.splits["valid"])
    log: list[LogEntry] = []
    best_mrr, best_params = -1.0, None
    window: list[float] = []

    for step in range(1, config.steps + 1):
        picks = batch_rng.integers(0, len(statements), size=config.batch)
        batch = [make_training_sample(statements[i], kb, config, batch_rng) for i in picks]
        loss, tape = batch_loss(batch, params, config.beta)
        loss_val = float(loss.value)
        if not np.isfinite(loss_val):
            raise TrainingDiverged(f"loss is {loss_val} at step {step}")
        window.append(loss_val)
        gmap = ad.backward(tape, loss)
        # nodes and tape reference each other; breaking the cycle frees the
        # step's arrays now instead of at the next full garbage collection
        tape.nodes.clear()
        del loss, tape
        # embedding gradients stay as their touched rows: no step builds an
        # |E| x d gradient
        grads = ad.row_sums(gmap, params.arrays)
        del gmap
        adam.step(params.arrays, grads)
        params.clamp_offsets()

        # step 1 is always logged so the initial loss is on record; the
        # loss column is the mean since the previous log line
        if step == 1 or step % config.eval_every == 0 or step == config.steps:
            mrr, failure = float("nan"), None
            if valid:
                try:
                    report = eval_link_prediction(
                        valid, params, kb, config.variant, filter_splits=("train", "valid")
                    )
                except NonFiniteScoreError as exc:
                    failure = exc
                else:
                    mrr = report.overall.mrr
                    if mrr > best_mrr:
                        best_mrr, best_params = mrr, params.copy()
            lam = smoothness(params) if config.beta > 0 else None
            entry = LogEntry(step, float(np.mean(window)), mrr, lam)
            window.clear()
            log.append(entry)
            if progress is not None:
                progress(entry)
            if failure is not None:
                # after progress, so the run's record keeps the step's finite loss
                raise TrainingDiverged(f"validation at step {step}: {failure}") from failure
    return (best_params if best_params is not None else params), log


def save_checkpoint(params: ParameterStore, path, variant: Variant = Variant()) -> None:
    """Binary checkpoint: magic, little-endian header (d, |E|, |R|, |T|,
    variant code as int32; gamma, alpha as float64), then each parameter
    block in declared order as float32.

    Raises CheckpointError, before writing anything, when a block holds a
    non-finite value or one that overflows float32.
    """
    blocks = []
    for name in PARAM_ORDER:
        arr = params.arrays[name]
        if not np.isfinite(arr).all():
            raise CheckpointError(f"cannot save: non-finite values in block {name}")
        with np.errstate(over="ignore"):
            blob = arr.astype("<f4")
        if not np.isfinite(blob).all():
            raise CheckpointError(f"cannot save: values in block {name} overflow float32")
        blocks.append(blob.tobytes())
    header = struct.pack(
        "<4s5i2d",
        CHECKPOINT_MAGIC,
        params.d,
        params.n_entities,
        params.n_relations,
        params.n_times,
        variant.encode(),
        params.gamma,
        params.alpha,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for blob in blocks:
            fh.write(blob)


def load_checkpoint(path) -> tuple[ParameterStore, Variant]:
    """Read a checkpoint written by save_checkpoint.

    Raises CheckpointError for a bad magic, for a header whose d, |E|, |R|
    or |T| is below 1, whose gamma is not finite and above 0, whose alpha
    lies outside [0, 1] or whose variant code lies outside [0, 15], for a
    file shorter or longer than the blocks its header implies (all before
    any block is read), and for a block holding a non-finite value.
    """
    header_size = struct.calcsize("<4s5i2d")
    with open(path, "rb") as fh:
        header = fh.read(header_size)
        if len(header) < header_size:
            raise CheckpointError("truncated checkpoint header")
        magic, d, n_e, n_r, n_t, code, gamma, alpha = struct.unpack("<4s5i2d", header)
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        for name, value in (("d", d), ("|E|", n_e), ("|R|", n_r), ("|T|", n_t)):
            if value < 1:
                raise CheckpointError(f"bad checkpoint header: {name} is {value}, below 1")
        if not (math.isfinite(gamma) and gamma > 0):
            raise CheckpointError(f"bad checkpoint header: gamma {gamma} is not finite and above 0")
        if not 0.0 <= alpha <= 1.0:
            raise CheckpointError(f"bad checkpoint header: alpha {alpha} is outside [0, 1]")
        if not 0 <= code <= 15:  # Variant.encode's four flag bits
            raise CheckpointError(f"bad checkpoint header: variant code {code} is outside [0, 15]")
        shapes = param_shapes(d, n_e, n_r, n_t)
        # the header fixes the file's size, so a short or long file fails
        # before any block is read
        size, end = os.fstat(fh.fileno()).st_size, header_size
        for name, shape in shapes.items():
            end += 4 * math.prod(shape)
            if end > size:
                raise CheckpointError(f"truncated checkpoint: block {name} incomplete")
        if size > end:
            raise CheckpointError("trailing bytes after final parameter block")
        arrays = {}
        for name, shape in shapes.items():
            blob = fh.read(4 * math.prod(shape))
            arrays[name] = np.frombuffer(blob, dtype="<f4").astype(np.float64).reshape(shape)
            if not np.isfinite(arrays[name]).all():
                raise CheckpointError(f"non-finite values in checkpoint block {name}")
    params = ParameterStore(arrays, gamma, alpha)
    params.clamp_offsets()
    return params, Variant.decode(code)


def check_dimensions(params: ParameterStore, kb: TemporalKB) -> None:
    """Raise when a checkpoint does not match the dataset's vocabularies."""
    problems = []
    if params.n_entities != kb.n_entities:
        problems.append(f"|E| {params.n_entities} != dataset {kb.n_entities}")
    if params.n_relations != kb.n_relations:
        problems.append(f"|R| {params.n_relations} != dataset {kb.n_relations}")
    if params.n_times != kb.axis.length:
        problems.append(f"|T| {params.n_times} != dataset {kb.axis.length}")
    if problems:
        raise CheckpointError("checkpoint/dataset mismatch: " + "; ".join(problems))
