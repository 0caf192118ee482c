"""Reverse-mode autodiff on numpy arrays over a per-batch tape.

Only the primitives the box model needs are provided. Everything runs in
float64. Subgradient conventions are fixed so gradients are deterministic:
relu gives derivative 0 exactly at its kink, box_distance routes the
gradient of a point on a box face to the face, and min-pooling routes the
gradient to the first minimizing index on ties.

A vjp is called as vjp(g, out, *inputs): the gradient of the node's
output, the output itself, and the parents' values. It returns one
gradient per parent, and backward adds them into the parents' running
sums in parent order.

Nodes created without a tape evaluate eagerly and record nothing, which
gives the evaluation path the same numerics as training without the
bookkeeping.

`backward` keeps each parameter leaf's gradient whole, as a
(row indices or None, gradient) entry under the array's name, and
`densify` scatters those entries into one dense gradient per touched
array: `densify(backward(tape, loss), params)`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: array name -> (row indices, gradient) entries, one per rows leaf and one
#: per run of consecutive whole-array leaves (indices None), in reverse
#: tape order
GradientMap = dict[str, list[tuple[np.ndarray | None, np.ndarray]]]


class Node:
    """One value in the computation graph."""

    __slots__ = ("value", "op", "parents", "tape", "_vjp", "_leaf")

    def __init__(self, value, op, parents=(), tape=None, vjp=None, leaf=None):
        self.value = value
        self.op = op
        self.parents = parents
        self.tape = tape
        self._vjp = vjp
        self._leaf = leaf  # (array name, row indices or None for the whole array)
        if tape is not None:
            tape.nodes.append(self)

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node({self.op}, shape={np.shape(self.value)})"


class Tape:
    """Ordered record of operations; creation order is topological order."""

    def __init__(self):
        self.nodes: list[Node] = []


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def wrap(x) -> Node:
    return x if isinstance(x, Node) else constant(x)


def _tape_of(*nodes) -> "Tape | None":
    for n in nodes:
        if n.tape is not None:
            return n.tape
    return None


def constant(x) -> Node:
    return Node(_as_array(x), "const")


def param_rows(tape, table: np.ndarray, name: str, indices) -> Node:
    """Embedding lookup table[indices]; backward records its gradient as one
    (indices, gradient) entry under `name`."""
    idx = np.asarray(indices, dtype=np.intp)
    return Node(table[idx], "rows", tape=tape, leaf=(name, idx))


def param_full(tape, table: np.ndarray, name: str) -> Node:
    """Whole parameter array (weight matrix); backward records its gradient
    as one (None, gradient) entry under `name`."""
    return Node(table, "full", tape=tape, leaf=(name, None))


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _op(op, parents, fwd, vjp) -> Node:
    parents = tuple(parents)
    value = fwd(*(p.value for p in parents))
    tape = _tape_of(*parents)
    if tape is None:
        # backward walks only tape nodes, so a tape-free node keeps no inputs:
        # an evaluation forward pass frees each intermediate once it is used
        return Node(value, op)
    return Node(value, op, parents, tape, vjp)


def add(a, b) -> Node:
    a, b = wrap(a), wrap(b)
    return _op(
        "add",
        (a, b),
        lambda x, y: x + y,
        lambda g, _, x, y: (_unbroadcast(g, x.shape), _unbroadcast(g, y.shape)),
    )


def sub(a, b) -> Node:
    a, b = wrap(a), wrap(b)
    return _op(
        "sub",
        (a, b),
        lambda x, y: x - y,
        lambda g, _, x, y: (_unbroadcast(g, x.shape), _unbroadcast(-g, y.shape)),
    )


def mul(a, b) -> Node:
    a, b = wrap(a), wrap(b)
    return _op(
        "mul",
        (a, b),
        lambda x, y: x * y,
        lambda g, _, x, y: (_unbroadcast(g * y, x.shape), _unbroadcast(g * x, y.shape)),
    )


def neg(a) -> Node:
    a = wrap(a)
    return _op("neg", (a,), lambda x: -x, lambda g, *_: (-g,))


def linear(x, w) -> Node:
    """x @ w.T for w of shape (d_out, d_in); x has shape (..., d_in)."""
    x, w = wrap(x), wrap(w)

    def vjp(g, _, xv, wv):
        gx = g @ wv
        g2 = g.reshape(-1, g.shape[-1])
        x2 = xv.reshape(-1, xv.shape[-1])
        return gx, g2.T @ x2

    return _op("linear", (x, w), lambda xv, wv: xv @ wv.T, vjp)


def relu(a) -> Node:
    a = wrap(a)
    return _op("relu", (a,), lambda x: np.maximum(x, 0.0), lambda g, _, x: (g * (x > 0.0),))


def sigmoid(a) -> Node:
    a = wrap(a)

    def fwd(x):
        # 1/(1 + e) for x >= 0 and e/(1 + e) below, with e = exp(-|x|)
        e = np.exp(-np.abs(x))
        return np.maximum(e, x >= 0) / (1.0 + e)

    def vjp(g, s, _):
        return (g * s * (1.0 - s),)

    return _op("sigmoid", (a,), fwd, vjp)


def log_sigmoid_value(x: np.ndarray) -> np.ndarray:
    """Forward value of log_sigmoid, shared with the tape-free scoring kernel."""
    softplus_neg_abs = np.log1p(np.exp(-np.abs(x)))
    return np.where(x < 0, x - softplus_neg_abs, -softplus_neg_abs)


def log_sigmoid(a) -> Node:
    a = wrap(a)

    def vjp(g, _, x):
        # d/dx log sigmoid(x) = sigmoid(-x), from e = exp(-|x|) on both sides
        e = np.exp(-np.abs(x))
        return (g * (np.maximum(e, x < 0) / (1.0 + e)),)

    return _op("log_sigmoid", (a,), log_sigmoid_value, vjp)


def box_distance_value(points, center, b_min, b_max, alpha, clamped, diff) -> np.ndarray:
    """alpha*inside + outside, computed in the two preallocated buffers: the
    one distance kernel, shared by training's box_distance and the tape-free
    scoring in model.box_scores and model.score_entities.

    With k the point clamped onto the box, inside is sum|c - k| and
    outside is sum|e - k|. For a nonnegative offset the latter equals
    sum(relu(e - b_max) + relu(b_min - e)) bit for bit: at most one of the
    two terms is nonzero, and IEEE subtraction is antisymmetric.
    """
    np.maximum(points, b_min, out=clamped)
    np.minimum(clamped, b_max, out=clamped)
    np.subtract(center, clamped, out=diff)
    inside = np.abs(diff, out=diff).sum(axis=-1)
    np.subtract(points, clamped, out=diff)
    outside = np.abs(diff, out=diff).sum(axis=-1)
    return inside * alpha + outside


def box_distance(point, center, offset, alpha: float) -> Node:
    """Two-part L1 distance of points to boxes, alpha*inside + outside
    (box_distance_value), over the last axis; leading dimensions broadcast.
    Offsets must be nonnegative.

    The gradient is that of the primitive form: outside as
    relu(p - b_max) + relu(b_min - p), inside as |c - clamp(p, b_min,
    b_max)|, where the clamp sends the gradient to an exact upper face
    first, then to an exact lower face, and otherwise through to the
    point. The parents are listed once per contribution, in the order the
    primitive ops added them: point (relu(b_min - p), relu(p - b_max), the
    clamp), center (the inside term, b_max, b_min) and offset (b_max,
    -b_min). Each contribution is unbroadcast on its own, so backward's
    running sums get the same bits as from the primitive ops.
    """
    point, center, offset = wrap(point), wrap(center), wrap(offset)
    p, c, o = point.value, center.value, offset.value
    b_min, b_max = c - o, c + o
    shape = np.broadcast_shapes(p.shape, b_min.shape)
    clamped = np.empty(shape)
    value = box_distance_value(p, c, b_min, b_max, alpha, clamped, np.empty(shape))
    tape = _tape_of(point, center, offset)
    if tape is None:
        return Node(value, "box_distance")

    def vjp(g, *_):
        g_out = g[..., None]
        # relu(b_min - p)'s gradient is -down at p and +down at b_min
        down = g_out * (b_min > p)
        up = g_out * (p > b_max)
        # the inside term's gradient at the clamped point is -alpha*g*sign(c - k)
        through = (g * -alpha)[..., None] * np.sign(c - clamped)
        to_hi = clamped == b_max
        to_lo = p <= b_min
        to_lo &= ~to_hi
        to_x = ~to_hi
        to_x ^= to_lo
        g_min = _unbroadcast(down, b_min.shape) + _unbroadcast(through * to_lo, b_min.shape)
        g_max = _unbroadcast(-up, b_max.shape) + _unbroadcast(through * to_hi, b_max.shape)
        return (
            _unbroadcast(-down, p.shape),
            _unbroadcast(up, p.shape),
            _unbroadcast(through * to_x, p.shape),
            -_unbroadcast(through, c.shape),
            _unbroadcast(g_max, c.shape),
            _unbroadcast(g_min, c.shape),
            _unbroadcast(g_max, o.shape),
            _unbroadcast(-g_min, o.shape),
        )

    parents = (point,) * 3 + (center,) * 3 + (offset,) * 2
    return Node(value, "box_distance", parents, tape, vjp)


def _item_max(x: np.ndarray, axis: int, keepdims: bool = False) -> np.ndarray:
    """np.max(x, axis) for an axis other than the last, one item at a time:
    numpy reduces such an axis by successive np.maximum from the first
    item, so the bits are the same."""
    lead = (slice(None),) * (axis % x.ndim)
    out = x[lead + (0,)].copy()
    for i in range(1, x.shape[axis]):
        np.maximum(out, x[lead + (i,)], out=out)
    return out[lead + (None,)] if keepdims else out


def _item_sum(x: np.ndarray, axis: int, keepdims: bool = False) -> np.ndarray:
    """np.sum(x, axis) for an axis other than the last, one item at a time:
    numpy adds such an axis's items in order onto its identity +0.0 (which
    turns a first item of -0.0 into +0.0), so the bits are the same."""
    lead = (slice(None),) * (axis % x.ndim)
    out = x[lead + (0,)] + 0.0
    for i in range(1, x.shape[axis]):
        out += x[lead + (i,)]
    return out[lead + (None,)] if keepdims else out


def softmax(a, axis: int) -> Node:
    """Softmax along an axis other than the last (the intersection's item
    axis), whose max and sums run item by item."""
    a = wrap(a)

    def fwd(x):
        e = np.exp(x - _item_max(x, axis, keepdims=True))
        return e / _item_sum(e, axis, keepdims=True)

    def vjp(g, s, _):
        return (s * (g - _item_sum(g * s, axis, keepdims=True)),)

    return _op("softmax", (a,), fwd, vjp)


def amin(a, axis: int) -> Node:
    """Elementwise min-pool along an axis; ties route to the first index."""
    a = wrap(a)

    def vjp(g, out, x):
        # one pass per item: g goes where the item equals the minimum and no
        # earlier item did; elsewhere gx stays +0.0
        gx = np.zeros_like(x)
        free = np.ones(out.shape, dtype=bool)
        lead = (slice(None),) * (axis % x.ndim)
        for i in range(x.shape[axis]):
            hit = x[lead + (i,)] == out
            hit &= free
            np.copyto(gx[lead + (i,)], g, where=hit)
            free ^= hit
        return (gx,)

    return _op("amin", (a,), lambda x: np.min(x, axis=axis), vjp)


def reduce_sum(a, axis=None) -> Node:
    """Sum over all elements, over the last axis, or item by item over the
    item axis -2 (see _item_sum)."""
    a = wrap(a)

    def fwd(x):
        return _item_sum(x, axis) if axis == -2 else np.sum(x, axis=axis)

    def vjp(g, _, x):
        gg = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, x.shape).copy(),)

    return _op("sum", (a,), fwd, vjp)


def reduce_mean(a, axis: int) -> Node:
    """Mean along an axis other than the last: np.mean's bits, from the
    item-by-item sum divided by the item count."""
    a = wrap(a)

    def vjp(g, _, x):
        return (np.broadcast_to(np.expand_dims(g, axis), x.shape) / x.shape[axis],)

    return _op("mean", (a,), lambda x: _item_sum(x, axis) / x.shape[axis], vjp)


def stack(nodes, axis: int) -> Node:
    """Stack along a new axis after broadcasting the inputs to one shape."""
    nodes = [wrap(n) for n in nodes]

    def vjp(g, _, *xs):
        return tuple(_unbroadcast(np.take(g, i, axis=axis), x.shape) for i, x in enumerate(xs))

    return _op("stack", nodes, lambda *xs: np.stack(np.broadcast_arrays(*xs), axis=axis), vjp)


def reshape(a, shape) -> Node:
    a = wrap(a)
    return _op("reshape", (a,), lambda x: x.reshape(shape), lambda g, _, x: (g.reshape(x.shape),))


def backward(tape: Tape, root: Node | None = None) -> GradientMap:
    """Collect d(root)/d(leaf) for every parameter leaf the tape touched,
    under its array's name: one entry per rows leaf, and one summed entry
    per run of consecutive whole-array leaves. The root must be a scalar."""
    if root is None:
        if not tape.nodes:
            raise ValueError("empty tape")
        root = tape.nodes[-1]
    if np.size(root.value) != 1:
        raise ValueError(f"backward needs a scalar root, got shape {np.shape(root.value)}")

    grads: dict[int, np.ndarray] = {id(root): np.ones_like(root.value)}
    gmap: GradientMap = {}
    for node in reversed(tape.nodes):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._leaf is not None:
            name, indices = node._leaf
            entries = gmap.setdefault(name, [])
            if indices is None and entries and entries[-1][0] is None:
                # a weight matrix's leaves are summed as they come, so a step
                # holds one gradient per matrix, not one per use
                entries[-1] = (None, entries[-1][1] + g)
            else:
                entries.append((indices, g))
            continue
        parent_grads = node._vjp(g, node.value, *(p.value for p in node.parents))
        for parent, pg in zip(node.parents, parent_grads):
            if parent.tape is None or pg is None:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    return gmap


def densify(gmap: GradientMap, params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Sum each touched array's leaf gradients into one dense array.

    Entries are added to a zero array one at a time, in the map's order. A
    rows leaf first sums its duplicate rows into its own buffer, so a row's
    gradient is always 0 + leaf_1 + leaf_2 + ..., however many times each
    leaf looked the row up. A summed whole-array entry gives the same bits
    as adding its leaves one at a time.
    """
    dense: dict[str, np.ndarray] = {}
    for name, entries in gmap.items():
        out = np.zeros_like(params[name])
        for indices, g in entries:
            if indices is None:
                out += g
                continue
            uniq, inverse = np.unique(indices.ravel(), return_inverse=True)
            # bincount adds each (row, column) element in input order into
            # zeros, as np.add.at would, so the buffer's bits are the same
            width = math.prod(out.shape[1:])
            slots = (inverse[:, None] * width + np.arange(width)).ravel()
            buf = np.bincount(slots, weights=g.ravel(), minlength=len(uniq) * width)
            out[uniq] += buf.reshape((len(uniq),) + out.shape[1:])
        dense[name] = out
    return dense


@dataclass
class FDCheckReport:
    """Worst-case central-difference disagreement over sampled scalars."""

    max_rel_error: float
    n_checked: int
    n_kinks_skipped: int
    worst: tuple | None  # (name, flat_index, analytic, numeric)
    per_array: dict[str, float]

    def __float__(self):
        return self.max_rel_error


def finite_diff_check(
    loss_fn,
    params: dict[str, np.ndarray],
    eps: float = 1e-4,
    samples: int = 100,
    rng: np.random.Generator | None = None,
    kink_tol: float = 1e-3,
) -> FDCheckReport:
    """Compare backward's gradients against central finite differences on
    `samples` randomly chosen scalar coordinates of `params`.

    loss_fn() must return (loss_value, gradient_map) computed from the
    live arrays in `params`. Coordinates where the two one-sided slopes
    disagree are sitting on a kink and are skipped, not failed. Relative
    error uses max(|analytic|, |numeric|, 1e-8) as denominator.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    rng = rng or np.random.default_rng(0)
    base_loss, gmap = loss_fn()
    base_loss = float(base_loss)
    dense = densify({n: e for n, e in gmap.items() if n in params}, params)

    names = sorted(params)
    sizes = np.array([params[n].size for n in names])
    cum = np.cumsum(sizes)
    picks = rng.integers(0, cum[-1], size=samples)

    max_err, worst = 0.0, None
    n_checked = n_kinks = 0
    per_array: dict[str, float] = {}
    for pick in picks:
        k = int(np.searchsorted(cum, pick, side="right"))
        name = names[k]
        flat_index = int(pick - (cum[k - 1] if k else 0))
        arr = params[name]
        orig = arr.flat[flat_index]
        arr.flat[flat_index] = orig + eps
        loss_plus = float(loss_fn()[0])
        arr.flat[flat_index] = orig - eps
        loss_minus = float(loss_fn()[0])
        arr.flat[flat_index] = orig

        slope_plus = (loss_plus - base_loss) / eps
        slope_minus = (base_loss - loss_minus) / eps
        if abs(slope_plus - slope_minus) > kink_tol * max(abs(slope_plus), abs(slope_minus), 1.0):
            n_kinks += 1
            continue
        numeric = (loss_plus - loss_minus) / (2.0 * eps)
        analytic = float(dense[name].flat[flat_index]) if name in dense else 0.0
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        n_checked += 1
        per_array[name] = max(per_array.get(name, 0.0), err)
        if err > max_err:
            max_err, worst = err, (name, flat_index, analytic, numeric)
    return FDCheckReport(max_err, n_checked, n_kinks, worst, per_array)
