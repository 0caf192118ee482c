"""Reverse-mode autodiff on numpy arrays over a per-batch tape.

Only the primitives the box model needs are provided. Everything runs in
float64. Subgradient conventions are fixed so gradients are deterministic:
relu/abs/clamp give derivative 0 exactly at their kink, and min-pooling
routes the gradient to the first minimizing index on ties.

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
        lambda g, x, y: (_unbroadcast(g, x.shape), _unbroadcast(g, y.shape)),
    )


def sub(a, b) -> Node:
    a, b = wrap(a), wrap(b)
    return _op(
        "sub",
        (a, b),
        lambda x, y: x - y,
        lambda g, x, y: (_unbroadcast(g, x.shape), _unbroadcast(-g, y.shape)),
    )


def mul(a, b) -> Node:
    a, b = wrap(a), wrap(b)
    return _op(
        "mul",
        (a, b),
        lambda x, y: x * y,
        lambda g, x, y: (_unbroadcast(g * y, x.shape), _unbroadcast(g * x, y.shape)),
    )


def neg(a) -> Node:
    a = wrap(a)
    return _op("neg", (a,), lambda x: -x, lambda g, x: (-g,))


def linear(x, w) -> Node:
    """x @ w.T for w of shape (d_out, d_in); x has shape (..., d_in)."""
    x, w = wrap(x), wrap(w)

    def vjp(g, xv, wv):
        gx = g @ wv
        g2 = g.reshape(-1, g.shape[-1])
        x2 = xv.reshape(-1, xv.shape[-1])
        return gx, g2.T @ x2

    return _op("linear", (x, w), lambda xv, wv: xv @ wv.T, vjp)


def relu(a) -> Node:
    a = wrap(a)
    return _op("relu", (a,), lambda x: np.maximum(x, 0.0), lambda g, x: (g * (x > 0.0),))


def sigmoid(a) -> Node:
    a = wrap(a)

    def fwd(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    def vjp(g, x):
        s = fwd(x)
        return (g * s * (1.0 - s),)

    return _op("sigmoid", (a,), fwd, vjp)


def log_sigmoid_value(x: np.ndarray) -> np.ndarray:
    """Forward value of log_sigmoid, shared with the tape-free scoring kernel."""
    softplus_neg_abs = np.log1p(np.exp(-np.abs(x)))
    return np.where(x < 0, x - softplus_neg_abs, -softplus_neg_abs)


def log_sigmoid(a) -> Node:
    a = wrap(a)

    def vjp(g, x):
        # d/dx log sigmoid(x) = sigmoid(-x)
        s = np.empty_like(x)
        pos = x >= 0
        s[pos] = np.exp(-x[pos]) / (1.0 + np.exp(-x[pos]))
        s[~pos] = 1.0 / (1.0 + np.exp(x[~pos]))
        return (g * s,)

    return _op("log_sigmoid", (a,), log_sigmoid_value, vjp)


def softmax(a, axis: int) -> Node:
    a = wrap(a)

    def fwd(x):
        z = x - np.max(x, axis=axis, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=axis, keepdims=True)

    def vjp(g, x):
        s = fwd(x)
        return (s * (g - (g * s).sum(axis=axis, keepdims=True)),)

    return _op("softmax", (a,), fwd, vjp)


def amin(a, axis: int) -> Node:
    """Elementwise min-pool along an axis; ties route to the first index."""
    a = wrap(a)

    def vjp(g, x):
        idx = np.expand_dims(np.argmin(x, axis=axis), axis)
        gx = np.zeros_like(x)
        np.put_along_axis(gx, idx, np.expand_dims(g, axis), axis)
        return (gx,)

    return _op("amin", (a,), lambda x: np.min(x, axis=axis), vjp)


def clamp(x, lo, hi) -> Node:
    """min(hi, max(lo, x)); at an exact boundary the gradient goes to the
    boundary tensor, so d/dx is 0 there."""
    x, lo, hi = wrap(x), wrap(lo), wrap(hi)

    def fwd(xv, lov, hiv):
        return np.minimum(np.maximum(xv, lov), hiv)

    def vjp(g, xv, lov, hiv):
        after_max = np.maximum(xv, lov)
        to_hi = after_max >= hiv
        to_lo = ~to_hi & (xv <= lov)
        to_x = ~to_hi & ~to_lo
        return (
            _unbroadcast(g * to_x, xv.shape),
            _unbroadcast(g * to_lo, lov.shape),
            _unbroadcast(g * to_hi, hiv.shape),
        )

    return _op("clamp", (x, lo, hi), fwd, vjp)


def absolute(a) -> Node:
    a = wrap(a)
    return _op("abs", (a,), np.abs, lambda g, x: (g * np.sign(x),))


def reduce_sum(a, axis=None, keepdims: bool = False) -> Node:
    a = wrap(a)

    def vjp(g, x):
        if axis is None:
            return (np.broadcast_to(g, x.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, x.shape).copy(),)

    return _op("sum", (a,), lambda x: np.sum(x, axis=axis, keepdims=keepdims), vjp)


def reduce_mean(a, axis: int) -> Node:
    a = wrap(a)

    def vjp(g, x):
        return (np.broadcast_to(np.expand_dims(g, axis), x.shape) / x.shape[axis],)

    return _op("mean", (a,), lambda x: np.mean(x, axis=axis), vjp)


def stack(nodes, axis: int) -> Node:
    """Stack along a new axis after broadcasting the inputs to one shape."""
    nodes = [wrap(n) for n in nodes]

    def vjp(g, *xs):
        return tuple(_unbroadcast(np.take(g, i, axis=axis), x.shape) for i, x in enumerate(xs))

    return _op("stack", nodes, lambda *xs: np.stack(np.broadcast_arrays(*xs), axis=axis), vjp)


def reshape(a, shape) -> Node:
    a = wrap(a)
    return _op("reshape", (a,), lambda x: x.reshape(shape), lambda g, x: (g.reshape(x.shape),))


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
        parent_grads = node._vjp(g, *(p.value for p in node.parents))
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
