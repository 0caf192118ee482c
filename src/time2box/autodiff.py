"""Reverse-mode autodiff on numpy arrays over a per-batch tape.

Only the ops the box model's training needs are provided: elementwise
add and mul, and three fused ops with hand-written vjps, the two halves
of the box intersection and the batch's margin loss.
Everything runs in float64. Subgradient conventions are fixed so
gradients are deterministic: the margin loss's distances route the
gradient of a point on a box face to the face, and gated_min gives relu
derivative 0 exactly at its kink and routes the minimum's gradient to the
first minimizing item on ties.

A vjp is called as vjp(g, out, *inputs): the gradient of the node's
output, the output itself, and the parents' values. It returns one
gradient per parent, and backward adds them into the parents' running
sums in parent order.

Nodes created without a tape evaluate eagerly and record nothing, which
gives the evaluation path the same numerics as training without the
bookkeeping.

`backward` keeps each parameter leaf's gradient whole, as a
(row indices or None, gradient) entry under the array's name. `row_sums`
sums those entries per touched row, so an embedding table's gradient
stays as its touched rows: `row_sums(backward(tape, loss), params)`.
`densify` scatters the row sums into one dense gradient per array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: array name -> (row indices, gradient) entries in reverse tape order: one
#: per rows leaf, or, for an array used whole, one summed (None, gradient)
#: entry
GradientMap = dict[str, list[tuple[np.ndarray | None, np.ndarray]]]
#: array name -> (sorted unique touched rows, their summed gradients), or
#: (None, dense gradient) for an array used whole
RowGradients = dict[str, tuple[np.ndarray | None, np.ndarray]]


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


def mul(a, b) -> Node:
    a, b = wrap(a), wrap(b)
    return _op(
        "mul",
        (a, b),
        lambda x, y: x * y,
        lambda g, _, x, y: (_unbroadcast(g * y, x.shape), _unbroadcast(g * x, y.shape)),
    )


def log_sigmoid_value(x: np.ndarray) -> np.ndarray:
    """Forward value of log_sigmoid, shared with the tape-free scoring kernel."""
    softplus_neg_abs = np.log1p(np.exp(-np.abs(x)))
    return np.where(x < 0, x - softplus_neg_abs, -softplus_neg_abs)


def log_sigmoid_slope(x: np.ndarray) -> np.ndarray:
    """d/dx log sigmoid(x) = sigmoid(-x), from e = exp(-|x|) on both sides."""
    e = np.exp(-np.abs(x))
    return np.maximum(e, x < 0) / (1.0 + e)


def box_distance_value(points, center, b_min, b_max, alpha, clamped, diff) -> np.ndarray:
    """alpha*inside + outside, computed in the two preallocated buffers: the
    one distance kernel, shared by training's _distance and the tape-free
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


def _distance(p, c, o, alpha: float) -> tuple[np.ndarray, tuple]:
    """alpha*inside + outside of points to boxes over the last axis
    (box_distance_value), and what _distance_grads reads."""
    b_min, b_max = c - o, c + o
    shape = np.broadcast_shapes(p.shape, b_min.shape)
    clamped = np.empty(shape)
    value = box_distance_value(p, c, b_min, b_max, alpha, clamped, np.empty(shape))
    return value, (p, c, o.shape, b_min, b_max, clamped, alpha)


def _distance_grads(g: np.ndarray, saved: tuple) -> tuple:
    """The eight contributions to _distance's gradient g of its primitive
    form, in the order those ops added them to their parents: point
    (relu(b_min - p), relu(p - b_max), the clamp), center (the inside term,
    b_max, b_min) and offset (b_max, -b_min). The clamp sends the gradient
    to an exact upper face first, then to an exact lower face, and
    otherwise through to the point. Each is unbroadcast on its own, so
    running sums in this order get the primitive ops' bits."""
    p, c, o_shape, b_min, b_max, clamped, alpha = saved
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
        _unbroadcast(g_max, o_shape),
        _unbroadcast(-g_min, o_shape),
    )


def _item_max(items, shape=None) -> np.ndarray:
    """Elementwise maximum of the items, one at a time: a copy of the
    first, then np.maximum in order. numpy reduces a non-last axis the same
    way, so on stacked items (_unstack) this is np.max(x, axis=-2) bit for
    bit. `shape` is the items' broadcast shape when the first item's own
    shape is smaller."""
    out = _first(items, shape).copy()
    for x in items[1:]:
        np.maximum(out, x, out=out)
    return out


def _item_min(items, shape=None) -> np.ndarray:
    """Elementwise minimum in _item_max's order: np.min(x, axis=-2) bit for
    bit on stacked items."""
    out = _first(items, shape).copy()
    for x in items[1:]:
        np.minimum(out, x, out=out)
    return out


def _item_sum(items, shape=None, out=None) -> np.ndarray:
    """Sum of the items, one at a time: numpy adds a non-last axis's items
    in order onto its identity +0.0 (which turns a first item of -0.0 into
    +0.0), so on stacked items this is np.sum(x, axis=-2) bit for bit. The
    sum goes to `out` if given, which may be the first item."""
    out = np.add(_first(items, shape), 0.0, out=out)
    for x in items[1:]:
        out += x
    return out


def _first(items, shape) -> np.ndarray:
    return items[0] if shape is None else np.broadcast_to(items[0], shape)


def _unstack(x: np.ndarray) -> list[np.ndarray]:
    """The items of x stacked on axis -2, as views."""
    return [x[..., i, :] for i in range(x.shape[-2])]


def _stack_items(items: list[Node]) -> np.ndarray:
    """The items' values broadcast to one shape and stacked on axis -2."""
    return np.stack(np.broadcast_arrays(*(n.value for n in items)), axis=-2)


def _item_grads(g: np.ndarray, items: list[Node]) -> tuple:
    """Each item's share of the stacked items' gradient g."""
    return tuple(_unbroadcast(np.take(g, i, axis=-2), n.value.shape) for i, n in enumerate(items))


def _row_stack(own: list[np.ndarray], n: int) -> np.ndarray:
    """The rows of the arrays in `own`, in order, as a (k, n, d) stack of
    n-row matrices; the last row is repeated to fill the last matrix."""
    d = own[0].shape[-1]
    sizes = [v.size // d for v in own]
    rows = np.empty((-(-sum(sizes) // n) * n, d))
    lo = 0
    for v, size in zip(own, sizes):
        rows[lo : lo + size] = v.reshape(-1, d)
        lo += size
    if lo < len(rows):
        rows[lo:] = rows[lo - 1]
    return rows.reshape(-1, n, d)


def _own_rows(own: list[np.ndarray], f) -> list[np.ndarray]:
    """f applied to every row of each of the n items' own (un-broadcast)
    values, split back into one array per item, shaped as its item.

    f maps a (k, n, d) stack to one of the same shape through matmuls. The
    rows are stacked n to a matrix, the (n, d) shape of the stacked path's
    matmuls; the last row is repeated to fill the last matrix, so no matmul
    has one row (a GEMV, whose bits differ). A stacked matmul of a few rows
    gives each row the same bits wherever it sits and whatever its
    neighbours, so every row of the result equals its stacked-path value
    (tests/test_autodiff.py pins this property of the BLAS for n <= 5).
    """
    d = own[0].shape[-1]
    rows = f(_row_stack(own, len(own))).reshape(-1, d)
    out, lo = [], 0
    for v in own:
        out.append(rows[lo : lo + v.size // d].reshape(v.shape))
        lo += v.size // d
    return out


def attention_center(items, w_att) -> Node:
    """Center of the intersection (Query2Box): with x the items stacked on
    axis -2 (leading dimensions broadcast) and a = softmax(x @ w_att.T)
    over the items, per dimension, the value is sum_i a_i * x_i. Max and
    sums over the items run item by item (_item_max, _item_sum).

    Without a tape and with two or more items, the items are never
    stacked: x_i @ w_att.T is computed once per row of each item's own
    value (_own_rows), and the softmax and the weighted sum run over the
    items one at a time, with the same bits.

    The vjp adds the stacked items' two contributions in the order a
    product node and then a linear node would: g*a, then g_z @ w_att.
    """
    items, w_att = [wrap(n) for n in items], wrap(w_att)
    w = w_att.value
    tape = _tape_of(*items, w_att)
    if tape is None and len(items) > 1:
        own = [n.value for n in items]
        z = _own_rows(own, lambda rows: rows @ w.T)
        top = _item_max(z, np.broadcast_shapes(*(v.shape for v in own)))
        # exp(z_i - top), the last one in top's buffer: the tape-free
        # branches write into arrays they made wherever the bits allow, as
        # each fresh array of this size costs its page faults
        e = [np.subtract(zi, top) for zi in z[:-1]] + [np.subtract(z[-1], top, out=top)]
        for ei in e:
            np.exp(ei, out=ei)
        total = _item_sum(e)
        for ei, x in zip(e, own):
            np.multiply(np.divide(ei, total, out=ei), x, out=ei)
        return Node(_item_sum(e, out=e[0]), "attention_center")
    x = _stack_items(items)
    z = x @ w.T  # the leading dimensions stay, so each query's bits are its own
    e = np.exp(z - _item_max(_unstack(z))[..., None, :])
    att = e / _item_sum(_unstack(e))[..., None, :]
    value = _item_sum(_unstack(att * x))
    if tape is None:
        return Node(value, "attention_center")

    def vjp(g, *_):
        g = g[..., None, :]
        g_att = g * x
        g_z = att * (g_att - _item_sum(_unstack(g_att * att))[..., None, :])
        g_x = g * att + g_z @ w
        g_w = g_z.reshape(-1, g_z.shape[-1]).T @ x.reshape(-1, x.shape[-1])
        return _item_grads(g_x, items) + (g_w,)

    return Node(value, "attention_center", (*items, w_att), tape, vjp)


def _pooled_rows(own: list[np.ndarray], shape: tuple, w_in: np.ndarray, w_hidden: np.ndarray):
    """gated_min's pooled DeepSets terms, mean_i(relu(relu(x_i @ w_in.T) @
    w_hidden.T)), with each item's terms computed once per row of its own
    value (_own_rows), summed by broadcasting to the items' shape in
    _item_sum's order and divided by n."""
    def terms_of(rows):
        h = rows @ w_in.T
        h = np.maximum(h, 0.0, out=h) @ w_hidden.T
        return np.maximum(h, 0.0, out=h)

    terms = _own_rows(own, terms_of)
    out = _item_sum(terms, shape)
    out /= len(own)  # in place: a second (lead, d) temporary cost more than the sums
    return out


def gated_min(items, w_ds_in, w_ds_hidden, w_ds_out) -> Node:
    """Offset of the intersection (Query2Box): the items' elementwise
    minimum over axis -2, scaled by a DeepSets gate,
    sigmoid(mean_i(relu(relu(x_i @ w_ds_in.T) @ w_ds_hidden.T)) @ w_ds_out.T).
    The mean over the items runs item by item (_item_sum), and the gate is
    one GEMV per query.

    Without a tape and with two or more items, the items are never
    stacked: the minimum is a chain of np.minimum over their own values
    (_item_min), and the DeepSets terms are computed once per row of each
    item's own value (_pooled_rows), with the same bits.

    Subgradients: relu has derivative 0 at its kink, and the minimum's
    gradient goes to the first minimizing item, leaving +0.0 at the others.
    The items' gradient is the DeepSets path's, then the minimum's, added
    item by item.
    """
    items = [wrap(n) for n in items]
    mats = [wrap(w) for w in (w_ds_in, w_ds_hidden, w_ds_out)]
    w_in, w_hidden, w_out = (w.value for w in mats)
    n = len(items)
    tape = _tape_of(*items, *mats)
    if tape is None and n > 1:
        own = [item.value for item in items]
        shape = np.broadcast_shapes(*(v.shape for v in own))
        floor = _item_min(own, shape)
        pooled = _pooled_rows(own, shape, w_in, w_hidden)
    else:
        x = _stack_items(items)
        floor = np.min(x, axis=-2)
        a1 = x @ w_in.T
        h1 = np.maximum(a1, 0.0)
        a2 = h1 @ w_hidden.T
        pooled = _item_sum(_unstack(np.maximum(a2, 0.0)))
        pooled /= n  # in place, as in _pooled_rows: the sum is a fresh array
    a3 = pooled @ w_out.T
    # sigmoid: 1/(1 + e) for a3 >= 0 and e/(1 + e) below, with e = exp(-|a3|)
    if tape is None:
        # the same expressions, in the arrays this call made
        above = a3 >= 0
        e = np.exp(np.negative(np.abs(a3, out=a3), out=a3), out=a3)
        gate = np.maximum(e, above, out=pooled)
        np.divide(gate, np.add(e, 1.0, out=e), out=gate)
        return Node(np.multiply(floor, gate, out=floor), "gated_min")
    e = np.exp(-np.abs(a3))
    gate = np.maximum(e, a3 >= 0) / (1.0 + e)
    value = floor * gate

    def vjp(g, *_):
        g_floor = g * gate
        g_a3 = g * floor * gate * (1.0 - gate)
        g_a2 = (g_a3 @ w_out)[..., None, :] / n * (a2 > 0.0)
        g_a1 = (g_a2 @ w_hidden) * (a1 > 0.0)
        g_x = g_a1 @ w_in
        free = np.ones(floor.shape, dtype=bool)
        for i in range(n):
            hit = x[..., i, :] == floor
            hit &= free
            g_x[..., i, :] += np.where(hit, g_floor, 0.0)
            free ^= hit
        g_ws = tuple(
            gw.reshape(-1, gw.shape[-1]).T @ inp.reshape(-1, inp.shape[-1])
            for gw, inp in ((g_a1, x), (g_a2, h1), (g_a3, pooled))
        )
        return _item_grads(g_x, items) + g_ws

    return Node(value, "gated_min", (*items, *mats), tape, vjp)


def smoothness_value(diff: np.ndarray) -> np.ndarray:
    """Lambda(T) from the (T-1, d) differences of consecutive timestamp
    rows: their squared sum over T-1."""
    return np.sum(diff * diff) * (1.0 / len(diff))


@dataclass
class LossGroup:
    """margin_loss's inputs for n queries that share one number of time
    projections and one of time negatives. The nodes hold (n, d) box
    centers, offsets and answer rows, (n, k_e, d) entity-negative rows and
    (n, m, d) centers and offsets of one box per corrupted timestamp; a
    group without entity or time negatives holds None there."""

    center: Node
    offset: Node
    answer: Node
    negatives: Node | None
    time_center: Node | None
    time_offset: Node | None
    weights: np.ndarray  # (n,) 1/n_q per query
    k: int  # negatives per query, k_e + m


def margin_loss(
    groups: list[LossGroup], gamma: float, alpha: float, batch_size: int, smooth=None, beta=0.0
) -> Node:
    """Query2Box's negative-sampling loss of a batch, as one node.

    Per query: -log sig(gamma - D(o)) - (1/k) * sum log sig(D(o') - gamma)
    over its k negatives (entity negatives o' against the query box, then
    the answer o against each time negative's box), times its weight; the
    loss is the sum over the groups divided by batch_size. With `smooth` =
    (rows 1..T-1, rows 0..T-2) of the timestamp table, beta times
    smoothness_value of their difference is added. The value and the
    gradient follow the former primitive nodes' expressions in their
    order, so both have their bits.

    The parents are listed once per contribution of those nodes, in the
    order they added them. Per group: the time negatives' box (their
    distance's center and offset terms) and the answer's summed point
    term from them; the entity negatives' three point terms and their
    summed center and offset terms; then the positive distance's three
    answer, three center and two offset terms. Last come the two
    smoothness rows.
    """
    total, parents, saved = 0.0, [], []
    for grp in groups:
        c, o, answer = grp.center.value, grp.offset.value, grp.answer.value
        n, d = c.shape
        # each distance keeps what its gradient reads, and its log-sigmoid's input
        d_pos, pos = _distance(answer, c, o, alpha)
        pos = (pos, gamma - d_pos)
        sample_loss = -log_sigmoid_value(pos[1])
        neg_sum = neg = tneg = None
        neg_parents, tneg_parents = [], []
        if grp.negatives is not None:
            c_b, o_b = c.reshape(n, 1, d), o.reshape(n, 1, d)
            d_neg, neg = _distance(grp.negatives.value, c_b, o_b, alpha)
            neg = (neg, d_neg - gamma)
            neg_sum = np.sum(log_sigmoid_value(neg[1]), axis=-1)
            neg_parents = [grp.negatives] * 3 + [grp.center, grp.offset]
        if grp.time_center is not None:
            d_tneg, tneg = _distance(
                answer.reshape(n, 1, d), grp.time_center.value, grp.time_offset.value, alpha
            )
            tneg = (tneg, d_tneg - gamma)
            t_sum = np.sum(log_sigmoid_value(tneg[1]), axis=-1)
            neg_sum = t_sum if neg_sum is None else neg_sum + t_sum
            tneg_parents = [grp.time_center] * 3 + [grp.time_offset] * 2 + [grp.answer]
        inv_k = 1.0 / grp.k
        if neg_sum is not None:
            sample_loss = sample_loss - neg_sum * inv_k
        total = total + np.sum(sample_loss * grp.weights)
        parents += tneg_parents + neg_parents
        parents += [grp.answer] * 3 + [grp.center] * 3 + [grp.offset] * 2
        saved.append((n, d, pos, neg, tneg, inv_k, grp.weights))
    inv_batch = 1.0 / batch_size
    value = total * inv_batch
    if smooth is not None:
        diff = smooth[0].value - smooth[1].value
        value = value + smoothness_value(diff) * beta
        parents += smooth
    tape = _tape_of(*parents)
    if tape is None:
        return Node(value, "margin_loss")

    def vjp(g, *_):
        out = []
        g_total = g * inv_batch
        for n, d, pos, neg, tneg, inv_k, weights in saved:
            g_loss = g_total * weights
            g_neg = ((-g_loss) * inv_k)[:, None]
            if tneg is not None:
                p1, p2, p3, *box = _distance_grads(g_neg * log_sigmoid_slope(tneg[1]), tneg[0])
                out += [*box, ((p1 + p2) + p3).reshape(n, d)]
            if neg is not None:
                *points, c1, c2, c3, o1, o2 = _distance_grads(
                    g_neg * log_sigmoid_slope(neg[1]), neg[0]
                )
                out += [*points, ((c1 + c2) + c3).reshape(n, d), (o1 + o2).reshape(n, d)]
            # -(-g * s) is g * s bit for bit: negation is exact
            out += _distance_grads(g_loss * log_sigmoid_slope(pos[1]), pos[0])
        if smooth is not None:
            term = ((g * beta) * (1.0 / len(diff))) * diff
            g_diff = term + term
            out += [g_diff, -g_diff]
        return out

    return Node(value, "margin_loss", tuple(parents), tape, vjp)


def backward(tape: Tape, root: Node) -> GradientMap:
    """Collect d(root)/d(leaf) for every parameter leaf the tape touched,
    under its array's name: one entry per rows leaf, and one summed entry
    per run of consecutive whole-array leaves. The root must be a scalar."""
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


def row_sums(gmap: GradientMap, params: dict[str, np.ndarray]) -> RowGradients:
    """Sum each touched array's leaf gradients by row, without building a
    dense array for an array whose leaves look up rows.

    Such an array gets (its sorted unique touched rows, their summed
    gradients). Two bincounts add the same elements in the same order that
    adding every leaf into a zero array would: the first sums each leaf's
    duplicate rows into zeros in input order, and the second sums those
    per-leaf rows into zeros in leaf order, so a row's gradient is
    0 + (0 + leaf_1's lookups) + (0 + leaf_2's lookups) + ...

    An array used whole gets (None, dense): its entries added into a zero
    array in the map's order. A summed whole-array entry gives the same
    bits as adding its leaves one at a time. The model uses each array
    either by rows or whole, so an array with both kinds of entry raises
    ValueError.
    """
    out: RowGradients = {}
    for name, entries in gmap.items():
        shape = params[name].shape
        whole = [g for idx, g in entries if idx is None]
        if whole:
            if len(whole) < len(entries):
                raise ValueError(f"{name!r} has both rows and whole-array gradient entries")
            dense = np.zeros(shape)
            for g in whole:
                dense += g
            out[name] = (None, dense)
            continue
        width = math.prod(shape[1:])
        # level 1: one slot per (leaf, row), in (leaf, row) order
        keys = np.concatenate([j * shape[0] + idx.ravel() for j, (idx, _) in enumerate(entries)])
        leaf_rows, inverse = np.unique(keys, return_inverse=True)
        weights = np.concatenate([g.reshape(-1) for _, g in entries])
        per_leaf = _sum_slots(inverse, weights, len(leaf_rows), width)
        # level 2: one slot per row, summing its leaves in leaf order
        rows, inverse = np.unique(leaf_rows % shape[0], return_inverse=True)
        summed = _sum_slots(inverse, per_leaf.reshape(-1), len(rows), width)
        out[name] = (rows, summed.reshape((len(rows),) + shape[1:]))
    return out


def _sum_slots(inverse: np.ndarray, weights: np.ndarray, n_slots: int, width: int) -> np.ndarray:
    """(n_slots, width) sums of weights' rows by slot; bincount adds each
    element in input order into zeros, as np.add.at would."""
    if not n_slots:
        return np.zeros((0, width))  # bincount of nothing gives int64
    slots = (inverse[:, None] * width + np.arange(width)).ravel()
    return np.bincount(slots, weights=weights, minlength=n_slots * width).reshape(n_slots, width)


def densify(gmap: GradientMap, params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """One dense gradient per touched array: row_sums scattered into zeros."""
    dense: dict[str, np.ndarray] = {}
    for name, (rows, g) in row_sums(gmap, params).items():
        if rows is None:
            dense[name] = g
            continue
        dense[name] = np.zeros_like(params[name])
        dense[name][rows] = g
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
        try:
            arr.flat[flat_index] = orig + eps
            loss_plus = float(loss_fn()[0])
            arr.flat[flat_index] = orig - eps
            loss_minus = float(loss_fn()[0])
        finally:
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
