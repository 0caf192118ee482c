import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from time2box import autodiff as ad


def test_l1_norm_gradient():
    # the distance to a box shrunk to the origin is the point's L1 norm
    x = np.array([[2.0, -3.0]])
    tape = ad.Tape()
    xs = ad.param_rows(tape, x, "x", [0])
    loss = ad.box_distance(xs, ad.constant(np.zeros(2)), ad.constant(np.zeros(2)), 0.5)
    assert loss.value == 5.0
    grads = ad.densify(ad.backward(tape, ad.reduce_sum(loss)), {"x": x})
    np.testing.assert_array_equal(grads["x"][0], [1.0, -1.0])


def test_sigmoid_matches_analytic_form():
    w = np.array([[0.3, -1.2, 0.7]])
    x = np.array([0.5, 2.0, -1.0])
    tape = ad.Tape()
    wn = ad.param_full(tape, w, "w")
    z = ad.reduce_sum(ad.mul(wn, ad.constant(x)))
    loss = ad.sigmoid(z)
    grads = ad.densify(ad.backward(tape, loss), {"w": w})
    s = 1.0 / (1.0 + np.exp(-float((w @ x)[0])))
    np.testing.assert_allclose(grads["w"], s * (1 - s) * x[None, :], rtol=1e-12)


def test_min_pool_ties_route_to_first_index():
    x = np.array([[1.0, 5.0], [1.0, 2.0], [3.0, 2.0]])
    tape = ad.Tape()
    xs = ad.param_rows(tape, x, "x", [0, 1, 2])
    loss = ad.reduce_sum(ad.amin(xs, axis=0))
    grads = ad.densify(ad.backward(tape, loss), {"x": x})
    np.testing.assert_array_equal(grads["x"][0], [1.0, 0.0])  # ties at column 0
    np.testing.assert_array_equal(grads["x"][1], [0.0, 1.0])  # ties at column 1
    np.testing.assert_array_equal(grads["x"][2], [0.0, 0.0])


def test_min_pool_tie_leaves_positive_zeros():
    # 3 items on axis -2, tied in every column, with a negative gradient: the
    # first minimum takes g, and every other entry is +0.0, not -0.0
    x = np.array([[[1.0, 2.0], [1.0, 0.5], [3.0, 0.5]]])
    tape = ad.Tape()
    xs = ad.param_full(tape, x, "x")
    pooled = ad.amin(xs, axis=-2)
    loss = ad.reduce_sum(ad.mul(pooled, ad.constant([-2.0, -3.0])))
    ((indices, gx),) = ad.backward(tape, loss)["x"]
    assert indices is None
    np.testing.assert_array_equal(gx[0], [[-2.0, 0.0], [0.0, -3.0], [0.0, 0.0]])
    zeros = gx == 0.0
    assert zeros.sum() == 4 and not np.signbit(gx[zeros]).any()


@pytest.mark.parametrize("seed", range(5))
def test_min_pool_equals_argmin_routing(seed):
    """The mask-routed vjp gives the former argmin + put_along_axis bits,
    on integer-valued items with many ties, for the pooled axis in any place."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 3, size=(4, 3, 5, 6)).astype(float)
    for axis in (-2, 0, 2):
        shape = np.delete(np.array(x.shape), axis)
        g = rng.normal(size=tuple(shape))
        node = ad.amin(ad.param_full(ad.Tape(), x, "x"), axis=axis)
        (got,) = node._vjp(g, node.value, x)
        expected = np.zeros_like(x)
        idx = np.expand_dims(np.argmin(x, axis=axis), axis)
        np.put_along_axis(expected, idx, np.expand_dims(g, axis), axis)
        assert got.tobytes() == expected.tobytes()


def test_log_sigmoid_gradient_equals_former_scatter():
    x = np.array([-800.0, -30.0, -1.5, -1e-300, -0.0, 0.0, 1e-300, 2.0, 40.0, 800.0])
    node = ad.log_sigmoid(ad.param_full(ad.Tape(), x, "x"))
    g = np.linspace(-2.0, 3.0, x.size)
    (got,) = node._vjp(g, node.value, x)
    s = np.empty_like(x)
    pos = x >= 0
    s[pos] = np.exp(-x[pos]) / (1.0 + np.exp(-x[pos]))
    s[~pos] = 1.0 / (1.0 + np.exp(x[~pos]))
    assert got.tobytes() == (g * s).tobytes()


def test_clamp_zero_derivative_at_boundary():
    # the box [-1, 2] per dimension: a point exactly on a face has derivative
    # 0 (the clamp sends the inside term to the face), one strictly inside
    # has alpha * sign(p - c)
    point = np.array([[2.0, -1.0, 1.0]])
    tape = ad.Tape()
    p = ad.param_rows(tape, point, "p", [0])
    center, offset = ad.constant(np.full(3, 0.5)), ad.constant(np.full(3, 1.5))
    loss = ad.box_distance(p, center, offset, 0.25)
    grads = ad.densify(ad.backward(tape, ad.reduce_sum(loss)), {"p": point})
    np.testing.assert_array_equal(grads["p"][0], [0.0, 0.0, 0.25])


def test_relu_zero_derivative_at_kink():
    x = np.array([[0.0, -1.0, 3.0]])
    tape = ad.Tape()
    xs = ad.param_rows(tape, x, "x", [0])
    loss = ad.reduce_sum(ad.relu(xs))
    grads = ad.densify(ad.backward(tape, loss), {"x": x})
    np.testing.assert_array_equal(grads["x"][0], [0.0, 0.0, 1.0])


def test_untouched_parameters_absent_from_gradient_map():
    table = np.arange(12, dtype=float).reshape(4, 3)
    params = {"emb": table, "other": np.ones((2, 3))}
    tape = ad.Tape()
    xs = ad.param_rows(tape, table, "emb", [1, 3])
    loss = ad.reduce_sum(ad.mul(xs, xs))
    gmap = ad.backward(tape, loss)
    assert set(gmap) == {"emb"}
    grads = ad.densify(gmap, params)
    assert set(grads) == {"emb"}
    # untouched rows of a touched array get exactly zero
    assert not grads["emb"][[0, 2]].any()
    assert grads["emb"][[1, 3]].all()


def test_duplicate_rows_accumulate():
    table = np.ones((3, 2))
    tape = ad.Tape()
    xs = ad.param_rows(tape, table, "emb", [1, 1, 2])
    loss = ad.reduce_sum(xs)
    grads = ad.densify(ad.backward(tape, loss), {"emb": table})
    np.testing.assert_array_equal(grads["emb"][1], [2.0, 2.0])
    np.testing.assert_array_equal(grads["emb"][2], [1.0, 1.0])


def test_stack_broadcasts_and_sums_gradient_back():
    params = {"a": np.arange(6.0).reshape(2, 3), "b": np.ones((4, 3))}
    tape = ad.Tape()
    a = ad.param_rows(tape, params["a"], "a", [[0], [1]])  # (2, 1, 3)
    b = ad.param_rows(tape, params["b"], "b", [[0, 1, 2, 3], [0, 1, 2, 3]])  # (2, 4, 3)
    out = ad.stack([a, b], axis=-2)
    assert out.shape == (2, 4, 2, 3)
    np.testing.assert_array_equal(out.value[1, 2, 0], [3.0, 4.0, 5.0])
    grads = ad.densify(ad.backward(tape, ad.reduce_sum(out)), params)
    np.testing.assert_array_equal(grads["a"][0], [4.0, 4.0, 4.0])
    np.testing.assert_array_equal(grads["b"][3], [2.0, 2.0, 2.0])


def test_backward_deterministic():
    rng = np.random.default_rng(4)
    table = rng.normal(size=(6, 3))
    tape = ad.Tape()
    xs = ad.param_rows(tape, table, "emb", [0, 1, 5])
    loss = ad.reduce_sum(ad.mul(ad.sigmoid(xs), xs))
    g1 = ad.densify(ad.backward(tape, loss), {"emb": table})
    g2 = ad.densify(ad.backward(tape, loss), {"emb": table})
    assert set(g1) == set(g2)
    for k in g1:
        np.testing.assert_array_equal(g1[k], g2[k])


def test_backward_rejects_non_scalar_root():
    tape = ad.Tape()
    xs = ad.param_rows(tape, np.ones((2, 2)), "x", [0, 1])
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(tape, xs)


def test_eager_mode_records_nothing():
    a = ad.constant([1.0, 2.0])
    b = ad.relu(ad.add(a, ad.constant([-2.0, 1.0])))
    np.testing.assert_array_equal(b.value, [0.0, 3.0])
    assert b.tape is None
    # nor keeps its inputs, so eager intermediates are freed once used
    assert b.parents == ()


class TestFiniteDiffCheck:
    def test_pure_linear_loss_is_exact(self):
        params = {"x": np.array([[1.0, -2.0, 3.0]])}

        def loss_fn():
            tape = ad.Tape()
            xs = ad.param_rows(tape, params["x"], "x", [0])
            loss = ad.reduce_sum(ad.mul(xs, ad.constant([2.0, -1.0, 0.5])))
            return loss.value, ad.backward(tape, loss)

        report = ad.finite_diff_check(loss_fn, params, eps=1e-4, samples=30)
        assert report.max_rel_error < 1e-10
        assert report.n_kinks_skipped == 0

    def test_kink_is_flagged_not_failed(self):
        # relu evaluated exactly at 0: one-sided slopes are 0 and 1
        params = {"x": np.array([[0.0]])}

        def loss_fn():
            tape = ad.Tape()
            xs = ad.param_rows(tape, params["x"], "x", [0])
            loss = ad.reduce_sum(ad.relu(xs))
            return loss.value, ad.backward(tape, loss)

        report = ad.finite_diff_check(loss_fn, params, eps=1e-4, samples=5)
        assert report.n_kinks_skipped == 5
        assert report.n_checked == 0

    def test_composite_graph_under_1e_minus_4(self):
        rng = np.random.default_rng(11)
        params = {
            "emb": rng.normal(size=(6, 5)),
            "w": rng.normal(size=(5, 5)),
        }

        def loss_fn():
            tape = ad.Tape()
            xs = ad.param_rows(tape, params["emb"], "emb", [0, 2, 3])
            wn = ad.param_full(tape, params["w"], "w")
            h = ad.relu(ad.linear(xs, wn))
            att = ad.softmax(h, axis=0)
            mixed = ad.reduce_sum(ad.mul(att, xs), axis=0)
            d = ad.box_distance(mixed, ad.constant(np.zeros(5)), ad.constant(np.full(5, 0.5)), 0.3)
            loss = ad.add(ad.neg(ad.log_sigmoid(d)), ad.reduce_sum(ad.amin(h, axis=0)))
            return loss.value, ad.backward(tape, loss)

        report = ad.finite_diff_check(loss_fn, params, eps=1e-4, samples=120, rng=rng)
        assert report.n_checked > 80
        assert report.max_rel_error < 1e-4

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            ad.finite_diff_check(lambda: (0.0, {}), {"x": np.zeros(1)}, eps=0.0)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 1000),
)
def test_softmax_rows_sum_to_one_and_grads_finite(n, d, seed):
    rng = np.random.default_rng(seed)
    params = {"x": rng.normal(size=(n, d)) * 5}
    tape = ad.Tape()
    xs = ad.param_rows(tape, params["x"], "x", list(range(n)))
    s = ad.softmax(xs, axis=0)
    np.testing.assert_allclose(s.value.sum(axis=0), np.ones(d), rtol=1e-12)
    loss = ad.reduce_sum(ad.mul(s, ad.constant(rng.normal(size=(n, d)))))
    grads = ad.densify(ad.backward(tape, loss), params)
    for g in grads.values():
        assert np.all(np.isfinite(g))


def former_backward_densify(tape, root, params):
    """The former accumulation, kept as the reference: backward summed each
    rows leaf's duplicate rows with np.add.at and added them into one
    (name, row) slot per touched row, and each whole-array leaf into one
    (name, None) slot; densify then added every slot into a zero array."""
    grads, slots = {id(root): np.ones_like(root.value)}, {}
    for node in reversed(tape.nodes):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._leaf is not None:
            name, indices = node._leaf
            if indices is None:
                slots[(name, None)] = slots.get((name, None), 0.0) + g
                continue
            flat_idx = indices.ravel()
            flat_g = g.reshape(len(flat_idx), -1)
            uniq, inverse = np.unique(flat_idx, return_inverse=True)
            buf = np.zeros((len(uniq), flat_g.shape[1]))
            np.add.at(buf, inverse, flat_g)
            for j, row in enumerate(uniq):
                slot = (name, int(row))
                slots[slot] = slots.get(slot, 0.0) + buf[j]
            continue
        parent_grads = node._vjp(g, node.value, *(p.value for p in node.parents))
        for parent, pg in zip(node.parents, parent_grads):
            if parent.tape is None or pg is None:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    dense = {}
    for (name, row), g in slots.items():
        if name not in dense:
            dense[name] = np.zeros_like(params[name])
        if row is None:
            dense[name] += g.reshape(params[name].shape)
        else:
            dense[name][row] += g
    return dense


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 5),  # rows leaves on the embedding table
    st.integers(1, 3),  # full leaves of the weight matrix
    st.integers(2, 8),  # table rows
    st.integers(1, 4),  # width
    st.integers(0, 10_000),
)
def test_densify_bit_identical_to_per_row_slots(n_rows_leaves, n_full_leaves, n, d, seed):
    rng = np.random.default_rng(seed)
    params = {"emb": rng.normal(size=(n, d)), "w": rng.normal(size=(d, d))}
    tape = ad.Tape()
    terms = []
    for _ in range(n_rows_leaves):
        # 1-D or 2-D lookups drawn with replacement: rows repeat inside a
        # leaf and across leaves
        shape = tuple(rng.integers(1, 2 * n, size=rng.integers(1, 3)))
        xs = ad.param_rows(tape, params["emb"], "emb", rng.integers(0, n, size=shape))
        for _ in range(n_full_leaves):
            h = ad.sigmoid(ad.linear(xs, ad.param_full(tape, params["w"], "w")))
            terms.append(ad.reduce_sum(ad.mul(h, ad.constant(rng.normal(size=h.shape)))))
        terms.append(ad.reduce_sum(ad.mul(xs, ad.constant(rng.normal(size=xs.shape) * 1e3))))
    loss = terms[0]
    for term in terms[1:]:
        loss = ad.add(loss, term)
    gmap = ad.backward(tape, loss)
    # one entry per rows leaf; the weight matrix's leaves are summed into one
    assert [len(gmap[name]) for name in ("emb", "w")] == [n_rows_leaves, 1]
    ours = ad.densify(gmap, params)
    ref = former_backward_densify(tape, loss, params)
    assert set(ours) == set(ref) == {"emb", "w"}
    for name in ref:
        assert ours[name].tobytes() == ref[name].tobytes(), name


def former_clamp(x, lo, hi):
    """The former clamp op: min(hi, max(lo, x)), with the gradient at an
    exact boundary going to the boundary tensor."""

    def vjp(g, _, xv, lov, hiv):
        to_hi = np.maximum(xv, lov) >= hiv
        to_lo = ~to_hi & (xv <= lov)
        to_x = ~to_hi & ~to_lo
        return (
            ad._unbroadcast(g * to_x, xv.shape),
            ad._unbroadcast(g * to_lo, lov.shape),
            ad._unbroadcast(g * to_hi, hiv.shape),
        )

    return ad._op("clamp", (x, lo, hi), lambda xv, lov, hiv: np.minimum(np.maximum(xv, lov), hiv), vjp)


def former_absolute(a):
    return ad._op("abs", (a,), np.abs, lambda g, _, x: (g * np.sign(x),))


def former_box_distance(point, center, offset, alpha):
    """The distance as the tape recorded it before box_distance fused it:
    14 primitive nodes, kept as the reference box_distance's value and
    gradient must equal bit for bit."""
    b_min = ad.sub(center, offset)
    b_max = ad.add(center, offset)
    inside = ad.reduce_sum(former_absolute(ad.sub(center, former_clamp(point, b_min, b_max))), axis=-1)
    outside = ad.reduce_sum(ad.add(ad.relu(ad.sub(point, b_max)), ad.relu(ad.sub(b_min, point))), axis=-1)
    return ad.add(ad.mul(inside, ad.constant(alpha)), outside)


#: batch_loss's three (point, box) layouts at n = 5 statements, 3 negatives,
#: d = 4: the positive object, entity negatives against a (n, 1, d) box, and
#: the object as (n, 1, d) against one box per corrupted timestamp
DISTANCE_LAYOUTS = {
    "positive": ((5,), (5,)),
    "entity-negatives": ((5, 3), (5, 1)),
    "time-negatives": ((5, 1), (5, 3)),
}


def distance_loss(distance, params, layout, seed, alpha=0.5):
    """A batch_loss-like loss over one distance call. Point, center and
    offset are also used by terms recorded after the distance, so backward
    adds the distance's contributions onto running sums, as in batch_loss."""
    point_lead, box_lead = DISTANCE_LAYOUTS[layout]
    rng = np.random.default_rng(seed)
    tape = ad.Tape()
    point = ad.param_rows(tape, params["point"], "point", rng.integers(0, 6, size=point_lead))
    rows = rng.integers(0, 6, size=box_lead)
    center = ad.param_rows(tape, params["center"], "center", rows)
    offset = ad.param_rows(tape, params["offset"], "offset", rows)
    dist = distance(point, center, offset, alpha)
    weights = rng.uniform(-1.0, 1.0, size=dist.shape)
    loss = ad.reduce_sum(ad.mul(ad.log_sigmoid(ad.sub(ad.constant(3.0), dist)), ad.constant(weights)))
    for node in (point, center, offset):
        later = ad.reduce_sum(ad.mul(node, ad.constant(rng.normal(size=node.shape))))
        loss = ad.add(loss, later)
    return loss, tape


def kinked_distance_params(seed):
    """Tables on a coarse grid, so points fall exactly on faces and centers,
    and a third of the offsets are 0."""
    rng = np.random.default_rng(seed)
    center = rng.integers(-4, 5, size=(6, 4)) / 4.0
    offset = rng.integers(0, 3, size=(6, 4)) / 4.0
    point = rng.integers(-6, 7, size=(6, 4)) / 4.0
    return {"point": point, "center": center, "offset": offset}


@pytest.mark.parametrize("kinked", [False, True])
@pytest.mark.parametrize("layout", sorted(DISTANCE_LAYOUTS))
@pytest.mark.parametrize("seed", range(4))
def test_box_distance_equals_former_composite(layout, kinked, seed):
    """Value and every gradient bit of the fused op equal the former
    14-node composite's, with the contributions added onto running sums."""
    if kinked:
        params = kinked_distance_params(seed)
    else:
        rng = np.random.default_rng(100 + seed)
        params = {
            "point": rng.normal(size=(6, 4)),
            "center": rng.normal(size=(6, 4)),
            "offset": rng.uniform(0.0, 1.0, size=(6, 4)),
        }
    fused_loss, fused_tape = distance_loss(ad.box_distance, params, layout, seed)
    former_loss, former_tape = distance_loss(former_box_distance, params, layout, seed)
    assert fused_loss.value.tobytes() == former_loss.value.tobytes()
    assert len(former_tape.nodes) - len(fused_tape.nodes) == 13
    fused = ad.backward(fused_tape, fused_loss)
    former = ad.backward(former_tape, former_loss)
    assert fused.keys() == former.keys() == {"point", "center", "offset"}
    for name in former:
        for (fi, fg), (ri, rg) in zip(fused[name], former[name], strict=True):
            assert np.array_equal(fi, ri)
            # equal values; a zero's sign may differ, and densify, which adds
            # every entry into +0.0, removes it
            assert np.array_equal(fg, rg), name
        dense_fused = ad.densify({name: fused[name]}, params)[name]
        dense_former = ad.densify({name: former[name]}, params)[name]
        assert dense_fused.tobytes() == dense_former.tobytes(), name


def test_box_distance_value_is_the_scoring_kernel():
    rng = np.random.default_rng(8)
    points = rng.normal(size=(7, 3, 16))
    center, offset = rng.normal(size=(7, 1, 16)), rng.uniform(0.0, 1.0, size=(7, 1, 16))
    offset[:, :, ::4] = 0.0
    shape = points.shape
    kernel = ad.box_distance_value(
        points, center, center - offset, center + offset, 0.3, np.empty(shape), np.empty(shape)
    )
    tape = ad.Tape()
    node = ad.box_distance(ad.param_rows(tape, points, "p", np.arange(7)), center, offset, 0.3)
    assert node.value.tobytes() == kernel.tobytes()
    assert ad.box_distance(points, center, offset, 0.3).value.tobytes() == kernel.tobytes()


@pytest.mark.parametrize("layout", sorted(DISTANCE_LAYOUTS))
def test_box_distance_gradient_matches_finite_differences(layout):
    rng = np.random.default_rng(21)
    params = {
        "point": rng.normal(size=(6, 4)),
        "center": rng.normal(size=(6, 4)),
        "offset": rng.uniform(0.1, 1.0, size=(6, 4)),
    }

    def loss_fn():
        loss, tape = distance_loss(ad.box_distance, params, layout, 3)
        return loss.value, ad.backward(tape, loss)

    report = ad.finite_diff_check(loss_fn, params, eps=1e-5, samples=120, rng=rng)
    assert report.n_checked > 100
    assert report.max_rel_error < 1e-5


@pytest.mark.parametrize("layout", sorted(DISTANCE_LAYOUTS))
def test_box_distance_gradient_at_kinks(layout):
    """Points on faces and zero-offset dimensions: coordinates on a kink are
    flagged by their one-sided slopes, and all others match."""
    params = kinked_distance_params(5)

    def loss_fn():
        loss, tape = distance_loss(ad.box_distance, params, layout, 5)
        return loss.value, ad.backward(tape, loss)

    report = ad.finite_diff_check(
        loss_fn, params, eps=1e-5, samples=150, rng=np.random.default_rng(2)
    )
    assert report.n_kinks_skipped > 0
    assert report.n_checked > 50
    assert report.max_rel_error < 1e-5


#: values that stress the item-axis kernels: NaN, infinities, signed zeros,
#: |x| > 745 (exp underflows to 0), ties and large magnitudes
SPECIAL = np.array(
    [np.nan, np.inf, -np.inf, 0.0, -0.0, 746.0, -746.0, 800.0, -800.0, 1e16, -1e16,
     1e-300, -1e-300, 1.0, 1.0, -1.0, 2.5, -30.0]
)


def item_inputs(n, seed):
    """(x, g) pairs with n items on axis -2: one drawn from SPECIAL and one
    of finite values with ties, so that both the special cases and ordinary
    sums are pinned."""
    rng = np.random.default_rng(seed)
    shape = (3, 4, n, 6)
    special = rng.choice(SPECIAL, size=shape), rng.choice(SPECIAL, size=shape)
    finite = np.round(rng.normal(size=shape) * 4, 1), rng.normal(size=shape)
    return [special, finite]


def same_bits(a, b):
    """Equal bits, except that a NaN may carry either sign: the mask-free
    sigmoid turns the NaN input into a NaN of the other sign."""
    nan = np.isnan(a)
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and np.array_equal(nan, np.isnan(b))
        and a[~nan].tobytes() == b[~nan].tobytes()
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("seed", range(3))
class TestItemAxisKernels:
    """The intersection's item-axis ops run item by item; forward and vjp
    give the bits of numpy's reductions over axis -2."""

    def test_softmax(self, n, seed):
        for x, g in item_inputs(n, seed):
            node = ad.softmax(ad.param_full(ad.Tape(), x, "x"), axis=-2)
            e = np.exp(x - np.max(x, axis=-2, keepdims=True))
            want = e / e.sum(axis=-2, keepdims=True)
            assert same_bits(node.value, want)
            (got,) = node._vjp(g, node.value, x)
            assert same_bits(got, want * (g - (g * want).sum(axis=-2, keepdims=True)))

    def test_sum(self, n, seed):
        for x, g in item_inputs(n, seed):
            node = ad.reduce_sum(ad.param_full(ad.Tape(), x, "x"), axis=-2)
            assert same_bits(node.value, np.sum(x, axis=-2))
            (got,) = node._vjp(g[..., 0, :], node.value, x)
            assert same_bits(got, np.broadcast_to(g[..., :1, :], x.shape).copy())

    def test_mean(self, n, seed):
        for x, g in item_inputs(n, seed):
            node = ad.reduce_mean(ad.param_full(ad.Tape(), x, "x"), axis=-2)
            assert same_bits(node.value, np.mean(x, axis=-2))
            (got,) = node._vjp(g[..., 0, :], node.value, x)
            assert same_bits(got, np.broadcast_to(g[..., :1, :], x.shape) / n)

    def test_max(self, n, seed):
        for x, _ in item_inputs(n, seed):
            assert same_bits(ad._item_max(x, -2), np.max(x, axis=-2))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mask_free_sigmoid_and_log_sigmoid_vjp_match_masked_formulas():
    x = np.concatenate([SPECIAL, -SPECIAL, np.linspace(-40.0, 40.0, 97)])
    g = np.linspace(-2.0, 3.0, x.size)
    node = ad.sigmoid(ad.param_full(ad.Tape(), x, "x"))
    want = np.empty_like(x)
    pos = x >= 0
    want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    want[~pos] = ex / (1.0 + ex)
    assert np.isnan(want).sum() == 2
    assert same_bits(node.value, want)

    node = ad.log_sigmoid(ad.param_full(ad.Tape(), x, "x"))
    (got,) = node._vjp(g, node.value, x)
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    assert same_bits(got, g * np.where(x >= 0, e / d, 1.0 / d))
