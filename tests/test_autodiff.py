import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_ops import box_distance, log_sigmoid, neg, reduce_sum, sub
from time2box import autodiff as ad


def test_l1_norm_gradient():
    # the distance to a box shrunk to the origin is the point's L1 norm
    x = np.array([[2.0, -3.0]])
    tape = ad.Tape()
    xs = ad.param_rows(tape, x, "x", [0])
    loss = box_distance(xs, ad.constant(np.zeros(2)), ad.constant(np.zeros(2)), 0.5)
    assert loss.value == 5.0
    grads = ad.densify(ad.backward(tape, reduce_sum(loss)), {"x": x})
    np.testing.assert_array_equal(grads["x"][0], [1.0, -1.0])


def zero_gate(d):
    """DeepSets matrices of zeros for gated_min: the gate is sigmoid(0) =
    0.5, and the DeepSets path adds only zeros to the items' gradient, so
    the minimum's routing shows alone."""
    return [np.zeros((d, d))] * 3


def test_sigmoid_matches_analytic_form():
    # one positive item x under identity DeepSets maps: the offset is
    # x * s with s = sigmoid(w_ds_out @ x), and w_ds_out's gradient is
    # x * s(1 - s) times x
    w = np.array([[0.3, -1.2, 0.7], [0.5, 0.1, -0.4], [-0.2, 0.6, 0.9]])
    x = np.array([0.5, 2.0, 1.5])
    tape = ad.Tape()
    wn = ad.param_full(tape, w, "w")
    gated = ad.gated_min([ad.constant(x)], np.eye(3), np.eye(3), wn)
    grads = ad.densify(ad.backward(tape, reduce_sum(gated)), {"w": w})
    s = 1.0 / (1.0 + np.exp(-(w @ x)))
    np.testing.assert_allclose(gated.value, x * s, rtol=1e-15)
    np.testing.assert_allclose(grads["w"], (x * s * (1 - s))[:, None] * x[None, :], rtol=1e-12)


def test_min_pool_ties_route_to_first_index():
    x = np.array([[1.0, 5.0], [1.0, 2.0], [3.0, 2.0]])
    tape = ad.Tape()
    items = [ad.param_rows(tape, x, "x", [i]) for i in range(3)]
    loss = reduce_sum(ad.gated_min(items, *zero_gate(2)))
    grads = ad.densify(ad.backward(tape, loss), {"x": x})
    np.testing.assert_array_equal(grads["x"][0], [0.5, 0.0])  # ties at column 0
    np.testing.assert_array_equal(grads["x"][1], [0.0, 0.5])  # ties at column 1
    np.testing.assert_array_equal(grads["x"][2], [0.0, 0.0])


def test_min_pool_tie_leaves_positive_zeros():
    # 3 items, tied in every column, with a negative gradient: the first
    # minimum takes g * gate, and every other entry is +0.0, not -0.0
    x = np.array([[1.0, 2.0], [1.0, 0.5], [3.0, 0.5]])
    tape = ad.Tape()
    items = [ad.param_rows(tape, x, "x", [i]) for i in range(3)]
    gated = ad.gated_min(items, *zero_gate(2))
    loss = reduce_sum(ad.mul(gated, ad.constant([-4.0, -6.0])))
    entries = ad.backward(tape, loss)["x"]
    gx = np.concatenate([g for _, g in reversed(entries)])
    np.testing.assert_array_equal(gx, [[-2.0, 0.0], [0.0, -3.0], [0.0, 0.0]])
    zeros = gx == 0.0
    assert zeros.sum() == 4 and not np.signbit(gx[zeros]).any()


@pytest.mark.parametrize("seed", range(5))
def test_min_pool_equals_argmin_routing(seed):
    """The mask-routed min gives the argmin + put_along_axis bits, on
    integer-valued items with many ties."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 3, size=(4, 3, 5, 6)).astype(float)
    g = rng.normal(size=(4, 3, 6))
    tape = ad.Tape()
    node = ad.gated_min([ad.param_full(tape, x[..., i, :], "x") for i in range(5)], *zero_gate(6))
    got = node._vjp(g, node.value, *(p.value for p in node.parents))[:5]
    expected = np.zeros_like(x)
    idx = np.expand_dims(np.argmin(x, axis=-2), -2)
    np.put_along_axis(expected, idx, np.expand_dims(g * 0.5, -2), -2)
    assert np.stack(got, axis=-2).tobytes() == expected.tobytes()


def test_log_sigmoid_gradient_equals_former_scatter():
    x = np.array([-800.0, -30.0, -1.5, -1e-300, -0.0, 0.0, 1e-300, 2.0, 40.0, 800.0])
    g = np.linspace(-2.0, 3.0, x.size)
    got = g * ad.log_sigmoid_slope(x)
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
    loss = box_distance(p, center, offset, 0.25)
    grads = ad.densify(ad.backward(tape, reduce_sum(loss)), {"p": point})
    np.testing.assert_array_equal(grads["p"][0], [0.0, 0.0, 0.25])


def test_relu_zero_derivative_at_kink():
    # w_ds_in = I feeds x to the first relu, whose derivative is 0 at x = 0
    # and below, so w_ds_in's gradient g_a1.T @ x has zero rows there; the
    # second relu's inputs are all 3
    x = np.array([0.0, -1.0, 3.0])
    tape = ad.Tape()
    w_in = ad.param_full(tape, np.eye(3), "w")
    gated = ad.gated_min([ad.constant(x)], w_in, np.ones((3, 3)), np.eye(3))
    ((_, gw),) = ad.backward(tape, reduce_sum(gated))["w"]
    np.testing.assert_array_equal(gw[:2], 0.0)
    assert gw[2, 2] > 0.0


def test_untouched_parameters_absent_from_gradient_map():
    table = np.arange(12, dtype=float).reshape(4, 3)
    params = {"emb": table, "other": np.ones((2, 3))}
    tape = ad.Tape()
    xs = ad.param_rows(tape, table, "emb", [1, 3])
    loss = reduce_sum(ad.mul(xs, xs))
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
    loss = reduce_sum(xs)
    grads = ad.densify(ad.backward(tape, loss), {"emb": table})
    np.testing.assert_array_equal(grads["emb"][1], [2.0, 2.0])
    np.testing.assert_array_equal(grads["emb"][2], [1.0, 1.0])


def test_stack_broadcasts_and_sums_gradient_back():
    """Both intersection ops broadcast their items to one shape before they
    stack them, and sum each item's gradient back over the dimensions it
    was broadcast along: the same as looking the row up once per copy."""
    rng = np.random.default_rng(5)
    params = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=(4, 3))}
    mats = rng.normal(size=(4, 3, 3))
    weights = rng.normal(size=(2, 4, 3))
    for op, op_mats in ((ad.attention_center, mats[:1]), (ad.gated_min, mats[1:])):
        values, grads = [], []
        for a_rows in ([[0], [1]], [[0] * 4, [1] * 4]):  # (2, 1) broadcast, or (2, 4)
            tape = ad.Tape()
            a = ad.param_rows(tape, params["a"], "a", a_rows)
            b = ad.param_rows(tape, params["b"], "b", [[0, 1, 2, 3]] * 2)
            out = op([a, b], *op_mats)
            assert out.shape == (2, 4, 3)
            values.append(out.value)
            loss = reduce_sum(ad.mul(out, ad.constant(weights)))
            grads.append(ad.densify(ad.backward(tape, loss), params))
        assert values[0].tobytes() == values[1].tobytes()
        np.testing.assert_allclose(grads[0]["a"], grads[1]["a"], rtol=1e-12)
        assert grads[0]["b"].tobytes() == grads[1]["b"].tobytes()


def test_backward_deterministic():
    rng = np.random.default_rng(4)
    table = rng.normal(size=(6, 3))
    tape = ad.Tape()
    xs = ad.param_rows(tape, table, "emb", [0, 1, 5])
    loss = reduce_sum(ad.mul(log_sigmoid(xs), xs))
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
    b = ad.mul(ad.add(a, ad.constant([-2.0, 1.0])), ad.constant(2.0))
    np.testing.assert_array_equal(b.value, [-2.0, 6.0])
    center = ad.attention_center([a, b], np.eye(2))
    gated = ad.gated_min([a, b], *zero_gate(2))
    np.testing.assert_array_equal(gated.value, [-1.0, 1.0])
    for node in (b, center, gated):
        assert node.tape is None
        # nor keeps its inputs, so eager intermediates are freed once used
        assert node.parents == ()


class TestFiniteDiffCheck:
    def test_pure_linear_loss_is_exact(self):
        params = {"x": np.array([[1.0, -2.0, 3.0]])}

        def loss_fn():
            tape = ad.Tape()
            xs = ad.param_rows(tape, params["x"], "x", [0])
            loss = reduce_sum(ad.mul(xs, ad.constant([2.0, -1.0, 0.5])))
            return loss.value, ad.backward(tape, loss)

        report = ad.finite_diff_check(loss_fn, params, eps=1e-4, samples=30)
        assert report.max_rel_error < 1e-10
        assert report.n_kinks_skipped == 0

    def test_kink_is_flagged_not_failed(self):
        # |x| (the distance to a box shrunk to the origin) at x = 0: the
        # one-sided slopes are -1 and 1
        params = {"x": np.array([[0.0]])}

        def loss_fn():
            tape = ad.Tape()
            xs = ad.param_rows(tape, params["x"], "x", [0])
            loss = reduce_sum(box_distance(xs, np.zeros(1), np.zeros(1), 0.5))
            return loss.value, ad.backward(tape, loss)

        report = ad.finite_diff_check(loss_fn, params, eps=1e-4, samples=5)
        assert report.n_kinks_skipped == 5
        assert report.n_checked == 0

    def test_composite_graph_under_1e_minus_4(self):
        rng = np.random.default_rng(11)
        params = {
            "emb": rng.normal(size=(6, 5)),
            "w": rng.normal(size=(5, 5)),
            "w_ds": rng.normal(size=(5, 5)),
        }

        def loss_fn():
            tape = ad.Tape()
            items = [ad.param_rows(tape, params["emb"], "emb", i) for i in (0, 2, 3)]
            mixed = ad.attention_center(items, ad.param_full(tape, params["w"], "w"))
            d = box_distance(mixed, ad.constant(np.zeros(5)), ad.constant(np.full(5, 0.5)), 0.3)
            w_ds = [ad.param_full(tape, params["w_ds"], "w_ds") for _ in range(3)]
            gated = ad.gated_min(items, *w_ds)
            loss = ad.add(neg(log_sigmoid(d)), reduce_sum(gated))
            return loss.value, ad.backward(tape, loss)

        report = ad.finite_diff_check(loss_fn, params, eps=1e-4, samples=120, rng=rng)
        assert report.n_checked > 80
        assert report.max_rel_error < 1e-4

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            ad.finite_diff_check(lambda: (0.0, {}), {"x": np.zeros(1)}, eps=0.0)

    @pytest.mark.parametrize("failing_call", [2, 3])  # the +eps or the -eps loss
    def test_params_restored_when_loss_fn_raises(self, failing_call):
        params = {"x": np.array([1.0, 2.0, 3.0])}
        before = params["x"].tobytes()
        calls = []

        def loss_fn():
            calls.append(None)
            if len(calls) == failing_call:
                raise FloatingPointError("loss overflowed")
            return float(params["x"] @ params["x"]), {}

        with pytest.raises(FloatingPointError):
            ad.finite_diff_check(loss_fn, params, samples=1)
        assert params["x"].tobytes() == before


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 1000),
)
def test_softmax_rows_sum_to_one_and_grads_finite(n, d, seed):
    # the attention weights over the items sum to one: n equal items give
    # that item back, and distinct items a point inside their hull
    rng = np.random.default_rng(seed)
    params = {"x": rng.normal(size=(n, d)) * 5, "w": rng.normal(size=(d, d)) * 5}
    tape = ad.Tape()
    w = ad.param_full(tape, params["w"], "w")
    c = rng.normal(size=d)
    np.testing.assert_allclose(ad.attention_center([c] * n, w).value, c, rtol=1e-12)
    items = [ad.param_rows(tape, params["x"], "x", i) for i in range(n)]
    center = ad.attention_center(items, w)
    assert np.all(center.value >= params["x"].min(axis=0) - 1e-9)
    assert np.all(center.value <= params["x"].max(axis=0) + 1e-9)
    loss = reduce_sum(ad.mul(center, ad.constant(rng.normal(size=d))))
    grads = ad.densify(ad.backward(tape, loss), params)
    assert set(grads) == {"x", "w"}
    for g in grads.values():
        assert np.all(np.isfinite(g))


@pytest.mark.parametrize("op, n_mats", [(ad.attention_center, 1), (ad.gated_min, 3)])
def test_intersection_op_gradient_matches_finite_differences(op, n_mats):
    """Items as in a query box: a (2, 1) lookup broadcast against two
    (2, 3) ones, the same table looked up for two of them."""
    rng = np.random.default_rng(17)
    params = {"x": rng.normal(size=(6, 4)), "y": rng.normal(size=(6, 4))}
    params.update({f"w{j}": rng.normal(size=(4, 4)) for j in range(n_mats)})
    weights = rng.normal(size=(2, 3, 4))

    def loss_fn():
        tape = ad.Tape()
        items = [
            ad.param_rows(tape, params["x"], "x", [[0], [1]]),
            ad.param_rows(tape, params["y"], "y", [[0, 1, 2], [3, 4, 5]]),
            ad.param_rows(tape, params["x"], "x", [[2, 3, 4], [5, 0, 1]]),
        ]
        mats = [ad.param_full(tape, params[f"w{j}"], f"w{j}") for j in range(n_mats)]
        loss = reduce_sum(ad.mul(op(items, *mats), ad.constant(weights)))
        return loss.value, ad.backward(tape, loss)

    report = ad.finite_diff_check(loss_fn, params, eps=1e-5, samples=150, rng=rng)
    assert report.n_checked > 120
    assert report.max_rel_error < 1e-5


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
            h = ad.attention_center([xs, neg(xs)], ad.param_full(tape, params["w"], "w"))
            terms.append(reduce_sum(ad.mul(h, ad.constant(rng.normal(size=h.shape)))))
        terms.append(reduce_sum(ad.mul(xs, ad.constant(rng.normal(size=xs.shape) * 1e3))))
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


def entrywise_densify(gmap, params):
    """The dense reference: each entry added into a zero array in the map's
    order, a rows entry after np.add.at summed its duplicate rows into its
    own zero buffer."""
    dense = {}
    for name, entries in gmap.items():
        out = np.zeros_like(params[name])
        for indices, g in entries:
            if indices is None:
                out += g
                continue
            uniq, inverse = np.unique(indices.ravel(), return_inverse=True)
            buf = np.zeros((len(uniq),) + out.shape[1:])
            np.add.at(buf, inverse, g.reshape((len(inverse),) + out.shape[1:]))
            out[uniq] += buf
        dense[name] = out
    return dense


@settings(max_examples=60, deadline=None)
@given(
    st.booleans(),  # every entry whole-array (True) or every entry rows
    st.integers(1, 6),  # entries
    st.integers(1, 6),  # table rows
    st.integers(1, 3),  # width
    st.booleans(),  # a 3-D table
    st.integers(0, 10_000),
)
def test_row_sums_bit_identical_to_entrywise_densify(whole, n_entries, n, d, cube, seed):
    rng = np.random.default_rng(seed)
    shape = (n, d, 2) if cube else (n, d)
    params = {"emb": np.zeros(shape)}
    entries = []
    for _ in range(n_entries):
        if whole:
            g = rng.normal(size=shape)
        else:
            # lookups drawn with replacement, repeating rows inside a leaf and
            # across leaves; an empty lookup too
            lookup_shape = tuple(rng.integers(0, 2 * n + 1, size=rng.integers(1, 3)))
            idx = rng.integers(0, n, size=lookup_shape)
            g_shape = idx.shape + shape[1:]
            g = rng.normal(size=g_shape) * 10.0 ** rng.integers(-8, 9, size=g_shape)
        # exact zeros of both signs, which a sum into +0.0 must not keep as -0.0
        g[rng.random(g.shape) < 0.2] = -0.0
        g[rng.random(g.shape) < 0.1] = 0.0
        entries.append((None if whole else idx, g))
    gmap = {"emb": entries}
    (rows, g), = ad.row_sums(gmap, params).values()
    ref = entrywise_densify(gmap, params)["emb"]
    assert ad.densify(gmap, params)["emb"].tobytes() == ref.tobytes()
    if whole:
        assert rows is None and g.tobytes() == ref.tobytes()
        return
    looked_up = np.unique(np.concatenate([idx.ravel() for idx, _ in entries]))
    assert rows.tolist() == looked_up.tolist()
    assert g.dtype == np.float64 and g.shape == (len(rows),) + shape[1:]
    assert g.tobytes() == ref[rows].tobytes()
    # every other row of the reference is +0.0
    untouched = np.setdiff1d(np.arange(n), rows)
    assert ref[untouched].tobytes() == np.zeros((len(untouched),) + shape[1:]).tobytes()


@pytest.mark.parametrize("rows_first", [True, False])
def test_row_sums_rejects_an_array_used_both_ways(rows_first):
    """The model looks an array's rows up or uses it whole, never both, so
    a gradient map that mixes the two kinds for one array is an error."""
    table = np.ones((3, 2))
    tape = ad.Tape()
    leaves = [
        lambda: ad.param_rows(tape, table, "emb", [0, 2, 2]),
        lambda: ad.param_full(tape, table, "emb"),
    ]
    first, second = leaves if rows_first else leaves[::-1]
    loss = ad.add(reduce_sum(first()), reduce_sum(second()))
    gmap = ad.backward(tape, loss)
    # entries come in reverse tape order
    assert [idx is None for idx, _ in gmap["emb"]] == [rows_first, not rows_first]
    for fn in (ad.row_sums, ad.densify):
        with pytest.raises(ValueError, match="emb"):
            fn(gmap, {"emb": table})


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


def former_relu(a):
    return ad._op("relu", (a,), lambda x: np.maximum(x, 0.0), lambda g, _, x: (g * (x > 0.0),))


def former_box_distance(point, center, offset, alpha):
    """The distance as the tape recorded it before box_distance fused it:
    14 primitive nodes, kept as the reference box_distance's value and
    gradient must equal bit for bit."""
    b_min = sub(center, offset)
    b_max = ad.add(center, offset)
    inside = reduce_sum(former_absolute(sub(center, former_clamp(point, b_min, b_max))), axis=-1)
    outside = reduce_sum(
        ad.add(former_relu(sub(point, b_max)), former_relu(sub(b_min, point))), axis=-1
    )
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
    loss = reduce_sum(ad.mul(log_sigmoid(sub(ad.constant(3.0), dist)), ad.constant(weights)))
    for node in (point, center, offset):
        later = reduce_sum(ad.mul(node, ad.constant(rng.normal(size=node.shape))))
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
    fused_loss, fused_tape = distance_loss(box_distance, params, layout, seed)
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
    node = box_distance(ad.param_rows(tape, points, "p", np.arange(7)), center, offset, 0.3)
    assert node.value.tobytes() == kernel.tobytes()
    assert box_distance(points, center, offset, 0.3).value.tobytes() == kernel.tobytes()


@pytest.mark.parametrize("layout", sorted(DISTANCE_LAYOUTS))
def test_box_distance_gradient_matches_finite_differences(layout):
    rng = np.random.default_rng(21)
    params = {
        "point": rng.normal(size=(6, 4)),
        "center": rng.normal(size=(6, 4)),
        "offset": rng.uniform(0.1, 1.0, size=(6, 4)),
    }

    def loss_fn():
        loss, tape = distance_loss(box_distance, params, layout, 3)
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
        loss, tape = distance_loss(box_distance, params, layout, 5)
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


def masked_sigmoid(x):
    """The sigmoid in its two masked forms: 1/(1 + exp(-x)) for x >= 0 and
    exp(x)/(1 + exp(x)) below."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("seed", range(3))
class TestItemAxisKernels:
    """The intersection ops reduce their items one at a time; forward and
    vjp give the bits of numpy's reductions over axis -2."""

    def items_and_mats(self, x, n, k, seed):
        rng = np.random.default_rng(seed)
        tape = ad.Tape()
        items = [ad.param_full(tape, x[..., i, :], "x") for i in range(n)]
        mats = [rng.normal(size=(6, 6)) for _ in range(k)]
        return items, [ad.param_full(tape, w, f"w{j}") for j, w in enumerate(mats)], mats

    def test_softmax(self, n, seed):
        for x, g in item_inputs(n, seed):
            items, leaves, (w,) = self.items_and_mats(x, n, 1, seed)
            node = ad.attention_center(items, *leaves)
            z = x @ w.T
            e = np.exp(z - np.max(z, axis=-2, keepdims=True))
            att = e / e.sum(axis=-2, keepdims=True)
            assert same_bits(node.value, (att * x).sum(axis=-2))
            # without a tape the items are taken one by one, with the same bits
            assert same_bits(ad.attention_center(ad._unstack(x), w).value, node.value)
            g = g[..., 0, :]
            *got, got_w = node._vjp(g, node.value, *(p.value for p in node.parents))
            g = g[..., None, :]
            g_att = g * x
            g_z = att * (g_att - (g_att * att).sum(axis=-2, keepdims=True))
            g_x = g * att + g_z @ w
            assert same_bits(np.stack(got, axis=-2), g_x)
            assert same_bits(got_w, g_z.reshape(-1, 6).T @ x.reshape(-1, 6))

    def test_sum(self, n, seed):
        for x, _ in item_inputs(n, seed):
            assert same_bits(ad._item_sum(ad._unstack(x)), np.sum(x, axis=-2))

    def test_mean(self, n, seed):
        for x, _ in item_inputs(n, seed):
            items, leaves, (w_in, w_hidden, w_out) = self.items_and_mats(x, n, 3, seed)
            node = ad.gated_min(items, *leaves)
            h = np.maximum(np.maximum(x @ w_in.T, 0.0) @ w_hidden.T, 0.0)
            gate = masked_sigmoid(np.mean(h, axis=-2) @ w_out.T)
            assert same_bits(node.value, np.min(x, axis=-2) * gate)
            assert same_bits(ad.gated_min(ad._unstack(x), w_in, w_hidden, w_out).value, node.value)

    def test_max(self, n, seed):
        for x, _ in item_inputs(n, seed):
            assert same_bits(ad._item_max(ad._unstack(x)), np.max(x, axis=-2))

    def test_min(self, n, seed):
        for x, _ in item_inputs(n, seed):
            assert same_bits(ad._item_min(ad._unstack(x)), np.min(x, axis=-2))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mask_free_sigmoid_and_log_sigmoid_vjp_match_masked_formulas():
    x = np.concatenate([SPECIAL, -SPECIAL, np.linspace(-40.0, 40.0, 97)])
    g = np.linspace(-2.0, 3.0, x.size)
    # gated_min's offset is its gate when its one item is all ones: with
    # identity DeepSets maps the gate's input is diag(x) @ 1 = x
    eye = np.eye(x.size)
    node = ad.gated_min([np.ones(x.size)], eye, eye, np.diag(x))
    want = masked_sigmoid(x)
    assert np.isnan(want).sum() == 2
    assert same_bits(node.value, want)

    got = g * ad.log_sigmoid_slope(x)
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    assert same_bits(got, g * np.where(x >= 0, e / d, 1.0 / d))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("d", [3, 8, 16, 32, 64, 100, 128, 256])
def test_stacked_matmul_rows_keep_their_bits(n, d):
    """The intersection ops' tape-free branches rely on this property of the BLAS: in
    a stacked (k, n, d) @ W.T, each row's product has the same bits
    wherever the row sits (matrix and position) and whatever its
    neighbours are, copies of itself included. A BLAS that breaks it
    fails here, before it drifts any report."""
    rng = np.random.default_rng(10 * d + n)
    w = rng.normal(size=(d, d))
    k = 3
    for row in rng.normal(size=(4, d)):
        stack = np.tile(row, (k, n, 1))  # the padding case: only copies
        want = (stack @ w.T)[0, 0]
        assert all((stack @ w.T)[at, pos].tobytes() == want.tobytes()
                   for at in range(k) for pos in range(n))
        for at in range(k):
            for pos in range(n):
                stack = rng.normal(size=(k, n, d))
                stack[at, pos] = row
                assert (stack @ w.T)[at, pos].tobytes() == want.tobytes(), (at, pos)


#: intersection item shapes at width d, and whether a tape-free call takes
#: the item-by-item branch
ITEM_SHAPES = {
    # a time chunk: U relation items (U, 1, d) and the axis's (T, d)
    "time-chunk": (lambda d: [(5, 1, d), (7, d)], True),
    "time-chunk-padded": (lambda d: [(4, 1, d), (7, d)], True),
    # a TR time chunk's center items: relation, time projection, TR point
    "tr-time-chunk": (lambda d: [(5, 1, d), (5, 7, d), (5, 7, d)], True),
    # predict --interval: one relation offset and (T, 1, d); 1 + 6 rows
    # leave a lone row to pad
    "predict-interval": (lambda d: [(d,), (6, 1, d)], True),
    # two time projections: 3 items, 3 + 5 + 5 rows leave a lone row
    "three-items": (lambda d: [(3, 1, d), (5, d), (5, d)], True),
    # the first two items broadcast to less than the lead shape
    "narrow-first-pair": (lambda d: [(4, 1, d), (4, 1, d), (7, d)], True),
    # two TR time projections: five center items, 53 rows
    "five-items": (lambda d: [(3, 1, d), (3, 5, d), (3, 5, d), (5, d), (3, 5, d)], True),
    # a link chunk broadcasts no item
    "link-chunk": (lambda d: [(4, 1, d), (4, 1, d)], True),
    # no rows at all, and an empty axis next to a relation item
    "empty-chunk": (lambda d: [(0, 1, d), (0, 1, d)], True),
    "empty-axis": (lambda d: [(3, 1, d), (0, d)], True),
    "one-item": (lambda d: [(6, 1, d)], False),
}


class TestGatedMinItemRows:
    """Without a tape, attention_center and gated_min work item by item:
    they compute each item's matmuls once per row of its own value and
    never stack the items. The value equals a taped call's on the same
    items bit for bit."""

    @staticmethod
    def spy(monkeypatch):
        calls = {"row_stack": [], "stack_items": 0}
        row_stack, stack_items = ad._row_stack, ad._stack_items

        def recording(own, n):
            stack = row_stack(own, n)
            calls["row_stack"].append(stack)
            return stack

        def counting(items):
            calls["stack_items"] += 1
            return stack_items(items)

        monkeypatch.setattr(ad, "_row_stack", recording)
        monkeypatch.setattr(ad, "_stack_items", counting)
        return calls

    @pytest.mark.parametrize("d", [8, 64])
    @pytest.mark.parametrize("case", sorted(ITEM_SHAPES))
    def test_value_equals_taped_call(self, monkeypatch, case, d):
        shapes_of, branch = ITEM_SHAPES[case]
        rng = np.random.default_rng(d)
        items = [rng.uniform(0.0, 24.0 / d, size=shape) for shape in shapes_of(d)]
        mats = [rng.uniform(-np.sqrt(3.0 / d), np.sqrt(3.0 / d), size=(d, d)) for _ in range(3)]
        n = len(items)
        # n rows per matmul, never one: every item row once, the last repeated
        rows = np.concatenate([v.reshape(-1, d) for v in items])
        for op, weights in ((ad.attention_center, mats[:1]), (ad.gated_min, mats)):
            calls = self.spy(monkeypatch)
            tape = ad.Tape()
            taped = op([ad.param_full(tape, v, f"x{i}") for i, v in enumerate(items)], *weights)
            # a taped call keeps the stacked path
            assert calls == {"row_stack": [], "stack_items": 1}
            free = op(items, *weights)
            assert free.value.tobytes() == taped.value.tobytes()
            assert free.value.shape == taped.value.shape
            if not branch:
                assert calls == {"row_stack": [], "stack_items": 2}
                continue
            assert calls["stack_items"] == 1
            (stack,) = calls["row_stack"]
            assert stack.shape == (-(-len(rows) // n), n, d)
            flat = stack.reshape(-1, d)
            assert np.array_equal(flat[: len(rows)], rows)
            assert (flat[len(rows) :] == rows[-1:]).all()


ROOT = Path(__file__).resolve().parent.parent
AUTODIFF = ROOT / "src" / "time2box" / "autodiff.py"


def autodiff_names_used(path: Path) -> set[str]:
    """The autodiff names a module uses: names imported from it, attributes
    of a name bound to it, and strings passed next to that name (the
    benchmark looks functions up as need(ad, "backward", ...))."""
    tree = ast.parse(path.read_text())
    aliases, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names if a.name.endswith("autodiff") and a.asname}
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").endswith("autodiff"):
                used |= {a.name for a in node.names}
            aliases |= {a.asname or a.name for a in node.names if a.name == "autodiff"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in aliases:
            used.add(node.attr)
        elif isinstance(node, ast.Call) and any(getattr(a, "id", None) in aliases for a in node.args):
            used |= {a.value for a in node.args if isinstance(a, ast.Constant)}
    return used


def test_every_public_name_has_a_program_caller():
    """The autodiff keeps only what the program uses: every public
    top-level name is used in src/ outside its own definition, or in
    scripts/, perfbench/ or the acceptance suite. An op only tests use
    belongs in tests/reference_ops.py."""
    program = [
        *(ROOT / "src").rglob("*.py"),
        *(ROOT / "scripts").rglob("*.py"),
        *(ROOT / "perfbench").rglob("*.py"),
        ROOT / "tests" / "test_acceptance.py",
    ]
    used = set().union(*(autodiff_names_used(p) for p in program if p != AUTODIFF))
    body = ast.parse(AUTODIFF.read_text()).body
    unused = []
    for top in body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            names = [top.name]
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            targets = top.targets if isinstance(top, ast.Assign) else [top.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") or name in used:
                continue
            elsewhere = (n for other in body if other is not top for n in ast.walk(other))
            if not any(getattr(n, "id", None) == name for n in elsewhere):
                unused.append(name)
    assert not unused, f"no program code uses these autodiff names: {unused}"
