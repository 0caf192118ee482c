import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from time2box import autodiff as ad


def test_l1_norm_gradient():
    x = np.array([[2.0, -3.0]])
    tape = ad.Tape()
    xs = ad.param_rows(tape, x, "x", [0])
    loss = ad.reduce_sum(ad.absolute(xs))
    grads = ad.densify(ad.backward(tape, loss), {"x": x})
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


def test_clamp_zero_derivative_at_boundary():
    point = np.array([[2.0, -1.0, 0.5]])
    lo = np.array([-1.0, -1.0, -1.0])
    hi = np.array([2.0, 2.0, 2.0])
    tape = ad.Tape()
    p = ad.param_rows(tape, point, "p", [0])
    out = ad.clamp(p, ad.constant(lo), ad.constant(hi))
    loss = ad.reduce_sum(out)
    grads = ad.densify(ad.backward(tape, loss), {"p": point})
    # 2.0 sits exactly on hi, -1.0 exactly on lo: derivative 0 there
    np.testing.assert_array_equal(grads["p"][0], [0.0, 0.0, 1.0])


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
            d = ad.reduce_sum(ad.absolute(ad.clamp(mixed, ad.constant(-0.5), ad.constant(0.5))))
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
        parent_grads = node._vjp(g, *(p.value for p in node.parents))
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
