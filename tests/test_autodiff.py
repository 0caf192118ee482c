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
    gmap = ad.backward(tape, loss)
    np.testing.assert_array_equal(gmap[("x", 0)], [1.0, -1.0])


def test_sigmoid_matches_analytic_form():
    w = np.array([[0.3, -1.2, 0.7]])
    x = np.array([0.5, 2.0, -1.0])
    tape = ad.Tape()
    wn = ad.param_full(tape, w, "w")
    z = ad.reduce_sum(ad.mul(wn, ad.constant(x)))
    loss = ad.sigmoid(z)
    gmap = ad.backward(tape, loss)
    s = 1.0 / (1.0 + np.exp(-float((w @ x)[0])))
    np.testing.assert_allclose(gmap[("w", None)], s * (1 - s) * x[None, :], rtol=1e-12)


def test_min_pool_ties_route_to_first_index():
    x = np.array([[1.0, 5.0], [1.0, 2.0], [3.0, 2.0]])
    tape = ad.Tape()
    xs = ad.param_rows(tape, x, "x", [0, 1, 2])
    loss = ad.reduce_sum(ad.amin(xs, axis=0))
    gmap = ad.backward(tape, loss)
    np.testing.assert_array_equal(gmap[("x", 0)], [1.0, 0.0])  # ties at column 0
    np.testing.assert_array_equal(gmap[("x", 1)], [0.0, 1.0])  # ties at column 1
    np.testing.assert_array_equal(gmap[("x", 2)], [0.0, 0.0])


def test_clamp_zero_derivative_at_boundary():
    point = np.array([[2.0, -1.0, 0.5]])
    lo = np.array([-1.0, -1.0, -1.0])
    hi = np.array([2.0, 2.0, 2.0])
    tape = ad.Tape()
    p = ad.param_rows(tape, point, "p", [0])
    out = ad.clamp(p, ad.constant(lo), ad.constant(hi))
    loss = ad.reduce_sum(out)
    gmap = ad.backward(tape, loss)
    # 2.0 sits exactly on hi, -1.0 exactly on lo: derivative 0 there
    np.testing.assert_array_equal(gmap[("p", 0)], [0.0, 0.0, 1.0])


def test_relu_zero_derivative_at_kink():
    x = np.array([[0.0, -1.0, 3.0]])
    tape = ad.Tape()
    xs = ad.param_rows(tape, x, "x", [0])
    loss = ad.reduce_sum(ad.relu(xs))
    gmap = ad.backward(tape, loss)
    np.testing.assert_array_equal(gmap[("x", 0)], [0.0, 0.0, 1.0])


def test_untouched_parameters_absent_from_gradient_map():
    table = np.arange(12, dtype=float).reshape(4, 3)
    tape = ad.Tape()
    xs = ad.param_rows(tape, table, "emb", [1, 3])
    loss = ad.reduce_sum(ad.mul(xs, xs))
    gmap = ad.backward(tape, loss)
    assert set(gmap) == {("emb", 1), ("emb", 3)}


def test_duplicate_rows_accumulate():
    table = np.ones((3, 2))
    tape = ad.Tape()
    xs = ad.param_rows(tape, table, "emb", [1, 1, 2])
    loss = ad.reduce_sum(xs)
    gmap = ad.backward(tape, loss)
    np.testing.assert_array_equal(gmap[("emb", 1)], [2.0, 2.0])
    np.testing.assert_array_equal(gmap[("emb", 2)], [1.0, 1.0])


def test_stack_broadcasts_and_sums_gradient_back():
    tape = ad.Tape()
    a = ad.param_rows(tape, np.arange(6.0).reshape(2, 3), "a", [[0], [1]])  # (2, 1, 3)
    b = ad.param_rows(tape, np.ones((4, 3)), "b", [[0, 1, 2, 3], [0, 1, 2, 3]])  # (2, 4, 3)
    out = ad.stack([a, b], axis=-2)
    assert out.shape == (2, 4, 2, 3)
    np.testing.assert_array_equal(out.value[1, 2, 0], [3.0, 4.0, 5.0])
    gmap = ad.backward(tape, ad.reduce_sum(out))
    np.testing.assert_array_equal(gmap[("a", 0)], [4.0, 4.0, 4.0])
    np.testing.assert_array_equal(gmap[("b", 3)], [2.0, 2.0, 2.0])


def test_backward_deterministic():
    rng = np.random.default_rng(4)
    table = rng.normal(size=(6, 3))
    tape = ad.Tape()
    xs = ad.param_rows(tape, table, "emb", [0, 1, 5])
    loss = ad.reduce_sum(ad.mul(ad.sigmoid(xs), xs))
    g1 = ad.backward(tape, loss)
    g2 = ad.backward(tape, loss)
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
    gmap = ad.backward(tape, loss)
    for g in gmap.values():
        assert np.all(np.isfinite(g))
