import math
import os
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ops
from time2box import autodiff as ad
from time2box import model as m
from time2box.model import (
    PROJECTOR_DM,
    PROJECTOR_TE,
    BoxEmbedding,
    ParameterStore,
    QueryPlan,
    Variant,
    box_of_query,
    box_scores,
    intersect,
    query_box,
    score_entities,
)


def store_with(entity_rows, relation_rows, relation_offs, time_rows=None, time_offs=None, d=2):
    """Small store with handcrafted embedding rows for exact-value tests."""
    n_t = len(time_rows) if time_rows is not None else 1
    ps = ParameterStore.initialize(
        d, len(entity_rows), len(relation_rows), n_t, rng=np.random.default_rng(0)
    )
    ps.arrays["entity_emb"][:] = entity_rows
    ps.arrays["relation_emb"][:] = relation_rows
    ps.arrays["relation_off"][:] = relation_offs
    if time_rows is not None:
        ps.arrays["time_emb"][:] = time_rows
        ps.arrays["time_off"][:] = time_offs
    return ps


TE, DM = Variant(PROJECTOR_TE), Variant(PROJECTOR_DM)


def time_box(ps, variant, t):
    """The time box of (0, ?, t) as query_box shows it: with the relation
    row equal to the time row, the two intersected boxes coincide, so the
    attention center is e+t (te) or e*t (dm) exactly; an identity DeepSets
    with a saturated gate leaves the offset at time_off[t]."""
    ps.arrays["relation_emb"][0] = ps.arrays["time_emb"][t]
    ps.arrays["relation_off"][0] = ps.arrays["time_off"][t]
    eye = np.eye(ps.d)
    ps.arrays["w_ds_in"][:] = eye
    ps.arrays["w_ds_hidden"][:] = eye
    ps.arrays["w_ds_out"][:] = 1e3 * eye
    return query_box(ps, variant, 0, 0, (t,))


class TestProjectors:
    def test_te_addition(self):
        ps = store_with([[1.0, 2.0]], [[3.0, -1.0]], [[0.5, 0.5]])
        box = query_box(ps, TE, 0, 0, ())
        np.testing.assert_array_equal(box.center_value(), [4.0, 1.0])
        np.testing.assert_array_equal(box.offset_value(), [0.5, 0.5])

    def test_dm_identity(self):
        ps = store_with([[1.0, 2.0]], [[1.0, 1.0]], [[0.3, 0.3]])
        box = query_box(ps, DM, 0, 0, ())
        np.testing.assert_array_equal(box.center_value(), [1.0, 2.0])

    def test_te_zero_relation(self):
        ps = store_with([[1.5, -0.5]], [[0.0, 0.0]], [[0.1, 0.1]])
        box = query_box(ps, TE, 0, 0, ())
        np.testing.assert_array_equal(box.center_value(), [1.5, -0.5])

    def test_time_projector_te(self):
        ps = store_with(
            [[0.0, 0.0]], [[0.0, 0.0]], [[0.1, 0.1]], time_rows=[[1.0, -1.0]], time_offs=[[2.0, 2.0]]
        )
        box = time_box(ps, TE, 0)
        np.testing.assert_array_equal(box.center_value(), [1.0, -1.0])
        np.testing.assert_array_equal(box.offset_value(), [2.0, 2.0])

    def test_time_projector_dm_all_ones(self):
        ps = store_with(
            [[0.7, -0.2]], [[0.0, 0.0]], [[0.1, 0.1]], time_rows=[[1.0, 1.0]], time_offs=[[0.5, 0.5]]
        )
        box = time_box(ps, DM, 0)
        np.testing.assert_array_equal(box.center_value(), [0.7, -0.2])

    def test_distinct_timestamps_distinct_centers(self):
        ps = store_with(
            [[0.0, 0.0]],
            [[0.0, 0.0]],
            [[0.1, 0.1]],
            time_rows=[[1.0, 0.0], [0.0, 1.0]],
            time_offs=[[0.5, 0.5], [0.5, 0.5]],
        )
        b0 = query_box(ps, TE, 0, 0, (0,))
        b1 = query_box(ps, TE, 0, 0, (1,))
        assert not np.array_equal(b0.center_value(), b1.center_value())

    def test_store_clamp_restores_offset_invariant(self):
        ps = store_with([[0.0, 0.0]], [[0.0, 0.0]], [[-0.5, 0.5]])
        ps.clamp_offsets()
        box = query_box(ps, TE, 0, 0, ())
        np.testing.assert_array_equal(box.offset_value(), [0.0, 0.5])


def random_boxes(rng, n, d, batch=()):
    return [
        BoxEmbedding(rng.normal(size=(*batch, d)), rng.uniform(0.05, 1.0, size=(*batch, d)))
        for _ in range(n)
    ]


class TestIntersect:
    def test_empty_rejected(self):
        ps = ParameterStore.initialize(4, 3, 2, 2)
        with pytest.raises(ValueError):
            intersect([], ps)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 8))
    def test_offset_strictly_shrinks(self, seed, n, d):
        rng = np.random.default_rng(seed)
        ps = ParameterStore.initialize(d, 3, 2, 2, rng=rng)
        boxes = random_boxes(rng, n, d)
        out = intersect(boxes, ps)
        floor = np.min([b.offset_value() for b in boxes], axis=0)
        assert np.all(out.offset_value() < floor)
        assert np.all(out.offset_value() >= 0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 4), st.integers(1, 8))
    def test_center_convex_containment(self, seed, n, d):
        rng = np.random.default_rng(seed)
        ps = ParameterStore.initialize(d, 3, 2, 2, rng=rng)
        boxes = random_boxes(rng, n, d)
        out = intersect(boxes, ps)
        centers = np.stack([b.center_value() for b in boxes])
        assert np.all(out.center_value() >= centers.min(axis=0) - 1e-12)
        assert np.all(out.center_value() <= centers.max(axis=0) + 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 5), st.integers(1, 8))
    def test_permutation_invariance(self, seed, n, d):
        rng = np.random.default_rng(seed)
        ps = ParameterStore.initialize(d, 3, 2, 2, rng=rng)
        boxes = random_boxes(rng, n, d)
        out = intersect(boxes, ps)
        perm = list(rng.permutation(n))
        out_p = intersect([boxes[i] for i in perm], ps)
        np.testing.assert_allclose(out.center_value(), out_p.center_value(), atol=1e-12)
        np.testing.assert_allclose(out.offset_value(), out_p.offset_value(), atol=1e-12)

    def test_single_box_keeps_center_shrinks_offset(self):
        rng = np.random.default_rng(5)
        ps = ParameterStore.initialize(6, 3, 2, 2, rng=rng)
        (box,) = random_boxes(rng, 1, 6)
        out = intersect([box], ps)
        np.testing.assert_array_equal(out.center_value(), box.center_value())
        assert np.all(out.offset_value() < box.offset_value())

    def test_tr_point_joins_attention_not_offset(self):
        rng = np.random.default_rng(6)
        d = 4
        ps = ParameterStore.initialize(d, 3, 2, 2, rng=rng)
        boxes = random_boxes(rng, 2, d)
        tr = rng.normal(size=d) + 50.0  # far away point drags the center
        base = intersect(boxes, ps)
        with_tr = intersect(boxes, ps, tr_point=tr)
        assert not np.allclose(base.center_value(), with_tr.center_value())
        np.testing.assert_array_equal(base.offset_value(), with_tr.offset_value())
        centers = np.stack([b.center_value() for b in boxes] + [tr])
        assert np.all(with_tr.center_value() >= centers.min(axis=0) - 1e-12)
        assert np.all(with_tr.center_value() <= centers.max(axis=0) + 1e-12)

    def test_records_two_op_nodes_and_four_matrix_leaves(self):
        ps = ParameterStore.initialize(4, 3, 2, 2, rng=np.random.default_rng(8))
        tape = ad.Tape()
        off = ps.rows(tape, "relation_off", 0)
        boxes = [BoxEmbedding(ps.rows(tape, "entity_emb", i), off) for i in (0, 1)]
        tr = ps.rows(tape, "entity_emb", 2)
        before = len(tape.nodes)
        intersect(boxes, ps, tr_point=tr, tape=tape)
        assert [(n.op, n._leaf and n._leaf[0]) for n in tape.nodes[before:]] == [
            ("full", "w_att"),
            ("attention_center", None),
            ("full", "w_ds_in"),
            ("full", "w_ds_hidden"),
            ("full", "w_ds_out"),
            ("gated_min", None),
        ]

class TestBoxOfQuery:
    def make_store(self, d=6):
        return ParameterStore.initialize(d, 5, 3, 4, rng=np.random.default_rng(7))

    def test_atemporal_is_raw_relation_box(self):
        ps = self.make_store()
        out = query_box(ps, TE, 1, 2, ())
        a = ps.arrays
        np.testing.assert_array_equal(out.center_value(), a["entity_emb"][1] + a["relation_emb"][2])
        np.testing.assert_array_equal(out.offset_value(), a["relation_off"][2])

    def test_instant_offset_below_both_inputs(self):
        ps = self.make_store()
        out = query_box(ps, TE, 0, 1, (2,))
        assert np.all(out.offset_value() <= ps.arrays["relation_off"][1])
        assert np.all(out.offset_value() <= ps.arrays["time_off"][2])

    def test_two_projections(self):
        ps = self.make_store()
        out = query_box(ps, TE, 0, 1, (0, 3))
        assert out.center_value().shape == (ps.d,)

    def test_three_projections_rejected(self):
        with pytest.raises(ValueError):
            QueryPlan(subject=0, relation=0, time_projections=(0, 1, 2))

    def test_tr_variant_changes_center_only(self):
        ps = self.make_store()
        plain = query_box(ps, TE, 0, 1, (2,))
        tr = query_box(ps, Variant(PROJECTOR_TE, use_tr=True), 0, 1, (2,))
        assert not np.allclose(plain.center_value(), tr.center_value())
        np.testing.assert_array_equal(plain.offset_value(), tr.offset_value())


class TestQueryBoxBatch:
    """A batch of queries equals the same queries built one at a time.

    Not bit for bit: a batch's pooled DeepSets vectors go through one GEMM,
    a single query's through a GEMV, and the two differ in the last bits.
    """

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("use_tr", [False, True])
    @pytest.mark.parametrize("kind", [PROJECTOR_TE, PROJECTOR_DM])
    def test_batch_equals_single_queries(self, kind, use_tr, k):
        n, m = 4, 3
        ps = ParameterStore.initialize(8, 9, 4, 7, rng=np.random.default_rng(11))
        rng = np.random.default_rng(12)
        s = rng.integers(0, 9, size=(n, m))
        r = rng.integers(0, 4, size=(n, m))
        times = rng.integers(0, 7, size=(n, m, k))
        batch = query_box(ps, Variant(kind, use_tr), s, r, times)
        assert batch.center_value().shape == batch.offset_value().shape == (n, m, ps.d)
        for i in range(n):
            for j in range(m):
                plan = QueryPlan(s[i, j], r[i, j], tuple(times[i, j]), kind, use_tr)
                single = box_of_query(plan, ps)
                np.testing.assert_allclose(
                    batch.center_value()[i, j], single.center_value(), rtol=1e-12
                )
                np.testing.assert_allclose(
                    batch.offset_value()[i, j], single.offset_value(), rtol=1e-12
                )

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("use_tr", [False, True])
    @pytest.mark.parametrize("kind", [PROJECTOR_TE, PROJECTOR_DM])
    def test_shared_query_broadcasts_against_timestamps(self, kind, use_tr, k):
        # training's time negatives: one (s, r) per row, m timestamps each
        n, m = 4, 3
        ps = ParameterStore.initialize(8, 9, 4, 7, rng=np.random.default_rng(13))
        rng = np.random.default_rng(14)
        s, r = rng.integers(0, 9, size=(n, 1)), rng.integers(0, 4, size=(n, 1))
        times = rng.integers(0, 7, size=(n, m, k))
        variant = Variant(kind, use_tr)
        shared = query_box(ps, variant, s, r, times)
        full = query_box(ps, variant, np.repeat(s, m, axis=1), np.repeat(r, m, axis=1), times)
        np.testing.assert_array_equal(shared.center_value(), full.center_value())
        np.testing.assert_array_equal(shared.offset_value(), full.offset_value())


def box_distance(point, box: BoxEmbedding, alpha: float) -> np.ndarray:
    return reference_ops.box_distance(point, box.center, box.offset, alpha).value


def tape_score(point, box: BoxEmbedding, gamma: float, alpha: float):
    """The training loss's score: log sigmoid(gamma - distance) on the tape,
    through the former tape ops."""
    distance = reference_ops.box_distance(point, box.center, box.offset, alpha)
    return reference_ops.log_sigmoid(reference_ops.sub(ad.constant(gamma), distance))


class TestDistance:
    def test_point_at_center(self):
        box = BoxEmbedding(np.array([1.0, -2.0]), np.array([0.5, 0.5]))
        for alpha in (0.0, 0.5, 1.0):
            assert box_distance(np.array([1.0, -2.0]), box, alpha) == 0.0

    def test_one_dimensional_hand_case(self):
        # outside 1 (3 to the face at 2), inside 2 (the face to the center)
        box = BoxEmbedding(np.array([0.0]), np.array([2.0]))
        assert box_distance(np.array([3.0]), box, alpha=0.0) == 1.0
        assert box_distance(np.array([3.0]), box, alpha=0.5) == 2.0
        assert box_distance(np.array([3.0]), box, alpha=1.0) == 3.0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.0, 1.0), st.integers(1, 6))
    def test_strictly_inside_means_alpha_times_l1(self, seed, alpha, d):
        rng = np.random.default_rng(seed)
        center = rng.normal(size=d)
        offset = rng.uniform(0.5, 2.0, size=d)
        point = center + rng.uniform(-0.49, 0.49, size=d) * offset
        total = box_distance(point, BoxEmbedding(center, offset), alpha)
        assert box_distance(point, BoxEmbedding(center, offset), 0.0) == 0.0
        np.testing.assert_allclose(total, alpha * np.abs(center - point).sum(), rtol=1e-12)

    def test_batched_points_broadcast(self):
        box = BoxEmbedding(np.zeros(3), np.ones(3))
        pts = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        np.testing.assert_allclose(box_distance(pts, box, alpha=0.2), [0.0, 0.2 * 1.0 + 1.0])


class TestScore:
    def test_at_margin(self):
        box = BoxEmbedding(np.zeros(1), np.zeros(1))
        val = tape_score(np.array([24.0]), box, gamma=24.0, alpha=0.0).value
        assert val == pytest.approx(math.log(0.5), rel=1e-12)
        assert box_scores(np.array([24.0]), box.center, box.offset, 24.0, 0.0) == val

    def test_zero_distance_near_zero_score(self):
        box = BoxEmbedding(np.zeros(2), np.ones(2))
        val = tape_score(np.zeros(2), box, gamma=24.0, alpha=0.5).value
        assert val == pytest.approx(-3.8e-11, rel=0.05)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_monotone_in_distance(self, seed):
        rng = np.random.default_rng(seed)
        box = BoxEmbedding(np.zeros(3), rng.uniform(0.1, 1.0, 3))
        p1 = rng.normal(size=3)
        p2 = p1 * rng.uniform(1.5, 3.0)  # further out along the same ray
        alpha = 0.5
        d1 = box_distance(p1, box, alpha)
        d2 = box_distance(p2, box, alpha)
        s1 = tape_score(p1, box, 12.0, alpha).value
        s2 = tape_score(p2, box, 12.0, alpha).value
        if d1 < d2:
            assert s1 > s2
        elif d1 == d2:
            assert s1 == s2


def former_distance(points, center, offset, alpha):
    """The distance as the training tape computed it before it shared the
    scoring kernel, op for op: clamp, inside |c - k| and outside
    relu(e - b_max) + relu(b_min - e)."""
    b_min, b_max = center - offset, center + offset
    clamped = np.minimum(np.maximum(points, b_min), b_max)
    inside = np.abs(center - clamped).sum(axis=-1)
    outside = (np.maximum(points - b_max, 0.0) + np.maximum(b_min - points, 0.0)).sum(axis=-1)
    return inside * alpha + outside


def tape_scores(points, center, offset, gamma=24.0, alpha=0.5):
    """Scores from the former distance arithmetic, equal to the tape's."""
    former = ad.log_sigmoid_value(gamma - former_distance(points, center, offset, alpha))
    tape = tape_score(points, BoxEmbedding(center, offset), gamma, alpha).value
    assert np.array_equal(former, tape)
    return tape


class TestBoxScores:
    """The tape-free kernel must equal the former distance arithmetic and
    the training tape's score to the last bit."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_boxes(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(300, 16))
        center, offset = rng.normal(size=16), rng.uniform(0.0, 1.5, size=16)
        alpha = float(rng.uniform())
        got = box_scores(points, center, offset, 24.0, alpha)
        assert np.array_equal(got, tape_scores(points, center, offset, 24.0, alpha))

    def test_zero_offset_dimensions(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(200, 12))
        center, offset = rng.normal(size=12), rng.uniform(0.0, 1.0, size=12)
        offset[::3] = 0.0
        got = box_scores(points, center, offset, 12.0, 0.5)
        assert np.array_equal(got, tape_scores(points, center, offset, 12.0, 0.5))

    def test_faces_through_entity_coordinates(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(64, 8))
        offset = rng.uniform(0.1, 1.0, size=8)
        # lower faces on row 3's coordinates, upper faces on row 5's
        center = points[3] + offset
        center[4:] = points[5, 4:] - offset[4:]
        assert np.any(center - offset == points[3]) and np.any(center + offset == points[5])
        got = box_scores(points, center, offset, 24.0, 0.3)
        assert np.array_equal(got, tape_scores(points, center, offset, 24.0, 0.3))

    def test_points_at_center(self):
        rng = np.random.default_rng(3)
        center, offset = rng.normal(size=6), rng.uniform(0.0, 1.0, size=6)
        points = np.vstack([center, center, rng.normal(size=6)])
        got = box_scores(points, center, offset, 24.0, 0.5)
        assert np.array_equal(got, tape_scores(points, center, offset, 24.0, 0.5))

    def test_broadcast_boxes_against_one_point(self):
        rng = np.random.default_rng(4)
        point = rng.normal(size=10)
        centers, offsets = rng.normal(size=(40, 10)), rng.uniform(0.0, 1.0, size=(40, 10))
        got = box_scores(point, centers, offsets, 24.0, 0.5)
        assert got.shape == (40,)
        assert np.array_equal(got, tape_scores(point, centers, offsets, 24.0, 0.5))

    def test_rejects_alpha_outside_unit_interval(self):
        with pytest.raises(ValueError, match="alpha"):
            box_scores(np.zeros(2), np.zeros(2), np.ones(2), 24.0, 1.5)


class TestScoreEntities:
    """Row-blocked scoring over the entity table equals one unblocked pass."""

    ROWS = m.SCORE_BLOCK_ELEMENTS // 64

    @pytest.mark.parametrize("n_entities", [1, 5, ROWS, 2 * ROWS + 37])
    def test_block_edges(self, n_entities):
        ps = ParameterStore.initialize(64, n_entities, 3, 4, rng=np.random.default_rng(n_entities))
        for plan in (QueryPlan(0, 1), QueryPlan(0, 2, (3,)), QueryPlan(0, 0, (1, 2), use_tr=True)):
            box = box_of_query(plan, ps)
            expected = tape_scores(
                ps.arrays["entity_emb"], box.center_value(), box.offset_value(), ps.gamma, ps.alpha
            )
            got = score_entities(box, ps)
            assert got.shape == (n_entities,)
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("n_entities", [1, 5, ROWS, 2 * ROWS + 37])
    def test_query_block_edges(self, n_entities):
        """(Q, d) boxes give the rows of Q single-box calls, across blocks of
        queries sharing one row block."""
        ps = ParameterStore.initialize(64, n_entities, 3, 4, rng=np.random.default_rng(n_entities))
        per_block = m.SCORE_BLOCK_ELEMENTS // (min(n_entities, self.ROWS) * 64)
        rng = np.random.default_rng(0)
        q = 2 * per_block + 3
        center, offset = rng.normal(size=(q, 64)), rng.uniform(0.0, 1.0, size=(q, 64))
        got = score_entities(BoxEmbedding(center, offset), ps)
        assert got.shape == (q, n_entities)
        for i in range(q):
            single = score_entities(BoxEmbedding(center[i], offset[i]), ps)
            assert np.array_equal(got[i], single)
        last = BoxEmbedding(center[-1], offset[-1])
        expected = tape_scores(ps.arrays["entity_emb"], last.center, last.offset, ps.gamma, ps.alpha)
        assert np.array_equal(got[-1], expected)


def ordered_workers(monkeypatch, workers_first: bool) -> None:
    """Make the scoring workers' jobs run in a fixed order: every worker's job
    to its end before the caller's job starts (the workers claim every task),
    or the caller's job to its end before any worker's starts (they claim
    none). The jobs still run on the real worker threads."""
    real = m._Workers.run

    def run_after(job, events):
        def wrapped():
            assert all(event.wait(10) for event in events)
            job()
        return wrapped

    def signal_end(job, event):
        def wrapped():
            try:
                job()
            finally:
                event.set()
        return wrapped

    def run(self, jobs):
        caller, workers = jobs[0], jobs[1:]
        if workers_first:
            ends = [threading.Event() for _ in workers]
            jobs = [run_after(caller, ends), *map(signal_end, workers, ends)]
        else:
            end = threading.Event()
            jobs = [signal_end(caller, end), *(run_after(job, [end]) for job in workers)]
        return real(self, jobs)

    monkeypatch.setattr(m._Workers, "run", run)


class TestThreadedScoring:
    """A call of two or more (query block x row block) tasks is scored on
    every usable core, with the bits of the one-thread loop; a call of one
    task runs on the caller alone."""

    ROWS = m.SCORE_BLOCK_ELEMENTS // 64
    # 1,023 and 1,024 rows are one block at d = 64; 3,000 ends in a ragged
    # block of 952 rows, and the d = 8 table in one of 5. c07's 50 rows are
    # one block of 20-query blocks, so its 119-query link chunk is 6 tasks.
    TABLES = [
        (ROWS - 1, 64), (ROWS, 64), (ROWS + 1, 64), (3000, 64), (m.SCORE_BLOCK_ELEMENTS // 8 + 5, 8), (50, 64)
    ]

    @staticmethod
    def n_tasks(n, d, q):
        """The (query block x row block) tasks of a (q, d) batch on n rows."""
        rows = min(n, m.SCORE_BLOCK_ELEMENTS // d)
        per_block = max(1, m.SCORE_BLOCK_ELEMENTS // (rows * d))
        return -(-q // per_block) * -(-n // rows)

    @staticmethod
    def case(n, d, q):
        ps = ParameterStore.initialize(d, n, 3, 4, rng=np.random.default_rng(n + d))
        rng = np.random.default_rng(q)
        return BoxEmbedding(rng.normal(size=(q, d)), rng.uniform(0.0, 1.0, size=(q, d))), ps

    @staticmethod
    def scores(monkeypatch, box, ps, cores):
        monkeypatch.setattr(m, "_usable_cores", lambda: cores)
        return score_entities(box, ps)

    @staticmethod
    def spy_threads(monkeypatch) -> list[bool]:
        """For each distance task, whether the caller's thread ran it."""
        on_caller, real = [], ad.box_distance_value

        def spy(*args):
            on_caller.append(threading.current_thread() is threading.main_thread())
            return real(*args)

        monkeypatch.setattr(ad, "box_distance_value", spy)
        return on_caller

    @pytest.mark.parametrize("n,d", TABLES)
    @pytest.mark.parametrize("q", [1, 2, 5, 119])
    @pytest.mark.parametrize("order", [None, "workers-first", "caller-first"])
    def test_equals_one_thread_loop(self, monkeypatch, n, d, q, order):
        box, ps = self.case(n, d, q)
        want = self.scores(monkeypatch, box, ps, 1)
        last = tape_scores(ps.arrays["entity_emb"], box.center[-1], box.offset[-1], ps.gamma, ps.alpha)
        assert want[-1].tobytes() == last.tobytes()
        if order is not None:
            ordered_workers(monkeypatch, order == "workers-first")
        on_caller = self.spy_threads(monkeypatch)
        got = self.scores(monkeypatch, box, ps, 2)
        assert got.tobytes() == want.tobytes()
        tasks = self.n_tasks(n, d, q)
        assert len(on_caller) == tasks
        if tasks == 1:
            assert all(on_caller)
        elif order == "workers-first":
            assert not any(on_caller)
        elif order == "caller-first":
            assert all(on_caller)

    def test_single_task_calls_make_no_workers(self, monkeypatch):
        made, real = [], m._scoring_workers
        monkeypatch.setattr(m, "_scoring_workers", lambda: made.append(True) or real())
        for n, q in ((50, 20), (self.ROWS, 1)):
            assert self.n_tasks(n, 64, q) == 1
            self.scores(monkeypatch, *self.case(n, 64, q), cores=2)
        # predict's one query, a (d,) box
        box, ps = self.case(50, 64, 1)
        got = self.scores(monkeypatch, BoxEmbedding(box.center[0], box.offset[0]), ps, cores=2)
        assert got.shape == (50,)
        # an empty batch still makes its one set of buffers
        empty = BoxEmbedding(np.zeros((0, 64)), np.zeros((0, 64)))
        got = self.scores(monkeypatch, empty, ps, cores=2)
        assert got.shape == (0, 50)
        assert made == []
        self.scores(monkeypatch, *self.case(50, 64, 21), cores=2)
        assert made == [True]
        self.scores(monkeypatch, *self.case(self.ROWS + 1, 64, 1), cores=2)
        assert made == [True, True]

    def test_more_workers_than_cores(self, monkeypatch):
        """Six threads on a shortened switch interval claim each of the nine
        tasks exactly once per call, with the one-thread loop's bytes."""
        box, ps = self.case(3000, 64, 3)
        want = self.scores(monkeypatch, box, ps, 1)
        on_caller = self.spy_threads(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            deadline = time.monotonic() + 20
            for calls in range(1, 31):
                assert self.scores(monkeypatch, box, ps, 6).tobytes() == want.tobytes()
                assert len(on_caller) == 9 * calls
                assert time.monotonic() < deadline
        finally:
            sys.setswitchinterval(interval)

    def test_idle_workers_do_not_delay_exit(self):
        """A process that has split a table exits at once: its idle workers
        are daemon threads."""
        script = (
            "import numpy as np\n"
            "from time2box import model as m\n"
            "m._usable_cores = lambda: 2\n"
            "ps = m.ParameterStore.initialize(64, 3000, 3, 4)\n"
            "m.score_entities(m.BoxEmbedding(np.zeros(64), np.ones(64)), ps)\n"
            "assert m._workers.inboxes\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr

    def overflowing(self):
        """One query against 3,000 rows whose first row block sits at 1e308,
        so that only the first task's distances overflow to inf."""
        box, ps = self.case(3000, 64, 1)
        ps.arrays["entity_emb"][: self.ROWS] = 1e308
        return box, ps

    def test_worker_raises_under_callers_errstate(self, monkeypatch):
        box, ps = self.overflowing()
        ordered_workers(monkeypatch, workers_first=True)
        on_caller = self.spy_threads(monkeypatch)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            self.scores(monkeypatch, box, ps, 2)
        # the worker claimed the first task and stopped at its error; the
        # caller ran the other two without one
        assert on_caller == [False, True, True]

    @pytest.mark.parametrize("order", ["workers-first", "caller-first"])
    def test_ignored_overflow_warns_nowhere(self, monkeypatch, order):
        box, ps = self.overflowing()
        ordered_workers(monkeypatch, order == "workers-first")
        for mode, warned in (("ignore", False), ("warn", True)):
            with warnings.catch_warnings(record=True) as caught, np.errstate(over=mode):
                warnings.simplefilter("always")
                got = self.scores(monkeypatch, box, ps, 2)
            assert any(issubclass(w.category, RuntimeWarning) for w in caught) == warned
            assert np.all(got[0, : self.ROWS] == -np.inf)
            assert np.all(np.isfinite(got[0, self.ROWS :]))

    @staticmethod
    def failing_tasks(monkeypatch, failing_on_caller: bool) -> dict:
        """A first task that raises on one side, once a task has started on
        the other, whose tasks take 20 ms each; counts running tasks."""
        state, lock, started, real = {"running": 0, "ended": 0}, threading.Lock(), threading.Event(), ad.box_distance_value

        def task(*args):
            with lock:
                state["running"] += 1
            try:
                if (threading.current_thread() is threading.main_thread()) == failing_on_caller:
                    assert started.wait(10)
                    if state["ended"] == 0:
                        raise RuntimeError("task failed")
                else:
                    started.set()
                    time.sleep(0.02)
                return real(*args)
            finally:
                with lock:
                    state["running"] -= 1
                    state["ended"] += 1

        monkeypatch.setattr(ad, "box_distance_value", task)
        return state

    @pytest.mark.parametrize("failing_on_caller", [True, False])
    def test_error_surfaces_once_every_thread_stopped(self, monkeypatch, failing_on_caller):
        box, ps = self.case(3000, 64, 3)
        want = self.scores(monkeypatch, box, ps, 1)
        state = self.failing_tasks(monkeypatch, failing_on_caller)
        with pytest.raises(RuntimeError, match="task failed"):
            self.scores(monkeypatch, box, ps, 2)
        assert state["running"] == 0
        ended = state["ended"]
        time.sleep(0.05)
        assert state == {"running": 0, "ended": ended}
        monkeypatch.undo()
        assert self.scores(monkeypatch, box, ps, 2).tobytes() == want.tobytes()


class TestRunTasks:
    """run_tasks runs every task index once, on the caller and one worker
    per further set of buffers, each thread in its own buffers."""

    @staticmethod
    def recording(calls: list, delay: float = 0.0):
        def task(i, *buffer):
            calls.append((i, buffer, threading.current_thread() is threading.main_thread()))
            time.sleep(delay)
        return task

    @pytest.mark.parametrize("threads", [1, 2, 6])
    @pytest.mark.parametrize("n_tasks", [0, 1, 7, 40])
    def test_each_index_runs_once(self, threads, n_tasks):
        """On a shortened switch interval, and with more threads than cores,
        every index runs exactly once per call, each in one thread's set."""
        buffers = [(np.empty(3), f"set {t}") for t in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            deadline = time.monotonic() + 20
            for _ in range(5):
                calls: list = []
                m.run_tasks(n_tasks, self.recording(calls, 0.001), buffers)
                assert sorted(i for i, _, _ in calls) == list(range(n_tasks))
                for _, buffer, _ in calls:
                    assert any(buffer[0] is b[0] and buffer[1] == b[1] for b in buffers)
                if threads == 1:
                    assert [i for i, _, _ in calls] == list(range(n_tasks))
                    assert all(on_caller for _, _, on_caller in calls)
                assert time.monotonic() < deadline
        finally:
            sys.setswitchinterval(interval)

    def test_one_set_makes_no_workers(self, monkeypatch):
        made = []
        monkeypatch.setattr(m, "_scoring_workers", lambda: made.append(True))
        m.run_tasks(5, self.recording([]), [()])
        assert made == []

    @pytest.mark.parametrize("order", ["workers-first", "caller-first"])
    def test_threads_run_under_callers_errstate(self, monkeypatch, order):
        ordered_workers(monkeypatch, order == "workers-first")
        seen = []

        def task(i):
            seen.append((threading.current_thread() is threading.main_thread(), np.geterr(), np.geterrcall()))

        def handler(kind, flag):
            pass

        with np.errstate(over="raise", under="ignore", divide="warn", invalid="call", call=handler):
            want = (np.geterr(), np.geterrcall())
            m.run_tasks(4, task, [(), ()])
        assert len(seen) == 4
        assert all(on_caller == (order == "caller-first") for on_caller, _, _ in seen)
        assert all((err, call) == want for _, err, call in seen)

    @pytest.mark.parametrize("failing_on_caller", [True, False])
    def test_error_surfaces_once_every_thread_stopped(self, failing_on_caller):
        """The first task on one side raises once the other side has started
        a task; that side's tasks take 20 ms each, and it finishes the one it
        holds before the error reaches the caller. The pool serves the next
        call."""
        state, lock, started = {"running": 0, "ended": 0}, threading.Lock(), threading.Event()

        def task(i):
            with lock:
                state["running"] += 1
            try:
                if (threading.current_thread() is threading.main_thread()) == failing_on_caller:
                    assert started.wait(10)
                    if state["ended"] == 0:
                        raise RuntimeError("task failed")
                else:
                    started.set()
                    time.sleep(0.02)
            finally:
                with lock:
                    state["running"] -= 1
                    state["ended"] += 1

        with pytest.raises(RuntimeError, match="task failed"):
            m.run_tasks(6, task, [(), ()])
        assert state["running"] == 0
        ended = state["ended"]
        time.sleep(0.05)
        assert state == {"running": 0, "ended": ended}
        calls: list = []
        m.run_tasks(6, self.recording(calls), [(), ()])
        assert sorted(i for i, _, _ in calls) == list(range(6))


class TestParameterCount:
    @pytest.mark.parametrize(
        "d,E,R,T",
        [(8, 11, 3, 7), (16, 100, 10, 25), (3, 2, 2, 2)],
    )
    def test_formula(self, d, E, R, T):
        ps = ParameterStore.initialize(d, E, R, T)
        assert ps.param_count() == d * (E + 2 * T + 2 * R) + 4 * d * d

    def test_initialization_deterministic(self):
        a = ParameterStore.initialize(4, 5, 3, 2, rng=np.random.default_rng(9))
        b = ParameterStore.initialize(4, 5, 3, 2, rng=np.random.default_rng(9))
        for name in m.PARAM_ORDER:
            np.testing.assert_array_equal(a.arrays[name], b.arrays[name])

    def test_offsets_initialized_nonnegative(self):
        ps = ParameterStore.initialize(8, 10, 4, 6, rng=np.random.default_rng(1))
        assert np.all(ps.arrays["relation_off"] >= 0)
        assert np.all(ps.arrays["time_off"] >= 0)


def test_gradients_flow_through_full_query():
    ps = ParameterStore.initialize(5, 4, 3, 3, rng=np.random.default_rng(2))
    tape = ad.Tape()
    plan = QueryPlan(subject=1, relation=0, time_projections=(2,), use_tr=True)
    box = box_of_query(plan, ps, tape)
    obj = ps.rows(tape, "entity_emb", 3)
    loss = ad.mul(tape_score(obj, box, ps.gamma, ps.alpha), ad.constant(-1.0))
    touched = set(ad.densify(ad.backward(tape, loss), ps.arrays))
    assert touched == {
        "entity_emb",
        "relation_emb",
        "relation_off",
        "time_emb",
        "time_off",
        "w_att",
        "w_ds_in",
        "w_ds_hidden",
        "w_ds_out",
    }


def test_query_gradient_matches_finite_differences():
    ps = ParameterStore.initialize(6, 5, 3, 4, rng=np.random.default_rng(13))

    def loss_fn():
        tape = ad.Tape()
        box = box_of_query(QueryPlan(0, 1, (1, 3)), ps, tape)
        obj = ps.rows(tape, "entity_emb", 2)
        loss = ad.mul(tape_score(obj, box, ps.gamma, ps.alpha), ad.constant(-1.0))
        return loss.value, ad.backward(tape, loss)

    report = ad.finite_diff_check(
        loss_fn, ps.arrays, eps=1e-4, samples=150, rng=np.random.default_rng(0)
    )
    assert report.n_checked > 100
    assert report.max_rel_error < 1e-4
