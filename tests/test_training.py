import re
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from time2box.data import (
    ScopeKind,
    Statement,
    SynthConfig,
    TimeScope,
    add_inverse_relations,
    generate_synthetic,
)
from time2box import autodiff as ad
from time2box.model import PROJECTOR_DM, ParameterStore, QueryPlan, query_box
from time2box.training import (
    ADAM_BLOCK_ELEMENTS,
    CHECKPOINT_MAGIC,
    Adam,
    CheckpointError,
    TrainConfig,
    TrainingDiverged,
    TrainingSample,
    Variant,
    batch_loss,
    check_dimensions,
    load_checkpoint,
    make_training_sample,
    plan_for_statement,
    sample_entity_negatives,
    sample_time_negatives,
    save_checkpoint,
    smoothness,
    train,
)


from helpers import kb_from_lines
from reference_ops import box_distance, log_sigmoid, neg, reduce_sum, sub


class TestVariant:
    def test_parse_and_roundtrip(self):
        v = Variant.parse("dm,si,tns")
        assert v.projector_kind == PROJECTOR_DM and v.use_si and v.use_tns and not v.use_tr
        assert Variant.decode(v.encode()) == v

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown variant"):
            Variant.parse("te,bogus")

    def test_te_dm_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            Variant.parse("te,dm")


class TestTrainConfig:
    def test_tns_default_half(self):
        cfg = TrainConfig(k=16, variant=Variant.parse("te,tns"))
        assert cfg.time_negatives == 8

    def test_no_tns_means_zero(self):
        assert TrainConfig(k=16, m=5).time_negatives == 0

    def test_m_bounds(self):
        with pytest.raises(ValueError):
            TrainConfig(k=4, m=5, variant=Variant.parse("tns"))
        with pytest.raises(ValueError):
            TrainConfig(k=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("d", 0), ("batch", 0), ("steps", 0), ("steps", -1), ("eval_every", 0),
            ("lr", 0.0), ("lr", -1e-3), ("lr", float("nan")), ("lr", float("inf")),
            ("gamma", 0.0), ("gamma", -5.0), ("gamma", float("inf")),
            ("alpha", -0.1), ("alpha", 2.0), ("alpha", float("nan")),
            ("beta", -0.5), ("beta", float("nan")), ("beta", float("inf")), ("seed", -1),
            # m is range-checked whether or not the variant draws time negatives
            ("m", -1), ("m", 17),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            TrainConfig(**{field: value})

    def test_edge_values_accepted(self):
        TrainConfig(d=1, k=1, batch=1, steps=1, eval_every=1, alpha=0.0, beta=0.0, seed=0)
        TrainConfig(alpha=1.0, lr=1e160, gamma=1e-300)
        TrainConfig(m=0)
        TrainConfig(k=4, m=4)


class TestPlans:
    def test_closed_samples_inside_interval(self):
        stmt = Statement(0, 0, 1, TimeScope.closed(3, 9))
        rng = np.random.default_rng(0)
        for _ in range(50):
            plan = plan_for_statement(stmt, Variant(), rng)
            assert len(plan.time_projections) == 1
            assert 3 <= plan.time_projections[0] <= 9

    def test_si_two_sorted_endpoints_inside(self):
        stmt = Statement(0, 0, 1, TimeScope.closed(3, 9))
        rng = np.random.default_rng(0)
        for _ in range(50):
            plan = plan_for_statement(stmt, Variant.parse("te,si"), rng)
            t1, t2 = plan.time_projections
            assert 3 <= t1 <= t2 <= 9

    def test_half_open_uses_known_endpoint(self):
        rng = np.random.default_rng(0)
        p1 = plan_for_statement(Statement(0, 0, 1, TimeScope.right_open(4)), Variant(), rng)
        p2 = plan_for_statement(Statement(0, 0, 1, TimeScope.left_open(6)), Variant(), rng)
        assert p1.time_projections == (4,)
        assert p2.time_projections == (6,)

    def test_no_time_is_atemporal(self):
        plan = plan_for_statement(
            Statement(0, 0, 1, TimeScope.no_time()), Variant(), np.random.default_rng(0)
        )
        assert plan.time_projections == ()


@pytest.fixture
def three_entity_kb():
    # (a, r, e1, 5) is the only truth at t=5; entities: a, e1, e2, e3
    return kb_from_lines(
        [
            "a\tr\te1\t5\t5",
            "a\tr\te2\t0\t2",
            "e3\tr\te1\t0\t9",
        ]
    )


def _known_positives(stmt, kb, timestamps):
    """The former per-sample union of the key's training answers: at any of
    timestamps, or without time when there are none."""
    if timestamps:
        positives = set()
        for t in timestamps:
            positives |= kb.filter.timed_objects(stmt.s, stmt.r, t, splits=("train",))
        return positives
    return kb.filter.atemporal_objects(stmt.s, stmt.r, splits=("train",))


class TestEntityNegatives:
    def test_negatives_avoid_known_positives(self, three_entity_kb):
        kb = three_entity_kb
        stmt = kb.splits["train"][0]
        rng = np.random.default_rng(1)
        negs = sample_entity_negatives(_known_positives(stmt, kb, (5,)), 2, kb.n_entities, rng)
        e1 = kb.entities.id_of("e1")
        assert e1 not in negs
        assert len(negs) == len(set(negs)) == 2

    def test_exhaustion_returns_all_candidates(self, three_entity_kb):
        kb = three_entity_kb
        stmt = kb.splits["train"][0]
        # at t=5 only e1 is true; the other 3 entities are candidates
        negs = sample_entity_negatives(
            _known_positives(stmt, kb, (5,)), 3, kb.n_entities, np.random.default_rng(0)
        )
        assert sorted(negs) == sorted(
            kb.entities.id_of(x) for x in ("a", "e2", "e3")
        )

    def test_universe_too_small(self, three_entity_kb):
        kb = three_entity_kb
        stmt = kb.splits["train"][0]
        with pytest.raises(ValueError, match="negatives"):
            sample_entity_negatives(
                _known_positives(stmt, kb, (5,)), 4, kb.n_entities, np.random.default_rng(0)
            )

    def test_deterministic_with_seed(self, three_entity_kb):
        kb = three_entity_kb
        stmt = kb.splits["train"][0]
        positives = _known_positives(stmt, kb, (5,))
        a = sample_entity_negatives(positives, 2, kb.n_entities, np.random.default_rng(9))
        b = sample_entity_negatives(positives, 2, kb.n_entities, np.random.default_rng(9))
        assert a == b

    def test_atemporal_key_uses_atemporal_index(self):
        kb = kb_from_lines(["a\tr\tb\t-\t-", "a\tr\tc\t0\t1", "x\ty\tz\t0\t3"])
        stmt = kb.splits["train"][0]
        rng = np.random.default_rng(2)
        for _ in range(20):
            negs = sample_entity_negatives(_known_positives(stmt, kb, ()), 2, kb.n_entities, rng)
            # b and c are both atemporal answers of (a, r)
            assert kb.entities.id_of("b") not in negs
            assert kb.entities.id_of("c") not in negs


def old_entity_negatives(positives, k, n, rng):
    """The sampler with its former fallback expression; also reports
    whether the fallback ran."""
    chosen, chosen_set = [], set()
    budget = 100 * k
    while len(chosen) < k and budget > 0:
        draw = min(budget, 2 * k)
        for cand in rng.integers(0, n, size=draw):
            cand = int(cand)
            if cand not in positives and cand not in chosen_set:
                chosen.append(cand)
                chosen_set.add(cand)
                if len(chosen) == k:
                    break
        budget -= draw
    fell_back = len(chosen) < k
    if fell_back:
        allowed = np.array(sorted(set(range(n)) - positives - chosen_set))
        picks = rng.permutation(len(allowed))[: k - len(chosen)]
        chosen.extend(int(allowed[i]) for i in picks)
    return chosen, fell_back


class TestEntityNegativeFallback:
    # (a, r) has 396 atemporal answers among 400 entities: 4 candidates
    # remain, too rare for 100*k rejection draws to collect k of them
    @pytest.fixture(scope="class")
    def crowded_kb(self):
        return kb_from_lines(
            [f"a\tr\to{i}\t-\t-" for i in range(396)] + ["x\tq\ty\t0\t1"], n_entities=400
        )

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [1, 6, 8])
    def test_fallback_matches_former_expression(self, crowded_kb, k, seed):
        kb = crowded_kb
        stmt = kb.splits["train"][0]
        positives = _known_positives(stmt, kb, ())
        assert len(positives) == 396
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_entity_negatives(positives, k, kb.n_entities, rng)
        want, fell_back = old_entity_negatives(positives, k, kb.n_entities, ref_rng)
        assert fell_back
        assert got == want
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert len(set(got)) == k and not set(got) & positives


class TestEntityNegativeDraws:
    """The sampler accepts the same entities and leaves the generator in the
    same state as the former per-candidate loop, in old_entity_negatives."""

    @pytest.fixture(scope="class")
    def planted_kb(self):
        kb, _ = generate_synthetic(
            SynthConfig(seed=7, n_entities=50, n_relations=5, axis_length=40, n_rules=85)
        )
        return kb

    @pytest.mark.parametrize("k", [1, 8, 16, 40])
    def test_matches_former_loop(self, planted_kb, k):
        kb = planted_kb
        rng, ref_rng = np.random.default_rng(k), np.random.default_rng(k)
        for stmt in kb.splits["train"][::3]:
            scope = stmt.scope
            if scope.kind is ScopeKind.NO_TIME:
                positives = _known_positives(stmt, kb, ())
            else:
                t = scope.end if scope.start is None else scope.start
                positives = _known_positives(stmt, kb, (t,))
            got = sample_entity_negatives(positives, k, kb.n_entities, rng)
            want, _ = old_entity_negatives(positives, k, kb.n_entities, ref_rng)
            assert got == want
            assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestTimeNegatives:
    def make_kb(self):
        # axis years 0..9; (a, r, b) holds on [3, 6]
        return kb_from_lines(["a\tr\tb\t3\t6", "pad\tr\tpad2\t0\t9"])

    def test_closed_candidates_outside_interval(self):
        kb = self.make_kb()
        stmt = kb.splits["train"][0]
        rng = np.random.default_rng(0)
        for _ in range(20):
            for t in sample_time_negatives(stmt, 3, kb, rng):
                assert t < 3 or t > 6

    def test_right_open_strictly_before_start(self):
        kb = kb_from_lines(["a\tr\tb\t5\t-", "pad\tr\tpad2\t0\t9"])
        stmt = kb.splits["train"][0]
        negs = sample_time_negatives(stmt, 4, kb, np.random.default_rng(0))
        assert negs and all(t < 5 for t in negs)

    def test_left_open_strictly_after_end(self):
        kb = kb_from_lines(["a\tr\tb\t-\t4", "pad\tr\tpad2\t0\t9"])
        stmt = kb.splits["train"][0]
        negs = sample_time_negatives(stmt, 4, kb, np.random.default_rng(0))
        assert negs and all(t > 4 for t in negs)

    def test_right_open_at_axis_minimum_signals_fallback(self):
        kb = kb_from_lines(["a\tr\tb\t0\t-", "pad\tr\tpad2\t0\t9"])
        stmt = kb.splits["train"][0]
        assert sample_time_negatives(stmt, 4, kb, np.random.default_rng(0)) == []

    def test_excludes_true_timestamps_of_other_statements(self):
        # (a, r, b) instant at 5, but also true on [0, 2] via a second statement
        kb = kb_from_lines(["a\tr\tb\t5\t5", "a\tr\tb\t0\t2", "pad\tr\tpad2\t0\t9"])
        stmt = kb.splits["train"][0]
        rng = np.random.default_rng(0)
        for _ in range(20):
            for t in sample_time_negatives(stmt, 5, kb, rng):
                assert t not in (0, 1, 2, 5)

    def test_fallback_tops_up_with_entity_negatives(self):
        kb = kb_from_lines(["a\tr\tb\t0\t-", "pad\tr\tpad2\t0\t9"], n_entities=30)
        stmt = kb.splits["train"][0]
        cfg = TrainConfig(k=8, variant=Variant.parse("te,tns"), d=4)
        sample = make_training_sample(stmt, kb, cfg, np.random.default_rng(0))
        assert sample.negatives_times == []
        assert len(sample.negatives_entities) == 8


class TestQueryWeight:
    """make_training_sample's 1/n_q, n_q the training answers true at every
    timestamp of the sampled plan."""

    def test_atemporal_weight(self):
        kb = kb_from_lines(["a\tr\tb\t-\t-", "a\tr\tc\t-\t-", "a\tr\td\t0\t1"])
        stmt = kb.splits["train"][0]
        sample = make_training_sample(stmt, kb, TrainConfig(k=1), np.random.default_rng(0))
        assert sample.plan.time_projections == ()
        assert sample.weight == pytest.approx(1 / 3)

    def test_timed_weight_counts_answers_at_timestamp(self):
        kb = kb_from_lines(["a\tr\tb\t0\t5", "a\tr\tc\t3\t8"])
        stmt = kb.splits["train"][0]
        rng = np.random.default_rng(0)
        weights = {}
        for _ in range(60):
            sample = make_training_sample(stmt, kb, TrainConfig(k=1), rng)
            weights[sample.plan.time_projections] = sample.weight
        # b holds on [0, 5], c from 3 on: two answers at 4, one at 1
        assert weights[(4,)] == pytest.approx(0.5)
        assert weights[(1,)] == pytest.approx(1.0)
        assert weights == {(t,): 0.5 if t >= 3 else 1.0 for t in range(6)}

    def test_si_weight_uses_intersection(self):
        kb = kb_from_lines(["a\tr\tb\t0\t5", "a\tr\tc\t3\t8"])
        stmt = kb.splits["train"][0]
        cfg = TrainConfig(k=1, variant=Variant.parse("te,si"))
        rng = np.random.default_rng(0)
        weights = {}
        for _ in range(300):
            sample = make_training_sample(stmt, kb, cfg, rng)
            weights[sample.plan.time_projections] = sample.weight
        # answers valid at both 1 and 4: only b
        assert weights[(1, 4)] == pytest.approx(1.0)
        assert weights[(3, 5)] == pytest.approx(0.5)
        assert all(w == (0.5 if t1 >= 3 else 1.0) for (t1, _), w in weights.items())


def query_weight(stmt, plan, kb):
    """The former 1 / n_q, which read the key's training answers again."""
    if not plan.time_projections:
        n_q = len(kb.filter.atemporal_objects(stmt.s, stmt.r, splits=("train",)))
    else:
        answer_sets = [
            kb.filter.timed_objects(stmt.s, stmt.r, t, splits=("train",))
            for t in plan.time_projections
        ]
        n_q = len(set.intersection(*answer_sets))
    return 1.0 / max(n_q, 1)


def oracle_training_sample(stmt, kb, config, rng):
    """The former make_training_sample: the answers are read once for the
    entity negatives (_known_positives) and again for the weight
    (query_weight)."""
    plan = plan_for_statement(stmt, config.variant, rng)
    neg_times = []
    m = config.time_negatives
    if m > 0 and stmt.scope.is_temporal:
        neg_times = sample_time_negatives(stmt, m, kb, rng)
    positives = _known_positives(stmt, kb, plan.time_projections)
    k_entities = config.k - len(neg_times)
    neg_entities, _ = old_entity_negatives(positives, k_entities, kb.n_entities, rng)
    return TrainingSample(stmt, plan, neg_entities, neg_times, query_weight(stmt, plan, kb))


@st.composite
def small_synthetic_kbs(draw):
    n_entities = draw(st.integers(4, 16))
    n_relations = draw(st.integers(2, 3))
    config = SynthConfig(
        seed=draw(st.integers(0, 2**16)),
        n_entities=n_entities,
        n_relations=n_relations,
        axis_length=draw(st.integers(2, 10)),
        n_rules=draw(st.integers(1, n_entities // 2 * n_relations)),
    )
    return add_inverse_relations(generate_synthetic(config)[0])


class TestOnePassSampler:
    """make_training_sample reads the key's answers once per plan timestamp
    and gives the former per-sample code's plans, negatives and weights,
    with the generator left in the same state."""

    @pytest.mark.parametrize("spec", ["te", "te,tns", "te,si,tns", "dm,tr,si"])
    @settings(max_examples=25, deadline=None)
    @given(
        kb=small_synthetic_kbs(),
        k=st.integers(1, 8),
        m=st.none() | st.integers(0, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_former_sampler(self, spec, kb, k, m, seed):
        assume(k + kb.filter.max_train_objects <= kb.n_entities)
        assume(m is None or m <= k)
        config = TrainConfig(d=4, k=k, m=m, variant=Variant.parse(spec))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for stmt in kb.splits["train"]:
            got = make_training_sample(stmt, kb, config, rng)
            want = oracle_training_sample(stmt, kb, config, ref_rng)
            assert got.plan == want.plan
            assert got.negatives_entities == want.negatives_entities
            assert got.negatives_times == want.negatives_times
            assert got.weight == want.weight
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_one_lookup_per_plan_timestamp(self, monkeypatch):
        kb = add_inverse_relations(
            generate_synthetic(
                SynthConfig(seed=1, n_entities=12, n_relations=2, axis_length=8, n_rules=6)
            )[0]
        )
        calls = []

        def counted(name):
            reader = getattr(kb.filter, name)

            def lookup(*args, **kwargs):
                calls.append(name)
                return reader(*args, **kwargs)

            return lookup

        for name in ("timed_objects", "atemporal_objects"):
            monkeypatch.setattr(kb.filter, name, counted(name))
        rng = np.random.default_rng(0)
        for spec in ("te", "te,si,tns"):
            config = TrainConfig(d=4, k=2, variant=Variant.parse(spec))
            for stmt in kb.splits["train"]:
                calls.clear()
                sample = make_training_sample(stmt, kb, config, rng)
                times = sample.plan.time_projections
                assert calls == (
                    ["timed_objects"] * len(times) if times else ["atemporal_objects"]
                )


class TestBatchLoss:
    def test_hand_computed_margin_loss(self):
        # positive at distance 0, single negative at distance 48, gamma=24
        ps = ParameterStore.initialize(1, 2, 1, 1, gamma=24.0, alpha=0.5)
        ps.arrays["entity_emb"][:] = [[0.0], [48.0]]
        ps.arrays["relation_emb"][:] = [[0.0]]
        ps.arrays["relation_off"][:] = [[0.0]]
        stmt = Statement(0, 0, 0, TimeScope.no_time())
        sample = TrainingSample(stmt, QueryPlan(0, 0), [1], [], weight=1.0)
        loss, _ = batch_loss([sample], ps)
        expected = 2 * np.log1p(np.exp(-24.0))
        assert float(loss.value) == pytest.approx(expected, rel=1e-9)
        assert float(loss.value) == pytest.approx(7.6e-11, rel=0.05)

    def test_weight_scales_loss(self):
        ps = ParameterStore.initialize(2, 3, 1, 1, rng=np.random.default_rng(0))
        stmt = Statement(0, 0, 1, TimeScope.no_time())
        s1 = TrainingSample(stmt, QueryPlan(0, 0), [2], [], weight=1.0)
        s2 = TrainingSample(stmt, QueryPlan(0, 0), [2], [], weight=0.25)
        l1, _ = batch_loss([s1], ps)
        l2, _ = batch_loss([s2], ps)
        assert float(l2.value) == pytest.approx(0.25 * float(l1.value), rel=1e-12)

    def test_smoothness_zero_for_identical_time_embeddings(self):
        ps = ParameterStore.initialize(3, 2, 1, 4)
        ps.arrays["time_emb"][:] = 0.7
        assert smoothness(ps) == 0.0

    def test_smoothness_hand_value(self):
        ps = ParameterStore.initialize(1, 2, 1, 3)
        ps.arrays["time_emb"][:] = [[0.0], [1.0], [3.0]]
        assert smoothness(ps) == pytest.approx(2.5, rel=1e-12)

    def test_smoothness_gradient_closed_form(self):
        from time2box import autodiff as ad

        rng = np.random.default_rng(7)
        n_times, d = 6, 3
        ps = ParameterStore.initialize(d, 2, 1, n_times, rng=rng)
        T = ps.arrays["time_emb"]
        tape = ad.Tape()
        rows = (
            ps.rows(tape, "time_emb", np.arange(1, n_times)),
            ps.rows(tape, "time_emb", np.arange(0, n_times - 1)),
        )
        loss = ad.margin_loss([], ps.gamma, ps.alpha, 1, rows, beta=1.0)
        assert float(loss.value) == smoothness(ps)
        grads = ad.densify(ad.backward(tape, loss), ps.arrays)
        scale = 2.0 / (n_times - 1)
        # interior rows: (2 t_i - t_{i-1} - t_{i+1}); one-sided at the ends
        for i in range(n_times):
            if i == 0:
                expected = scale * (T[0] - T[1])
            elif i == n_times - 1:
                expected = scale * (T[-1] - T[-2])
            else:
                expected = scale * (2 * T[i] - T[i - 1] - T[i + 1])
            np.testing.assert_allclose(grads["time_emb"][i], expected, rtol=1e-12)

    def test_smoothness_added_only_for_temporal_batches(self):
        ps = ParameterStore.initialize(2, 3, 1, 3, rng=np.random.default_rng(1))
        ps.arrays["time_emb"][:] = np.random.default_rng(2).normal(size=(3, 2))
        atempo = TrainingSample(
            Statement(0, 0, 1, TimeScope.no_time()), QueryPlan(0, 0), [2], [], 1.0
        )
        tempo = TrainingSample(
            Statement(0, 0, 1, TimeScope.instant(1)), QueryPlan(0, 0, (1,)), [2], [], 1.0
        )
        base, _ = batch_loss([atempo], ps, beta=0.5)
        with_reg, _ = batch_loss([tempo], ps, beta=0.5)
        lam = smoothness(ps)
        assert lam > 0
        # the atemporal-only batch carries no smoothness term
        no_beta_atempo, _ = batch_loss([atempo], ps, beta=0.0)
        assert float(base.value) == pytest.approx(float(no_beta_atempo.value), rel=1e-12)
        no_beta_tempo, _ = batch_loss([tempo], ps, beta=0.0)
        assert float(with_reg.value) == pytest.approx(
            float(no_beta_tempo.value) + 0.5 * lam, rel=1e-9
        )

    def test_time_negative_boxes_change_loss(self):
        ps = ParameterStore.initialize(4, 5, 2, 6, rng=np.random.default_rng(4))
        stmt = Statement(0, 0, 1, TimeScope.closed(1, 4))
        with_time = TrainingSample(stmt, QueryPlan(0, 0, (2,)), [2, 3], [0, 5], 1.0)
        entity_only = TrainingSample(stmt, QueryPlan(0, 0, (2,)), [2, 3], [], 1.0)
        l1, _ = batch_loss([with_time], ps)
        l2, _ = batch_loss([entity_only], ps)
        assert float(l1.value) != pytest.approx(float(l2.value), rel=1e-9)

    def test_gradients_match_finite_differences_each_variant(self):
        from time2box import autodiff as ad

        kb = kb_from_lines(
            [
                "a\tr1\tb\t1\t4",
                "a\tr2\tc\t2\t2",
                "b\tr1\ta\t0\t-",
                "c\tr2\tb\t-\t-",
                "c\tr1\ta\t-\t5",
            ],
            n_entities=7,
        )
        for spec in ("te", "dm", "te,tr,si,tns"):
            cfg = TrainConfig(d=6, k=3, seed=0, variant=Variant.parse(spec), beta=0.1)
            ps = ParameterStore.initialize(
                6, kb.n_entities, kb.n_relations, kb.axis.length, rng=np.random.default_rng(5)
            )
            rng = np.random.default_rng(6)
            batch = [make_training_sample(s, kb, cfg, rng) for s in kb.splits["train"]]

            def loss_fn():
                loss, tape = batch_loss(batch, ps, beta=cfg.beta)
                return loss.value, ad.backward(tape, loss)

            report = ad.finite_diff_check(
                loss_fn, ps.arrays, eps=1e-4, samples=80, rng=np.random.default_rng(7)
            )
            assert report.max_rel_error < 1e-4, (spec, report.worst)

    def test_empty_batch_rejected(self):
        ps = ParameterStore.initialize(2, 2, 1, 1)
        with pytest.raises(ValueError):
            batch_loss([], ps)


def former_reshape(a, shape):
    def vjp(g, _, x):
        return (g.reshape(x.shape),)

    return ad._op("reshape", (ad.wrap(a),), lambda x: x.reshape(shape), vjp)


def former_smoothness(params, tape):
    n_times = params.n_times
    if n_times < 2:
        return ad.constant(0.0)
    nxt = params.rows(tape, "time_emb", np.arange(1, n_times))
    prv = params.rows(tape, "time_emb", np.arange(0, n_times - 1))
    diff = sub(nxt, prv)
    return ad.mul(reduce_sum(ad.mul(diff, diff)), ad.constant(1.0 / (n_times - 1)))


def former_batch_loss(batch, params, beta=0.0):
    """batch_loss as it was recorded before margin_loss: about 14
    primitive nodes per group for the margin loss's tail, and five for the
    smoothness term. The fused op must give its loss and gradient bits."""
    tape = ad.Tape()
    gamma = params.gamma
    groups = {}
    for sample in batch:
        key = (len(sample.plan.time_projections), len(sample.negatives_times))
        groups.setdefault(key, []).append(sample)
    total = ad.constant(0.0)
    for (_, n_tneg), group in groups.items():
        n = len(group)
        plan0 = group[0].plan
        variant = Variant(plan0.projector_kind, plan0.use_tr)
        s_idx = np.array([g.plan.subject for g in group])
        r_idx = np.array([g.plan.relation for g in group])
        t_idx = np.array([g.plan.time_projections for g in group], dtype=np.intp)
        box = query_box(params, variant, s_idx, r_idx, t_idx, tape)
        o_emb = params.rows(tape, "entity_emb", np.array([g.statement.o for g in group]))
        d_pos = box_distance(o_emb, box.center, box.offset, params.alpha)
        pos_term = neg(log_sigmoid(sub(ad.constant(gamma), d_pos)))
        d = params.d
        neg_sum = None
        k_total = len(group[0].negatives_entities) + n_tneg
        if group[0].negatives_entities:
            center_b = former_reshape(box.center, (n, 1, d))
            offset_b = former_reshape(box.offset, (n, 1, d))
            ne_idx = np.array([g.negatives_entities for g in group])
            ne_emb = params.rows(tape, "entity_emb", ne_idx)
            d_neg = box_distance(ne_emb, center_b, offset_b, params.alpha)
            neg_sum = reduce_sum(log_sigmoid(sub(d_neg, ad.constant(gamma))), axis=-1)
        if n_tneg:
            tneg_idx = np.array([g.negatives_times for g in group])
            tbox = query_box(
                params, variant, s_idx[:, None], r_idx[:, None], tneg_idx[..., None], tape
            )
            o_b = former_reshape(o_emb, (n, 1, d))
            d_tneg = box_distance(o_b, tbox.center, tbox.offset, params.alpha)
            t_sum = reduce_sum(log_sigmoid(sub(d_tneg, ad.constant(gamma))), axis=-1)
            neg_sum = t_sum if neg_sum is None else ad.add(neg_sum, t_sum)
        sample_loss = pos_term
        if neg_sum is not None:
            sample_loss = sub(sample_loss, ad.mul(neg_sum, ad.constant(1.0 / k_total)))
        weights = np.array([g.weight for g in group])
        total = ad.add(total, reduce_sum(ad.mul(sample_loss, ad.constant(weights))))
    loss = ad.mul(total, ad.constant(1.0 / len(batch)))
    if beta > 0.0 and any(s.statement.scope.is_temporal for s in batch):
        loss = ad.add(loss, ad.mul(former_smoothness(params, tape), ad.constant(beta)))
    return loss, tape


def on_grid(params, rng):
    """Every parameter on a grid of quarters: atemporal query boxes (e + r,
    or e * r, with the relation offset) then have faces on the grid, so
    answers and negatives lie exactly on faces and on centers."""
    for name, arr in params.arrays.items():
        arr[:] = rng.integers(-4, 5, size=arr.shape) / 4.0
        if name.endswith("_off"):
            np.abs(arr, out=arr)


def zero_offsets(params, rng):
    """A third of the offsets 0, as clamping leaves them: a box with a zero
    offset has one face, which points reach from both sides."""
    for name in ("relation_off", "time_off"):
        params.arrays[name][rng.random(params.arrays[name].shape) < 1 / 3] = 0.0


def same_row_sums(got, want):
    assert got.keys() == want.keys()
    for name, (rows, g) in want.items():
        assert (got[name][0] is None) == (rows is None), name
        if rows is not None:
            assert got[name][0].tobytes() == rows.tobytes(), name
        assert got[name][1].tobytes() == g.tobytes(), name


class TestMarginLossEqualsFormerTape:
    """margin_loss gives the former primitive tape's loss bits and, through
    backward and row_sums, its gradient bits."""

    @pytest.mark.parametrize("spec", ["te", "te,tns", "te,si,tns", "dm,tr,si", "dm,tr,si,tns"])
    @settings(max_examples=20, deadline=None)
    @given(
        kb=small_synthetic_kbs(),
        d=st.sampled_from([3, 8]),
        k=st.integers(1, 6),
        m_is_k=st.booleans(),
        beta=st.sampled_from([0.0, 0.25]),
        grid=st.booleans(),
        zeros=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_loss_and_row_sums_bits(self, spec, kb, d, k, m_is_k, beta, grid, zeros, seed):
        assume(k + kb.filter.max_train_objects <= kb.n_entities)
        config = TrainConfig(d=d, k=k, m=k if m_is_k else None, variant=Variant.parse(spec))
        rng = np.random.default_rng(seed)
        params = ParameterStore.initialize(
            d, kb.n_entities, kb.n_relations, kb.axis.length, rng=rng
        )
        if grid:
            on_grid(params, rng)
        if zeros:
            zero_offsets(params, rng)
        train = kb.splits["train"]
        picks = rng.integers(0, len(train), 12)
        batch = [make_training_sample(train[i], kb, config, rng) for i in picks]
        loss, tape = batch_loss(batch, params, beta)
        ref, ref_tape = former_batch_loss(batch, params, beta)
        assert np.asarray(loss.value).tobytes() == np.asarray(ref.value).tobytes()
        same_row_sums(
            ad.row_sums(ad.backward(tape, loss), params.arrays),
            ad.row_sums(ad.backward(ref_tape, ref), params.arrays),
        )

    def test_grid_puts_points_on_faces(self):
        """on_grid's parameters do put entities on atemporal box faces, and
        zero_offsets makes boxes with one face."""
        synth = SynthConfig(seed=3, n_entities=12, n_relations=2, axis_length=6, n_rules=5)
        kb = add_inverse_relations(generate_synthetic(synth)[0])
        rng = np.random.default_rng(0)
        params = ParameterStore.initialize(
            8, kb.n_entities, kb.n_relations, kb.axis.length, rng=rng
        )
        on_grid(params, rng)
        zero_offsets(params, rng)
        emb, rel, off = (params.arrays[n] for n in ("entity_emb", "relation_emb", "relation_off"))
        center = emb[:, None, :] + rel[None, :, :]  # every atemporal te box
        faces = np.concatenate([center - off, center + off], axis=1)
        on_face = (emb[:, None, None, :] == faces[None]).any(axis=(1, 2))
        assert on_face.mean() > 0.2
        assert (off == 0).mean() > 0.2

    @pytest.mark.parametrize("spec, beta", [("te,tns", 0.0), ("dm,tr,si", 0.01)])
    def test_c07_step_records_one_loss_node(self, spec, beta):
        synth = SynthConfig(
            seed=7, n_entities=50, n_relations=5, axis_length=40, n_rules=85, instant_echoes=2
        )
        kb = add_inverse_relations(generate_synthetic(synth)[0])
        config = TrainConfig(d=8, k=16, batch=64, beta=beta, variant=Variant.parse(spec))
        rng = np.random.default_rng(0)
        params = ParameterStore.initialize(
            8, kb.n_entities, kb.n_relations, kb.axis.length, rng=rng
        )
        train = kb.splits["train"]
        picks = rng.integers(0, len(train), 64)
        batch = [make_training_sample(train[i], kb, config, rng) for i in picks]
        _, tape = batch_loss(batch, params, beta)
        ops = [node.op for node in tape.nodes]
        assert ops.count("margin_loss") == 1 and ops[-1] == "margin_loss"
        assert not {"neg", "reshape", "log_sigmoid"} & set(ops)


def dense_adam_reference(state, arrays, grads, lr, t, b1=0.9, b2=0.999, eps=1e-8):
    """One Adam step as whole-array expressions, a zero gradient for an
    array without one; state maps each name to its (m, v)."""
    bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
    for name in sorted(arrays):
        arr = arrays[name]
        m, v = state.setdefault(name, (np.zeros_like(arr), np.zeros_like(arr)))
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(arr)
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        arr -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


class TestAdam:
    def test_minimizes_quadratic(self):
        arrays = {"x": np.array([[5.0, -3.0]])}
        opt = Adam(lr=0.1)
        for _ in range(500):
            opt.step(arrays, {"x": 2 * arrays["x"]})
        assert np.all(np.abs(arrays["x"]) < 1e-3)

    def test_untouched_arrays_keep_momentum_semantics(self):
        arrays = {"x": np.ones((1, 1)), "y": np.ones((1, 1))}
        opt = Adam(lr=0.01)
        opt.step(arrays, {"x": np.ones((1, 1))})
        y_after_first = arrays["y"].copy()
        opt.step(arrays, {"x": np.ones((1, 1))})
        # y has zero gradient and zero momentum: it must not move
        np.testing.assert_array_equal(arrays["y"], y_after_first)

    def test_blocked_update_bit_identical_to_one_expression(self):
        rng = np.random.default_rng(3)
        shapes = {
            "one_row": (1, 5),
            "one_block": (ADAM_BLOCK_ELEMENTS // 64, 64),
            "two_blocks_and_rest": (2 * ADAM_BLOCK_ELEMENTS // 64 + 1, 64),
            "stale": (3, 4),
        }
        assert ADAM_BLOCK_ELEMENTS % 64 == 0
        start = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        # a column-major array is updated in place through its row blocks
        start["column_major"] = np.asfortranarray(rng.normal(size=(6, 3)))
        ours = {name: arr.copy(order="K") for name, arr in start.items()}
        ref = {name: arr.copy(order="K") for name, arr in start.items()}
        opt, ref_state = Adam(lr=0.01), {}
        for t in range(1, 7):
            # "stale" gets a gradient only at step 1; its momentum moves it later
            grads = {
                name: rng.normal(scale=10.0 ** rng.integers(-6, 2), size=arr.shape)
                for name, arr in start.items()
                if name != "stale" or t == 1
            }
            grads["one_row"][0, t % 5] = 0.0  # exact zeros too
            opt.step(ours, grads)
            dense_adam_reference(ref_state, ref, grads, 0.01, t)
        for name in start:
            assert ours[name].tobytes(order="A") == ref[name].tobytes(order="A"), name
            m, v = ref_state[name]
            assert opt.m[name].tobytes() == m.tobytes(order="C"), name
            assert opt.v[name].tobytes() == v.tobytes(order="C"), name
        assert ours["column_major"].flags.f_contiguous


    def test_row_form_bit_identical_to_dense(self):
        """(rows, g) gradients update every row as the dense gradient with
        zeros elsewhere does: rows untouched for several steps after a
        gradient, exact zeros of both signs on touched rows, -0.0
        parameters, an array without a gradient, rows on both sides of
        block edges, one step that touches a whole block between two
        partly touched ones, and a column-major array."""
        rng = np.random.default_rng(8)
        block_rows = ADAM_BLOCK_ELEMENTS // 64
        start = {
            "table": rng.normal(size=(2 * block_rows + 9, 64)),
            "narrow": rng.normal(size=(30, 3)),
            "no_grad": rng.normal(size=(5, 4)),
            "column_major": np.asfortranarray(rng.normal(size=(12, 5))),
        }
        start["table"][::5, ::3] = -0.0
        start["no_grad"][1] = -0.0
        ours = {name: arr.copy(order="K") for name, arr in start.items()}
        ref = {name: arr.copy(order="K") for name, arr in start.items()}
        opt, ref_state = Adam(lr=0.01), {}
        edges = [0, block_rows - 1, block_rows, 2 * block_rows - 1, 2 * block_rows]
        for t in range(1, 9):
            row_grads, dense_grads = {}, {}
            for name in ("table", "narrow", "column_major"):
                n = start[name].shape[0]
                # the first third of the rows takes gradients only at steps 1-2
                pool = np.arange(n) if t <= 2 else np.arange(n // 3, n)
                rows = np.sort(rng.choice(pool, size=max(1, len(pool) // 4), replace=False))
                if name == "table":
                    rows = np.union1d(rows, [e for e in edges if e in pool])
                if name == "table" and t == 4:
                    # the middle block whole, the blocks on either side partly
                    rows = np.union1d(rows, np.arange(block_rows, 2 * block_rows))
                    rows = rows[rows != n - 1]
                    assert 0 < np.sum(rows < block_rows) < block_rows
                    assert 0 < np.sum(rows >= 2 * block_rows) < n - 2 * block_rows
                scale = 10.0 ** rng.integers(-6, 2)
                g = rng.normal(scale=scale, size=(len(rows), start[name].shape[1]))
                g[rng.random(g.shape) < 0.1] = 0.0
                g[rng.random(g.shape) < 0.1] = -0.0
                row_grads[name] = (rows, g)
                dense_grads[name] = np.zeros(start[name].shape)
                dense_grads[name][rows] = g
            if t % 3 == 0:
                # the dense pair form too
                row_grads["narrow"] = (None, dense_grads["narrow"])
            opt.step(ours, row_grads)
            dense_adam_reference(ref_state, ref, dense_grads, 0.01, t)
        for name in start:
            assert ours[name].tobytes(order="A") == ref[name].tobytes(order="A"), name
            m, v = ref_state[name]
            assert opt.m[name].tobytes() == m.tobytes(order="C"), name
            assert opt.v[name].tobytes() == v.tobytes(order="C"), name
        assert ours["column_major"].flags.f_contiguous
        # some -0.0 parameters sat on rows no step touched, and kept their sign
        kept = ours["table"][::5, ::3][ours["table"][::5, ::3] == 0.0]
        assert kept.size and np.signbit(kept).all()

@pytest.fixture(scope="module")
def overfit_kb():
    return kb_from_lines(
        [
            "a\tr\tb\t0\t3",
            "a\tr\tc\t4\t7",
            "b\tr\ta\t2\t2",
            "c\tr\td\t5\t-",
            "d\tr\ta\t-\t6",
            "d\tr\tb\t-\t-",
            "b\tr\td\t1\t6",
            "c\tr\ta\t0\t0",
        ],
        valid_lines=["a\tr\tb\t1\t1"],
        n_entities=8,
    )


class TestTrain:
    def test_overfits_small_batch(self, overfit_kb):
        cfg = TrainConfig(d=16, k=4, lr=0.01, batch=8, steps=500, seed=3, eval_every=100)
        params, log = train(overfit_kb, cfg)
        losses = [e.loss for e in log]
        assert losses[-1] < 0.1 * losses[0]
        assert params.param_count() == 16 * (8 + 2 * 8 + 2 * 1) + 4 * 16 * 16

    def test_loss_decreases_after_smoothing(self, overfit_kb):
        cfg = TrainConfig(d=16, k=4, lr=0.01, batch=8, steps=500, seed=3, eval_every=50)
        _, log = train(overfit_kb, cfg)
        # log entries carry the mean loss over each 50-step window
        smoothed = [e.loss for e in log][1:]
        assert np.all(np.diff(smoothed) < 0)

    def test_seeded_runs_identical(self, overfit_kb):
        cfg = TrainConfig(d=8, k=3, lr=0.01, batch=8, steps=60, seed=11, eval_every=20)
        p1, log1 = train(overfit_kb, cfg)
        p2, log2 = train(overfit_kb, cfg)
        assert [e.loss for e in log1] == [e.loss for e in log2]
        for name in p1.arrays:
            np.testing.assert_array_equal(p1.arrays[name], p2.arrays[name])

    def test_step_tapes_freed_without_garbage_collection(self, overfit_kb, monkeypatch):
        import gc
        import weakref

        from time2box import training as tr

        tapes = []

        def recording_batch_loss(*args, **kwargs):
            loss, tape = batch_loss(*args, **kwargs)
            tapes.append(weakref.ref(tape))
            return loss, tape

        monkeypatch.setattr(tr, "batch_loss", recording_batch_loss)
        cfg = TrainConfig(d=8, k=3, lr=0.01, batch=8, steps=5, seed=2, eval_every=5)
        gc.disable()
        try:
            train(overfit_kb, cfg)
            alive = sum(ref() is not None for ref in tapes)
        finally:
            gc.enable()
        assert len(tapes) == 5 and alive == 0

    def test_valid_split_read_once(self, overfit_kb, monkeypatch):
        """A Statements split builds its statement objects on each pass, so
        train() reads the valid split once, not once per validation."""
        from time2box.data import Statements

        valid = overfit_kb.splits["valid"]
        assert isinstance(valid, Statements)
        cfg = TrainConfig(d=4, k=3, batch=8, steps=4, seed=0, eval_every=1)
        _, want = train(overfit_kb, cfg)
        passes = []
        iterate = Statements.__iter__

        def counting(split):
            passes.append(split)
            return iterate(split)

        monkeypatch.setattr(Statements, "__iter__", counting)
        _, log = train(overfit_kb, cfg)
        assert [entry.step for entry in log] == [1, 2, 3, 4]
        assert [entry.format() for entry in log] == [entry.format() for entry in want]
        assert [split is valid for split in passes] == [True]

    def test_no_step_allocates_an_entity_table(self, monkeypatch):
        """|E| = 50k at d = 8: the entity table (3.2 MB) dwarfs a step's
        tape, and after step 1, which allocates Adam's moments, no step's
        traced peak reaches one table's bytes."""
        import tracemalloc

        from time2box import training as tr

        kb = kb_from_lines(
            ["a\tr\tb\t0\t3", "a\tr\tc\t4\t7", "b\tr\ta\t2\t2", "c\tr\td\t5\t-"],
            n_entities=50_000,
        )
        peaks, base = [], []

        def measured_batch_loss(*args, **kwargs):
            # each reading spans one step: from this batch_loss to the next
            if base:
                peaks.append(tracemalloc.get_traced_memory()[1] - base[-1])
            tracemalloc.reset_peak()
            base.append(tracemalloc.get_traced_memory()[0])
            return batch_loss(*args, **kwargs)

        monkeypatch.setattr(tr, "batch_loss", measured_batch_loss)
        cfg = TrainConfig(d=8, k=3, lr=0.01, batch=8, steps=6, seed=2, eval_every=100)
        tracemalloc.start()
        try:
            params, _ = train(kb, cfg)
        finally:
            tracemalloc.stop()
        table_bytes = params.arrays["entity_emb"].nbytes
        assert table_bytes == 50_000 * 8 * 8
        assert len(peaks) == 5 and max(peaks[1:]) < table_bytes, peaks

    def test_offsets_nonnegative_after_training(self, overfit_kb):
        cfg = TrainConfig(d=8, k=3, lr=0.05, batch=8, steps=80, seed=1, eval_every=80)
        params, _ = train(overfit_kb, cfg)
        assert np.all(params.arrays["relation_off"] >= 0)
        assert np.all(params.arrays["time_off"] >= 0)

    def test_smoothness_regularizer_reduces_lambda(self, overfit_kb):
        base = TrainConfig(d=8, k=3, lr=0.01, batch=8, steps=300, seed=5, eval_every=300)
        p0, _ = train(overfit_kb, base)
        p1, log1 = train(overfit_kb, TrainConfig(**{**base.__dict__, "beta": 0.1}))
        lam0 = smoothness(p0)
        lam1 = smoothness(p1)
        assert lam1 < lam0
        assert log1[-1].smoothness is not None

    def test_infeasible_negative_count_fails_before_the_first_step(self, overfit_kb, monkeypatch):
        """Two training objects share a key among 8 entities, so k = 7 could
        leave the sampler short; the run fails before sampling anything."""
        from time2box import training as tr

        def no_sampling(*args, **kwargs):
            raise AssertionError("a sample was drawn before the check")

        monkeypatch.setattr(tr, "make_training_sample", no_sampling)
        cfg = TrainConfig(d=4, k=7, batch=2, steps=1, seed=0)
        with pytest.raises(
            ValueError,
            match=re.escape("cannot draw 7 negatives: only 8 entities and up to 2 known positives"),
        ):
            train(overfit_kb, cfg)

    def test_negative_count_at_the_bound_trains(self, overfit_kb):
        assert overfit_kb.filter.max_train_objects == 2
        _, log = train(overfit_kb, TrainConfig(d=4, k=6, batch=8, steps=20, seed=0, eval_every=20))
        assert [entry.step for entry in log] == [1, 20]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts(self, overfit_kb):
        cfg = TrainConfig(
            d=4, k=2, lr=1e160, batch=8, steps=5, seed=0, eval_every=5,
            variant=Variant.parse("dm"),
        )
        with pytest.raises(TrainingDiverged, match="step"):
            train(overfit_kb, cfg)


class TestCheckpoint:
    def test_round_trip_precision(self, tmp_path):
        ps = ParameterStore.initialize(64, 20, 6, 10, gamma=24.0, rng=np.random.default_rng(0))
        path = tmp_path / "model.t2b"
        save_checkpoint(ps, path, Variant.parse("te,tns"))
        loaded, variant = load_checkpoint(path)
        assert variant == Variant.parse("te,tns")
        assert loaded.gamma == ps.gamma and loaded.alpha == ps.alpha
        for name in ps.arrays:
            diff = np.abs(loaded.arrays[name] - ps.arrays[name]).max()
            assert diff <= 6e-8

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "bad.t2b"
        ps = ParameterStore.initialize(4, 3, 2, 2)
        save_checkpoint(ps, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "trunc.t2b"
        ps = ParameterStore.initialize(4, 3, 2, 2)
        save_checkpoint(ps, path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda b: b + b"\0", "trailing bytes after final parameter block"),
            (lambda b: b[:-10], "truncated checkpoint: block w_ds_out incomplete"),
            # d = |E| = 2^31 - 1 claims about 2^65 bytes, which no read may request
            (
                lambda b: b[:4] + struct.pack("<2i", 2**31 - 1, 2**31 - 1) + b[12:],
                "truncated checkpoint: block entity_emb incomplete",
            ),
        ],
        ids=["trailing-byte", "short", "huge-header"],
    )
    def test_file_size_checked_before_blocks(self, tmp_path, edit, message):
        path = tmp_path / "model.t2b"
        save_checkpoint(ParameterStore.initialize(4, 3, 2, 2), path)
        blob = bytearray(path.read_bytes())
        # a NaN in the first block, which a block read would report first
        header = struct.calcsize("<4s5i2d")
        blob[header : header + 4] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(edit(bytes(blob)))
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(path)

    @pytest.mark.parametrize("value, reason", [(np.nan, "non-finite"), (1e39, "overflow float32")])
    def test_save_rejects_unrepresentable_values(self, tmp_path, value, reason):
        ps = ParameterStore.initialize(4, 3, 2, 2)
        ps.arrays["time_emb"][1, 2] = value
        path = tmp_path / "bad.t2b"
        with pytest.raises(CheckpointError, match=f"{reason}.*time_emb|time_emb.*{reason}"):
            save_checkpoint(ps, path)
        assert not path.exists()

    def test_load_rejects_non_finite_block(self, tmp_path):
        ps = ParameterStore.initialize(4, 3, 2, 2)
        path = tmp_path / "nan.t2b"
        save_checkpoint(ps, path)
        blob = bytearray(path.read_bytes())
        blob[-4:] = np.array([np.nan], dtype="<f4").tobytes()  # last w_ds_out entry
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="non-finite.*w_ds_out"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("d", 0),
            ("|E|", 0),
            ("|R|", -1),
            ("|T|", 0),
            ("gamma", 0.0),
            ("gamma", np.nan),
            ("gamma", np.inf),
            ("alpha", 7.0),
            ("alpha", -0.5),
            ("alpha", np.nan),
            ("variant code", 16),
            ("variant code", 99),
            ("variant code", -1),
        ],
    )
    def test_bad_header_rejected_before_blocks(self, tmp_path, field, value):
        # the file ends after its header, so a block read would fail instead
        h = {"d": 4, "|E|": 3, "|R|": 2, "|T|": 2, "variant code": 0, "gamma": 24.0, "alpha": 0.5}
        h[field] = value
        path = tmp_path / "header.t2b"
        path.write_bytes(struct.pack("<4s5i2d", CHECKPOINT_MAGIC, *h.values()))
        with pytest.raises(CheckpointError, match=re.escape(f"header: {field} ")):
            load_checkpoint(path)

    def test_dimension_mismatch_vs_kb(self, tmp_path, overfit_kb):
        ps = ParameterStore.initialize(4, 99, 2, 8)
        with pytest.raises(CheckpointError, match=r"\|E\| 99"):
            check_dimensions(ps, overfit_kb)
