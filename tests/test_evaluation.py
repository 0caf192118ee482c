import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_link_report, brute_force_rank, kb_from_lines
from time2box import evaluation as ev
from time2box.data import (
    ScopeKind,
    Statement,
    SynthConfig,
    TimeScope,
    add_inverse_relations,
    generate_synthetic,
)
from time2box.evaluation import (
    Interval,
    MetricBlock,
    aeiou,
    eval_link_prediction,
    eval_time_prediction,
    gaeiou,
    giou,
    gold_interval,
    greedy_coalesce,
    link_query_times,
    property_p_check,
    random_interval_baseline,
    rank_queries,
    score_timeline,
)
from time2box.model import ParameterStore, Variant


def interval(lo, hi):
    return Interval(lo, hi)


#: timeline scores for coalescing: few distinct values force ties and
#: plateaus, and -1000 underflows to p = 0
TIED_VALUE = st.one_of(st.sampled_from([-1000.0, -2.0, 0.0, 0.5, 3.0]), st.floats(-5, 5))


def former_greedy_coalesce(scores, k, tau=0.5):
    """greedy_coalesce as it was before the walk moved to Python floats:
    a boolean consumed mask, numpy scalars and one masked argmax per round."""
    z = scores - np.max(scores)
    p = np.exp(z)
    p /= p.sum()
    n = len(p)
    consumed = np.zeros(n, dtype=bool)
    intervals = []
    for _ in range(k):
        if consumed.all():
            break
        masked = np.where(consumed, -np.inf, p)
        seed = int(np.argmax(masked))
        threshold = tau * p[seed]
        lo = hi = seed
        consumed[seed] = True
        while True:
            left = p[lo - 1] if lo - 1 >= 0 and not consumed[lo - 1] else None
            right = p[hi + 1] if hi + 1 < n and not consumed[hi + 1] else None
            if left is None and right is None:
                break
            go_left = right is None or (left is not None and left >= right)
            candidate = left if go_left else right
            if candidate < threshold:
                break
            if go_left:
                lo -= 1
                consumed[lo] = True
            else:
                hi += 1
                consumed[hi] = True
        intervals.append(Interval(lo, hi))
    return intervals


def former_score_timeline(s, r, o, params, kb, variant):
    """score_timeline as it was before statements were scored in chunks:
    one query_box call over the axis for a single statement."""
    from time2box.model import box_scores, query_box

    box = query_box(params, variant, s, r, np.arange(kb.axis.length)[:, None])
    obj = params.arrays["entity_emb"][o]
    return box_scores(obj, box.center_value(), box.offset_value(), params.gamma, params.alpha)


def former_eval_time_prediction(
    statements, params, kb, variant=None, k=10, tau=0.5, coalesce=former_greedy_coalesce
):
    """eval_time_prediction as a per-statement loop of scalar metric calls,
    as it was before the metrics ran once per call over all predictions."""
    rows = []
    n_skipped = 0
    for stmt in statements:
        gold = gold_interval(stmt)
        if gold is None:
            n_skipped += 1
            continue
        timeline = score_timeline(stmt.s, stmt.r, stmt.o, params, kb, variant)
        predicted = coalesce(timeline, k, tau)
        values = {}
        for name, fn in (("giou", giou), ("aeiou", aeiou), ("gaeiou", gaeiou)):
            per_pred = [fn(gold, iv) for iv in predicted]
            values[f"{name}@1"] = per_pred[0]
            values[f"{name}@{k}"] = max(per_pred)
        rows.append((ev.duration_bucket(gold.duration), values))

    def means(selected):
        if not selected:
            return {}
        keys = selected[0].keys()
        return {key: float(np.mean([v[key] for v in selected])) for key in keys}

    report = ev.TimePredReport(n_evaluated=len(rows), n_skipped=n_skipped)
    report.overall = means([v for _, v in rows])
    for bucket in ev.DURATION_BUCKETS:
        bucket_rows = [v for b, v in rows if b == bucket]
        report.counts[bucket] = len(bucket_rows)
        if bucket_rows:
            report.by_duration[bucket] = means(bucket_rows)
    return report


class TestIntervalMetrics:
    def test_giou_partial_overlap(self):
        assert giou(interval(2011, 2016), interval(2009, 2013)) == pytest.approx(0.375, abs=1e-15)

    def test_giou_disjoint(self):
        expected = Fraction(0, 12) - Fraction(11, 23)
        got = giou(interval(2011, 2020), interval(1998, 1999))
        assert got == pytest.approx(float(expected), abs=1e-15)

    def test_aeiou_motivating_tie(self):
        g = interval(2011, 2020)
        v1 = aeiou(g, interval(1998, 2010))
        v2 = aeiou(g, interval(1998, 1999))
        assert v1 == v2 == pytest.approx(float(Fraction(1, 23)), abs=1e-15)

    def test_gaeiou_resolves_the_tie(self):
        g = interval(2011, 2020)
        v1 = gaeiou(g, interval(1998, 2010))
        v2 = gaeiou(g, interval(1998, 1999))
        assert v1 == pytest.approx(float(Fraction(1, 46)), abs=1e-15)
        assert v2 == pytest.approx(float(Fraction(1, 299)), abs=1e-15)
        assert v2 < v1

    @pytest.mark.parametrize("fn", [giou, aeiou, gaeiou])
    def test_exact_match_scores_one(self, fn):
        assert fn(interval(2011, 2016), interval(2011, 2016)) == 1.0

    intervals = st.tuples(st.integers(-50, 50), st.integers(1, 20)).map(
        lambda t: Interval(t[0], t[0] + t[1] - 1)
    )

    @settings(max_examples=200)
    @given(intervals, intervals)
    def test_ranges_and_symmetry(self, a, b):
        for fn, lo, hi in ((giou, -1.0, 1.0), (aeiou, 0.0, 1.0), (gaeiou, 0.0, 1.0)):
            v = fn(a, b)
            assert lo < v <= hi
            assert fn(b, a) == pytest.approx(v, abs=1e-15)

    @settings(max_examples=200)
    @given(intervals, intervals, st.integers(-500, 500))
    def test_translation_invariance(self, a, b, shift):
        a2 = Interval(a.lo + shift, a.hi + shift)
        b2 = Interval(b.lo + shift, b.hi + shift)
        for fn in (giou, aeiou, gaeiou):
            assert fn(a2, b2) == pytest.approx(fn(a, b), abs=1e-12)

    @settings(max_examples=200)
    @given(intervals, intervals)
    def test_gaeiou_equals_aeiou_on_overlap(self, a, b):
        if max(a.lo, b.lo) <= min(a.hi, b.hi):
            assert gaeiou(a, b) == aeiou(a, b)

    @settings(max_examples=200)
    @given(intervals, intervals)
    def test_unit_score_only_for_exact_match(self, a, b):
        for fn in (aeiou, gaeiou):
            assert (fn(a, b) == 1.0) == (a == b)

    @settings(max_examples=200)
    @given(intervals, intervals)
    def test_overlap_beats_disjoint_for_fixed_hull(self, a, b):
        # overlap branch >= 1/hull, disjoint branch = 1/(gap*hull) < 1/hull
        inter = max(0, min(a.hi, b.hi) - max(a.lo, b.lo) + 1)
        hull = max(a.hi, b.hi) - min(a.lo, b.lo) + 1
        v = gaeiou(a, b)
        if inter > 0:
            assert v >= 1.0 / hull
        else:
            assert v < 1.0 / hull


class TestPropertyP:
    def test_gaeiou_clean_over_fuzz(self):
        violations = property_p_check("gaeiou", 20_000, np.random.default_rng(0))
        assert violations == []

    def test_aeiou_violates_non_overlap_clause(self):
        violations = property_p_check("aeiou", 20_000, np.random.default_rng(0))
        assert any(v.clause == "non-overlap" for v in violations)
        assert all(v.clause == "non-overlap" for v in violations)

    def test_giou_overlap_clause_clean(self):
        violations = property_p_check("giou", 20_000, np.random.default_rng(0))
        assert all(v.clause != "overlap" for v in violations)

    def test_known_tie_is_a_violation_for_aeiou(self):
        # the two predictions score identically under aeiou but have
        # different gaps, so the required strict ordering fails
        g, p1, p2 = interval(2011, 2020), interval(1998, 2010), interval(1998, 1999)
        assert aeiou(g, p1) == aeiou(g, p2)
        assert gaeiou(g, p1) > gaeiou(g, p2)


class TestGreedyCoalesce:
    def test_sharp_peak_gives_singleton(self):
        scores = np.array([0.0, 0.0, 10.0, 0.0, 0.0])
        out = greedy_coalesce(scores, k=1, tau=0.5)
        assert out[0] == Interval(2, 2)

    def test_plateau_covered_exactly(self):
        scores = np.array([-1e9, 5.0, 5.0, 5.0, -1e9])
        out = greedy_coalesce(scores, k=1, tau=0.5)
        assert out[0] == Interval(1, 3)

    def test_tau_one_keeps_unimodal_singleton(self):
        scores = np.array([0.0, 1.0, 3.0, 2.0, 0.5])
        out = greedy_coalesce(scores, k=1, tau=1.0)
        assert out[0] == Interval(2, 2)

    def test_ties_extend_leftward(self):
        scores = np.array([5.0, 5.0, 5.0])
        out = greedy_coalesce(scores, k=1, tau=1.0)
        assert out[0] == Interval(0, 2)  # seed 0 is earliest argmax; grows right
        scores = np.array([0.0, 5.0, 5.0, 5.0, 0.0])
        assert greedy_coalesce(scores, k=1, tau=1.0)[0] == Interval(1, 3)

    def test_fewer_timestamps_than_k(self):
        out = greedy_coalesce(np.array([1.0, 2.0]), k=10, tau=0.5)
        assert 1 <= len(out) <= 2
        covered = {t for iv in out for t in range(iv.lo, iv.hi + 1)}
        assert covered <= {0, 1}

    @pytest.mark.parametrize(
        "scores",
        [[0.0, np.nan, 1.0, np.inf], [np.nan], [np.nan] * 4, [0.0, -np.inf], [np.inf, 1.0]],
        ids=["nan-and-inf", "one-nan", "all-nan", "minus-inf", "plus-inf"],
    )
    def test_non_finite_scores_raise(self, scores):
        with pytest.raises(ev.NonFiniteScoreError, match="non-finite score"):
            greedy_coalesce(np.array(scores), k=10, tau=0.5)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            greedy_coalesce(np.zeros(3), k=0)
        with pytest.raises(ValueError):
            greedy_coalesce(np.zeros(3), k=1, tau=0.0)
        with pytest.raises(ValueError):
            greedy_coalesce(np.zeros(3), k=1, tau=1.5)

    @staticmethod
    def reference(scores, k, tau):
        """Direct simulation with explicit per-step bookkeeping."""
        p = np.exp(scores - scores.max())
        p = p / p.sum()
        taken = set()
        result = []
        for _ in range(k):
            free = [i for i in range(len(p)) if i not in taken]
            if not free:
                break
            seed = max(free, key=lambda i: (p[i], -i))
            lo = hi = seed
            taken.add(seed)
            while True:
                options = []
                if lo - 1 >= 0 and lo - 1 not in taken:
                    options.append(("L", p[lo - 1]))
                if hi + 1 < len(p) and hi + 1 not in taken:
                    options.append(("R", p[hi + 1]))
                if not options:
                    break
                options.sort(key=lambda o: (-o[1], o[0] != "L"))
                side, value = options[0]
                if value < tau * p[seed]:
                    break
                if side == "L":
                    lo -= 1
                    taken.add(lo)
                else:
                    hi += 1
                    taken.add(hi)
            result.append((lo, hi))
        return result

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=30),
        st.integers(1, 10),
        st.floats(0.05, 1.0),
    )
    def test_matches_reference_simulation(self, raw, k, tau):
        scores = np.array(raw)
        got = [(iv.lo, iv.hi) for iv in greedy_coalesce(scores, k, tau)]
        assert got == self.reference(scores, k, tau)

    tied_scores = st.lists(TIED_VALUE, min_size=1, max_size=30)

    @settings(max_examples=300, deadline=None)
    @given(tied_scores, st.integers(1, 40), st.sampled_from([1e-6, 0.3, 0.95, 1.0]))
    def test_matches_former_implementation(self, raw, k, tau):
        scores = np.array(raw)
        assert greedy_coalesce(scores, k, tau) == former_greedy_coalesce(scores, k, tau)

    @pytest.mark.parametrize("tau", [1e-6, 0.95, 1.0])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize(
        "raw", [[0.0], [-7.0], [1.0, 1.0], [1.0, 2.0], [2.0, 1.0], [0.0, -1000.0]]
    )
    def test_short_axes_match_former_implementation(self, raw, k, tau):
        scores = np.array(raw)
        assert greedy_coalesce(scores, k, tau) == former_greedy_coalesce(scores, k, tau)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 40), st.integers(1, 10))
    def test_disjoint_and_sorted_by_seed_score(self, seed, n, k):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=n)
        out = greedy_coalesce(scores, k, tau=0.5)
        covered = set()
        for iv in out:
            span = set(range(iv.lo, iv.hi + 1))
            assert not span & covered
            covered |= span
        p = np.exp(scores - scores.max())
        p = p / p.sum()
        seed_scores = [max(p[iv.lo : iv.hi + 1]) for iv in out]
        assert seed_scores == sorted(seed_scores, reverse=True)


@pytest.fixture(scope="module")
def ranking_setup():
    kb = kb_from_lines(
        [
            "a\tr\tb\t0\t3",
            "a\tr\tc\t4\t7",
            "a\tq\td\t-\t-",
            "b\tr\ta\t2\t2",
            "c\tr\td\t5\t-",
            "d\tq\ta\t-\t6",
            "b\tq\td\t1\t6",
        ],
        valid_lines=["a\tr\tb\t1\t1", "b\tq\td\t2\t2"],
        test_lines=[
            "a\tr\tb\t2\t3",
            "a\tq\td\t-\t-",
            "c\tr\td\t6\t-",
            "d\tq\ta\t-\t5",
            "b\tq\td\t3\t3",
        ],
        n_entities=9,
    )
    params = ParameterStore.initialize(
        8, kb.n_entities, kb.n_relations, kb.axis.length, rng=np.random.default_rng(21)
    )
    return kb, params


class TestRanking:
    def test_matches_brute_force_rank(self, ranking_setup):
        kb, params = ranking_setup
        rng = np.random.default_rng(0)
        from time2box.model import QueryPlan, box_of_query, score_entities

        for _ in range(40):
            s = int(rng.integers(0, kb.n_entities))
            r = int(rng.integers(0, kb.n_relations))
            t = int(rng.integers(0, kb.axis.length)) if rng.random() < 0.7 else None
            gold = int(rng.integers(0, kb.n_entities))
            (got,) = rank_queries([(s, r, t)], [gold], params, kb)
            scores = score_entities(
                box_of_query(QueryPlan(s, r, () if t is None else (t,)), params), params
            )
            known = (
                kb.filter.atemporal_objects(s, r, splits=("train", "valid"))
                if t is None
                else kb.filter.timed_objects(s, r, t, splits=("train", "valid"))
            )
            assert got == brute_force_rank(scores, gold, known)

    def test_unique_max_gold_ranks_first(self):
        kb = kb_from_lines(["a\tr\tb\t0\t1"], n_entities=4)
        params = ParameterStore.initialize(2, 4, 1, 2)
        params.arrays["entity_emb"][:] = [[0.0, 0.0], [0.0, 0.0], [9.0, 9.0], [-9.0, 9.0]]
        params.arrays["relation_emb"][:] = [[0.0, 0.0]]
        params.arrays["relation_off"][:] = [[0.1, 0.1]]
        # gold b (id 1) sits at the box center; others are far away
        assert rank_queries([(0, 0, None)], [1], params, kb, filter_splits=())[0] <= 2

    def test_pessimistic_ties(self):
        kb = kb_from_lines(["a\tr\tb\t0\t1"], n_entities=4)
        params = ParameterStore.initialize(2, 4, 1, 2)
        params.arrays["entity_emb"][:] = [[5.0, 5.0], [5.0, 5.0], [5.0, 5.0], [5.0, 5.0]]
        params.arrays["relation_emb"][:] = [[0.0, 0.0]]
        params.arrays["relation_off"][:] = [[0.1, 0.1]]
        # all four entities tie: pessimistic rank is 4 even for the gold
        assert rank_queries([(0, 0, None)], [1], params, kb, filter_splits=())[0] == 4

    def test_filtering_removes_known_competitors(self, ranking_setup):
        kb, params = ranking_setup
        a, r = kb.entities.id_of("a"), kb.relations.id_of("r")
        b = kb.entities.id_of("b")
        t = 2
        (unfiltered,) = rank_queries([(a, r, t)], [b], params, kb, filter_splits=())
        (filtered,) = rank_queries([(a, r, t)], [b], params, kb, filter_splits=("train", "valid"))
        assert filtered <= unfiltered

    def test_closed_statement_average(self, ranking_setup):
        kb, params = ranking_setup
        stmt = kb.splits["test"][0]  # a r b [2,3]
        queries = [(stmt.s, stmt.r, t) for t in link_query_times(stmt)]
        ranks = rank_queries(queries, [stmt.o] * len(queries), params, kb)
        assert len(ranks) == 2
        assert eval_link_prediction([stmt], params, kb).overall.mr == pytest.approx(np.mean(ranks))

    def test_nan_model_raises_instead_of_ranking_first(self, ranking_setup):
        kb, params = ranking_setup
        nan_params = params.copy()
        for arr in nan_params.arrays.values():
            arr[:] = np.nan
        with pytest.raises(ev.NonFiniteScoreError, match="non-finite score"):
            rank_queries([(0, 0, None)], [1], nan_params, kb)
        with pytest.raises(ev.NonFiniteScoreError, match="non-finite score"):
            eval_link_prediction(kb.splits["test"], nan_params, kb)


class TestLinkPredictionReport:
    def test_all_rank_one(self):
        block = MetricBlock.from_ranks([1, 1, 1])
        assert block.mrr == 1.0 and block.mr == 1.0
        assert block.hits1 == block.hits3 == block.hits10 == 1.0

    def test_fractional_average_rank_contribution(self):
        block = MetricBlock.from_ranks([2.0])  # per-year ranks (1, 3)
        assert block.mrr == 0.5
        assert block.hits1 == 0.0 and block.hits3 == 1.0

    def test_hits_ordering(self):
        block = MetricBlock.from_ranks([1, 2, 4, 11, 3.5])
        assert block.hits1 <= block.hits3 <= block.hits10

    def test_matches_brute_force_report(self, ranking_setup):
        kb, params = ranking_setup
        report = eval_link_prediction(kb.splits["test"], params, kb)
        oracle = brute_force_link_report(kb.splits["test"], params, kb)
        assert report.overall.mrr == oracle["overall"]["mrr"]
        assert report.overall.mr == oracle["overall"]["mr"]
        for bucket, block in report.by_type.items():
            for key in ("count", "mrr", "mr", "hits1", "hits3", "hits10"):
                assert getattr(block, key) == oracle[bucket][key], (bucket, key)

    def test_matches_brute_force_with_inverses_and_test_filter(self, ranking_setup):
        kb, _ = ranking_setup
        aug = add_inverse_relations(kb)
        params = ParameterStore.initialize(
            8, aug.n_entities, aug.n_relations, aug.axis.length, rng=np.random.default_rng(3)
        )
        splits = ("train", "valid", "test")
        report = eval_link_prediction(aug.splits["test"], params, aug, filter_splits=splits)
        oracle = brute_force_link_report(aug.splits["test"], params, aug, filter_splits=splits)
        assert report.overall.mrr == oracle["overall"]["mrr"]

    def test_adding_test_filter_never_hurts_mrr(self, ranking_setup):
        kb, params = ranking_setup
        r1 = eval_link_prediction(kb.splits["test"], params, kb, filter_splits=("train", "valid"))
        r2 = eval_link_prediction(
            kb.splits["test"], params, kb, filter_splits=("train", "valid", "test")
        )
        assert r2.overall.mrr >= r1.overall.mrr

    def test_report_text_and_tsv(self, ranking_setup):
        kb, params = ranking_setup
        report = eval_link_prediction(kb.splits["test"], params, kb)
        text = report.to_text()
        assert "overall.mrr=" in text and "filter_splits=train,valid" in text
        tsv = report.breakdown_tsv()
        assert tsv.splitlines()[0].startswith("type\tcount\tMRR")
        assert len(tsv.splitlines()) == 1 + 1 + 4  # header, overall, four buckets


@pytest.fixture(scope="module")
def c07_kb():
    kb, _ = generate_synthetic(
        SynthConfig(
            seed=7, n_entities=50, n_relations=5, axis_length=40, n_rules=85, instant_echoes=2
        )
    )
    return add_inverse_relations(kb)


def assert_report_equals_oracle(report, oracle):
    assert set(report.by_type) == set(oracle) - {"overall"}
    blocks = [("overall", report.overall)] + list(report.by_type.items())
    for bucket, block in blocks:
        for key in ("count", "mrr", "mr", "hits1", "hits3", "hits10"):
            assert getattr(block, key) == oracle[bucket][key], (bucket, key)


class TestNonFiniteCompetitor:
    """A non-gold entity scoring NaN or infinity raises instead of never
    outranking the gold, which would silently raise the MRR."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
    def test_untouched_entity_row_raises(self, c07_kb, value):
        kb = c07_kb
        params = ParameterStore.initialize(
            16, kb.n_entities, kb.n_relations, kb.axis.length, rng=np.random.default_rng(0)
        )
        bad = 7
        params.arrays["entity_emb"][bad] = value
        # no query has the row as subject or gold, so every gold scores finite
        statements = [s for s in kb.splits["test"] if bad not in (s.s, s.o)]
        assert len(statements) > 100
        with pytest.raises(ev.NonFiniteScoreError, match=f"non-finite score .* for entity {bad} "):
            eval_link_prediction(statements, params, kb, Variant.parse("te"))

    def test_single_query_raises_on_competitor(self, ranking_setup):
        kb, params = ranking_setup
        params = params.copy()
        params.arrays["entity_emb"][8] = np.nan  # a padding entity
        with pytest.raises(ev.NonFiniteScoreError, match="non-finite score"):
            rank_queries([(0, 0, None)], [1], params, kb)
        with pytest.raises(ev.NonFiniteScoreError, match="non-finite score"):
            eval_link_prediction(kb.splits["test"][:1], params, kb)

    def test_error_names_first_query_in_statement_order(self, ranking_setup):
        kb, params = ranking_setup
        params = params.copy()
        params.arrays["entity_emb"][8] = np.nan
        closed, no_time = kb.splits["test"][0], kb.splits["test"][1]
        assert closed.scope.kind is ScopeKind.CLOSED and no_time.scope.kind is ScopeKind.NO_TIME
        # queries without a timestamp are ranked first, but the error names
        # the first query of the first statement
        first_closed = (closed.s, closed.r, closed.scope.start)
        with pytest.raises(ev.NonFiniteScoreError, match=re.escape(f"of query {first_closed}")):
            eval_link_prediction([closed, no_time], params, kb)
        first_no_time = (no_time.s, no_time.r, None)
        with pytest.raises(ev.NonFiniteScoreError, match=re.escape(f"of query {first_no_time}")):
            eval_link_prediction([no_time, closed], params, kb)


class TestLinkChunks:
    """Chunked link ranking equals the brute-force oracle exactly, whatever
    the chunk size: closed intervals straddle chunk edges, and queries with
    and without a timestamp interleave in statement order."""

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    @pytest.mark.parametrize("variant", ["te", "te,tr", "dm", "dm,tr"])
    def test_matches_oracle(self, ranking_setup, monkeypatch, chunk, variant):
        monkeypatch.setattr(ev, "LINK_CHUNK_QUERIES", chunk)
        kb = add_inverse_relations(ranking_setup[0])
        params = ParameterStore.initialize(
            8, kb.n_entities, kb.n_relations, kb.axis.length, rng=np.random.default_rng(chunk)
        )
        v = Variant.parse(variant)
        statements = kb.splits["train"] + kb.splits["test"] + kb.splits["valid"]
        report = eval_link_prediction(statements, params, kb, v)
        assert_report_equals_oracle(report, brute_force_link_report(statements, params, kb, v))

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    @pytest.mark.parametrize("variant", ["te,tns", "dm,tr,si"])
    def test_matches_oracle_on_c07(self, c07_kb, monkeypatch, chunk, variant):
        monkeypatch.setattr(ev, "LINK_CHUNK_QUERIES", chunk)
        kb = c07_kb
        params = ParameterStore.initialize(
            16, kb.n_entities, kb.n_relations, kb.axis.length, rng=np.random.default_rng(chunk)
        )
        v = Variant.parse(variant)
        statements = kb.splits["test"][:40]
        report = eval_link_prediction(statements, params, kb, v, filter_splits=("train",))
        oracle = brute_force_link_report(statements, params, kb, v, filter_splits=("train",))
        assert_report_equals_oracle(report, oracle)

    @pytest.mark.parametrize("variant", ["te", "te,tns", "dm,tr,si", "te,tr", "dm"])
    @pytest.mark.parametrize("timed", [False, True])
    def test_chunk_scores_equal_single_queries(self, c07_kb, variant, timed):
        """A chunk's boxes keep a singleton axis before every linear map, so
        its scores equal single-query builds bit for bit."""
        from time2box.model import QueryPlan, box_of_query, score_entities

        kb = c07_kb
        rng = np.random.default_rng(len(variant))
        params = ParameterStore.initialize(
            64, kb.n_entities, kb.n_relations, kb.axis.length, rng=rng
        )
        v = Variant.parse(variant)
        queries = [
            (
                int(rng.integers(kb.n_entities)),
                int(rng.integers(kb.n_relations)),
                int(rng.integers(kb.axis.length)) if timed else None,
            )
            for _ in range(200)
        ]
        got = ev._chunk_scores(queries, params, v)
        for row, (s, r, t) in zip(got, queries):
            plan = QueryPlan(s, r, () if t is None else (t,), v.projector_kind, v.use_tr)
            assert np.array_equal(row, score_entities(box_of_query(plan, params), params))

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_single_entity(self, monkeypatch, chunk):
        monkeypatch.setattr(ev, "LINK_CHUNK_QUERIES", chunk)
        kb = kb_from_lines(
            ["a\tr\ta\t0\t4", "a\tq\ta\t-\t-", "a\tr\ta\t2\t-"],
            test_lines=["a\tr\ta\t1\t3", "a\tq\ta\t-\t-", "a\tq\ta\t-\t2"],
        )
        assert kb.n_entities == 1
        params = ParameterStore.initialize(4, 1, kb.n_relations, kb.axis.length)
        statements = kb.splits["test"]
        report = eval_link_prediction(statements, params, kb)
        assert_report_equals_oracle(report, brute_force_link_report(statements, params, kb))
        assert report.overall.mrr == 1.0

    def test_no_statements(self, ranking_setup):
        kb, params = ranking_setup
        report = eval_link_prediction([], params, kb)
        assert report.overall == MetricBlock() and report.by_type == {}
        assert len(ev.rank_queries([], [], params, kb)) == 0

    def test_chunk_size_bounds_scores(self):
        assert ev.link_chunk_size(50) == ev.LINK_CHUNK_QUERIES
        assert ev.link_chunk_size(ev.LINK_CHUNK_SCORES // 3) == 3
        assert ev.link_chunk_size(12544) == 1


class TestLinkMemory:
    def test_peak_set_by_chunk_not_statements(self, c07_kb):
        """tracemalloc peak of the full c07 test split stays under a fixed
        bound and near the peak of its first ~120 queries."""
        kb = c07_kb
        params = ParameterStore.initialize(
            64, kb.n_entities, kb.n_relations, kb.axis.length, rng=np.random.default_rng(0)
        )
        v = Variant.parse("te,tns")
        full = kb.splits["test"]
        assert sum(len(ev.link_query_times(s)) for s in full) == 1904
        first, n_queries = [], 0
        while n_queries < 120:
            first.append(full[len(first)])
            n_queries += len(ev.link_query_times(first[-1]))

        def peak(statements):
            tracemalloc.start()
            try:
                eval_link_prediction(statements, params, kb, v)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        full_peak, first_peak = peak(full), peak(first)
        assert full_peak < 8 * 2**20
        assert full_peak < 1.5 * first_peak


class TestTimePrediction:
    def test_score_timeline_length_and_monotonicity(self, ranking_setup):
        kb, params = ranking_setup
        from time2box import autodiff as ad
        from time2box.model import QueryPlan, box_of_query, box_scores

        timeline = score_timeline(0, 0, 1, params, kb)
        assert timeline.shape == (kb.axis.length,)
        # scores order inversely with distances
        dists, singles = [], []
        obj = params.arrays["entity_emb"][1]
        for t in range(kb.axis.length):
            box = box_of_query(QueryPlan(0, 0, (t,)), params)
            dists.append(float(ad.box_distance(obj, box.center, box.offset, params.alpha).value))
            singles.append(
                box_scores(obj, box.center_value(), box.offset_value(), params.gamma, params.alpha)
            )
        order_by_score = np.argsort(-timeline)
        order_by_dist = np.argsort(dists)
        np.testing.assert_array_equal(order_by_score, order_by_dist)
        # the batched timeline equals one single-query box per timestamp
        np.testing.assert_allclose(timeline, singles, rtol=1e-12)

    def test_perfect_first_interval_scores_one(self, ranking_setup, monkeypatch):
        kb, params = ranking_setup
        stmt = Statement(0, 0, 1, TimeScope.closed(2, 4))
        spiked = np.full(kb.axis.length, -40.0)
        spiked[2:5] = 10.0
        monkeypatch.setattr(
            ev, "_chunk_timelines", lambda s, *a, **k: np.tile(spiked, (len(s), 1))
        )
        report = eval_time_prediction([stmt], params, kb)
        assert report.overall["giou@1"] == 1.0
        assert report.overall["aeiou@1"] == 1.0
        assert report.overall["gaeiou@1"] == 1.0

    def test_at_10_upper_bounds_at_1(self, ranking_setup):
        kb, params = ranking_setup
        report = eval_time_prediction(kb.splits["test"], params, kb)
        for name in ("giou", "aeiou", "gaeiou"):
            assert report.overall[f"{name}@10"] >= report.overall[f"{name}@1"]

    def test_half_open_and_no_time_are_skipped(self, ranking_setup):
        kb, params = ranking_setup
        report = eval_time_prediction(kb.splits["test"], params, kb)
        kinds = [s.scope.kind.value for s in kb.splits["test"]]
        expected_skipped = sum(k in ("right-open", "left-open", "no-time") for k in kinds)
        assert report.n_skipped == expected_skipped
        assert report.n_evaluated == len(kinds) - expected_skipped

    def test_instant_gold_becomes_degenerate_interval(self):
        stmt = Statement(0, 0, 1, TimeScope.instant(7))
        assert gold_interval(stmt) == Interval(7, 7)

    def test_duration_buckets(self):
        assert ev.duration_bucket(1) == "du=1"
        assert ev.duration_bucket(5) == "1<du<=5"
        assert ev.duration_bucket(6) == "du>5"

    def test_report_formats(self, ranking_setup):
        kb, params = ranking_setup
        report = eval_time_prediction(kb.splits["test"], params, kb)
        assert "gaeiou@1=" in report.to_text()
        lines = report.breakdown_tsv().splitlines()
        assert lines[0].startswith("bucket\tcount")
        assert len(lines) == 1 + 1 + 3


    @pytest.mark.parametrize("k, tau", [(0, 0.5), (10, 0.0), (10, 1.5), (10, float("nan"))])
    def test_bad_k_or_tau_raises_before_scoring(self, ranking_setup, monkeypatch, k, tau):
        kb, params = ranking_setup

        def no_scoring(*args, **kwargs):
            raise AssertionError("a timeline was scored before k and tau were checked")

        monkeypatch.setattr(ev, "_chunk_timelines", no_scoring)
        unevaluable = [s for s in kb.splits["test"] if gold_interval(s) is None]
        for statements in (kb.splits["test"], unevaluable):
            with pytest.raises(ValueError, match="must"):
                eval_time_prediction(statements, params, kb, k=k, tau=tau)


class TestTimeChunks:
    """Time prediction scores the statements, grouped by relation, in chunks
    that run across relations; each chunk's timelines equal one-statement
    builds bit for bit, whatever the chunk size, with relations interleaved
    in statement order."""

    @staticmethod
    def spy(monkeypatch):
        calls = []
        scorer = ev._chunk_timelines

        def recording(s, r, o, *args):
            timelines = scorer(s, r, o, *args)
            calls.append((s.tolist(), r.tolist(), o.tolist(), timelines))
            return timelines

        monkeypatch.setattr(ev, "_chunk_timelines", recording)
        return calls

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    @pytest.mark.parametrize("variant", ["te", "te,tns", "dm,tr,si", "te,tr", "dm"])
    def test_chunks_equal_single_statements(self, c07_kb, monkeypatch, chunk, variant):
        kb = c07_kb
        d = 16
        monkeypatch.setattr(ev, "TIME_CHUNK_ELEMENTS", chunk * kb.axis.length * d)
        params = ParameterStore.initialize(
            d, kb.n_entities, kb.n_relations, kb.axis.length, rng=np.random.default_rng(chunk)
        )
        v = Variant.parse(variant)
        statements = kb.splits["test"]
        assert len({s.r for s in statements[:4]}) > 1  # relations interleave
        calls = self.spy(monkeypatch)
        report = eval_time_prediction(statements, params, kb, v)

        assert max(len(s) for s, _, _, _ in calls) == chunk
        if chunk > 1:
            assert any(len(set(relations)) > 1 for _, relations, _, _ in calls)
        scored = []
        for subjects, relations, objects, timelines in calls:
            assert timelines.shape == (len(subjects), kb.axis.length)
            for s, r, o, timeline in zip(subjects, relations, objects, timelines):
                assert np.array_equal(timeline, former_score_timeline(s, r, o, params, kb, v))
                scored.append((s, r, o))
        evaluable = [(s.s, s.r, s.o) for s in statements if gold_interval(s) is not None]
        assert sorted(scored) == sorted(evaluable)
        want = former_eval_time_prediction(statements, params, kb, v)
        assert report.to_text() == want.to_text()

    @pytest.mark.parametrize("variant", ["te", "dm,tr,si"])
    def test_score_timeline_equals_single_statement_build(self, c07_kb, variant):
        kb = c07_kb
        params = ParameterStore.initialize(
            16, kb.n_entities, kb.n_relations, kb.axis.length, rng=np.random.default_rng(3)
        )
        v = Variant.parse(variant)
        for stmt in kb.splits["test"][:50]:
            assert np.array_equal(
                score_timeline(stmt.s, stmt.r, stmt.o, params, kb, v),
                former_score_timeline(stmt.s, stmt.r, stmt.o, params, kb, v),
            )

    def test_nothing_evaluable_scores_nothing(self, c07_kb, monkeypatch):
        kb = c07_kb
        params = ParameterStore.initialize(8, kb.n_entities, kb.n_relations, kb.axis.length)
        calls = self.spy(monkeypatch)
        unevaluable = [s for s in kb.splits["test"] if gold_interval(s) is None]
        assert unevaluable
        for statements in (unevaluable, []):
            report = eval_time_prediction(statements, params, kb)
            assert (report.n_evaluated, report.n_skipped) == (0, len(statements))
            assert report.overall == {} and report.by_duration == {}
        assert calls == []

    def test_chunk_size(self):
        assert ev.time_chunk_size(40, 64) == 25
        assert ev.time_chunk_size(200, 64) == 5
        assert ev.time_chunk_size(10**6, 64) == 1

    def test_non_finite_names_first_statement_in_statement_order(self, c07_kb, monkeypatch):
        """Statement 1 (relation 1) is the first non-finite one, but its
        relation group is scored after relation 0's, whose only non-finite
        statement comes later: in a later chunk, or with chunk 5 at an
        earlier row of the same chunk."""
        kb = c07_kb
        params = ParameterStore.initialize(
            8, kb.n_entities, kb.n_relations, kb.axis.length, rng=np.random.default_rng(0)
        )
        params.arrays["entity_emb"][[3, 4]] = np.nan
        gold = TimeScope.closed(2, 5)
        statements = [
            Statement(0, 0, 1, gold),
            Statement(0, 1, 3, gold),
            Statement(2, 0, 5, gold),
            Statement(0, 0, 4, gold),
            Statement(2, 1, 6, gold),
        ]
        for chunk in (1, 2, 5):
            monkeypatch.setattr(ev, "TIME_CHUNK_ELEMENTS", chunk * kb.axis.length * 8)
            with pytest.raises(
                ev.NonFiniteScoreError,
                match=re.escape("at timestamp 0 of statement (0, 1, 3)"),
            ):
                eval_time_prediction(statements, params, kb)
            with pytest.raises(
                ev.NonFiniteScoreError,
                match=re.escape("at timestamp 0 of statement (0, 0, 4)"),
            ):
                eval_time_prediction(statements[:1] + statements[2:], params, kb)


class TestSharedTimelineBoxes:
    """Statements of one (relation, subject) pair share a timeline box.
    Subjects 0 and 2 have several objects in relations 0 and 1, interleaved
    with other subjects in statement order; with 3 statements per chunk,
    subject 0's statements of relation 0 fill more than one chunk, some
    chunks hold one subject more than once, and one chunk holds both
    relations."""

    D = 16
    CHUNK = 3

    @staticmethod
    def statements():
        closed, instant = TimeScope.closed, TimeScope.instant
        return [
            Statement(0, 0, 1, closed(2, 5)),
            Statement(0, 1, 7, closed(10, 12)),
            Statement(3, 0, 1, instant(4)),
            Statement(0, 0, 2, instant(20)),
            Statement(2, 1, 8, closed(0, 39)),
            Statement(0, 0, 3, closed(30, 31)),
            Statement(2, 0, 9, closed(5, 9)),
            Statement(0, 1, 11, instant(3)),
            Statement(0, 0, 4, closed(1, 1)),
            Statement(3, 0, 6, TimeScope.right_open(3)),  # not evaluable
            Statement(2, 1, 12, closed(15, 25)),
            Statement(0, 0, 5, closed(7, 8)),
            Statement(0, 1, 13, closed(33, 36)),
        ]

    def params(self, kb, seed=0):
        return ParameterStore.initialize(
            self.D, kb.n_entities, kb.n_relations, kb.axis.length, rng=np.random.default_rng(seed)
        )

    def chunked(self, monkeypatch, kb, chunk=CHUNK):
        monkeypatch.setattr(ev, "TIME_CHUNK_ELEMENTS", chunk * kb.axis.length * self.D)

    @pytest.mark.parametrize("variant", ["te,tns", "dm,tr,si", "te,tr"])
    def test_timelines_equal_single_statement_builds(self, c07_kb, monkeypatch, variant):
        kb = c07_kb
        params, v = self.params(kb), Variant.parse(variant)
        self.chunked(monkeypatch, kb)
        calls = TestTimeChunks.spy(monkeypatch)
        built = []
        build = ev.query_box

        def recording_build(params, variant, s, *args):
            built.append(np.size(s))
            return build(params, variant, s, *args)

        monkeypatch.setattr(ev, "query_box", recording_build)
        statements = self.statements()
        eval_time_prediction(statements, params, kb, v)
        chunks, boxes = list(calls), list(built)  # score_timeline below records its own calls

        scored = []
        for subjects, relations, objects, timelines in chunks:
            for s, r, o, timeline in zip(subjects, relations, objects, timelines):
                assert np.array_equal(timeline, former_score_timeline(s, r, o, params, kb, v))
                assert np.array_equal(timeline, score_timeline(s, r, o, params, kb, v))
                scored.append((s, r, o))
        evaluable = [(s.s, s.r, s.o) for s in statements if gold_interval(s) is not None]
        assert sorted(scored) == sorted(evaluable)
        pairs = [list(zip(relations, subjects)) for subjects, relations, _, _ in chunks]
        # the case under test: repeated subjects inside a chunk, one
        # subject's statements of a relation over more than one chunk, and a
        # chunk that holds two relations
        assert any(len(set(subjects)) < len(subjects) for subjects, _, _, _ in chunks)
        assert sum((0, 0) in chunk_pairs for chunk_pairs in pairs) > 1
        assert any(len(set(relations)) > 1 for _, relations, _, _ in chunks)
        # statements come grouped by relation, and within a relation by
        # subject, both in order of first appearance
        order = [pair for chunk_pairs in pairs for pair in chunk_pairs]
        assert order == sorted(order, key=order.index)
        relation_order = [r for r, _ in order]
        assert relation_order == sorted(relation_order, key=relation_order.index)
        assert list(dict.fromkeys(relation_order)) == list(
            dict.fromkeys(r for _, r, _ in evaluable)
        )
        for relation in set(relation_order):
            subjects = [s for r, s in order if r == relation]
            assert list(dict.fromkeys(subjects)) == list(
                dict.fromkeys(s for s, r, _ in evaluable if r == relation)
            )
        # one query_box call per chunk, with one box per run of equal pairs
        runs = [1 + sum(a != b for a, b in zip(p, p[1:])) for p in pairs]
        assert boxes == runs

    @pytest.mark.parametrize("variant", ["te,tns", "dm,tr,si"])
    def test_relation_change_starts_a_new_box(self, c07_kb, monkeypatch, variant):
        """Relation 0's last subject is relation 1's first: the two
        statements sit next to each other in one chunk but get their own
        boxes, and the chunk is one query_box call."""
        kb = c07_kb
        params, v = self.params(kb, seed=2), Variant.parse(variant)
        calls = TestTimeChunks.spy(monkeypatch)
        built = []
        build = ev.query_box

        def recording_build(params, variant, s, r, *args):
            built.append((np.ravel(s).tolist(), np.ravel(r).tolist()))
            return build(params, variant, s, r, *args)

        monkeypatch.setattr(ev, "query_box", recording_build)
        closed = TimeScope.closed
        statements = [
            Statement(5, 0, 3, closed(2, 5)),
            Statement(0, 0, 1, closed(10, 12)),
            Statement(0, 1, 2, closed(0, 39)),
            Statement(0, 0, 4, closed(7, 7)),
            Statement(0, 1, 6, closed(20, 22)),
        ]
        got = eval_time_prediction(statements, params, kb, v)
        ((subjects, relations, objects, timelines),) = calls
        assert (subjects, relations) == ([5, 0, 0, 0, 0], [0, 0, 0, 1, 1])
        assert built == [([5, 0, 0], [0, 0, 1])]
        for s, r, o, timeline in zip(subjects, relations, objects, timelines):
            assert np.array_equal(timeline, former_score_timeline(s, r, o, params, kb, v))
        want = former_eval_time_prediction(statements, params, kb, v)
        assert got.to_text() == want.to_text()

    @pytest.mark.parametrize("k, tau", [(10, 0.95), (3, 0.5), (50, 1e-3), (1, 1.0)])
    def test_report_equals_per_statement_loop(self, c07_kb, monkeypatch, k, tau):
        kb = c07_kb
        params, v = self.params(kb, seed=1), Variant.parse("te,tns")
        self.chunked(monkeypatch, kb)
        statements = self.statements()
        got = eval_time_prediction(statements, params, kb, v, k=k, tau=tau)
        for coalesce in (greedy_coalesce, former_greedy_coalesce):
            want = former_eval_time_prediction(statements, params, kb, v, k, tau, coalesce)
            assert got.to_text() == want.to_text()
            assert got.breakdown_tsv() == want.breakdown_tsv()

    @pytest.mark.parametrize("chunk", [1, 2, 4])
    def test_non_finite_names_first_statement_in_statement_order(
        self, c07_kb, monkeypatch, chunk
    ):
        """Objects 4 and 5 have NaN embeddings. Grouped by subject, relation
        0's statements run 0, 2, 3, 1: statement 2, (0, 0, 4), is scored
        before statement 1, (2, 0, 5), and with chunk 4 in the same chunk
        at an earlier row. Without statement 1, the first non-finite one is
        (0, 0, 4), whose subject's earlier statement is finite."""
        kb = c07_kb
        params = self.params(kb)
        params.arrays["entity_emb"][[4, 5]] = np.nan
        self.chunked(monkeypatch, kb, chunk)
        gold = TimeScope.closed(2, 5)
        statements = [
            Statement(0, 0, 1, gold),
            Statement(2, 0, 5, gold),
            Statement(0, 0, 4, gold),
            Statement(0, 0, 6, gold),
        ]
        with pytest.raises(
            ev.NonFiniteScoreError, match=re.escape("at timestamp 0 of statement (2, 0, 5)")
        ):
            eval_time_prediction(statements, params, kb)
        with pytest.raises(
            ev.NonFiniteScoreError, match=re.escape("at timestamp 0 of statement (0, 0, 4)")
        ):
            eval_time_prediction(statements[:1] + statements[2:], params, kb)

    # (B, T) timelines of tied scores
    tied_rows = st.integers(1, 30).flatmap(
        lambda n: st.lists(st.lists(TIED_VALUE, min_size=n, max_size=n), min_size=1, max_size=6)
    )

    @settings(max_examples=200, deadline=None)
    @given(tied_rows, st.integers(1, 40), st.sampled_from([1e-6, 0.3, 0.95, 1.0]))
    def test_batched_coalescing_equals_rows(self, rows, k, tau):
        timelines = np.array(rows)
        flat = ev._coalesce_rows(timelines, k, tau)
        assert len(flat) == len(rows)
        for row, bounds in zip(timelines, flat):
            want = greedy_coalesce(row, k, tau)
            assert want == former_greedy_coalesce(row, k, tau)
            assert bounds == [b for iv in want for b in (iv.lo, iv.hi)]


class TestTimeMemory:
    def test_peak_set_by_chunk_not_statements(self, c07_kb):
        """tracemalloc peak of ten passes over the c07 test split at d=64
        (5,200 evaluable statements, whose timelines alone would take 1.6 MiB)
        stays under a fixed bound and near the peak of the split's shortest
        prefix that fills one whole chunk."""
        kb = c07_kb
        params = ParameterStore.initialize(
            64, kb.n_entities, kb.n_relations, kb.axis.length, rng=np.random.default_rng(0)
        )
        v = Variant.parse("te,tns")
        full = kb.splits["test"] * 10
        size = ev.time_chunk_size(kb.axis.length, params.d)
        assert size == 25
        first = []
        while sum(gold_interval(stmt) is not None for stmt in first) < size:
            first.append(full[len(first)])
        assert len(first) < len(kb.splits["test"]) // 10

        def peak(statements):
            tracemalloc.start()
            try:
                eval_time_prediction(statements, params, kb, v)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        full_peak, first_peak = peak(full), peak(first)
        assert full_peak < 6 * 2**20
        assert full_peak < 1.5 * first_peak


class TestTimePredictionMatchesFormerLoop:
    """eval_time_prediction's report equals the per-statement scalar loop's,
    to the bit, on c07-shaped data (40-year axis) with random parameters."""

    @pytest.fixture(scope="class")
    def c07_test_statements(self):
        kb, _ = generate_synthetic(
            SynthConfig(
                seed=7, n_entities=50, n_relations=5, axis_length=40, n_rules=85, instant_echoes=2
            )
        )
        kb = add_inverse_relations(kb)
        forward = [s for s in kb.splits["test"] if s.r < kb.n_base_relations]
        return kb, forward

    @pytest.mark.parametrize(
        "variant, k, tau, selection, seed",
        [
            ("te,tns", 10, 0.95, "all", 0),
            ("te,tns", 10, 0.5, "all", 1),
            ("dm,tr,si", 1, 1.0, "all", 2),
            ("te", 50, 0.95, "all", 3),  # k > 40 timestamps: ragged predictions
            ("dm,tr", 60, 1e-3, "all", 4),
            ("te,tns", 10, 0.95, "instants", 5),  # two empty duration buckets
            ("te,tns", 10, 0.95, "unevaluable", 6),
        ],
    )
    def test_reports_byte_equal(self, c07_test_statements, variant, k, tau, selection, seed):
        kb, forward = c07_test_statements
        statements = {
            "all": forward,
            "instants": [s for s in forward if s.scope.kind is ScopeKind.INSTANT],
            "unevaluable": [s for s in forward if gold_interval(s) is None],
        }[selection]
        assert statements
        params = ParameterStore.initialize(
            16, kb.n_entities, kb.n_relations, kb.axis.length, rng=np.random.default_rng(seed)
        )
        v = Variant.parse(variant)
        got = eval_time_prediction(statements, params, kb, v, k=k, tau=tau)
        want = former_eval_time_prediction(statements, params, kb, v, k=k, tau=tau)
        assert got.to_text() == want.to_text()
        assert got.breakdown_tsv() == want.breakdown_tsv()
        assert (got.overall, got.by_duration, got.counts) == (
            want.overall,
            want.by_duration,
            want.counts,
        )
        if selection == "unevaluable":
            assert got.n_evaluated == 0 and got.overall == {}
        if selection == "instants":
            assert set(got.by_duration) == {"du=1"}


class TestRandomBaseline:
    def test_baseline_bounded_and_deterministic(self):
        golds = [Interval(3, 6), Interval(0, 0), Interval(10, 19)]
        b1 = random_interval_baseline(golds, 40, trials=50, rng=np.random.default_rng(5))
        b2 = random_interval_baseline(golds, 40, trials=50, rng=np.random.default_rng(5))
        assert b1 == b2
        assert 0.0 < b1 < 1.0

    def test_more_candidates_score_higher(self):
        golds = [Interval(3, 6)]
        b1 = random_interval_baseline(golds, 40, k=1, trials=200, rng=np.random.default_rng(0))
        b10 = random_interval_baseline(golds, 40, k=10, trials=200, rng=np.random.default_rng(0))
        assert b10 > b1
