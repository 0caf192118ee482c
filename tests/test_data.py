import dataclasses
import gc
import itertools
import pathlib
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from time2box import data
from time2box.data import (
    DatasetError,
    ScopeKind,
    Statement,
    SynthConfig,
    TimeAxis,
    TimeScope,
    Vocab,
    add_inverse_relations,
    build_kb,
    discretize,
    format_statement,
    generate_synthetic,
    load_dataset,
    parse_statement,
    scope_span,
)
from time2box.evaluation import Interval, gold_interval, link_query_times
from time2box.model import Variant
from time2box.training import plan_for_statement, sample_entity_negatives, sample_time_negatives


def parse_line(line):
    return parse_statement(line, Vocab(), Vocab())


class TestParse:
    def test_closed_interval(self):
        stmt = parse_line("Einstein\temployer\tPrinceton\t1933\t1955")
        assert stmt.scope == TimeScope.closed(1933, 1955)

    def test_instant(self):
        stmt = parse_line("Einstein\tacademicDegree\tPhD\t1906\t1906")
        assert stmt.scope == TimeScope.instant(1906)
        assert stmt.scope.kind is ScopeKind.INSTANT

    def test_no_time(self):
        stmt = parse_line("A\tinstanceOf\tHuman\t-\t-")
        assert stmt.scope == TimeScope.no_time()

    def test_half_open(self):
        assert parse_line("a\tr\tb\t1905\t-").scope == TimeScope.right_open(1905)
        assert parse_line("a\tr\tb\t-\t1950").scope == TimeScope.left_open(1950)

    @pytest.mark.parametrize(
        "line,fragment",
        [
            ("a\tr\tb\t1990", "5 tab-separated columns"),
            ("a\tr\tb\t19x0\t1991", "non-integer year"),
            ("a\tr\tb\t1991\t1990", "start 1991 > end 1990"),
        ],
    )
    def test_errors_carry_line_number(self, line, fragment):
        with pytest.raises(DatasetError, match=fragment) as exc:
            parse_statement(line, Vocab(), Vocab(), line_no=17)
        assert "line 17" in str(exc.value)

    @pytest.mark.parametrize(
        "text",
        ["19_92", " 1992", "1992 ", "+1992", "\u0661\u0669\u0669\u0662", "1992\r", "--1992", "1e3"],
    )
    @pytest.mark.parametrize("column", ["start", "end"])
    def test_year_is_optional_minus_and_ascii_digits(self, text, column):
        """int() takes all but the last two; a year column takes none."""
        cols = (text, "2000") if column == "start" else ("1900", text)
        with pytest.raises(DatasetError) as exc:
            parse_statement("a\tr\tb\t" + "\t".join(cols), Vocab(), Vocab(), line_no=9)
        assert str(exc.value) == f"non-integer year {text!r} (line 9)"

    def test_vocab_ids_first_seen(self):
        ents, rels = Vocab(), Vocab()
        parse_statement("x\tr\ty\t-\t-", ents, rels)
        parse_statement("y\tr2\tz\t-\t-", ents, rels)
        assert ents.labels == ["x", "y", "z"]
        assert rels.labels == ["r", "r2"]

    def test_alternate_missing_sentinel(self):
        stmt = parse_statement("a\tr\tb\t####\t1999", Vocab(), Vocab(), missing="####")
        assert stmt.scope == TimeScope.left_open(1999)


years = st.integers(min_value=-500, max_value=3000)
labels = st.text(
    st.characters(codec="utf-8", exclude_characters="\t\n\r", categories=("L", "N", "P")),
    min_size=1,
    max_size=12,
)


@st.composite
def scope_columns(draw):
    kind = draw(st.sampled_from(list(ScopeKind)))
    if kind is ScopeKind.NO_TIME:
        return "-", "-"
    if kind is ScopeKind.INSTANT:
        y = draw(years)
        return str(y), str(y)
    if kind is ScopeKind.RIGHT_OPEN:
        return str(draw(years)), "-"
    if kind is ScopeKind.LEFT_OPEN:
        return "-", str(draw(years))
    a, b = sorted(draw(st.tuples(years, years)))
    return str(a), str(b + 1 if a == b else b)


@given(labels, labels, labels, scope_columns())
def test_parse_format_round_trip(s, r, o, cols):
    line = "\t".join((s, r, o, *cols))
    ents, rels = Vocab(), Vocab()
    stmt = parse_statement(line, ents, rels)
    assert format_statement(stmt, ents, rels) == line


class TestDiscretize:
    def test_closed_length(self):
        assert len(discretize(TimeScope.closed(1933, 1955))) == 23

    def test_known_endpoint_only(self):
        assert discretize(TimeScope.right_open(1905)) == [1905]
        assert discretize(TimeScope.left_open(1950)) == [1950]

    def test_instant(self):
        assert discretize(TimeScope.instant(2015)) == [2015]

    def test_no_time_rejected(self):
        with pytest.raises(ValueError):
            discretize(TimeScope.no_time())

    @given(st.integers(0, 200), st.integers(0, 50))
    def test_closed_enumerates_consecutively(self, st_, width):
        ts = discretize(TimeScope.closed(st_, st_ + width))
        assert ts == list(range(st_, st_ + width + 1))


def write_split(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


@pytest.fixture
def tiny_dataset(tmp_path):
    write_split(
        tmp_path / "train.txt",
        [
            "a\tworksFor\tx\t1990\t1995",
            "a\tworksFor\ty\t1996\t2000",
            "b\tworksFor\tx\t1992\t1992",
            "a\tbornIn\tz\t-\t-",
            "b\tlivesIn\tz\t1991\t-",
        ],
    )
    write_split(tmp_path / "valid.txt", ["a\tworksFor\tx\t1991\t1991"])
    write_split(tmp_path / "test.txt", ["a\tworksFor\ty\t1997\t1997", "c\tworksFor\tx\t1980\t1980"])
    return tmp_path


class TestLoadDataset:
    def test_counts_and_axis(self, tiny_dataset):
        kb = load_dataset(
            tiny_dataset / "train.txt", tiny_dataset / "valid.txt", tiny_dataset / "test.txt"
        )
        assert [len(kb.splits[sp]) for sp in ("train", "valid", "test")] == [5, 1, 2]
        assert kb.axis.origin == 1990 and kb.axis.last_year == 2000
        assert kb.n_entities == 6  # a, x, y, b, z, c
        assert kb.n_relations == 3

    def test_out_of_span_clamped(self, tiny_dataset):
        kb = load_dataset(
            tiny_dataset / "train.txt", tiny_dataset / "valid.txt", tiny_dataset / "test.txt"
        )
        clamped = kb.splits["test"][1]
        assert clamped.scope.start == 0  # 1980 clamped to axis origin 1990

    def test_axis_completeness(self, tiny_dataset):
        kb = load_dataset(
            tiny_dataset / "train.txt", tiny_dataset / "valid.txt", tiny_dataset / "test.txt"
        )
        for sp in data.SPLITS:
            for stmt in kb.splits[sp]:
                if stmt.scope.is_temporal:
                    for t in discretize(stmt.scope, kb.axis):
                        assert 0 <= t < kb.axis.length

    def test_degenerate_single_year_axis(self, tmp_path):
        write_split(tmp_path / "train.txt", ["a\tr\tb\t2000\t2000"])
        write_split(tmp_path / "valid.txt", [])
        write_split(tmp_path / "test.txt", [])
        kb = load_dataset(tmp_path / "train.txt", tmp_path / "valid.txt", tmp_path / "test.txt")
        assert kb.axis == TimeAxis(origin=2000, length=1)

    def test_empty_train_rejected(self, tmp_path):
        for name in ("train", "valid", "test"):
            write_split(tmp_path / f"{name}.txt", [])
        with pytest.raises(DatasetError, match="empty"):
            load_dataset(tmp_path / "train.txt", tmp_path / "valid.txt", tmp_path / "test.txt")

    def test_timed_filter_covers_exact_interval(self, tiny_dataset):
        kb = load_dataset(
            tiny_dataset / "train.txt", tiny_dataset / "valid.txt", tiny_dataset / "test.txt"
        )
        a = kb.entities.id_of("a")
        x = kb.entities.id_of("x")
        works = kb.relations.id_of("worksFor")
        for year in range(1990, 1996):
            t = kb.axis.index_of(year)
            assert x in kb.filter.timed_objects(a, works, t, splits=("train",))
        for year in range(1996, 2001):
            t = kb.axis.index_of(year)
            assert x not in kb.filter.timed_objects(a, works, t, splits=("train",))
        assert kb.filter.atemporal_objects(a, works, splits=("train",)) == {
            x,
            kb.entities.id_of("y"),
        }


class TestInverseAugmentation:
    def test_doubles_relations_and_statements(self, tiny_dataset):
        kb = load_dataset(
            tiny_dataset / "train.txt", tiny_dataset / "valid.txt", tiny_dataset / "test.txt"
        )
        aug = add_inverse_relations(kb)
        assert aug.n_relations == 2 * kb.n_relations
        assert aug.n_base_relations == kb.n_relations
        assert len(aug.splits["train"]) == 2 * len(kb.splits["train"])
        assert add_inverse_relations(aug) is aug

    def test_mirrored_filter_entries(self, tiny_dataset):
        kb = load_dataset(
            tiny_dataset / "train.txt", tiny_dataset / "valid.txt", tiny_dataset / "test.txt"
        )
        aug = add_inverse_relations(kb)
        a = aug.entities.id_of("a")
        x = aug.entities.id_of("x")
        inv = aug.relations.id_of("worksFor^-1")
        t = aug.axis.index_of(1992)
        assert a in aug.filter.timed_objects(x, inv, t, splits=("train",))


class TestSyntheticGenerator:
    CFG = SynthConfig(seed=7, n_entities=50, n_relations=5, axis_length=40, n_rules=60)

    def test_deterministic(self):
        kb1, man1 = generate_synthetic(self.CFG)
        kb2, man2 = generate_synthetic(self.CFG)
        assert man1 == man2
        assert statement_lists(kb1) == statement_lists(kb2)

    def test_seeds_differ(self):
        _, man1 = generate_synthetic(self.CFG)
        _, man2 = generate_synthetic(SynthConfig(**{**self.CFG.__dict__, "seed": 8}))
        assert man1 != man2

    def test_splits_disjoint(self):
        kb, _ = generate_synthetic(self.CFG)
        seen = [set(kb.splits[sp]) for sp in data.SPLITS]
        assert not (seen[0] & seen[1]) and not (seen[0] & seen[2]) and not (seen[1] & seen[2])

    def test_manifest_matches_planted_timeline(self):
        kb, manifest = generate_synthetic(self.CFG)
        # replay the rule table: closed train rows define the planted objects
        planted = {}
        for s, r, o, start, end, split in manifest:
            if split == "train" and start != "-" and end != "-":
                for year in range(int(start), int(end) + 1):
                    planted.setdefault((s, r, year), set()).add(o)
        # every emitted statement's object is valid per the planted timeline
        checked = 0
        for s, r, o, start, end, split in manifest:
            if start != "-" and start == end and (s, r, int(start)) in planted:
                assert o in planted[(s, r, int(start))]
                checked += 1
        assert checked > 100

    def test_timed_filter_agrees_with_manifest(self):
        kb, manifest = generate_synthetic(self.CFG)
        for s, r, o, start, end, split in manifest:
            if start == "-" or end == "-":
                continue
            sid = kb.entities.id_of(s)
            rid = kb.relations.id_of(r)
            oid = kb.entities.id_of(o)
            for year in range(int(start), int(end) + 1):
                t = kb.axis.index_of(year)
                assert oid in kb.filter.timed_objects(sid, rid, t, splits=(split,))

    def test_infeasible_config_rejected(self):
        with pytest.raises(DatasetError, match="capacity"):
            generate_synthetic(SynthConfig(seed=1, n_entities=3, n_relations=2, axis_length=10, n_rules=7))

    def test_write_and_reload_round_trip(self, tmp_path):
        kb, manifest = generate_synthetic(self.CFG)
        data.write_dataset(kb, tmp_path, manifest)
        reloaded = load_dataset(tmp_path / "train.txt", tmp_path / "valid.txt", tmp_path / "test.txt")
        assert reloaded.axis == kb.axis
        assert reloaded.n_entities == kb.n_entities
        for sp in data.SPLITS:
            assert len(reloaded.splits[sp]) == len(kb.splits[sp])
            assert set(reloaded.splits[sp]) == {
                data.Statement(
                    reloaded.entities.id_of(kb.entities.labels[st.s]),
                    reloaded.relations.id_of(kb.relations.labels[st.r]),
                    reloaded.entities.id_of(kb.entities.labels[st.o]),
                    st.scope,
                )
                for st in kb.splits[sp]
            }

        # the generated KB and its reload hold one scope object per distinct
        # scope; mirroring either gives the same statements and the same
        # rows, in order under each key (the two number their vocabularies
        # differently, so both are read as labels)
        def labelled(kb):
            ents, rels = kb.entities.labels, kb.relations.labels
            stmts = [
                (sp, ents[st.s], rels[st.r], ents[st.o], st.scope)
                for sp in data.SPLITS
                for st in kb.splits[sp]
            ]
            rows = {
                (sp, ents[s], rels[r]): [(ents[o], lo, hi) for o, lo, hi in key_rows]
                for sp, keyed in filter_rows(kb).items()
                for (s, r), key_rows in keyed.items()
            }
            return stmts, rows

        def scope_objects(kb):
            """Distinct scope objects and distinct scope values."""
            scopes = [st.scope for sp in data.SPLITS for st in kb.splits[sp]]
            return len({id(scope) for scope in scopes}), len(set(scopes))

        n_stmts = sum(len(kb.splits[sp]) for sp in data.SPLITS)
        n_objects, n_values = scope_objects(kb)
        assert n_objects == n_values < n_stmts // 2
        assert scope_objects(reloaded) == (n_values, n_values)
        mirrored = add_inverse_relations(kb)
        assert labelled(add_inverse_relations(reloaded)) == labelled(mirrored)
        assert filter_rows(mirrored) == rows_in_statement_order(mirrored)


def test_eval_only_vocabulary_is_logged(tmp_path, caplog):
    import logging

    write_split(tmp_path / "train.txt", ["a\tr\tb\t2000\t2001"])
    write_split(tmp_path / "valid.txt", [])
    write_split(tmp_path / "test.txt", ["newguy\tnewrel\tb\t2000\t2000"])
    with caplog.at_level(logging.INFO, logger="time2box.data"):
        kb = load_dataset(tmp_path / "train.txt", tmp_path / "valid.txt", tmp_path / "test.txt")
    assert kb.n_entities == 3
    assert any("only outside the training split" in r.message for r in caplog.records)


def axis_kb(train, valid=(), test=(), n_entities=4, n_relations=2, length=10):
    """KB from axis-indexed statements on a fixed axis."""
    ents, rels = Vocab(), Vocab()
    for i in range(n_entities):
        ents.add(f"e{i}")
    for j in range(n_relations):
        rels.add(f"r{j}")
    splits = {"train": list(train), "valid": list(valid), "test": list(test)}
    return build_kb(splits, ents, rels, TimeAxis(0, length), scopes_in_years=False)


class TestOffAxisRejection:
    @pytest.mark.parametrize(
        "scope,bad",
        [
            (TimeScope.closed(5, 12), 10),
            (TimeScope.closed(-2, 3), -2),
            (TimeScope.closed(10, 11), 10),
            (TimeScope.right_open(10), 10),
            (TimeScope.right_open(-1), -1),
            (TimeScope.left_open(-1), -1),
            (TimeScope.left_open(10), 10),
            (TimeScope.instant(10), 10),
        ],
    )
    def test_build_kb_rejects_index_off_axis(self, scope, bad):
        with pytest.raises(DatasetError, match=f"time index {bad} off axis of length 10"):
            axis_kb([Statement(0, 0, 1, scope)])

    @pytest.mark.parametrize("split", data.SPLITS)
    def test_rejected_in_every_split(self, split):
        stmts = {"train": [Statement(0, 0, 1, TimeScope.closed(0, 9))], "valid": [], "test": []}
        stmts[split] = stmts[split] + [Statement(0, 0, 2, TimeScope.left_open(10))]
        with pytest.raises(DatasetError, match="off axis"):
            axis_kb(stmts["train"], stmts["valid"], stmts["test"])

    def test_axis_endpoints_accepted(self):
        kb = axis_kb(
            [Statement(0, 0, 1, TimeScope.closed(0, 9)), Statement(0, 0, 2, TimeScope.left_open(9))]
        )
        assert kb.filter.timed_objects(0, 0, 9) == {1, 2}
        assert kb.filter.timed_objects(0, 0, 0) == {1}


N_E, N_R = 4, 2


@st.composite
def axis_scopes(draw, length):
    kind = draw(st.sampled_from(list(ScopeKind)))
    t = st.integers(0, length - 1)
    if kind is ScopeKind.NO_TIME:
        return TimeScope.no_time()
    if kind is ScopeKind.INSTANT:
        return TimeScope.instant(draw(t))
    if kind is ScopeKind.RIGHT_OPEN:
        return TimeScope.right_open(draw(t))
    if kind is ScopeKind.LEFT_OPEN:
        return TimeScope.left_open(draw(t))
    a, b = sorted(draw(st.tuples(t, t)))
    return TimeScope.closed(a, b)


@st.composite
def random_kbs(draw):
    """Small axis-indexed KBs over 4 entities and 2 relations; the tiny
    vocabulary makes duplicate statements and shared (s, r) keys common."""
    length = draw(st.integers(1, 8))
    stmt = st.builds(
        Statement,
        st.integers(0, N_E - 1),
        st.integers(0, N_R - 1),
        st.integers(0, N_E - 1),
        axis_scopes(length),
    )
    splits = {sp: draw(st.lists(stmt, max_size=10)) for sp in data.SPLITS}
    if draw(st.booleans()) and splits["train"]:
        splits["train"].append(draw(st.sampled_from(splits["train"])))
    return axis_kb(splits["train"], splits["valid"], splits["test"], N_E, N_R, length)


def brute_force_filter(split_statements, axis):
    """(split, s, r) -> {o} and (split, s, r, t) -> {o}, from discretize."""
    atemporal, timed = {}, {}
    for sp, stmts in split_statements.items():
        for stmt in stmts:
            atemporal.setdefault((sp, stmt.s, stmt.r), set()).add(stmt.o)
            if stmt.scope.is_temporal:
                for t in discretize(stmt.scope, axis):
                    timed.setdefault((sp, stmt.s, stmt.r, t), set()).add(stmt.o)
    return atemporal, timed


def per_year_time_negatives(stmt, m, timed, n_times, rng):
    """Reference sampler: scan the scope's candidate span one year at a time."""
    scope = stmt.scope
    if scope.kind is ScopeKind.RIGHT_OPEN:
        span = range(0, scope.start)
    elif scope.kind is ScopeKind.LEFT_OPEN:
        span = range(scope.end + 1, n_times)
    elif scope.kind is ScopeKind.CLOSED:
        span = [*range(0, scope.start), *range(scope.end + 1, n_times)]
    else:
        span = range(n_times)
    candidates = [
        t for t in span if stmt.o not in timed.get(("train", stmt.s, stmt.r, t), set())
    ]
    if not candidates:
        return []
    take = min(m, len(candidates))
    picks = rng.choice(len(candidates), size=take, replace=False)
    return [candidates[int(i)] for i in np.sort(picks)]


def with_mirrors(kb):
    n_base = kb.n_base_relations
    return {
        sp: [
            x
            for stmt in kb.splits[sp]
            for x in (stmt, Statement(stmt.o, stmt.r + n_base, stmt.s, stmt.scope))
        ]
        for sp in data.SPLITS
    }


SPLIT_SUBSETS = [c for n in range(4) for c in itertools.combinations(data.SPLITS, n)]


class TestFilterIndexProperties:
    @settings(max_examples=60, deadline=None)
    @given(random_kbs())
    def test_index_equals_brute_force(self, kb):
        aug = add_inverse_relations(kb)
        for built, statements in ((kb, kb.splits), (aug, with_mirrors(kb))):
            atemporal, timed = brute_force_filter(statements, built.axis)
            for s, r in itertools.product(range(N_E), range(built.n_relations)):
                for splits in SPLIT_SUBSETS:
                    want = set().union(*(atemporal.get((sp, s, r), set()) for sp in splits))
                    assert built.filter.atemporal_objects(s, r, splits=splits) == want
                    for t in range(-1, built.axis.length + 1):
                        want = set().union(*(timed.get((sp, s, r, t), set()) for sp in splits))
                        assert built.filter.timed_objects(s, r, t, splits=splits) == want

    @settings(max_examples=60, deadline=None)
    @given(random_kbs(), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_time_negatives_equal_per_year_scan(self, kb, m, seed):
        aug = add_inverse_relations(kb)
        for built, statements in ((kb, kb.splits), (aug, with_mirrors(kb))):
            _, timed = brute_force_filter(statements, built.axis)
            for stmt in (x for sp in data.SPLITS for x in statements[sp]):
                if not stmt.scope.is_temporal:
                    continue
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = sample_time_negatives(stmt, m, built, rng)
                want = per_year_time_negatives(stmt, m, timed, built.axis.length, ref_rng)
                assert got == want
                assert all(type(t) is int for t in got)
                assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_filter_memory_grows_with_statements_not_years():
    # 500 statements, each closed over ~1,000 years of a 1,000-year axis:
    # a per-year index would hold ~10^6 keys after adding inverses
    length, n = 1000, 500
    rng = np.random.default_rng(0)
    train = [
        Statement(i, 0, n + i % 50, TimeScope.closed(int(a), int(length - 1 - b)))
        for i, (a, b) in enumerate(rng.integers(0, 5, size=(n, 2)))
    ]
    tracemalloc.start()
    try:
        kb = axis_kb(train, n_entities=n + 50, n_relations=1, length=length)
        aug = add_inverse_relations(kb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(aug.splits["train"]) == 2 * n
    assert aug.filter.timed_objects(n, 1, 500) == set(range(0, n, 50))
    assert peak < 4 * 2**20, f"filter build peaked at {peak / 2**20:.1f} MiB"


SCOPE_OF_KIND = {
    ScopeKind.NO_TIME: TimeScope.no_time(),
    ScopeKind.INSTANT: TimeScope.instant(4),
    ScopeKind.RIGHT_OPEN: TimeScope.right_open(3),
    ScopeKind.LEFT_OPEN: TimeScope.left_open(6),
    ScopeKind.CLOSED: TimeScope.closed(2, 5),
}


@pytest.mark.parametrize("kind", list(ScopeKind), ids=lambda kind: kind.value)
def test_scope_readers_follow_scope_span(kind):
    """Link queries, query plans, gold intervals, filter rows and entity
    negatives all take a scope's timestamps from scope_span/discretize."""
    scope = SCOPE_OF_KIND[kind]
    stmt = Statement(0, 0, 1, scope)
    # entity 2 + t is the only other answer of (0, 0) at year t
    timeline = [Statement(0, 0, 2 + t, TimeScope.instant(t)) for t in range(10)]
    kb = axis_kb([stmt, *timeline], n_entities=12, n_relations=1)
    times = discretize(scope) if scope.is_temporal else []
    span = scope_span(scope) if scope.is_temporal else (None, None)

    assert link_query_times(stmt) == (times or [None])
    plan = plan_for_statement(stmt, Variant(), np.random.default_rng(0))
    if kind is ScopeKind.CLOSED:
        assert span[0] <= plan.time_projections[0] <= span[1]
    else:
        assert plan.time_projections == tuple(times[:1])
    closed_gold = kind in (ScopeKind.INSTANT, ScopeKind.CLOSED)
    assert gold_interval(stmt) == (Interval(*span) if closed_gold else None)
    assert (1, *span) in kb.filter.rows("train", 0, 0)
    # drawing every non-positive entity leaves exactly the complement of the
    # answers at the discretized timestamps (of every answer without time)
    positives = {1, *(2 + t for t in times)} if times else set(range(1, 12))
    known = (
        set().union(*(kb.filter.timed_objects(0, 0, t, splits=("train",)) for t in times))
        if times
        else kb.filter.atemporal_objects(0, 0, splits=("train",))
    )
    assert known == positives
    expected = sorted(set(range(12)) - positives)
    negatives = sample_entity_negatives(
        known, len(expected), kb.n_entities, np.random.default_rng(0)
    )
    assert sorted(negatives) == expected


def per_line_construction(paths, missing=data.MISSING):
    """The loader's reference: every line through parse_statement, the
    axis from the training years, build_kb, then a mirrored build_kb that
    indexes every statement and its mirror anew."""
    ents, rels = Vocab(), Vocab()
    raw = {}
    for sp, path in zip(data.SPLITS, paths):
        with open(path, encoding="utf-8") as fh:
            raw[sp] = [
                parse_statement(line, ents, rels, line_no, missing)
                for line_no, line in enumerate(fh, start=1)
                if line.strip()
            ]
    years = [y for st in raw["train"] for y in (st.scope.start, st.scope.end) if y is not None]
    axis = TimeAxis(min(years), max(years) - min(years) + 1)
    base = build_kb(raw, ents, rels, axis)
    inv = Vocab()
    for label in [*rels.labels, *(f"{label}^-1" for label in rels.labels)]:
        inv.add(label)
    n = len(rels)
    mirrored = {
        sp: [x for st in base.splits[sp] for x in (st, Statement(st.o, st.r + n, st.s, st.scope))]
        for sp in data.SPLITS
    }
    return base, build_kb(mirrored, ents, inv, axis, n, scopes_in_years=False)


def kb_state(kb):
    """Everything a KB holds; list equality keeps the row order under each key."""
    return (
        kb.entities.labels,
        kb.relations.labels,
        kb.axis,
        kb.n_base_relations,
        statement_lists(kb),
        filter_rows(kb),
    )


def statement_lists(kb):
    """Each split's statements as a list of Statement objects."""
    return {sp: list(kb.splits[sp]) for sp in data.SPLITS}


def filter_rows(kb):
    """Each split's filter rows read through the index's keys and rows:
    split -> {(s, r): [(o, lo, hi), ...]}."""
    return {
        sp: {key: kb.filter.rows(sp, *key) for key in kb.filter.keys(sp)} for sp in data.SPLITS
    }


def rows_in_statement_order(kb):
    """Each split's filter rows built directly from its statements, one
    (o, lo, hi) per statement in order, independently of the loader's
    writer."""
    rows = {sp: {} for sp in data.SPLITS}
    for sp in data.SPLITS:
        for st in kb.splits[sp]:
            span = scope_span(st.scope, kb.axis) if st.scope.is_temporal else (None, None)
            rows[sp].setdefault((st.s, st.r), []).append((st.o, *span))
    return rows


@pytest.fixture
def mixed_dataset(tmp_path):
    """All five scope kinds under the sentinel '?', blank lines, equal
    scopes written differently, and valid and test years off the axis."""
    (tmp_path / "train.txt").write_text(
        "a\tworksFor\tx\t1990\t1995\n"
        "a\tworksFor\ty\t1996\t2000\n"
        "b\tworksFor\tx\t1992\t1992\n"
        "\n"
        "a\tbornIn\tz\t?\t?\n"
        "b\tlivesIn\tz\t1991\t?\n"
        "c\tlivesIn\tz\t?\t1999\n"
        "  \t \n"
        "b\tworksFor\ty\t1990\t1995\n"
        "c\tworksFor\tx\t01992\t1992\n",
        encoding="utf-8",
    )
    (tmp_path / "valid.txt").write_text(
        "a\tworksFor\tx\t1985\t1991\n\nd\tworksFor\ty\t1991\t1991\nc\tbornIn\ta\t?\t?\n",
        encoding="utf-8",
    )
    (tmp_path / "test.txt").write_text(
        "a\tworksFor\ty\t2003\t?\n"
        "e\tnewRel\tx\t1980\t1980\n"
        "b\tlivesIn\tz\t1991\t?\n"
        "a\tworksFor\tx\t1975\t2010\n"
        "c\tlivesIn\tz\t?\t1970\n",
        encoding="utf-8",
    )
    return [tmp_path / f"{sp}.txt" for sp in data.SPLITS]


class TestLoaderWork:
    def test_equals_per_line_construction(self, mixed_dataset):
        base = load_dataset(*mixed_dataset, missing="?")
        aug = add_inverse_relations(base)
        want_base, want_aug = per_line_construction(mixed_dataset, missing="?")
        assert kb_state(base) == kb_state(want_base)
        assert kb_state(aug) == kb_state(want_aug)
        for kb in (base, aug):
            assert filter_rows(kb) == rows_in_statement_order(kb)
        kinds = {st.scope.kind for sp in data.SPLITS for st in base.splits[sp]}
        assert kinds == set(ScopeKind)

    @pytest.mark.parametrize(
        "bad",
        [
            "a\tworksFor\tx\t1990\t1995\textra",
            "a\tworksFor\tx\t1990\t1995\t",
            "a\tworksFor\t1990\t1995",
            "a\tworksFor\tx\t1990\t19x5",
            "a\tworksFor\tx\t1995\t1990",
        ],
        ids=["six-columns", "trailing-tab", "four-columns", "non-integer", "start-after-end"],
    )
    @pytest.mark.parametrize("split", data.SPLITS)
    def test_bad_row_after_its_pair_was_seen(self, tmp_path, bad, split):
        """Good rows with the years 1990 and 1995 come first in every split,
        yet the bad row fails as parse_statement fails on it, after its
        file's path and its own line number."""
        good = ["a\tworksFor\tx\t1990\t1995", "b\tr\ty\t1995\t1995"]
        lines = {sp: list(good) for sp in data.SPLITS}
        lines[split] += ["", bad]
        for sp in data.SPLITS:
            write_split(tmp_path / f"{sp}.txt", lines[sp])
        with pytest.raises(DatasetError) as want:
            parse_statement(bad, Vocab(), Vocab())
        with pytest.raises(DatasetError) as got:
            load_dataset(*(tmp_path / f"{sp}.txt" for sp in data.SPLITS))
        assert str(got.value) == f"{tmp_path / f'{split}.txt'}:4: {want.value}"

    @pytest.mark.parametrize(
        "text", ["19_92", " 1992", "1992 ", "+1992", "\u0661\u0669\u0669\u0662"]
    )
    @pytest.mark.parametrize("split", data.SPLITS)
    def test_malformed_year_names_its_line(self, tmp_path, text, split):
        """A year int() would take fails loading as parse_statement fails on
        it, after rows with the same year written plainly, and the error
        names the file and line."""
        good = ["a\tworksFor\tx\t1990\t1992", "b\tr\ty\t1992\t1992"]
        lines = {sp: list(good) for sp in data.SPLITS}
        bad = f"c\tr\tx\t1990\t{text}"
        lines[split] += [bad]
        for sp in data.SPLITS:
            write_split(tmp_path / f"{sp}.txt", lines[sp])
        with pytest.raises(DatasetError) as got:
            load_dataset(*(tmp_path / f"{sp}.txt" for sp in data.SPLITS))
        assert str(got.value) == f"{tmp_path / f'{split}.txt'}:3: non-integer year {text!r}"

    @pytest.mark.parametrize("split", data.SPLITS)
    def test_non_utf8_byte_names_its_line(self, tmp_path, split):
        """A byte that is not UTF-8 fails loading with its file and the
        number of its line, counted as text mode counts lines ("\r\n" and
        a lone "\r" each end one)."""
        good = ["a\tworksFor\tx\t1990\t1995", "b\tr\ty\t1995\t1995"]
        for sp in data.SPLITS:
            write_split(tmp_path / f"{sp}.txt", good)
        path = tmp_path / f"{split}.txt"
        path.write_bytes(
            b"a\tworksFor\tx\t1990\t1995\r\nb\tr\ty\t1995\t1995\r\r"
            b"c\tr\tx\t1990\t1990\nc\tr\tx\xff\t1990\t1990\nd\tr\tx\t1990\t1990\n"
        )
        with pytest.raises(DatasetError) as got:
            load_dataset(*(tmp_path / f"{sp}.txt" for sp in data.SPLITS))
        assert str(got.value) == f"{path}:5: byte 0xff is not UTF-8 (invalid start byte)"

    def test_inverse_leaves_base_rows_untouched(self, mixed_dataset):
        import copy

        base = load_dataset(*mixed_dataset, missing="?")
        before = copy.deepcopy(kb_state(base))
        aug = add_inverse_relations(base)
        assert kb_state(base) == before
        base_rows, aug_rows = filter_rows(base), filter_rows(aug)
        for sp in data.SPLITS:
            for key, rows in base_rows[sp].items():
                assert aug_rows[sp][key] == rows
        assert len(aug_rows["train"]) > len(base_rows["train"])

    def test_equal_scopes_share_one_object(self, mixed_dataset):
        base = load_dataset(*mixed_dataset, missing="?")
        aug = add_inverse_relations(base)
        scopes = [st.scope for sp in data.SPLITS for st in aug.splits[sp]]
        assert len({id(scope) for scope in scopes}) == len(set(scopes)) < len(scopes)
        # '1992 1992' and '01992 1992' are one instant
        train = base.splits["train"]
        assert train[7].scope is train[2].scope == TimeScope.instant(2)

    def test_max_train_objects(self, mixed_dataset):
        aug = add_inverse_relations(load_dataset(*mixed_dataset, missing="?"))
        want = max(len({o for o, _, _ in rows}) for rows in filter_rows(aug)["train"].values())
        assert aug.filter.max_train_objects == want == 3  # x worksFor^-1: a, b, c


@st.composite
def year_texts(draw, years):
    """A year drawn from `years`, written plainly or with leading zeros; 0
    is sometimes written -0."""
    y = draw(years)
    sign = "-" if y < 0 or (y == 0 and draw(st.booleans())) else ""
    return f"{sign}{'0' * draw(st.integers(0, 2))}{abs(y)}"


@st.composite
def scoped_lines(draw, years, timed=False):
    """A TSV line over 4 entity and 2 relation labels with a scope of any
    kind (a temporal one when `timed`); an instant's two years may be
    written differently."""
    s, o = draw(st.sampled_from("abcd")), draw(st.sampled_from("abcd"))
    r = draw(st.sampled_from("pq"))
    kind = draw(st.sampled_from([k for k in ScopeKind if not (timed and k is ScopeKind.NO_TIME)]))
    if kind is ScopeKind.CLOSED:
        a, b = sorted(draw(st.lists(years, min_size=2, max_size=2, unique=True)))
        start, end = draw(year_texts(st.just(a))), draw(year_texts(st.just(b)))
    elif kind is ScopeKind.INSTANT:
        y = st.just(draw(years))
        start, end = draw(year_texts(y)), draw(year_texts(y))
    else:
        start = draw(year_texts(years)) if kind is ScopeKind.RIGHT_OPEN else data.MISSING
        end = draw(year_texts(years)) if kind is ScopeKind.LEFT_OPEN else data.MISSING
    return "\t".join((s, r, o, start, end))


@st.composite
def year_datasets(draw):
    """Lines per split: training years in 2000..2007, with a temporal line
    first so the axis is defined, and valid and test years in 1995..2012,
    so some lie off the training axis and are clamped onto it."""
    train = [draw(scoped_lines(st.integers(2000, 2007), timed=True))]
    train += draw(st.lists(scoped_lines(st.integers(2000, 2007)), max_size=12))
    evaluation = st.lists(scoped_lines(st.integers(1995, 2012)), max_size=8)
    return {"train": train, "valid": draw(evaluation), "test": draw(evaluation)}


def scope_to_axis(scope, axis):
    """A year scope on the axis, each year clamped onto it: the loader's
    former per-statement conversion, kept as a reference."""

    def conv(year):
        return None if year is None else axis.index_of(year, clamp=True)

    return TimeScope(scope.kind, conv(scope.start), conv(scope.end))


class OracleScopeTable:
    """The loader's former ScopeTable, which entered one axis scope at a
    time: ids in order of entry, each new value checked against the axis."""

    def __init__(self, axis):
        self.axis, self.scopes, self.spans, self.ids = axis, [], [], {}

    def add(self, scope):
        if scope not in self.ids:
            self.ids[scope] = len(self.scopes)
            self.scopes.append(scope)
            self.spans.append(scope_span(scope, self.axis) if scope.is_temporal else (None, None))
        return self.ids[scope]


def tuple_oracle(lines):
    """The axis, statements and (o, lo, hi) rows per split that
    add_inverse_relations(load_dataset(...)) should give, built line by
    line as tuple lists: parse_statement, scope_to_axis, and each statement
    followed by its mirror."""
    ents, rels = Vocab(), Vocab()
    parsed = {sp: [parse_statement(line, ents, rels) for line in lines[sp]] for sp in data.SPLITS}
    years = [y for x in parsed["train"] for y in (x.scope.start, x.scope.end) if y is not None]
    axis = TimeAxis(min(years), max(years) - min(years) + 1)
    n = len(rels)
    statements = {sp: [] for sp in data.SPLITS}
    rows = {sp: {} for sp in data.SPLITS}
    for sp in data.SPLITS:
        for x in parsed[sp]:
            scope = scope_to_axis(x.scope, axis)
            span = scope_span(scope, axis) if scope.is_temporal else (None, None)
            for s, r, o in ((x.s, x.r, x.o), (x.o, x.r + n, x.s)):
                statements[sp].append(Statement(s, r, o, scope))
                rows[sp].setdefault((s, r), []).append((o, *span))
    return axis, statements, rows


@settings(max_examples=40, deadline=None)
@given(year_datasets())
def test_columnar_kb_equals_tuple_oracle(lines):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [pathlib.Path(tmp) / f"{sp}.txt" for sp in data.SPLITS]
        for sp, path in zip(data.SPLITS, paths):
            write_split(path, lines[sp])
        kb = add_inverse_relations(load_dataset(*paths))
    axis, statements, rows = tuple_oracle(lines)
    assert kb.axis == axis
    assert statement_lists(kb) == statements
    assert filter_rows(kb) == rows_in_statement_order(kb) == rows
    listed = dataclasses.replace(kb, splits=statements)  # counted statement by statement
    assert all(kb.type_counts(sp) == listed.type_counts(sp) for sp in data.SPLITS)

    def key_rows(sp, s, r):
        return rows[sp].get((s, r), [])

    f = kb.filter
    assert f.max_train_objects == max(len({o for o, _, _ in x}) for x in rows["train"].values())
    for s, r in itertools.product(range(kb.n_entities), range(kb.n_relations)):
        for splits in SPLIT_SUBSETS:
            want = {o for sp in splits for o, _, _ in key_rows(sp, s, r)}
            assert f.atemporal_objects(s, r, splits=splits) == want
            for t in range(-1, axis.length + 1):
                want = {
                    o
                    for sp in splits
                    for o, lo, hi in key_rows(sp, s, r)
                    if lo is not None and lo <= t <= hi
                }
                assert f.timed_objects(s, r, t, splits=splits) == want
        for o in range(kb.n_entities):
            want = np.ones(axis.length, dtype=bool)
            for o2, lo, hi in key_rows("train", s, r):
                if o2 == o and lo is not None:
                    want[lo : hi + 1] = False
            assert np.array_equal(f.false_times(s, r, o, axis.length), want)


def test_loading_creates_no_per_statement_objects(tmp_path):
    """A loaded and mirrored KB holds its statements and filter rows in
    arrays: the objects the collector tracks grow by a small fraction of
    the statement count (the distinct scopes, vocabularies and the KB's
    containers), so a collection after loading has little to walk."""
    kb, _ = generate_synthetic(
        SynthConfig(seed=11, n_entities=2000, n_relations=4, axis_length=30, n_rules=600)
    )
    data.write_dataset(kb, tmp_path)
    paths = [tmp_path / f"{sp}.txt" for sp in data.SPLITS]
    gc.collect()
    before = len(gc.get_objects())
    aug = add_inverse_relations(load_dataset(*paths))
    grown = len(gc.get_objects()) - before
    n_statements = sum(len(aug.splits[sp]) for sp in data.SPLITS)
    assert n_statements > 5000
    assert grown < n_statements / 10, f"{grown} tracked objects for {n_statements} statements"


#: a year beyond int64, which the loader keeps as a Python int
HUGE = 10**25


@st.composite
def scope_datasets(draw):
    """Lines per split: training years in -3..4 (in some datasets also
    beyond int64), with a temporal line first so the axis is defined, and
    valid and test years in -9..10 or beyond int64, so that many lie off
    the training axis and distinct year scopes merge once clamped."""
    wide = draw(st.booleans())
    train_years = st.integers(-3, 4) | st.sampled_from([-HUGE, HUGE] if wide else [0])
    eval_years = st.integers(-9, 10) | st.sampled_from([-HUGE, -(2**63) - 1, 2**63, HUGE])
    train = [draw(scoped_lines(train_years, timed=True))]
    train += draw(st.lists(scoped_lines(train_years), max_size=10))
    evaluation = st.lists(scoped_lines(eval_years), max_size=10)
    return {"train": train, "valid": draw(evaluation), "test": draw(evaluation)}


def per_line_oracle(lines):
    """The axis, scope table, per-split scope ids and statements that
    load_dataset should give, one line at a time: parse_statement, then
    scope_to_axis and OracleScopeTable.add per statement."""
    ents, rels = Vocab(), Vocab()
    parsed = {sp: [parse_statement(line, ents, rels) for line in lines[sp]] for sp in data.SPLITS}
    years = [y for x in parsed["train"] for y in (x.scope.start, x.scope.end) if y is not None]
    axis = TimeAxis(min(years), max(years) - min(years) + 1)
    table = OracleScopeTable(axis)
    ids = {sp: [table.add(scope_to_axis(x.scope, axis)) for x in parsed[sp]] for sp in data.SPLITS}
    statements = {
        sp: [Statement(x.s, x.r, x.o, table.scopes[i]) for x, i in zip(parsed[sp], ids[sp])]
        for sp in data.SPLITS
    }
    return axis, table, ids, statements


@settings(max_examples=60, deadline=None)
@given(scope_datasets())
def test_scope_conversion_equals_per_line_oracle(lines):
    """Converting each distinct year text and each distinct scope tuple once
    gives the KB that converting every line's scope gives: the same
    statements, the same table (scopes, spans and id order), the same
    filter rows and the same counts per kind."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [pathlib.Path(tmp) / f"{sp}.txt" for sp in data.SPLITS]
        for sp, path in zip(data.SPLITS, paths):
            write_split(path, lines[sp])
        kb = load_dataset(*paths)
    axis, table, ids, statements = per_line_oracle(lines)
    assert kb.axis == axis
    got = kb.splits["train"].table
    assert all(kb.splits[sp].table is got for sp in data.SPLITS)
    assert got.scopes == table.scopes and got.spans == table.spans
    assert {sp: kb.splits[sp].scope.tolist() for sp in data.SPLITS} == ids
    assert statement_lists(kb) == statements
    listed = dataclasses.replace(kb, splits=statements)  # read statement by statement
    assert filter_rows(kb) == rows_in_statement_order(listed)
    assert all(kb.type_counts(sp) == listed.type_counts(sp) for sp in data.SPLITS)


@pytest.mark.parametrize("split", data.SPLITS)
@pytest.mark.parametrize("bad_year_first", [True, False], ids=["bad-year", "bad-columns"])
def test_first_bad_line_is_named(tmp_path, split, bad_year_first):
    """A bad year text and a wrong column count in one split: loading fails
    on whichever comes first, with its exact path:line: message."""
    good = ["a\tworksFor\tx\t1990\t1995", "b\tr\ty\t1995\t1995"]
    bad = ["c\tr\tx\t1990\t19x5", "c\tr\tx\t1990\t1995\textra"]
    if not bad_year_first:
        bad.reverse()
    lines = {sp: list(good) for sp in data.SPLITS}
    lines[split] += bad
    for sp in data.SPLITS:
        write_split(tmp_path / f"{sp}.txt", lines[sp])
    with pytest.raises(DatasetError) as want:
        parse_statement(bad[0], Vocab(), Vocab())
    with pytest.raises(DatasetError) as got:
        load_dataset(*(tmp_path / f"{sp}.txt" for sp in data.SPLITS))
    assert str(got.value) == f"{tmp_path / f'{split}.txt'}:3: {want.value}"


class TestByteOrderMark:
    @pytest.mark.parametrize("split", data.SPLITS)
    def test_same_kb_with_and_without_bom(self, mixed_dataset, split):
        """A split that starts with a byte-order mark loads as without one:
        its first label is the same entity, not a new one."""
        want = kb_state(load_dataset(*mixed_dataset, missing="?"))
        path = mixed_dataset[data.SPLITS.index(split)]
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert kb_state(load_dataset(*mixed_dataset, missing="?")) == want

    @pytest.mark.parametrize(
        "line, message",
        [
            (b"a\tr\tx\t19x0\t1995\n", "non-integer year '19x0'"),
            (b"a\tr\tx\xff\t1990\t1995\n", "byte 0xff is not UTF-8 (invalid start byte)"),
        ],
        ids=["bad-year", "bad-byte"],
    )
    @pytest.mark.parametrize("split", data.SPLITS)
    def test_error_on_first_line_after_bom(self, tmp_path, split, line, message):
        for sp in data.SPLITS:
            write_split(tmp_path / f"{sp}.txt", ["a\tr\tx\t1990\t1995"])
        path = tmp_path / f"{split}.txt"
        path.write_bytes(b"\xef\xbb\xbf" + line + b"b\tr\ty\t1990\t1995\n")
        with pytest.raises(DatasetError) as got:
            load_dataset(*(tmp_path / f"{sp}.txt" for sp in data.SPLITS))
        assert str(got.value) == f"{path}:1: {message}"


def test_year_beyond_int64_loads(tmp_path):
    """Years stay Python ints: a 31-digit training year sets the axis and
    a valid year beyond int64 clamps onto it."""
    big = 10**30 + 7
    write_split(tmp_path / "train.txt", ["a\tr\tx\t1990\t1995", f"b\tr\ty\t-\t{big}"])
    write_split(tmp_path / "valid.txt", [f"a\tr\ty\t{10**40}\t-"])
    write_split(tmp_path / "test.txt", [])
    kb = load_dataset(*(tmp_path / f"{sp}.txt" for sp in data.SPLITS))
    assert kb.axis == TimeAxis(1990, big - 1990 + 1)
    assert kb.splits["train"][1].scope == TimeScope.left_open(big - 1990)
    assert kb.filter.rows("valid", 0, 0) == [(3, big - 1990, big - 1990)]  # y
