"""Temporal knowledge bases: parsing, indexing, time axis, synthetic generation.

A statement is a (subject, relation, object) triple scoped by one of five
validity kinds: no time, a single year, a known start, a known end, or a
closed year interval. Datasets are 5-column TSV files (one per split); the
time axis is the contiguous range of years observed in the training split.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

logger = logging.getLogger(__name__)

MISSING = "-"

SPLITS = ("train", "valid", "test")


class DatasetError(Exception):
    """Malformed dataset file or infeasible generator configuration."""


class ScopeKind(str, Enum):
    NO_TIME = "no-time"
    INSTANT = "instant"
    RIGHT_OPEN = "right-open"
    LEFT_OPEN = "left-open"
    CLOSED = "closed"


@dataclass(frozen=True)
class TimeScope:
    """Validity scope of a statement; start/end are years or axis indices."""

    kind: ScopeKind
    start: int | None = None
    end: int | None = None

    def __post_init__(self):
        if self.kind is ScopeKind.CLOSED and self.start > self.end:
            raise DatasetError(f"closed scope with start {self.start} > end {self.end}")

    @classmethod
    def no_time(cls) -> "TimeScope":
        return cls(ScopeKind.NO_TIME)

    @classmethod
    def instant(cls, t: int) -> "TimeScope":
        return cls(ScopeKind.INSTANT, t, t)

    @classmethod
    def right_open(cls, st: int) -> "TimeScope":
        return cls(ScopeKind.RIGHT_OPEN, st, None)

    @classmethod
    def left_open(cls, et: int) -> "TimeScope":
        return cls(ScopeKind.LEFT_OPEN, None, et)

    @classmethod
    def closed(cls, st: int, et: int) -> "TimeScope":
        return cls(ScopeKind.CLOSED, st, et)

    @property
    def is_temporal(self) -> bool:
        return self.kind is not ScopeKind.NO_TIME


@dataclass(frozen=True)
class Statement:
    s: int
    r: int
    o: int
    scope: TimeScope


@dataclass(frozen=True)
class TimeAxis:
    """Contiguous yearly axis; index i corresponds to year origin + i."""

    origin: int
    length: int

    def index_of(self, year: int, clamp: bool = False) -> int:
        idx = year - self.origin
        if clamp:
            idx = min(max(idx, 0), self.length - 1)
        elif not 0 <= idx < self.length:
            raise DatasetError(f"year {year} outside axis [{self.origin}, {self.last_year}]")
        return idx

    def year_of(self, index: int) -> int:
        return self.origin + index

    @property
    def last_year(self) -> int:
        return self.origin + self.length - 1


class Vocab:
    """Label <-> integer id mapping, ids assigned in first-seen order."""

    def __init__(self):
        self._ids: dict[str, int] = {}
        self.labels: list[str] = []

    def add(self, label: str) -> int:
        idx = self._ids.get(label)
        if idx is None:
            idx = len(self.labels)
            self._ids[label] = idx
            self.labels.append(label)
        return idx

    def id_of(self, label: str) -> int:
        try:
            return self._ids[label]
        except KeyError:
            raise KeyError(f"unknown label {label!r}") from None

    def __len__(self) -> int:
        return len(self.labels)


class FilterIndex:
    """True answers per split as validity rows: (s, r) -> [(o, lo, hi), ...].

    One row per statement. A no-time statement has lo = hi = None; a
    temporal one covers the axis indices lo..hi of its discretization (the
    known endpoint for half-open scopes, every year for closed ones).
    Atemporal lookups see every row, timed lookups stab the intervals.
    An index belongs to one axis: add() checks each distinct scope against
    it and takes its (lo, hi) from scope_span once.
    """

    def __init__(self):
        self.rows: dict[str, dict[tuple[int, int], list[tuple[int, int | None, int | None]]]] = {
            sp: {} for sp in SPLITS
        }
        self._spans: dict[TimeScope, tuple[int | None, int | None]] = {}

    def add(self, split: str, stmt: Statement, axis: TimeAxis) -> None:
        span = self._spans.get(stmt.scope)
        if span is None:
            span = scope_span(stmt.scope, axis) if stmt.scope.is_temporal else (None, None)
            self._spans[stmt.scope] = span
        self.rows[split].setdefault((stmt.s, stmt.r), []).append((stmt.o, *span))

    def copy(self) -> "FilterIndex":
        """An index on the same axis with copies of this one's row lists,
        which the copy's add() extends without touching this index."""
        out = FilterIndex()
        out.rows = {
            sp: {key: rows.copy() for key, rows in keyed.items()} for sp, keyed in self.rows.items()
        }
        out._spans = dict(self._spans)
        return out

    @cached_property
    def max_train_objects(self) -> int:
        """Most distinct training objects under one (s, r) key, computed on
        first use; read it only once the index is complete."""
        most = 0
        for rows in self.rows["train"].values():
            # a key with no more rows than the best count cannot beat it
            if len(rows) > most:
                most = max(most, len({o for o, _, _ in rows}))
        return most

    def atemporal_objects(self, s: int, r: int, splits=SPLITS) -> set[int]:
        return {o for sp in splits for o, _, _ in self.rows[sp].get((s, r), ())}

    def timed_objects(self, s: int, r: int, t: int, splits=SPLITS) -> set[int]:
        out: set[int] = set()
        for sp in splits:
            for o, lo, hi in self.rows[sp].get((s, r), ()):
                if lo is not None and lo <= t <= hi:
                    out.add(o)
        return out

    def false_times(self, s: int, r: int, o: int, n_times: int, split: str) -> np.ndarray:
        """Boolean axis mask: True at t where (s, r, o, t) is not in `split`."""
        mask = np.ones(n_times, dtype=bool)
        for o2, lo, hi in self.rows[split].get((s, r), ()):
            if o2 == o and lo is not None:
                mask[lo : hi + 1] = False
        return mask


@dataclass
class TemporalKB:
    """Immutable after construction; safe to share across readers."""

    entities: Vocab
    relations: Vocab
    axis: TimeAxis
    splits: dict[str, list[Statement]]
    filter: FilterIndex
    n_base_relations: int

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_relations(self) -> int:
        return len(self.relations)

    @property
    def has_inverses(self) -> bool:
        return len(self.relations) == 2 * self.n_base_relations

    def type_counts(self, split: str) -> dict[str, int]:
        counts = {"all": 0} | {k.value: 0 for k in ScopeKind}
        for stmt in self.splits[split]:
            counts["all"] += 1
            counts[stmt.scope.kind.value] += 1
        return counts


def parse_statement(
    line: str,
    entities: Vocab,
    relations: Vocab,
    line_no: int | None = None,
    missing: str = MISSING,
) -> Statement:
    """Parse one 5-column TSV line, assigning vocabulary ids as needed.

    Scope classification: (-,-) no time; (y,y) instant; (y,-) right-open;
    (-,y) left-open; (y1,y2) with y1<y2 closed. A year is an optional "-"
    followed by ASCII digits. Years stay years; build_kb converts them to
    axis indices.
    """
    where = f" (line {line_no})" if line_no is not None else ""
    cols = line.rstrip("\n").split("\t")
    if len(cols) != 5:
        raise DatasetError(f"expected 5 tab-separated columns, got {len(cols)}{where}")
    s_lab, r_lab, o_lab, start_s, end_s = cols

    def year(text: str) -> int | None:
        if text == missing:
            return None
        # int() alone would also take "19_92", " 1992", "+1992" and non-ASCII digits
        digits = text[1:] if text.startswith("-") else text
        if not (digits.isascii() and digits.isdigit()):
            raise DatasetError(f"non-integer year {text!r}{where}")
        return int(text)

    start, end = year(start_s), year(end_s)
    if start is None and end is None:
        scope = TimeScope.no_time()
    elif start is not None and end is None:
        scope = TimeScope.right_open(start)
    elif start is None:
        scope = TimeScope.left_open(end)
    elif start == end:
        scope = TimeScope.instant(start)
    elif start < end:
        scope = TimeScope.closed(start, end)
    else:
        raise DatasetError(f"closed interval with start {start} > end {end}{where}")
    return Statement(entities.add(s_lab), relations.add(r_lab), entities.add(o_lab), scope)


def format_statement(
    stmt: Statement,
    entities: Vocab,
    relations: Vocab,
    axis: TimeAxis | None = None,
    missing: str = MISSING,
) -> str:
    """Canonical 5-column form; inverse of parse_statement."""

    def col(value: int | None) -> str:
        if value is None:
            return missing
        return str(axis.year_of(value)) if axis is not None else str(value)

    scope = stmt.scope
    return "\t".join(
        (
            entities.labels[stmt.s],
            relations.labels[stmt.r],
            entities.labels[stmt.o],
            col(scope.start),
            col(scope.end),
        )
    )


def scope_to_axis(scope: TimeScope, axis: TimeAxis) -> TimeScope:
    """Convert a year-valued scope to axis indices, clamping out-of-span years."""

    def conv(year: int | None) -> int | None:
        return None if year is None else axis.index_of(year, clamp=True)

    return TimeScope(scope.kind, conv(scope.start), conv(scope.end))


def scope_span(scope: TimeScope, axis: TimeAxis | None = None) -> tuple[int, int]:
    """First and last timestamp of a temporal scope's discretization: the
    known endpoint for half-open intervals, start..end otherwise.

    This and discretize are the one rule turning a scope into timestamps:
    the filter index, training's query plans and entity negatives, link
    queries and gold intervals all read it."""
    if scope.kind is ScopeKind.NO_TIME:
        raise ValueError("cannot discretize a statement without a temporal scope")
    if scope.kind is ScopeKind.RIGHT_OPEN:
        lo = hi = scope.start
    elif scope.kind is ScopeKind.LEFT_OPEN:
        lo = hi = scope.end
    else:
        lo, hi = scope.start, scope.end
    if axis is not None and not (0 <= lo and hi < axis.length):
        # the first timestamp of lo..hi that falls off the axis
        bad = lo if not 0 <= lo < axis.length else axis.length
        raise DatasetError(f"time index {bad} off axis of length {axis.length}")
    return lo, hi


def discretize(scope: TimeScope, axis: TimeAxis | None = None) -> list[int]:
    """Timestamps a temporal scope contributes: the known endpoint for
    half-open intervals, every year for closed ones."""
    lo, hi = scope_span(scope, axis)
    return list(range(lo, hi + 1))


def _read_split(
    path, entities: Vocab, relations: Vocab, missing: str, scopes: dict
) -> list[tuple[int, int, int, TimeScope]]:
    """(s, r, o, year scope) per non-blank line, vocabulary ids assigned as
    parse_statement assigns them.

    `scopes` maps each (start, end) column text pair, and each TimeScope
    value, to the one TimeScope object that all equal scopes share. Only
    a line with an unseen text pair, or with a wrong column count (its
    columns past the third never form a pair), goes through
    parse_statement, which classifies its scope or raises.
    """
    rows = []
    add_entity, add_relation = entities.add, relations.add
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            cols = line.rstrip("\n").split("\t")
            pair = tuple(cols[3:])
            scope = scopes.get(pair)
            if scope is None:
                stmt = parse_statement(line, entities, relations, line_no, missing)
                scope = scopes[pair] = scopes.setdefault(stmt.scope, stmt.scope)
                rows.append((stmt.s, stmt.r, stmt.o, scope))
            else:
                s, r, o = add_entity(cols[0]), add_relation(cols[1]), add_entity(cols[2])
                rows.append((s, r, o, scope))
    return rows


def _train_year_span(scopes) -> tuple[int, int]:
    years = [y for scope in scopes for y in (scope.start, scope.end) if y is not None]
    if not years:
        raise DatasetError("training split has no temporal statements; time axis is undefined")
    return min(years), max(years)


def _axis_scopes(scopes, axis: TimeAxis) -> dict[TimeScope, TimeScope]:
    """Each year scope's axis scope, converted once; equal axis scopes
    share one object."""
    shared: dict[TimeScope, TimeScope] = {}
    out = {}
    for scope in scopes:
        converted = scope_to_axis(scope, axis)
        out[scope] = shared.setdefault(converted, converted)
    return out


def build_kb(
    split_statements: dict[str, list[Statement]],
    entities: Vocab,
    relations: Vocab,
    axis: TimeAxis,
    n_base_relations: int | None = None,
    scopes_in_years: bool = True,
) -> TemporalKB:
    """Assemble a TemporalKB from parsed statements, indexing all splits."""
    given = {sp: split_statements.get(sp, []) for sp in SPLITS}
    if scopes_in_years:
        to_axis = _axis_scopes({stmt.scope for stmts in given.values() for stmt in stmts}, axis)
        given = {
            sp: [Statement(st.s, st.r, st.o, to_axis[st.scope]) for st in stmts]
            for sp, stmts in given.items()
        }
    filt = FilterIndex()
    splits: dict[str, list[Statement]] = {}
    for sp, stmts in given.items():
        for stmt in stmts:
            filt.add(sp, stmt, axis)
        splits[sp] = list(stmts)
    return TemporalKB(
        entities=entities,
        relations=relations,
        axis=axis,
        splits=splits,
        filter=filt,
        n_base_relations=n_base_relations or len(relations),
    )


def load_dataset(train_path, valid_path, test_path, missing: str = MISSING) -> TemporalKB:
    """Load a TSV dataset. The axis spans the training split's year range;
    validation/test years outside it are clamped to the nearest endpoint.

    Each distinct scope is classified and converted to the axis once, and
    each statement is created once, with its axis scope."""
    entities, relations = Vocab(), Vocab()
    scopes: dict = {}
    raw = {"train": _read_split(train_path, entities, relations, missing, scopes)}
    train_scopes = set(scopes.values())
    # ids are assigned in first-seen order and the training split is read
    # first, so the ids it assigned are exactly its entities and relations
    n_train_e, n_train_r = len(entities), len(relations)
    raw["valid"] = _read_split(valid_path, entities, relations, missing, scopes)
    raw["test"] = _read_split(test_path, entities, relations, missing, scopes)
    if not raw["train"]:
        raise DatasetError(f"training split {train_path} is empty")
    lo, hi = _train_year_span(train_scopes)
    axis = TimeAxis(origin=lo, length=hi - lo + 1)

    only_eval_e = len(entities) - n_train_e
    only_eval_r = len(relations) - n_train_r
    if only_eval_e or only_eval_r:
        logger.info(
            "%d entities and %d relations appear only outside the training split",
            only_eval_e,
            only_eval_r,
        )
    to_axis = _axis_scopes(set(scopes.values()), axis)
    splits = {
        sp: [Statement(s, r, o, to_axis[scope]) for s, r, o, scope in rows]
        for sp, rows in raw.items()
    }
    return build_kb(splits, entities, relations, axis, scopes_in_years=False)


def add_inverse_relations(kb: TemporalKB) -> TemporalKB:
    """Return a KB with a reciprocal relation r^-1 and a mirrored statement
    (o, r^-1, s, scope) for every statement; doubles the relation count."""
    if kb.has_inverses:
        return kb
    relations = Vocab()
    for label in kb.relations.labels:
        relations.add(label)
    for label in kb.relations.labels:
        relations.add(f"{label}^-1")
    n_base = kb.n_base_relations
    # forward and inverse keys are disjoint, so copying the base rows and
    # adding the mirrors gives every key its rows in statement order
    filt = kb.filter.copy()
    splits = {}
    for sp in SPLITS:
        out = []
        for stmt in kb.splits[sp]:
            mirror = Statement(stmt.o, stmt.r + n_base, stmt.s, stmt.scope)
            filt.add(sp, mirror, kb.axis)
            out.append(stmt)
            out.append(mirror)
        splits[sp] = out
    return TemporalKB(
        entities=kb.entities,
        relations=relations,
        axis=kb.axis,
        splits=splits,
        filter=filt,
        n_base_relations=n_base,
    )


@dataclass(frozen=True)
class SynthConfig:
    """Planted-timeline generator settings."""

    seed: int
    n_entities: int
    n_relations: int
    axis_length: int
    n_rules: int
    origin_year: int = 1980
    instant_echoes: int = 1  # train-split instant statements per segment


#: most objects on one planted timeline
MAX_SEGMENTS = 4


#: manifest row: (s, r, o, start, end, split) as TSV-ready strings
ManifestRow = tuple[str, str, str, str, str, str]


def generate_synthetic(config: SynthConfig) -> tuple[TemporalKB, list[ManifestRow]]:
    """Generate a TKB where each rule (s, r) carries a planted object
    timeline: distinct objects valid on consecutive disjoint intervals
    covering the whole axis. Train holds the interval statements plus
    instant/half-open echoes; valid/test hold instants, sub-intervals,
    half-open and no-time statements inferable from the training timeline.
    Splits are disjoint. The manifest records every emitted statement with
    its split. Subjects come from the first half of the entity range and
    objects from the second half, which keeps the two roles geometrically
    separable. A timeline has 2 to MAX_SEGMENTS segments, and
    max(1, n_rules // 4) no-time training facts are drawn off the rule grid.
    """
    E, R, L = config.n_entities, config.n_relations, config.axis_length
    if R < 2 or L < 2:
        raise DatasetError("synthetic generation needs at least 2 relations and years")
    if config.n_rules < 1:
        raise DatasetError("need at least one rule")
    n_subjects = E // 2
    if config.n_rules > n_subjects * R:
        raise DatasetError(
            f"{config.n_rules} rules exceed the {n_subjects}x{R} subject-relation capacity"
        )
    if E < 4:
        # a timeline needs two distinct objects from the upper half
        raise DatasetError(f"synthetic generation needs at least 4 entities, got {E}")
    object_pool = np.arange(E - E // 2, E)
    max_segments = min(MAX_SEGMENTS, len(object_pool), L)
    rng = np.random.default_rng(config.seed)

    entities, relations = Vocab(), Vocab()
    width = len(str(E - 1))
    for i in range(E):
        entities.add(f"e{i:0{width}d}")
    for j in range(R):
        relations.add(f"rel{j}")

    rule_keys = rng.choice(n_subjects * R, size=config.n_rules, replace=False)
    emitted: set[tuple] = set()
    rows: list[tuple[Statement, str]] = []

    def emit(split: str, s: int, r: int, o: int, scope: TimeScope) -> bool:
        key = (s, r, o, scope.kind, scope.start, scope.end)
        if key in emitted:
            return False
        emitted.add(key)
        rows.append((Statement(s, r, o, scope), split))
        return True

    for key in rule_keys:
        s, r = int(key) // R, int(key) % R
        n_seg = int(rng.integers(2, max_segments + 1))
        cuts = np.sort(rng.choice(np.arange(1, L), size=n_seg - 1, replace=False))
        bounds = [0, *cuts.tolist(), L]
        objects = rng.choice(object_pool, size=n_seg, replace=False)
        for i in range(n_seg):
            a, b = bounds[i], bounds[i + 1] - 1
            o = int(objects[i])
            if a == b:
                emit("train", s, r, o, TimeScope.instant(a))
                continue
            emit("train", s, r, o, TimeScope.closed(a, b))
            span = np.arange(a, b + 1)
            for _ in range(config.instant_echoes):
                emit("train", s, r, o, TimeScope.instant(int(rng.choice(span))))
            for split in ("valid", "test"):
                emit(split, s, r, o, TimeScope.instant(int(rng.choice(span))))
            # closed sub-intervals of the planted segment are inferable
            # from training and exercise interval-query evaluation
            if b - a >= 3:
                for split in ("valid", "test"):
                    if rng.random() < 0.5:
                        x, y = sorted(int(v) for v in rng.integers(a, b + 1, size=2))
                        if x < y and (x, y) != (a, b):
                            emit(split, s, r, o, TimeScope.closed(x, y))
            # occasional half-open and no-time echoes keep every validity
            # kind represented in the evaluation splits
            u = rng.random()
            if u < 0.15:
                emit("test", s, r, o, TimeScope.right_open(a))
            elif u < 0.30:
                emit("test", s, r, o, TimeScope.left_open(b))
            elif u < 0.40:
                emit("test", s, r, o, TimeScope.no_time())
            elif u < 0.50:
                emit("train", s, r, o, TimeScope.right_open(int(rng.choice(span))))

    # purely atemporal facts, train-only noise off the rule grid
    n_atemporal = max(1, config.n_rules // 4)
    free = np.setdiff1d(np.arange(n_subjects * R), rule_keys)
    if len(free):
        picks = rng.choice(free, size=min(n_atemporal, len(free)), replace=False)
        for key in picks:
            s, r = int(key) // R, int(key) % R
            emit("train", s, r, int(rng.choice(object_pool)), TimeScope.no_time())

    # anchor facts so every entity and relation occurs in training, keeping
    # the written dataset's vocabulary identical to the generated one
    mentioned_e = {x for stmt, sp in rows if sp == "train" for x in (stmt.s, stmt.o)}
    mentioned_r = {stmt.r for stmt, sp in rows if sp == "train"}
    for e in range(E):
        if e not in mentioned_e:
            if e >= E - E // 2:
                emit("train", int(rng.integers(0, n_subjects)), int(rng.integers(0, R)), e, TimeScope.no_time())
            else:
                emit("train", e, int(rng.integers(0, R)), int(rng.choice(object_pool)), TimeScope.no_time())
    for r in range(R):
        if r not in mentioned_r:
            emit("train", int(rng.integers(0, n_subjects)), r, int(rng.choice(object_pool)), TimeScope.no_time())

    axis = TimeAxis(origin=config.origin_year, length=L)
    split_statements: dict[str, list[Statement]] = {sp: [] for sp in SPLITS}
    manifest: list[ManifestRow] = []
    for stmt, split in rows:
        split_statements[split].append(stmt)
        year_scope = TimeScope(
            stmt.scope.kind,
            None if stmt.scope.start is None else axis.year_of(stmt.scope.start),
            None if stmt.scope.end is None else axis.year_of(stmt.scope.end),
        )
        manifest.append(
            (
                entities.labels[stmt.s],
                relations.labels[stmt.r],
                entities.labels[stmt.o],
                MISSING if year_scope.start is None else str(year_scope.start),
                MISSING if year_scope.end is None else str(year_scope.end),
                split,
            )
        )
    # every timeline partitions [0, L-1], so the train split always pins
    # both axis endpoints and a reload reproduces the same axis
    kb = build_kb(split_statements, entities, relations, axis, scopes_in_years=False)
    return kb, manifest


def write_dataset(kb: TemporalKB, out_dir, manifest: list[ManifestRow] | None = None) -> None:
    """Write train/valid/test TSVs (and manifest.tsv when given) under out_dir."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    for sp in SPLITS:
        with open(os.path.join(out_dir, f"{sp}.txt"), "w", encoding="utf-8") as fh:
            for stmt in kb.splits[sp]:
                fh.write(format_statement(stmt, kb.entities, kb.relations, kb.axis) + "\n")
    if manifest is not None:
        with open(os.path.join(out_dir, "manifest.tsv"), "w", encoding="utf-8") as fh:
            for row in manifest:
                fh.write("\t".join(row) + "\n")
