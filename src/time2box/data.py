"""Temporal knowledge bases: parsing, indexing, time axis, synthetic generation.

A statement is a (subject, relation, object) triple scoped by one of five
validity kinds: no time, a single year, a known start, a known end, or a
closed year interval. Datasets are 5-column TSV files (one per split); the
time axis is the contiguous range of years observed in the training split.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from collections.abc import Sequence
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


#: the ScopeKind of each kind code of a scope tuple (kind code, start, end),
#: the form a scope takes while a KB is loaded or assembled
KINDS = tuple(ScopeKind)
_NO_TIME, _INSTANT, _RIGHT_OPEN, _LEFT_OPEN, _CLOSED = range(len(KINDS))


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


class ScopeTable:
    """The distinct axis scopes of one KB, from scope tuples: per id, the one
    TimeScope object of that value and the (lo, hi) span of its filter rows,
    the axis indices that scope_span gives (None, None for no time; a span
    off the axis raises DatasetError). The splits of a KB share its table."""

    def __init__(self, axis: TimeAxis, scopes):
        self.scopes = [TimeScope(KINDS[k], start, end) for k, start, end in scopes]
        self.spans = [scope_span(x, axis) if x.is_temporal else (None, None) for x in self.scopes]


class Statements(Sequence):
    """One split's statements as int columns: subject, relation, object and
    a ScopeTable id. Indexing (numpy integers too), slicing and iterating
    build Statement objects on access; slices are lists. An indexed or
    sliced statement is kept, as training indexes the same statements step
    after step; an iteration's are not."""

    def __init__(self, s, r, o, scope, table: ScopeTable):
        self.s, self.r, self.o, self.scope, self.table = s, r, o, scope, table
        self._indexed: list[Statement | None] = [None] * len(s)

    def __len__(self) -> int:
        return len(self.s)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        stmt = self._indexed[i]
        if stmt is None:
            scope = self.table.scopes[self.scope[i]]
            stmt = Statement(int(self.s[i]), int(self.r[i]), int(self.o[i]), scope)
            self._indexed[i] = stmt
        return stmt

    def select(self, rows) -> "Statements":
        """The statements at `rows` (indices or a boolean mask over the
        split), as columns on the same scope table; none is built."""
        return Statements(self.s[rows], self.r[rows], self.o[rows], self.scope[rows], self.table)

    def __iter__(self):
        scopes = self.table.scopes
        columns = (self.s.tolist(), self.r.tolist(), self.o.tolist(), self.scope.tolist())
        for s, r, o, c in zip(*columns):
            yield Statement(s, r, o, scopes[c])


class _KeyRows(dict):
    """One split's filter rows: a CSR over (s, r) keys, and the (o, lo, hi)
    rows of each key looked up so far, built on first lookup.

    The key codes s * radix + r are sorted by a stable argsort, so the rows
    under each key keep statement order. `codes` lists each code once, and
    `starts[i]:starts[i + 1]` are key i's rows in `o` and `scope`; the two
    are lists, which a lookup searches faster than arrays."""

    def __init__(self, stmts: Statements):
        super().__init__()
        self.table = stmts.table
        self.radix = int(stmts.r.max()) + 1 if len(stmts) else 1
        codes = stmts.s.astype(np.int64) * self.radix + stmts.r
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        first = np.flatnonzero(np.diff(codes)) + 1
        self.codes = codes[np.concatenate(([0], first))].tolist() if len(codes) else []
        self.starts = [0, *first.tolist(), len(codes)]
        self.o, self.scope = stmts.o[order], stmts.scope[order]

    def __missing__(self, key: tuple[int, int]) -> list:
        s, r = key
        rows = []
        if 0 <= r < self.radix:
            code = s * self.radix + r
            i = bisect_left(self.codes, code)
            if i < len(self.codes) and self.codes[i] == code:
                a, b = self.starts[i], self.starts[i + 1]
                spans = self.table.spans
                objects, scopes = self.o[a:b].tolist(), self.scope[a:b].tolist()
                rows = [(o, *spans[c]) for o, c in zip(objects, scopes)]
        self[key] = rows
        return rows


class FilterIndex:
    """True answers per split as validity rows: (s, r) -> [(o, lo, hi), ...].

    One row per statement, in statement order under each key. A no-time
    statement has lo = hi = None; a temporal one covers the axis indices
    lo..hi of its discretization (the known endpoint for half-open scopes,
    every year for closed ones). Atemporal lookups see every row, timed
    lookups stab the intervals. Each split's rows are a CSR (_KeyRows).
    """

    def __init__(self, splits: dict[str, Statements]):
        self._rows = {sp: _KeyRows(stmts) for sp, stmts in splits.items()}

    def keys(self, split: str) -> list[tuple[int, int]]:
        """The (s, r) keys with rows in a split, sorted."""
        rows = self._rows[split]
        return [divmod(code, rows.radix) for code in rows.codes]

    def rows(self, split: str, s: int, r: int) -> list[tuple[int, int | None, int | None]]:
        """A copy of the (o, lo, hi) rows under (s, r) in a split, in statement order."""
        return list(self._rows[split][s, r])

    @cached_property
    def max_train_objects(self) -> int:
        """Most distinct training objects under one (s, r) key, computed on
        first use."""
        rows = self._rows["train"]
        key_of_row = np.repeat(np.arange(len(rows.codes), dtype=np.int64), np.diff(rows.starts))
        n_objects = int(rows.o.max(initial=0)) + 1
        pairs = np.unique(key_of_row * n_objects + rows.o)
        return int(np.bincount(pairs // n_objects, minlength=1).max())

    def atemporal_objects(self, s: int, r: int, splits=SPLITS) -> set[int]:
        key = (s, r)
        return {o for sp in splits for o, _, _ in self._rows[sp][key]}

    def timed_objects(self, s: int, r: int, t: int, splits=SPLITS) -> set[int]:
        key = (s, r)
        out: set[int] = set()
        for sp in splits:
            for o, lo, hi in self._rows[sp][key]:
                if lo is not None and lo <= t <= hi:
                    out.add(o)
        return out

    def false_times(self, s: int, r: int, o: int, n_times: int) -> np.ndarray:
        """Boolean axis mask: True at t where (s, r, o, t) is not in training."""
        mask = np.ones(n_times, dtype=bool)
        for o2, lo, hi in self._rows["train"][s, r]:
            if o2 == o and lo is not None:
                mask[lo : hi + 1] = False
        return mask


@dataclass
class TemporalKB:
    """Immutable after construction; safe to share across readers. A split
    is Statements as built, or any sequence of Statement objects."""

    entities: Vocab
    relations: Vocab
    axis: TimeAxis
    splits: dict[str, Sequence[Statement]]
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
        stmts = self.splits[split]
        if isinstance(stmts, Statements):  # each distinct scope's count, from the column
            per_scope = np.bincount(stmts.scope, minlength=len(stmts.table.scopes)).tolist()
            pairs = zip(stmts.table.scopes, per_scope)
        else:
            pairs = ((stmt.scope, 1) for stmt in stmts)
        for scope, n in pairs:
            counts["all"] += n
            counts[scope.kind.value] += n
        return counts


def is_plain_int(text: str) -> bool:
    """An optional "-" followed by ASCII digits: the one integer form a
    year column takes. int() alone would also take "19_92", " 1992",
    "+1992" and non-ASCII digits."""
    digits = text[1:] if text.startswith("-") else text
    return digits.isascii() and digits.isdigit()


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
    kind, start, end = _parse_scope(start_s, end_s, missing, where)
    scope = TimeScope(KINDS[kind], start, end)
    return Statement(entities.add(s_lab), relations.add(r_lab), entities.add(o_lab), scope)


def _parse_scope(start_s: str, end_s: str, missing: str, where: str = "") -> tuple:
    """parse_statement's scope of the year columns start_s and end_s, as a
    scope tuple (kind code, start, end); `where` ends each error message."""

    def year(text: str) -> int | None:
        if text == missing:
            return None
        if not is_plain_int(text):
            raise DatasetError(f"non-integer year {text!r}{where}")
        return int(text)

    start, end = year(start_s), year(end_s)
    if start is None:
        return (_NO_TIME, None, None) if end is None else (_LEFT_OPEN, None, end)
    if end is None:
        return _RIGHT_OPEN, start, None
    if start == end:
        return _INSTANT, start, end
    if start < end:
        return _CLOSED, start, end
    raise DatasetError(f"closed interval with start {start} > end {end}{where}")


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


def _utf8_error(path) -> DatasetError:
    """The error for a file that does not decode as UTF-8: its first bad
    byte, after "path:line: ", with lines counted as text mode counts
    them ("\n", "\r\n" and a lone "\r" each end one)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = raw[: exc.start].decode("utf-8")
        line_no = 1 + before.count("\n") + before.count("\r") - before.count("\r\n")
        return DatasetError(
            f"{path}:{line_no}: byte 0x{raw[exc.start]:02x} is not UTF-8 ({exc.reason})"
        )
    return DatasetError(f"{path}: not UTF-8 when first read")  # it changed since


def numbered_lines(path):
    """(line number, line) per line of a UTF-8 text file, the line end
    kept and a leading byte-order mark dropped; a byte that is not UTF-8
    raises _utf8_error's DatasetError."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError:
        raise _utf8_error(path) from None


def _line_scope(line: str, cols: list[str], missing: str) -> tuple:
    """The scope tuple of a line split at its first three tabs into cols. A
    line with a wrong column count fails as parse_statement fails on it."""
    years = cols[3].rstrip("\n").split("\t") if len(cols) == 4 else ()
    if len(years) != 2:
        parse_statement(line, Vocab(), Vocab(), missing=missing)  # raises
    return _parse_scope(*years, missing)


def _read_split(
    path, entities: Vocab, relations: Vocab, missing: str, pairs: dict, scopes: dict
) -> np.ndarray:
    """(4, n) int32 columns of a split's non-blank lines: subject, relation
    and object ids, assigned as parse_statement assigns them, and the id of
    the line's year scope.

    A line is split at its first three tabs. `pairs` maps the text after
    them (the year columns and the line end) to its year-scope id, and
    `scopes` maps each year scope tuple to its id, given in order of first
    sight, so only unseen year text is classified (_line_scope).
    Text that parsed holds one tab, and the text of a line with a wrong
    column count does not, so such a line never matches. An error is
    raised again as a DatasetError that starts with "path:line: ".
    """
    ints: list[int] = []
    extend = ints.extend
    entity_id, relation_id = entities._ids.get, relations._ids.get
    add_entity, add_relation = entities.add, relations.add
    for line_no, line in numbered_lines(path):
        if not line.strip():
            continue
        cols = line.split("\t", 3)
        scope = pairs.get(cols[-1])
        if scope is None:
            try:
                value = _line_scope(line, cols, missing)
            except DatasetError as exc:
                raise DatasetError(f"{path}:{line_no}: {exc}") from None
            scope = pairs[cols[-1]] = scopes.setdefault(value, len(scopes))
        s_lab, r_lab, o_lab, _ = cols
        # a label's id, or a new one in first-seen order: subject, relation, object
        s = entity_id(s_lab)
        if s is None:
            s = add_entity(s_lab)
        r = relation_id(r_lab)
        if r is None:
            r = add_relation(r_lab)
        o = entity_id(o_lab)
        if o is None:
            o = add_entity(o_lab)
        extend((s, r, o, scope))
    return np.array(ints, dtype=np.int32).reshape(-1, 4).T.copy()


def _train_axis(scopes) -> TimeAxis:
    years = [y for _, start, end in scopes for y in (start, end) if y is not None]
    if not years:
        raise DatasetError("training split has no temporal statements; time axis is undefined")
    return TimeAxis(origin=min(years), length=max(years) - min(years) + 1)


def _assemble(raw, scopes, entities, relations, axis, n_base, in_years: bool) -> TemporalKB:
    """The KB of the splits' (4, n) columns `raw`, whose scope ids index the
    distinct scope tuples `scopes`. Tuples in years (in_years) go to axis
    indices first, a year off the axis clamped to the nearest end, so they
    may merge; each axis tuple enters the ScopeTable once, in first-seen order."""
    if in_years:
        index = axis.index_of
        scopes = [
            (
                kind,
                None if start is None else index(start, clamp=True),
                None if end is None else index(end, clamp=True),
            )
            for kind, start, end in scopes
        ]
    ids: dict[tuple, int] = {}
    to_table = np.array([ids.setdefault(x, len(ids)) for x in scopes], dtype=np.int32)
    table = ScopeTable(axis, ids)
    splits = {sp: Statements(s, r, o, to_table[c], table) for sp, (s, r, o, c) in raw.items()}
    return TemporalKB(entities, relations, axis, splits, FilterIndex(splits), n_base)


def _columns(statements, seen: dict) -> np.ndarray:
    """(4, n) int32 columns of Statement objects: s, r, o and the id that
    `seen` gives the statement's scope value, in order of first sight."""
    ints: list[int] = []
    for st in statements:
        scope = seen.setdefault(st.scope, len(seen))
        ints.extend((st.s, st.r, st.o, scope))
    return np.array(ints, dtype=np.int32).reshape(-1, 4).T.copy()


def build_kb(
    split_statements: dict[str, list[Statement]],
    entities: Vocab,
    relations: Vocab,
    axis: TimeAxis,
    n_base_relations: int | None = None,
    scopes_in_years: bool = True,
) -> TemporalKB:
    """Assemble a TemporalKB from parsed statements, indexing all splits;
    each distinct scope is converted and entered once (_assemble)."""
    seen: dict[TimeScope, int] = {}
    raw = {sp: _columns(split_statements.get(sp, []), seen) for sp in SPLITS}
    scopes = [(KINDS.index(x.kind), x.start, x.end) for x in seen]
    n_base = n_base_relations or len(relations)
    return _assemble(raw, scopes, entities, relations, axis, n_base, scopes_in_years)


def load_dataset(train_path, valid_path, test_path, missing: str = MISSING) -> TemporalKB:
    """Load a TSV dataset. The axis spans the training split's year range;
    validation/test years outside it are clamped to the nearest endpoint.

    Each distinct year text is classified once, into a scope tuple (kind
    code, start, end), each distinct tuple is converted to the axis once
    (_assemble), and each split is read into int columns in one pass."""
    entities, relations = Vocab(), Vocab()
    pairs: dict[str, int] = {}
    scopes: dict[tuple, int] = {}
    raw = {"train": _read_split(train_path, entities, relations, missing, pairs, scopes)}
    train_scopes = list(scopes)
    # ids are assigned in first-seen order and the training split is read
    # first, so the ids it assigned are exactly its entities and relations
    n_train_e, n_train_r = len(entities), len(relations)
    raw["valid"] = _read_split(valid_path, entities, relations, missing, pairs, scopes)
    raw["test"] = _read_split(test_path, entities, relations, missing, pairs, scopes)
    if not raw["train"].shape[1]:
        raise DatasetError(f"training split {train_path} is empty")
    axis = _train_axis(train_scopes)

    only_eval_e = len(entities) - n_train_e
    only_eval_r = len(relations) - n_train_r
    if only_eval_e or only_eval_r:
        logger.info(
            "%d entities and %d relations appear only outside the training split",
            only_eval_e,
            only_eval_r,
        )
    return _assemble(raw, scopes, entities, relations, axis, len(relations), in_years=True)


def add_inverse_relations(kb: TemporalKB) -> TemporalKB:
    """Return a KB with a reciprocal relation r^-1 and a mirrored statement
    (o, r^-1, s, scope) for every statement, each right after its
    statement; doubles the relation count."""
    if kb.has_inverses:
        return kb
    relations = Vocab()
    for label in [*kb.relations.labels, *(f"{label}^-1" for label in kb.relations.labels)]:
        relations.add(label)
    n_base = kb.n_base_relations
    splits = {}
    for sp in SPLITS:
        stmts = kb.splits[sp]
        out = np.empty((4, 2 * len(stmts)), dtype=np.int32)
        out[:, 0::2] = stmts.s, stmts.r, stmts.o, stmts.scope
        out[:, 1::2] = stmts.o, stmts.r + n_base, stmts.s, stmts.scope
        splits[sp] = Statements(*out, stmts.table)
    return TemporalKB(kb.entities, relations, kb.axis, splits, FilterIndex(splits), n_base)


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
        manifest.append((*format_statement(stmt, entities, relations, axis).split("\t"), split))
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
