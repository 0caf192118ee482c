"""Benchmark workloads: how each one's inputs are generated and selected.
Why each workload exists is recorded in BENCHMARK.json and README.md.

Every workload trains with c07's learning configuration (d=64, k=16,
lr=0.01, batch=64, gamma=24, alpha=0.5, training seed 0).

Each workload has one fixed dataset, drawn by `generate_synthetic` with
the workload's own data seed (7 for the c07 workloads, which is the
acceptance synthetic). The `--seed` argument shuffles the line order of
the valid and test TSVs. Every entity and relation occurs in the training
split, whose order is fixed, so vocabulary ids, training and the set of
evaluated statements are the same for every seed; the quality guards
(link MRR, gaeIOU@10) therefore stay comparable across seeds, which they
would not if the seed drew a new dataset: on c07 they move by 5-15%
between datasets, and wd12k's 40-step model ranks at chance, where MRR is
heavy-tailed. The same seed always gives the same bytes.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

SPLITS = ("train", "valid", "test")

LEARN = dict(d=64, k=16, lr=0.01, batch=64, gamma=24.0, alpha=0.5, seed=0)
LINK_FILTER = ("train", "valid")
TIME_K = 10
TIME_TAU = 0.95
SAMPLED_MAX_QUERIES = 3

C07_SYNTH = dict(seed=7, n_entities=50, n_relations=5, axis_length=40, n_rules=85, instant_echoes=2)
# WIKIDATA12k's entity and relation counts; about 4.5k rules give about
# 32.5k raw training statements on a 200-year axis
WD12K_SYNTH = dict(
    seed=12, n_entities=12544, n_relations=24, axis_length=200, n_rules=4500, origin_year=1800
)


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict  # SynthConfig fields, data seed included
    variant: str
    beta: float
    model_steps: int  # steps of the train() call whose model is evaluated
    setup_repeats: int
    split_sizes: dict | None = None  # seeded valid/test subsample sizes
    link_queries: int | None = None  # per-year query target of the link sample; None = whole test split
    time_statements: int | None = None  # forward test statements sampled; None = all
    # phases timed against the calibration kernel's stream part alone (see
    # calibration.py): those where passes over |E|*d arrays take nearly all the time
    stream_phases: tuple[str, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "c07-te-tns",
            C07_SYNTH,
            "te,tns",
            0.0,
            model_steps=100,
            setup_repeats=15,
        ),
        Workload(
            "wd12k-te-tns",
            WD12K_SYNTH,
            "te,tns",
            0.0,
            model_steps=40,
            setup_repeats=3,
            split_sizes={"valid": 4051, "test": 4043},
            link_queries=48,
            time_statements=240,
            stream_phases=("link",),  # score_entities is about 98% of a query
        ),
        Workload(
            "c07-dm-tr-si",
            C07_SYNTH,
            "dm,tr,si",
            0.01,
            model_steps=100,
            setup_repeats=15,
        ),
    )
}


def _dataset_rows(workload: Workload) -> dict[str, list[tuple[str, ...]]]:
    """The workload's fixed dataset as TSV rows per split, before shuffling."""
    from time2box.data import SynthConfig, generate_synthetic

    _, manifest = generate_synthetic(SynthConfig(**workload.synth))
    rows = {sp: [row[:5] for row in manifest if row[5] == sp] for sp in SPLITS}
    data_rng = np.random.default_rng(workload.synth["seed"])
    for sp, size in (workload.split_sizes or {}).items():
        if size < len(rows[sp]):
            keep = np.sort(data_rng.choice(len(rows[sp]), size=size, replace=False))
            rows[sp] = [rows[sp][i] for i in keep]
    return rows


def _write(rows: dict, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for sp in SPLITS:
        with open(os.path.join(out_dir, f"{sp}.txt"), "w", encoding="utf-8") as fh:
            fh.writelines("\t".join(row) + "\n" for row in rows[sp])


def _read(in_dir: str) -> dict:
    rows = {}
    for sp in SPLITS:
        with open(os.path.join(in_dir, f"{sp}.txt"), encoding="utf-8") as fh:
            rows[sp] = [tuple(line.rstrip("\n").split("\t")) for line in fh]
    return rows


def generate(workload: Workload, seed: int, out_dir: str, cache_root: str) -> None:
    """Write the workload's train/valid/test TSVs under out_dir, with the
    valid and test lines in the order `seed` shuffles them into.

    The unshuffled dataset is cached under cache_root, keyed by the
    generator's source, this file and the numpy version, because drawing
    the wd12k dataset takes about ten seconds.
    """
    import time2box.data

    digest = hashlib.sha256(np.__version__.encode())
    for path in (time2box.data.__file__, __file__):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    cached = os.path.join(cache_root, f"{workload.name}-{digest.hexdigest()[:16]}")
    if os.path.isdir(cached):
        rows = _read(cached)
    else:
        rows = _dataset_rows(workload)
        os.makedirs(cache_root, exist_ok=True)
        staging = tempfile.mkdtemp(dir=cache_root)
        _write(rows, staging)
        try:
            os.rename(staging, cached)
        except OSError:  # another run cached it first
            shutil.rmtree(staging, ignore_errors=True)
    order_rng = np.random.default_rng(seed)
    for sp in ("valid", "test"):
        rows[sp] = [rows[sp][i] for i in order_rng.permutation(len(rows[sp]))]
    _write(rows, out_dir)


def chunks(statements: list, size, n: int = 16) -> list[list]:
    """Split statements, in order, into about n chunks of similar total size."""
    target = sum(size(s) for s in statements) / n
    out, current, filled = [], [], 0
    for stmt in statements:
        current.append(stmt)
        filled += size(stmt)
        if filled >= target:
            out.append(current)
            current, filled = [], 0
    if current:
        out.append(current)
    return out


def per_year_queries(stmt) -> int:
    """Link queries a statement expands to: one per year of a closed interval, else one."""
    scope = stmt.scope
    if scope.start is not None and scope.end is not None:
        return scope.end - scope.start + 1
    return 1


def _canonical(statements: list) -> list:
    """Statements in an order that does not depend on the file's line order."""
    def key(st):
        return (st.s, st.r, st.o, st.scope.kind.value, -1 if st.scope.start is None else st.scope.start,
                -1 if st.scope.end is None else st.scope.end)

    return sorted(statements, key=key)


def link_statements(workload: Workload, kb) -> list:
    """Test statements of the link run: the whole split, or a fixed sample
    drawn until it holds at least `link_queries` per-year queries. The
    sample takes statements of at most SAMPLED_MAX_QUERIES queries, so that
    every timed chunk of it stays short; a query costs the same whatever
    the length of the interval it comes from.

    Both come in an order that does not depend on the seed's line order, so
    every timed chunk holds the same statements for every seed and the
    report's means add up in the same order, to the same last bit."""
    test = _canonical(kb.splits["test"])
    if workload.link_queries is None:
        return test
    pool = [s for s in test if per_year_queries(s) <= SAMPLED_MAX_QUERIES]
    chosen, n_queries = [], 0
    for i in np.random.default_rng(workload.synth["seed"]).permutation(len(pool)):
        chosen.append(int(i))
        n_queries += per_year_queries(pool[i])
        if n_queries >= workload.link_queries:
            break
    return [pool[i] for i in sorted(chosen)]


def time_statements(workload: Workload, kb) -> list:
    """Forward-direction test statements, as `eval-time` evaluates them, or
    a fixed sample of them; in an order that does not depend on the seed,
    as in link_statements. With the test lines in file order, c07's
    gaeIOU@10 differed in its last bit between seeds."""
    pool = _canonical([s for s in kb.splits["test"] if s.r < kb.n_base_relations])
    if workload.time_statements is None or workload.time_statements >= len(pool):
        return pool
    keep = np.random.default_rng(workload.synth["seed"]).choice(len(pool), workload.time_statements, replace=False)
    return [pool[i] for i in sorted(keep)]
