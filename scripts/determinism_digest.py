#!/usr/bin/env python3
"""Print SHA-256 digests of training and evaluation outputs, one line per variant.

Trains the seed-fixed determinism dataset (20 entities, 3 relations plus
inverses, 12 years) with its TrainConfig (d=8, k=4, lr=0.01, batch 32,
50 steps, seed 13) for six variants, and for each prints the SHA-256 of
the checkpoint, of the float64 parameter arrays that train() returned (the
float32 checkpoint can hide a change in their last bits), of the train.log
lines, of the link and time report texts on the test split, of the
link report text on the training split with filter train,valid (its
queries span several of eval_link_prediction's chunks), and of the time
report text on the training split's forward statements (they span
several relation groups and chunks of eval_time_prediction, and several
statements share a subject), both at the default tau=0.5 and at the
benchmark's k=10, tau=0.95. A line synth= holds the SHA-256 of the
manifests generate_synthetic draws for that dataset and for the c07
acceptance config (50 entities, 5 relations, 40 years, 85 rules), which
the benchmark's c07 workloads also use. A line load= holds, for each of
those two datasets, the SHA-256 of the KB that
add_inverse_relations(load_dataset(...)) reads back from its TSVs, written
by write_dataset with one valid and one test line whose years lie off the
training axis: the vocabulary labels, the axis, every split's statements
in order, and every split's filter rows, keys sorted and the row order
under each key kept. Its field edge holds that digest for EDGE_SPLITS, a
small dataset of year texts that loading must convert alike: leading
zeros, negative years and -0, half-open scopes at both axis ends, and
valid and test years off the axis, some of whose scopes merge once
clamped. Its fields det.gen and c07.gen hold the same digest
of add_inverse_relations(generate_synthetic(...)[0]), the KB that
build_kb assembles: build_kb, load_dataset and add_inverse_relations
build every split's filter rows the same way (FilterIndex), so a change
to that shows on both kinds of construction. A line c07= holds the SHA-256 of the float64
parameters after 60 steps on that c07 dataset at the benchmark's learning
config (d=64, k=16, lr=0.01, batch 64, gamma 24, alpha 0.5, seed 0, no
validation), for te,tns and for dm,tr,si with the benchmark's beta of
0.01. A line c07time= holds the SHA-256 of each of those models' time
report text (k=10, tau=0.95) on the c07 test split's forward statements:
the d=64 time path the benchmark runs. A line c07link= holds the SHA-256
of each of those models' link report text on the c07 test split with
filter train,valid: the d=64 link path the benchmark runs. A line rows= holds
the SHA-256 of the float64 parameters after 30 steps on a synthetic with
2,000 entities (d=8, k=4, batch 32, seed 3, no validation), for te,tns
and for dm,tr,si with beta 0.01: a step touches about a tenth of the
entity rows, so most rows take Adam's untouched-row path every step.
A line multiblock= holds, for a te,tns model trained 20 steps at d=64 on
a synthetic with 3,000 entities (more than one of score_entities' row
blocks, so even its one (d,) box is scored on every usable core, while
c07's 50 entities are one row block and split only several query blocks),
the SHA-256 of its link report text on the test
split with filter train,valid, and the SHA-256 of the raw score bytes of
32 test queries scored as one (32, d) batch of boxes and of one (d,) box.
A line longaxis= holds, for te,tns and for dm,tr,si with beta 0.01, each
trained 20 steps at d=64 on a synthetic with a 200-year axis (60
entities), the SHA-256 of its time report text (k=10, tau=0.95) on the
test split's forward statements: at 5 statements per chunk that call
spans many chunks and is split over the usable cores, which c07's 40-year
axis never is.
A line samples= holds, for te,tns, te,si,tns and dm,tr,si (k=16, one
default_rng(0) each), the SHA-256 over every c07 training statement's
make_training_sample output in split order: the plan's timestamps, the
entity negatives, the time negatives and float.hex of the 1/n_q weight.
A sampler change then shows on a line of its own, not only through the
trained parameters.
A line cli= holds the SHA-256 over the sorted relative paths and bytes
of every file that a fixed command-line sequence writes in one temporary
working directory, followed by each command's standard output in
sequence order: gen-synthetic (the determinism dataset), train,
eval-link, eval-time, metrics --output, export-embeddings, stats, and
predict both at one year (-t) and over a timeline (--interval), each run
through cli.main, so the snapshots it writes hold relative paths.
Run it on two commits
and diff the output to check that a change leaves generated data,
parameters, checkpoints, logs and reports byte-identical:

    PYTHONPATH=src python scripts/determinism_digest.py > digest.txt

BLAS runs on one thread, as in the benchmark: at d=64 the c07 te,tns
parameters differ in their last bits between one and two threads.
"""

import contextlib
import dataclasses
import hashlib
import io
import os
import tempfile

# must be set before numpy is imported; the values of perfbench/run.py's THREAD_ENV
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import numpy as np

from time2box import cli
from time2box.data import (
    SPLITS,
    SynthConfig,
    add_inverse_relations,
    generate_synthetic,
    load_dataset,
    write_dataset,
)
from time2box.evaluation import eval_link_prediction, eval_time_prediction
from time2box.model import PARAM_ORDER, BoxEmbedding, Variant, query_box, score_entities
from time2box.training import TrainConfig, make_training_sample, save_checkpoint, train

SYNTH = SynthConfig(seed=5, n_entities=20, n_relations=3, axis_length=12, n_rules=25)
C07_SYNTH = SynthConfig(
    seed=7, n_entities=50, n_relations=5, axis_length=40, n_rules=85, instant_echoes=2
)
VARIANTS = ("te", "te,tns", "dm,tr,si,tns", "te,si,tns", "te,tr", "dm,tr,si")
#: (variant, beta) of the benchmark's c07 workloads
C07_VARIANTS = (("te,tns", 0.0), ("dm,tr,si", 0.01))
#: variants of the samples= line: time negatives with one and with two
#: timestamps per plan, and entity negatives only
SAMPLE_VARIANTS = ("te,tns", "te,si,tns", "dm,tr,si")
MULTIBLOCK_SYNTH = SynthConfig(seed=19, n_entities=3000, n_relations=4, axis_length=20, n_rules=60)
LONGAXIS_SYNTH = SynthConfig(seed=23, n_entities=60, n_relations=4, axis_length=200, n_rules=80)
ROWS_SYNTH = SynthConfig(seed=11, n_entities=2000, n_relations=4, axis_length=30, n_rules=600)
#: the lines of the load= line's edge dataset per split; its axis is -5..12
EDGE_SPLITS = {
    "train": (
        "a\tr\tb\t-0005\t0003",  # closed, from the axis start
        "a\tr\tc\t-5\t-",  # right-open at the axis start
        "b\tr\tc\t-\t0012",  # left-open at the axis end
        "c\ts\ta\t007\t7",  # an instant written two ways
        "c\ts\tb\t-\t-",
        "d\ts\ta\t0\t-0",  # 0 and -0 are one instant
    ),
    "valid": (
        "a\tr\tb\t-20\t-9",  # below the axis: clamped to its first year
        "a\tr\tc\t-7\t3",
        "b\ts\td\t13\t-",  # right-open past the axis end
        "d\tr\ta\t-\t-6",  # left-open before the axis start
        "a\tr\tb\t-19\t-10",  # merges with -20..-9 once clamped
    ),
    "test": (
        "c\tr\td\t12\t40",
        "c\tr\td\t-\t012",
        "d\ts\tc\t-0012\t-0012",
        "a\tr\tb\t00\t5",
        "e\tr\ta\t99\t-",  # an entity seen only in the test split
    ),
}


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def params_digest(params) -> str:
    return sha256(b"".join(params.arrays[name].tobytes() for name in PARAM_ORDER))


def digest_line(kb, spec: str, work_dir: str) -> str:
    cfg = TrainConfig(
        d=8, k=4, lr=0.01, batch=32, steps=50, seed=13, eval_every=25,
        variant=Variant.parse(spec),
    )
    log_lines = []
    params, _ = train(kb, cfg, progress=lambda entry: log_lines.append(entry.format() + "\n"))
    path = os.path.join(work_dir, "checkpoint.t2b")
    save_checkpoint(params, path, cfg.variant)
    with open(path, "rb") as fh:
        checkpoint = fh.read()
    test = kb.splits["test"]
    link_report = eval_link_prediction(test, params, kb, cfg.variant)
    train_link_report = eval_link_prediction(
        kb.splits["train"], params, kb, cfg.variant, filter_splits=("train", "valid")
    )
    # as `time2box eval-time`: each original statement once, forward direction
    forward = test.select(test.r < kb.n_base_relations)
    time_report = eval_time_prediction(forward, params, kb, cfg.variant)
    train_split = kb.splits["train"]
    train_forward = train_split.select(train_split.r < kb.n_base_relations)
    train_time_report = eval_time_prediction(train_forward, params, kb, cfg.variant)
    tau95_report = eval_time_prediction(train_forward, params, kb, cfg.variant, k=10, tau=0.95)
    fields = [
        f"checkpoint={sha256(checkpoint)}",
        f"params={params_digest(params)}",
        f"train.log={sha256(''.join(log_lines).encode())}",
        f"link={sha256(link_report.to_text().encode())}",
        f"link.train={sha256(train_link_report.to_text().encode())}",
        f"time={sha256(time_report.to_text().encode())}",
        f"time.train={sha256(train_time_report.to_text().encode())}",
        f"time.tau95={sha256(tau95_report.to_text().encode())}",
    ]
    return f"{spec:<13} " + " ".join(fields)


def kb_digest(kb) -> str:
    parts = [*kb.entities.labels, *kb.relations.labels, f"axis {kb.axis.origin} {kb.axis.length}"]
    for sp in SPLITS:
        parts += (f"{sp} {st.s} {st.r} {st.o} {st.scope}" for st in kb.splits[sp])
        parts += (f"{sp} {key} {kb.filter.rows(sp, *key)}" for key in kb.filter.keys(sp))
    return sha256("\n".join(parts).encode())


def load_line(work_dir: str) -> str:
    edge_dir = os.path.join(work_dir, "edge")
    os.makedirs(edge_dir)
    paths = [os.path.join(edge_dir, f"{sp}.txt") for sp in SPLITS]
    for sp, path in zip(SPLITS, paths):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in EDGE_SPLITS[sp]))
    fields = [f"edge:{kb_digest(add_inverse_relations(load_dataset(*paths)))}"]
    generated = []
    for name, cfg in (("det", SYNTH), ("c07", C07_SYNTH)):
        kb, _ = generate_synthetic(cfg)
        generated.append(f"{name}.gen:{kb_digest(add_inverse_relations(kb))}")
        out_dir = os.path.join(work_dir, name)
        write_dataset(kb, out_dir)
        s, r, o = kb.entities.labels[0], kb.relations.labels[0], kb.entities.labels[-1]
        first, last = kb.axis.origin, kb.axis.last_year
        # years off the training axis, which loading clamps onto it
        off_axis = {"valid": f"{first - 9}\t{first - 2}", "test": f"{last + 3}\t-"}
        for sp, years in off_axis.items():
            with open(os.path.join(out_dir, f"{sp}.txt"), "a", encoding="utf-8") as fh:
                fh.write(f"{s}\t{r}\t{o}\t{years}\n")
        paths = [os.path.join(out_dir, f"{sp}.txt") for sp in SPLITS]
        fields.append(f"{name}:{kb_digest(add_inverse_relations(load_dataset(*paths)))}")
    return "load=" + " ".join(fields + generated)


def c07_lines() -> list[str]:
    kb = add_inverse_relations(generate_synthetic(C07_SYNTH)[0])
    kb = dataclasses.replace(kb, splits={**kb.splits, "valid": []})
    test = kb.splits["test"]
    forward = test.select(test.r < kb.n_base_relations)
    fields, time_fields, link_fields = [], [], []
    for spec, beta in C07_VARIANTS:
        cfg = TrainConfig(
            d=64, k=16, lr=0.01, batch=64, gamma=24.0, alpha=0.5, seed=0, steps=60,
            beta=beta, variant=Variant.parse(spec),
        )
        params, _ = train(kb, cfg)
        fields.append(f"{spec}:{params_digest(params)}")
        report = eval_time_prediction(forward, params, kb, cfg.variant, k=10, tau=0.95)
        time_fields.append(f"{spec}:{sha256(report.to_text().encode())}")
        report = eval_link_prediction(
            kb.splits["test"], params, kb, cfg.variant, filter_splits=("train", "valid")
        )
        link_fields.append(f"{spec}:{sha256(report.to_text().encode())}")
    return [
        "c07=" + " ".join(fields),
        "c07time=" + " ".join(time_fields),
        "c07link=" + " ".join(link_fields),
    ]


def multiblock_line() -> str:
    kb = add_inverse_relations(generate_synthetic(MULTIBLOCK_SYNTH)[0])
    kb = dataclasses.replace(kb, splits={**kb.splits, "valid": []})
    cfg = TrainConfig(d=64, k=16, lr=0.01, batch=64, steps=20, seed=0, variant=Variant.parse("te,tns"))
    params, _ = train(kb, cfg)
    test = kb.splits["test"]
    report = eval_link_prediction(test, params, kb, cfg.variant, filter_splits=("train", "valid"))
    # as link chunks build them: (Q, 1) boxes, one timestamp each
    s, r = test.s[:32, None], test.r[:32, None]
    times = (np.arange(32) % kb.axis.length)[:, None, None]
    box = query_box(params, cfg.variant, s, r, times)
    batch = score_entities(BoxEmbedding(box.center_value()[:, 0], box.offset_value()[:, 0]), params)
    single = score_entities(query_box(params, cfg.variant, int(s[0, 0]), int(r[0, 0]), [3]), params)
    return (
        f"multiblock=link:{sha256(report.to_text().encode())} "
        f"scores:{sha256(batch.tobytes() + single.tobytes())}"
    )


def longaxis_line() -> str:
    kb = add_inverse_relations(generate_synthetic(LONGAXIS_SYNTH)[0])
    kb = dataclasses.replace(kb, splits={**kb.splits, "valid": []})
    test = kb.splits["test"]
    forward = test.select(test.r < kb.n_base_relations)
    fields = []
    for spec, beta in C07_VARIANTS:
        cfg = TrainConfig(
            d=64, k=16, lr=0.01, batch=64, steps=20, seed=0, beta=beta, variant=Variant.parse(spec)
        )
        params, _ = train(kb, cfg)
        report = eval_time_prediction(forward, params, kb, cfg.variant, k=10, tau=0.95)
        fields.append(f"{spec}:{sha256(report.to_text().encode())}")
    return "longaxis=" + " ".join(fields)


def rows_line() -> str:
    kb = add_inverse_relations(generate_synthetic(ROWS_SYNTH)[0])
    kb = dataclasses.replace(kb, splits={**kb.splits, "valid": []})
    fields = []
    for spec, beta in C07_VARIANTS:
        cfg = TrainConfig(
            d=8, k=4, lr=0.01, batch=32, steps=30, seed=3, beta=beta, variant=Variant.parse(spec)
        )
        params, _ = train(kb, cfg)
        fields.append(f"{spec}:{params_digest(params)}")
    return "rows=" + " ".join(fields)


def samples_line() -> str:
    kb = add_inverse_relations(generate_synthetic(C07_SYNTH)[0])
    fields = []
    for spec in SAMPLE_VARIANTS:
        cfg = TrainConfig(k=16, variant=Variant.parse(spec))
        rng = np.random.default_rng(0)
        samples = (make_training_sample(stmt, kb, cfg, rng) for stmt in kb.splits["train"])
        text = "".join(
            f"{x.plan.time_projections} {x.negatives_entities} {x.negatives_times} "
            f"{float.hex(x.weight)}\n"
            for x in samples
        )
        fields.append(f"{spec}:{sha256(text.encode())}")
    return "samples=" + " ".join(fields)


#: the command lines cli_line runs, in order, in one working directory
CLI_SEQUENCE = (
    "gen-synthetic --out data --seed 5 --entities 20 --relations 3 --axis-length 12 --rules 25",
    "train --data data --out run --d 8 --k 4 --lr 0.01 --batch 32 --steps 50 --seed 13"
    " --eval-every 25 --variant te,tns --quiet",
    "eval-link --checkpoint run/checkpoint.t2b --data data --out run",
    "eval-time --checkpoint run/checkpoint.t2b --data data --out run --k 10 --tau 0.95",
    "metrics --input intervals.tsv --output run/metrics.tsv",
    "export-embeddings --checkpoint run/checkpoint.t2b --data data --out run/emb.tsv",
    "stats data",
    "predict --checkpoint run/checkpoint.t2b --data data -s e00 -r rel0 -t 1985",
    "predict --checkpoint run/checkpoint.t2b --data data -s e00 -r rel0 --interval 1983:1988",
)


def cli_line(work_dir: str) -> str:
    cwd = os.getcwd()
    os.chdir(work_dir)
    try:
        with open("intervals.tsv", "w", encoding="utf-8") as fh:
            fh.write("1990\t1995\t1991\t1994\n2011\t2016\t2009\t2013\n")
        stdouts = []
        for command in CLI_SEQUENCE:
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                code = cli.main(command.split())
            if code != 0:
                raise RuntimeError(f"time2box {command} exited {code}")
            stdouts.append(stdout.getvalue())
    finally:
        os.chdir(cwd)
    paths = sorted(
        os.path.relpath(os.path.join(root, name), work_dir)
        for root, _, names in os.walk(work_dir)
        for name in names
    )
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.encode() + b"\0")
        with open(os.path.join(work_dir, path), "rb") as fh:
            digest.update(fh.read())
    for text in stdouts:
        digest.update(b"\0" + text.encode())
    return f"cli={digest.hexdigest()}"


def main():
    kb, _ = generate_synthetic(SYNTH)
    kb = add_inverse_relations(kb)
    with tempfile.TemporaryDirectory() as work_dir:
        for spec in VARIANTS:
            print(digest_line(kb, spec, work_dir), flush=True)
    manifests = [generate_synthetic(cfg)[1] for cfg in (SYNTH, C07_SYNTH)]
    rows = "".join("\t".join(row) + "\n" for manifest in manifests for row in manifest)
    print(f"synth={sha256(rows.encode())}", flush=True)
    with tempfile.TemporaryDirectory() as work_dir:
        print(load_line(work_dir), flush=True)
    for line in c07_lines():
        print(line, flush=True)
    print(multiblock_line(), flush=True)
    print(longaxis_line(), flush=True)
    print(rows_line(), flush=True)
    print(samples_line(), flush=True)
    with tempfile.TemporaryDirectory() as work_dir:
        print(cli_line(work_dir))


if __name__ == "__main__":
    main()
