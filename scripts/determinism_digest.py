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
under each key kept. A line c07= holds the SHA-256 of the float64
parameters after 60 steps on that c07 dataset at the benchmark's learning
config (d=64, k=16, lr=0.01, batch 64, gamma 24, alpha 0.5, seed 0, no
validation), for te,tns and for dm,tr,si with the benchmark's beta of
0.01. A last line, c07time=, holds the SHA-256 of each of those models'
time report text (k=10, tau=0.95) on the c07 test split's forward
statements: the d=64 time path the benchmark runs. Run it on two commits
and diff the output to check that a change leaves generated data,
parameters, checkpoints, logs and reports byte-identical:

    PYTHONPATH=src python scripts/determinism_digest.py > digest.txt

BLAS runs on one thread, as in the benchmark: at d=64 the c07 te,tns
parameters differ in their last bits between one and two threads.
"""

import dataclasses
import hashlib
import os
import tempfile

# must be set before numpy is imported; the values of perfbench/run.py's THREAD_ENV
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

from time2box.data import (
    SPLITS,
    SynthConfig,
    add_inverse_relations,
    generate_synthetic,
    load_dataset,
    write_dataset,
)
from time2box.evaluation import eval_link_prediction, eval_time_prediction
from time2box.model import PARAM_ORDER, Variant
from time2box.training import TrainConfig, save_checkpoint, train

SYNTH = SynthConfig(seed=5, n_entities=20, n_relations=3, axis_length=12, n_rules=25)
C07_SYNTH = SynthConfig(
    seed=7, n_entities=50, n_relations=5, axis_length=40, n_rules=85, instant_echoes=2
)
VARIANTS = ("te", "te,tns", "dm,tr,si,tns", "te,si,tns", "te,tr", "dm,tr,si")
#: (variant, beta) of the benchmark's c07 workloads
C07_VARIANTS = (("te,tns", 0.0), ("dm,tr,si", 0.01))


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
    forward = [s for s in test if s.r < kb.n_base_relations]
    time_report = eval_time_prediction(forward, params, kb, cfg.variant)
    train_forward = [s for s in kb.splits["train"] if s.r < kb.n_base_relations]
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
        rows = kb.filter.rows[sp]
        parts += (f"{sp} {key} {rows[key]}" for key in sorted(rows))
    return sha256("\n".join(parts).encode())


def load_line(work_dir: str) -> str:
    fields = []
    for name, cfg in (("det", SYNTH), ("c07", C07_SYNTH)):
        kb, _ = generate_synthetic(cfg)
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
    return "load=" + " ".join(fields)


def c07_lines() -> list[str]:
    kb = add_inverse_relations(generate_synthetic(C07_SYNTH)[0])
    kb = dataclasses.replace(kb, splits={**kb.splits, "valid": []})
    forward = [s for s in kb.splits["test"] if s.r < kb.n_base_relations]
    fields, time_fields = [], []
    for spec, beta in C07_VARIANTS:
        cfg = TrainConfig(
            d=64, k=16, lr=0.01, batch=64, gamma=24.0, alpha=0.5, seed=0, steps=60,
            beta=beta, variant=Variant.parse(spec),
        )
        params, _ = train(kb, cfg)
        fields.append(f"{spec}:{params_digest(params)}")
        report = eval_time_prediction(forward, params, kb, cfg.variant, k=10, tau=0.95)
        time_fields.append(f"{spec}:{sha256(report.to_text().encode())}")
    return ["c07=" + " ".join(fields), "c07time=" + " ".join(time_fields)]


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
        print(line)


if __name__ == "__main__":
    main()
