"""Command-line interface: dataset stats, synthetic generation, training,
evaluation, prediction, metric computation, and embedding export.

Configuration is flat key=value files; command-line flags override file
values. Every file-producing run writes its parsed command line beside
its outputs (write_snapshot), and rerunning from that snapshot reproduces it.
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .data import (
    MISSING,
    SPLITS,
    DatasetError,
    ScopeKind,
    SynthConfig,
    add_inverse_relations,
    generate_synthetic,
    is_plain_int,
    load_dataset,
    numbered_lines,
    write_dataset,
)
from .evaluation import (
    Interval,
    NonFiniteScoreError,
    aeiou,
    check_coalesce_parameters,
    eval_link_prediction,
    eval_time_prediction,
    gaeiou,
    giou,
    gold_interval,
)
from .model import Variant, param_shapes, query_box, score_entities
from .training import (
    CheckpointError,
    TrainConfig,
    TrainingDiverged,
    check_dimensions,
    check_negative_sampling,
    load_checkpoint,
    save_checkpoint,
    train,
)

SPLIT_FILES = ("train.txt", "valid.txt", "test.txt")

_TYPE_ROWS = (
    ("#time instant", ScopeKind.INSTANT),
    ("#start time only", ScopeKind.RIGHT_OPEN),
    ("#end time only", ScopeKind.LEFT_OPEN),
    ("#full time interval", ScopeKind.CLOSED),
    ("#no time", ScopeKind.NO_TIME),
)


def load_kb(data_dir: str, missing: str):
    paths = [os.path.join(data_dir, name) for name in SPLIT_FILES]
    for path in paths:
        if not os.path.exists(path):
            raise DatasetError(f"dataset file not found: {path}")
    return load_dataset(*paths, missing=missing)


def read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for line_no, line in numbered_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DatasetError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


#: parsed arguments a snapshot leaves out: the dispatch function, the
#: output path it sits beside, the config file it replaces, and verbosity
_UNRECORDED = ("func", "out", "config", "quiet")


def write_snapshot(path: str, args, **resolved) -> None:
    """Write the command and every parsed flag to path as sorted key=value
    lines, with the values in resolved overlaid; None values are left out."""
    values = {
        key.replace("_", "-"): value
        for key, value in {**vars(args), **resolved}.items()
        if key not in _UNRECORDED and value is not None
    }
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(values):
            fh.write(f"{key}={values[key]}\n")


def resolve(args, file_keys: dict[str, str], name: str):
    """Precedence: explicit CLI flag > config file (raw text) > None."""
    cli_value = getattr(args, name.replace("-", "_"), None)
    return cli_value if cli_value is not None else file_keys.get(name)


#: train keys a flag or config file may set, with their parsers; unset keys
#: take TrainConfig's defaults
TRAIN_KEYS = {
    "d": int, "k": int, "m": int, "lr": float, "batch": int, "steps": int, "gamma": float,
    "alpha": float, "beta": float, "variant": Variant.parse, "seed": int, "eval-every": int,
}


def _split_arg(value: str) -> tuple[str, ...]:
    """Comma-separated split names; an empty value gives no splits."""
    names = tuple(part.strip() for part in value.split(",") if part.strip())
    unknown = [name for name in names if name not in SPLITS]
    if unknown:
        raise UsageError(
            f"unknown split name(s) {', '.join(map(repr, unknown))}; expected {', '.join(SPLITS)}"
        )
    return names


# ---------------------------------------------------------------------------
# commands


def cmd_stats(args) -> int:
    kb = load_kb(args.data, args.missing)
    print(f"#entities\t{kb.n_entities}")
    print(f"#relations\t{kb.n_relations}")
    print(f"time period\t[{kb.axis.origin}, {kb.axis.last_year}]")
    for split in ("train", "valid", "test"):
        counts = kb.type_counts(split)
        print(f"{split}\t#all\t{counts['all']}")
        for row_name, kind in _TYPE_ROWS:
            print(f"{split}\t{row_name}\t{counts[kind.value]}")
    return 0


def cmd_gen_synthetic(args) -> int:
    cfg = SynthConfig(
        seed=args.seed,
        n_entities=args.entities,
        n_relations=args.relations,
        axis_length=args.axis_length,
        n_rules=args.rules,
        origin_year=args.origin,
    )
    kb, manifest = generate_synthetic(cfg)
    write_dataset(kb, args.out, manifest)
    write_snapshot(os.path.join(args.out, "config.resolved"), args)
    counts = {sp: len(kb.splits[sp]) for sp in ("train", "valid", "test")}
    print(f"wrote {args.out}: {counts}, |E|={kb.n_entities}, |R|={kb.n_relations}")
    return 0


#: keys a train config file may set; config.resolved also holds command=train
TRAIN_FILE_KEYS = ("data", "missing", *TRAIN_KEYS)


def _train_config_from(args) -> tuple[TrainConfig, str, str]:
    file_keys = read_config_file(args.config) if args.config else {}
    command = file_keys.pop("command", "train")
    if command != "train":
        raise UsageError(f"{args.config} is a {command} config, not a train config")
    unknown = [key for key in file_keys if key not in TRAIN_FILE_KEYS]
    if unknown:
        raise UsageError(
            f"unknown key(s) {', '.join(map(repr, unknown))} in {args.config}; "
            f"allowed keys: {', '.join(TRAIN_FILE_KEYS)}"
        )
    data_dir = resolve(args, file_keys, "data")
    missing = resolve(args, file_keys, "missing")
    if data_dir is None:
        raise UsageError("--data is required (flag or config file)")
    settings = {}
    for key, parse in TRAIN_KEYS.items():
        field = key.replace("-", "_")
        flag = getattr(args, field)
        if flag is not None:
            settings[field] = parse(flag)
        elif key in file_keys:
            try:
                settings[field] = parse(file_keys[key])
            except ValueError as exc:
                raise ValueError(f"{args.config}: {key}={file_keys[key]}: {exc}") from None
    return TrainConfig(**settings), data_dir, MISSING if missing is None else missing


def _probe_allocation(items: int, what: str) -> None:
    """Allocate `items` 8-byte items as one block and free it, so that memory
    a run cannot get fails before anything is written. numpy raises
    ValueError past its size limit, MemoryError past what the system grants."""
    try:
        np.empty(items)
    except (MemoryError, ValueError):
        raise ValueError(f"cannot allocate {what}") from None


def cmd_train(args) -> int:
    cfg, data_dir, missing = _train_config_from(args)
    kb = add_inverse_relations(load_kb(data_dir, missing))
    try:
        check_negative_sampling(kb, cfg)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _probe_allocation(cfg.batch, f"a batch of {cfg.batch} statements")
    # training holds each parameter table three times: the values and Adam's m and v
    shapes = param_shapes(cfg.d, kb.n_entities, kb.n_relations, kb.axis.length).values()
    _probe_allocation(
        3 * sum(math.prod(shape) for shape in shapes),
        f"the parameter tables for d={cfg.d}, |E|={kb.n_entities}, |R|={kb.n_relations}, "
        f"|T|={kb.axis.length} (years {kb.axis.origin}..{kb.axis.last_year}) and their Adam state",
    )
    os.makedirs(args.out, exist_ok=True)
    write_snapshot(
        os.path.join(args.out, "config.resolved"), args, data=data_dir, missing=missing, **vars(cfg)
    )

    log_path = os.path.join(args.out, "train.log")
    with open(log_path, "w", encoding="utf-8") as log_file:

        def progress(entry):
            log_file.write(entry.format() + "\n")
            log_file.flush()
            if not args.quiet:
                print(entry.format())

        params, _ = train(kb, cfg, progress=progress)
    ckpt = os.path.join(args.out, "checkpoint.t2b")
    save_checkpoint(params, ckpt, cfg.variant)
    print(f"checkpoint written to {ckpt}")
    return 0


def _test_path(args) -> str:
    return os.path.join(args.data, SPLIT_FILES[2])


def _load_model_and_kb(args):
    params, variant = load_checkpoint(args.checkpoint)
    kb = add_inverse_relations(load_kb(args.data, args.missing))
    check_dimensions(params, kb)
    return params, variant, kb


def _write_eval_outputs(args, prefix: str, report) -> None:
    """An evaluation's report, its breakdown and its snapshot."""
    os.makedirs(args.out, exist_ok=True)
    for name, text in (("report.txt", report.to_text()), ("breakdown.tsv", report.breakdown_tsv())):
        with open(os.path.join(args.out, f"{prefix}_{name}"), "w", encoding="utf-8") as fh:
            fh.write(text)
    write_snapshot(os.path.join(args.out, f"{prefix}_config.resolved"), args)


def cmd_eval_link(args) -> int:
    splits = _split_arg(args.filter)
    params, variant, kb = _load_model_and_kb(args)
    if not kb.splits["test"]:
        raise DatasetError(f"the test split {_test_path(args)} has no statements to evaluate")
    report = eval_link_prediction(
        kb.splits["test"], params, kb, variant, filter_splits=splits
    )
    _write_eval_outputs(args, "link", report)
    o = report.overall
    print(
        f"MRR={o.mrr:.4f} MR={o.mr:.1f} HITS@1={o.hits1:.4f} "
        f"HITS@3={o.hits3:.4f} HITS@10={o.hits10:.4f} (filter: {args.filter})"
    )
    return 0


def cmd_eval_time(args) -> int:
    try:
        check_coalesce_parameters(args.k, args.tau)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    params, variant, kb = _load_model_and_kb(args)
    # each original statement is predicted once, in the forward direction;
    # only those rows are built into statements
    test = kb.splits["test"]
    statements = list(test.select(test.r < kb.n_base_relations))
    if all(gold_interval(s) is None for s in statements):
        raise DatasetError(
            f"the test split {_test_path(args)} has no statement with an instant or closed "
            "scope to predict"
        )
    report = eval_time_prediction(statements, params, kb, variant, k=args.k, tau=args.tau)
    _write_eval_outputs(args, "time", report)
    headline = " ".join(
        f"{key}={report.overall.get(key, float('nan')):.4f}"
        for key in ("giou@1", "aeiou@1", "gaeiou@1", f"gaeiou@{args.k}")
    )
    print(f"{headline} (evaluated {report.n_evaluated}, skipped {report.n_skipped})")
    return 0


def cmd_predict(args) -> int:
    if args.topk < 1:
        raise UsageError(f"--topk must be at least 1, got {args.topk}")
    if args.interval is not None and args.interval[0] > args.interval[1]:
        raise UsageError(f"--interval start {args.interval[0]} is after its end {args.interval[1]}")
    if args.interval is not None and args.time is not None:
        raise UsageError("-t/--time cannot be combined with --interval")
    params, variant, kb = _load_model_and_kb(args)
    try:
        s = kb.entities.id_of(args.subject)
    except KeyError:
        raise UsageError(f"unknown entity label {args.subject!r}") from None
    try:
        r = kb.relations.id_of(args.relation)
    except KeyError:
        raise UsageError(f"unknown relation label {args.relation!r}") from None

    def scores_of(times) -> np.ndarray:
        scores = score_entities(query_box(params, variant, s, r, times), params)
        # the first non-finite score in C order; its last index is the entity
        bad = np.argwhere(~np.isfinite(scores))
        if len(bad):
            value, label = scores[tuple(bad[0])], kb.entities.labels[int(bad[0, -1])]
            raise NonFiniteScoreError(f"non-finite score {value} for entity {label}")
        return scores

    if args.interval is not None:
        lo, hi = (kb.axis.index_of(year, clamp=True) for year in args.interval)
        # one (T, 1) box per year, as link chunks build them, so the DeepSets
        # gate stays one GEMV per year; every year is scored before printing
        timeline = scores_of(np.arange(lo, hi + 1)[:, None, None])[:, 0]
        print("year\ttop entity\tscore")
        for t, scores in enumerate(timeline, start=lo):
            best = int(np.argmax(scores))
            print(f"{kb.axis.year_of(t)}\t{kb.entities.labels[best]}\t{scores[best]:.4f}")
        return 0

    t = None if args.time is None else kb.axis.index_of(args.time, clamp=True)
    scores = scores_of(() if t is None else (t,))
    order = np.argsort(-scores, kind="stable")[: args.topk]
    print("rank\tentity\tscore")
    for i, e in enumerate(order, start=1):
        print(f"{i}\t{kb.entities.labels[int(e)]}\t{scores[int(e)]:.4f}")
    return 0


def cmd_metrics(args) -> int:
    # the whole input is parsed before anything is written, so a bad line
    # leaves no partial output behind
    rows: list[str] = []
    for line_no, line in numbered_lines(args.input):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) < 4 or not all(is_plain_int(c) for c in cols[:4]):
            raise DatasetError(f"{args.input}:{line_no}: expected 4 integer columns")
        g_lo, g_hi, p_lo, p_hi = (int(c) for c in cols[:4])
        try:
            gold, pred = Interval(g_lo, g_hi), Interval(p_lo, p_hi)
        except ValueError as exc:
            raise DatasetError(f"{args.input}:{line_no}: {exc}") from None
        values = (giou(gold, pred), aeiou(gold, pred), gaeiou(gold, pred))
        rows.append(line + "".join(f"\t{v:.6f}" for v in values) + "\n")
    if not args.output:
        sys.stdout.writelines(rows)
        return 0
    with open(args.output, "w", encoding="utf-8") as out:
        out.writelines(rows)
    write_snapshot(f"{args.output}.resolved", args)
    return 0


def cmd_export_embeddings(args) -> int:
    params, _, kb = _load_model_and_kb(args)
    if args.table == "entity":
        labels, table = kb.entities.labels, params.arrays["entity_emb"]
    elif args.table == "relation":
        labels, table = kb.relations.labels, params.arrays["relation_emb"]
    else:
        labels = [str(kb.axis.year_of(i)) for i in range(kb.axis.length)]
        table = params.arrays["time_emb"]
    with open(args.out, "w", encoding="utf-8") as fh:
        for label, row in zip(labels, table):
            fh.write(label + "".join(f"\t{v:.8g}" for v in row) + "\n")
    write_snapshot(f"{args.out}.resolved", args)
    print(f"wrote {len(labels)} {args.table} vectors to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class UsageError(Exception):
    """Command-line misuse detected after argparse (exit code 2)."""


def _year_arg(text: str) -> int:
    if not is_plain_int(text):
        raise argparse.ArgumentTypeError(f"expected a year, got {text!r}")
    return int(text)


def _interval_arg(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not (sep and is_plain_int(lo) and is_plain_int(hi)):
        raise argparse.ArgumentTypeError(f"expected YEAR:YEAR, got {text!r}")
    return int(lo), int(hi)


def _attach_interval(argv: list[str]) -> list[str]:
    """`predict --interval -5:1985` as `--interval=-5:1985`, also after an
    abbreviation such as `--inter`: argparse reads a token that starts with
    "-" as an option unless it is a plain negative number, which a YEAR:YEAR
    value never is. Among predict's flags every prefix of `--interval` from
    `--i` on names it alone."""
    if argv[:1] != ["predict"]:
        return argv
    out: list[str] = []
    for arg in argv:
        flag = out[-1] if out else ""
        if len(flag) > 2 and "--interval".startswith(flag) and arg.startswith("-") and ":" in arg:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="time2box",
        description="Temporal knowledge-base completion with box embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags of every command that reads a checkpoint
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--checkpoint", required=True)
    model.add_argument("--data", required=True)
    model.add_argument("--missing", default=MISSING, help="missing-endpoint sentinel")

    p = sub.add_parser("stats", help="print split/validity-type counts")
    p.add_argument("data", help="dataset directory with train/valid/test.txt")
    p.add_argument("--missing", default=MISSING, help="missing-endpoint sentinel")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("gen-synthetic", help="generate a planted-timeline dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--entities", type=int, default=50)
    p.add_argument("--relations", type=int, default=5)
    p.add_argument("--axis-length", type=int, default=40)
    p.add_argument("--rules", type=int, default=120)
    p.add_argument("--origin", type=int, default=1980)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--out", required=True, help="output directory")
    for key, parse in TRAIN_KEYS.items():
        if key == "variant":  # a string, so TrainConfig rejects a bad one with exit 1
            p.add_argument("--variant", help="comma-joined: te|dm plus tr, si, tns")
        else:
            p.add_argument(f"--{key}", type=parse)
    p.add_argument("--missing", help="missing-endpoint sentinel (default '-')")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval-link", parents=[model], help="filtered link-prediction evaluation")
    p.add_argument("--out", required=True)
    p.add_argument("--filter", default="train,valid", help="splits used for filtering")
    p.set_defaults(func=cmd_eval_link)

    p = sub.add_parser("eval-time", parents=[model], help="time-interval prediction evaluation")
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=10, help="ranked intervals per query")
    p.add_argument("--tau", type=float, default=0.5, help="coalescing threshold fraction")
    p.set_defaults(func=cmd_eval_time)

    p = sub.add_parser("predict", parents=[model], help="top-k entities for a query")
    p.add_argument("-s", "--subject", required=True)
    p.add_argument("-r", "--relation", required=True)
    p.add_argument("-t", "--time", type=_year_arg, help="query year")
    p.add_argument("--interval", type=_interval_arg, help="YEAR:YEAR timeline query")
    p.add_argument("--topk", type=int, default=10)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("metrics", help="append gIOU/aeIOU/gaeIOU columns to a TSV")
    p.add_argument("--input", required=True, help="TSV: gold_lo gold_hi pred_lo pred_hi")
    p.add_argument("--output", help="output TSV (default stdout)")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("export-embeddings", parents=[model], help="write label + vector TSV")
    p.add_argument("--out", required=True)
    p.add_argument("--table", choices=("entity", "relation", "time"), default="entity")
    p.set_defaults(func=cmd_export_embeddings)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_interval(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DatasetError, CheckpointError, TrainingDiverged, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
