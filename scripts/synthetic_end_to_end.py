#!/usr/bin/env python3
"""End-to-end experiment on a planted synthetic TKB.

Generates a dataset with known ground truth, trains a model, runs both
evaluation protocols, and prints a compact summary including the
uniform-random-interval baseline for time prediction.
"""

import argparse
import time

import numpy as np

from time2box.data import SynthConfig, add_inverse_relations, generate_synthetic
from time2box.evaluation import (
    eval_link_prediction,
    eval_time_prediction,
    gold_interval,
    random_interval_baseline,
)
from time2box.model import Variant
from time2box.training import TrainConfig, train


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--entities", type=int, default=50)
    ap.add_argument("--relations", type=int, default=5)
    ap.add_argument("--axis-length", type=int, default=40)
    ap.add_argument("--rules", type=int, default=85)
    ap.add_argument("--instant-echoes", type=int, default=2)
    ap.add_argument("--d", type=int, default=64)
    ap.add_argument("--k", type=int, default=16)
    ap.add_argument("--lr", type=float, default=0.01)
    ap.add_argument("--gamma", type=float, default=24.0)
    ap.add_argument("--beta", type=float, default=0.0)
    ap.add_argument("--steps", type=int, default=5000)
    ap.add_argument("--batch", type=int, default=64)
    ap.add_argument("--variant", default="te")
    ap.add_argument("--tau", type=float, default=0.95)
    args = ap.parse_args()

    kb, _ = generate_synthetic(
        SynthConfig(
            seed=args.seed,
            n_entities=args.entities,
            n_relations=args.relations,
            axis_length=args.axis_length,
            n_rules=args.rules,
            instant_echoes=args.instant_echoes,
        )
    )
    kb = add_inverse_relations(kb)
    sizes = {sp: len(kb.splits[sp]) for sp in ("train", "valid", "test")}
    print(f"dataset: {sizes} |E|={kb.n_entities} |R|={kb.n_relations} |T|={kb.axis.length}")

    cfg = TrainConfig(
        d=args.d,
        k=args.k,
        lr=args.lr,
        batch=args.batch,
        steps=args.steps,
        gamma=args.gamma,
        beta=args.beta,
        variant=Variant.parse(args.variant),
        seed=args.seed,
        eval_every=max(args.steps // 10, 1),
    )
    t0 = time.time()
    params, _ = train(kb, cfg, progress=lambda e: print(f"  {e.format()}"))
    print(f"training took {time.time() - t0:.0f}s")

    link = eval_link_prediction(kb.splits["test"], params, kb, cfg.variant)
    o = link.overall
    print(
        f"link prediction: MRR={o.mrr:.4f} MR={o.mr:.1f} "
        f"HITS@1={o.hits1:.4f} HITS@10={o.hits10:.4f}"
    )
    for name, block in sorted(link.by_type.items()):
        print(f"  {name:16s} n={block.count:4d} MRR={block.mrr:.4f} HITS@1={block.hits1:.4f}")

    test = kb.splits["test"]
    statements = list(test.select(test.r < kb.n_base_relations))
    tp = eval_time_prediction(statements, params, kb, cfg.variant, tau=args.tau)
    golds = [g for g in (gold_interval(s) for s in statements) if g is not None]
    baseline = random_interval_baseline(
        golds, kb.axis.length, k=1, trials=200, rng=np.random.default_rng(1)
    )
    print(
        f"time prediction: gaeIOU@1={tp.overall['gaeiou@1']:.4f} "
        f"gaeIOU@10={tp.overall['gaeiou@10']:.4f} "
        f"(single uniform-random-interval baseline={baseline:.4f})"
    )
    for bucket, block in tp.by_duration.items():
        print(f"  {bucket:9s} n={tp.counts[bucket]:4d} gaeIOU@10={block['gaeiou@10']:.4f}")


if __name__ == "__main__":
    main()
