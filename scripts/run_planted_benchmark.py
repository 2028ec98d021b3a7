#!/usr/bin/env python3
"""Generate a planted-taxonomy dataset, run the full pipeline on it, and
print per-module standalone scores next to the merged result.

This is the desk-scale analogue of evaluating the real system: the planted
pairs play the role of gold data, and the per-module table shows why IS-A
evidence is merged first.
"""

import argparse
import time
from pathlib import Path

from hyperdisc import synthetic
from hyperdisc.cli import PipelineConfig, main as cli_main, module_lists, write_config
from hyperdisc.corpus_io import load_gold, load_queries
from hyperdisc.rank import module_reports


def planted_config(
    dataset: synthetic.PlantedDataset, artifacts: Path, **settings
) -> PipelineConfig:
    """A pipeline over ``dataset`` writing into ``artifacts``, with window 5,
    min_count 5 and learning rate 0.05 unless ``settings`` say otherwise."""
    artifacts.mkdir(parents=True, exist_ok=True)
    return PipelineConfig(
        corpus=str(dataset.corpus),
        vocab=str(dataset.vocab),
        queries=str(dataset.queries),
        gold=str(dataset.gold),
        train_queries=str(dataset.train_queries),
        train_gold=str(dataset.train_gold),
        normalized=str(artifacts / "normalized.txt"),
        hearst_corpus=str(artifacts / "hearst_corpus.tsv"),
        isa_corpus=str(artifacts / "isa_corpus.tsv"),
        cooc_index=str(artifacts / "cooc_index.tsv"),
        embedding=str(artifacts / "embedding.txt"),
        phi=str(artifacts / "phi.txt"),
        predictions=str(artifacts / "predictions.tsv"),
        metrics=str(artifacts / "metrics.tsv"),
        **({"window": 5, "min_count": 5, "lr": 0.05} | settings),
    )


def standalone_reports(cfg: PipelineConfig):
    gold_sets = load_gold(cfg.gold, load_queries(cfg.queries))
    lists_for = module_lists(cfg)
    return module_reports([lists_for(g.query) for g in gold_sets], gold_sets)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workdir", type=Path, help="scratch directory")
    parser.add_argument("--hypernyms", type=int, default=10)
    parser.add_argument("--hyponyms", type=int, default=50)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--epochs", type=int, default=2)
    parser.add_argument("--order-mode", default="fixed", choices=["fixed", "trained"])
    args = parser.parse_args()

    args.workdir.mkdir(parents=True, exist_ok=True)
    dataset = synthetic.generate(
        args.workdir / "data",
        n_hypernyms=args.hypernyms,
        n_hyponyms=args.hyponyms,
        seed=args.seed,
    )
    cfg = planted_config(
        dataset, args.workdir / "artifacts", dim=args.dim, epochs=args.epochs,
        seed=args.seed, order_mode=args.order_mode,
    )
    cfg_path = args.workdir / "config.txt"
    write_config(cfg_path, cfg)

    start = time.perf_counter()
    rc = cli_main(["pipeline", "--config", str(cfg_path)])
    if rc != 0:
        raise SystemExit(rc)
    elapsed = time.perf_counter() - start

    print(f"\npipeline completed in {elapsed:.1f}s")
    print("\nstandalone module scores (test split):")
    reports = standalone_reports(cfg)
    print(f"{'module':8s}  {'MRR':>6s}  {'MAP':>6s}  {'P@1':>6s}")
    for source, rep in reports.items():
        print(
            f"{source.value:8s}  {rep.mrr:6.3f}  {rep.map:6.3f}  {rep.p_at[1]:6.3f}"
        )


if __name__ == "__main__":
    main()
