#!/usr/bin/env python3
"""Per-module and merged scores on the benchmark's own input, over a range of seeds.

    PYTHONPATH=src python3 scripts/run_planted_benchmark.py WORKDIR \
        [--seeds FIRST[-LAST]] [--hypernyms N] [--hyponyms N] [--dim D] \
        [--epochs E] [--order-mode {fixed,trained}]

For each seed (default: the one seed 7), generates the hard planted input of
the benchmark's `build` workload (``perfbench/hard.py`` at the sizes and
training settings of ``perfbench/run.py``'s ``SIZES``; the flags override
them) in ``WORKDIR/<seed>``, runs ``hyperdisc pipeline`` on it with its
stdout held back, and prints a table to 4 decimals: each module's standalone
MRR, MAP and P@1 on the test split, then a ``merged`` row scored from
``predictions.tsv``. The module lists come from ``cli.module_lists``, the one
loader ``predict`` answers through, and their scores from
``rank.module_reports``, the scoring that ``order_mode=trained`` ranks the
modules by on the training split. With more than one seed, a last table
holds the mean of each cell over the seeds. Phi MRR moves by about 0.02 from
one seed to the next, so compare two checkouts by these means over ten seeds
or more, never by one seed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from hard import generate_hard  # noqa: E402
from run import SIZES  # noqa: E402

from hyperdisc.cli import (  # noqa: E402
    WRITERS, PipelineConfig, main as cli_main, module_lists, write_config,
)
from hyperdisc.corpus_io import load_gold, load_queries, read_predictions  # noqa: E402
from hyperdisc.metrics import evaluate  # noqa: E402
from hyperdisc.rank import module_reports  # noqa: E402
from hyperdisc.synthetic import check_sizes  # noqa: E402

BUILD = SIZES["build"]


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    if not seeds:  # argparse names the flag and the value
        raise ValueError(text)
    return seeds


def seed_scores(workdir: Path, seed: int, args: argparse.Namespace,
                settings: dict) -> dict[str, tuple]:
    """(MRR, MAP, P@1) of each module and of the merged ranking, from one
    seed's pipeline run in ``workdir`` with the training ``settings``."""
    data = generate_hard(
        workdir / "data", seed, args.hypernyms, args.hyponyms,
        noise_lines=BUILD["noise_lines"], distractor_vocab=BUILD["distractor_vocab"],
    ).planted
    cfg = PipelineConfig(
        corpus=str(data.corpus), vocab=str(data.vocab), queries=str(data.queries),
        gold=str(data.gold), train_queries=str(data.train_queries),
        train_gold=str(data.train_gold),
        # every artifact under its default file name, in ``workdir``
        **{key: str(workdir / PipelineConfig._field_defaults[key]) for key in WRITERS},
        **settings, seed=seed,
    )
    config = workdir / "config.txt"
    write_config(config, cfg)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli_main(["pipeline", "--config", str(config)])
    if rc != 0:
        raise SystemExit(f"seed {seed}: pipeline exited {rc}")
    gold = load_gold(cfg.gold, load_queries(cfg.queries))
    reports = module_reports(module_lists(cfg)([g.query for g in gold]), gold)
    rows = {source.value: report for source, report in reports.items()}
    rows["merged"] = evaluate(read_predictions(cfg.predictions), gold)
    return {name: (report.mrr, report.map, report.p_at[1]) for name, report in rows.items()}


def print_table(title: str, rows: dict[str, tuple]) -> None:
    lines = [title, f"{'module':8s}  {'MRR':>6s}  {'MAP':>6s}  {'P@1':>6s}"]
    lines += [f"{name:8s}" + "".join(f"  {value:6.4f}" for value in values)
              for name, values in rows.items()]
    print("\n".join(lines) + "\n", flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workdir", type=Path, help="scratch directory")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("7"),
                        help="FIRST or FIRST-LAST, both included (default: 7)")
    parser.add_argument("--hypernyms", type=int, default=BUILD["n_hypernyms"])
    parser.add_argument("--hyponyms", type=int, default=BUILD["n_hyponyms"],
                        help="per hypernym")
    parser.add_argument("--dim", type=int, default=BUILD["dim"])
    parser.add_argument("--epochs", type=int, default=BUILD["epochs"])
    parser.add_argument("--order-mode", default="fixed", choices=["fixed", "trained"])
    args = parser.parse_args()
    settings = dict(dim=args.dim, epochs=args.epochs, window=BUILD["window"],
                    min_count=BUILD["min_count"], lr=0.05, workers=BUILD["workers"],
                    order_mode=args.order_mode)
    try:  # before any input is generated
        PipelineConfig(**settings)
        check_sizes(args.hypernyms, args.hyponyms, BUILD["noise_lines"], BUILD["distractor_vocab"])
    except ValueError as exc:
        parser.error(str(exc))

    runs = []
    for seed in args.seeds:
        runs.append(seed_scores(args.workdir / str(seed), seed, args, settings))
        print_table(f"seed {seed}", runs[-1])
    if len(runs) > 1:
        print_table(f"mean of {len(runs)} seeds", {
            name: tuple(map(statistics.fmean, zip(*(run[name] for run in runs))))
            for name in runs[0]
        })


if __name__ == "__main__":
    main()
