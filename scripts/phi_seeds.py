#!/usr/bin/env python3
"""Projection quality over a range of seeds.

    PYTHONPATH=src python3 scripts/phi_seeds.py WORKDIR --seeds 901-912 \
        [--dim 32] [--epochs 2]

For each seed, generates the hard planted input of the benchmark's `build`
workload (``perfbench/hard.py`` at the sizes of ``perfbench/run.py``), runs
``hyperdisc pipeline`` on it with the `build` training settings, and prints
the standalone Phi MRR and the merged MRR; then the mean of each over the
seeds. Phi MRR moves by about 0.02 from one seed to the next, so compare two
checkouts by these means over ten seeds or more, never by one seed.
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
from run_planted_benchmark import planted_config, standalone_reports  # noqa: E402

from hyperdisc.cli import main as cli_main, write_config  # noqa: E402
from hyperdisc.cooc import Source  # noqa: E402
from hyperdisc.corpus_io import load_gold, load_queries, read_predictions  # noqa: E402
from hyperdisc.metrics import evaluate  # noqa: E402


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def run_seed(workdir: Path, seed: int, dim: int, epochs: int) -> tuple[float, float]:
    """(standalone Phi MRR, merged MRR) of one seed's pipeline."""
    size = SIZES["build"]
    data = generate_hard(
        workdir / "data", seed, size["n_hypernyms"], size["n_hyponyms"],
        noise_lines=size["noise_lines"], distractor_vocab=size["distractor_vocab"],
    )
    cfg = planted_config(
        data.planted, workdir / "artifacts", dim=dim, epochs=epochs,
        window=size["window"], min_count=size["min_count"], seed=seed,
        workers=size["workers"],
    )
    config = workdir / "config.txt"
    write_config(config, cfg)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli_main(["pipeline", "--config", str(config)])
    if rc != 0:
        raise SystemExit(f"seed {seed}: pipeline exited {rc}")
    gold = load_gold(cfg.gold, load_queries(cfg.queries))
    merged = evaluate(read_predictions(cfg.predictions), gold).mrr
    return standalone_reports(cfg)[Source.PHI].mrr, merged


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workdir", type=Path, help="scratch directory")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("901-912"),
                        help="FIRST-LAST, both included")
    parser.add_argument("--dim", type=int, default=SIZES["build"]["dim"])
    parser.add_argument("--epochs", type=int, default=SIZES["build"]["epochs"])
    args = parser.parse_args()

    phi, merged = [], []
    print(f"{'seed':>6s}  {'Phi MRR':>8s}  {'merged MRR':>10s}")
    for seed in args.seeds:
        p, m = run_seed(args.workdir / str(seed), seed, args.dim, args.epochs)
        phi.append(p)
        merged.append(m)
        print(f"{seed:6d}  {p:8.4f}  {m:10.4f}", flush=True)
    print(f"{'mean':>6s}  {statistics.fmean(phi):8.4f}  {statistics.fmean(merged):10.4f}")


if __name__ == "__main__":
    main()
