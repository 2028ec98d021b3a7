"""Every evidence module reaches the merged predictions.

On the benchmark's hard planted input (perfbench/hard.py), at a small size,
the pipeline runs in trained module order; emptying any one module's lists
must then lower the merged MRR. Each module is wired into the merge, and a
co-occurrence snapshot that lost its counts would fail here.
"""

import runpy
from pathlib import Path

from hyperdisc.cli import PipelineConfig, main, module_lists, write_config
from hyperdisc.cooc import Source
from hyperdisc.corpus_io import load_gold, load_queries, read_predictions
from hyperdisc.metrics import evaluate
from hyperdisc.rank import choose_order, merge, module_reports

HARD = Path(__file__).resolve().parents[1] / "perfbench" / "hard.py"


def run_trained(root: Path) -> PipelineConfig:
    """The pipeline in trained order on a small hard input under ``root``."""
    data = runpy.run_path(str(HARD))["generate_hard"](
        root / "data", seed=801, n_hypernyms=8, n_hyponyms=32, noise_lines=300,
        distractor_vocab=20,
    ).planted
    art = {key: str(root / name) for key, name in (
        ("normalized", "normalized.txt"), ("hearst_corpus", "hearst.tsv"),
        ("isa_corpus", "isa.tsv"), ("cooc_index", "cooc_index.tsv"),
        ("embedding", "embedding.txt"), ("phi", "phi.txt"),
        ("predictions", "predictions.tsv"), ("metrics", "metrics.tsv"),
    )}
    cfg = PipelineConfig(
        corpus=str(data.corpus), vocab=str(data.vocab), queries=str(data.queries),
        gold=str(data.gold), train_queries=str(data.train_queries),
        train_gold=str(data.train_gold), dim=16, window=5, min_count=5, epochs=1,
        lr=0.05, seed=801, order_mode="trained", **art,
    )
    write_config(root / "config.txt", cfg)
    assert main(["pipeline", "--config", str(root / "config.txt")]) == 0
    return cfg


def test_emptying_any_module_lowers_merged_mrr(tmp_path):
    cfg = run_trained(tmp_path)
    lists_for = module_lists(cfg)
    train = load_gold(cfg.train_gold, load_queries(cfg.train_queries))
    order = choose_order(module_reports(lists_for([g.query for g in train]), train))
    test = load_gold(cfg.gold, load_queries(cfg.queries))
    lists = lists_for([g.query for g in test])

    def merged(without=None):
        return [
            merge(g.query, {s: [] if s is without else cands for s, cands in per.items()},
                  order, cfg.k).terms()
            for g, per in zip(test, lists)
        ]

    assert merged() == read_predictions(cfg.predictions)  # the lists `predict` merged
    full = evaluate(merged(), test).mrr
    for source in Source:
        assert evaluate(merged(without=source), test).mrr < full, source
