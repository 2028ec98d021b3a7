"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion summary lines). Every tolerance is pinned here.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from hyperdisc import synthetic
from hyperdisc.cli import PipelineConfig, _source_lists, main, write_config
from hyperdisc.cooc import (
    Source,
    build_cooc_index,
    build_pair_index,
    load_cooc_index,
    merge_cooc_indexes,
)
from hyperdisc.corpus_io import (
    GoldSet,
    Query,
    QueryKind,
    load_gold,
    load_queries,
    load_vocabulary,
    parse_tagged_line,
    read_predictions,
)
from hyperdisc.embedding import (
    EmbeddingModel,
    PhiMode,
    cbow_step_loss,
    fit_phi,
    load_embedding,
    load_phi,
)
from hyperdisc.metrics import (
    P_AT_KS,
    average_precision,
    evaluate,
    precision_at_k,
    reciprocal_rank,
)
from hyperdisc.patterns import extract_hearst, extract_isa

from pattern_fixture import SENTENCES, expected_matches


def report(name):
    print(f"[acceptance] {name}: PASS")


# -----------------------------------------------------------------------
# criterion: metric oracle equivalence


def oracle_metrics(predicted, gold):
    cut = predicted[:15]
    rr = 0.0
    for i, term in enumerate(cut):
        if term in gold:
            rr = 1.0 / (i + 1)
            break
    hits = 0
    ap = 0.0
    for i, term in enumerate(cut):
        if term in gold:
            hits += 1
            ap += hits / (i + 1)
    ap /= min(len(gold), 15)
    p_at = {k: sum(1 for t in predicted[:k] if t in gold) / k for k in P_AT_KS}
    return rr, ap, p_at


def test_metric_oracle_equivalence_1000_instances():
    start = time.perf_counter()
    rng = np.random.default_rng(20180601)
    universe = [f"term{i}" for i in range(40)]
    instances = []
    for _ in range(1000):
        n_pred = int(rng.integers(0, 16))
        predicted = list(rng.choice(universe, size=n_pred, replace=False))
        n_gold = int(rng.integers(1, 10))
        gold = set(rng.choice(universe, size=n_gold, replace=False))
        instances.append((predicted, gold))
        rr, ap, p_at = oracle_metrics(predicted, gold)
        assert abs(reciprocal_rank(predicted, gold) - rr) < 1e-9
        assert abs(average_precision(predicted, gold) - ap) < 1e-9
        for k in P_AT_KS:
            assert abs(precision_at_k(predicted, gold, k) - p_at[k]) < 1e-9
    # aggregate path: evaluate() equals the mean of the oracle values
    gold_sets = [
        GoldSet(Query(f"q{i}", QueryKind.CONCEPT), tuple(sorted(gold)))
        for i, (_, gold) in enumerate(instances)
    ]
    aggregate = evaluate([p for p, _ in instances], gold_sets)
    oracle_values = [oracle_metrics(p, g) for p, g in instances]
    assert abs(aggregate.mrr - np.mean([v[0] for v in oracle_values])) < 1e-9
    assert abs(aggregate.map - np.mean([v[1] for v in oracle_values])) < 1e-9
    for k in P_AT_KS:
        assert abs(aggregate.p_at[k] - np.mean([v[2][k] for v in oracle_values])) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(f"metric oracle equivalence (1000 instances, {elapsed:.2f}s)")


# -----------------------------------------------------------------------
# criterion: pattern fixture suite


def test_pattern_fixture_exact_match_set():
    start = time.perf_counter()
    assert len(SENTENCES) == 30
    found = []
    for line, _ in SENTENCES:
        paragraph = parse_tagged_line(line)
        for match in extract_hearst(paragraph) + extract_isa(paragraph):
            found.append((match.pattern_id, match.hypernym, match.hyponyms))
    expected = expected_matches()
    false_positives = [m for m in found if m not in expected]
    false_negatives = [m for m in expected if m not in found]
    assert false_positives == [], "precision below 100%"
    assert false_negatives == [], "recall below 100%"
    assert len(found) == len(expected)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(f"pattern fixture suite (30 sentences, {elapsed:.3f}s)")


# -----------------------------------------------------------------------
# criterion: co-occurrence oracle


def test_cooc_oracle_1000_lines(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(1848)
    lexicon = [f"w{i}" for i in range(50)]
    lines = [
        list(rng.choice(lexicon, size=int(rng.integers(2, 12))))
        for _ in range(1000)
    ]
    queries = set(lexicon[:10])
    path = tmp_path / "normalized.txt"
    path.write_text("".join(" ".join(t) + "\n" for t in lines))

    expected = {q: {} for q in queries}
    for tokens in lines:
        for q in queries:
            if q in tokens:
                for token in tokens:
                    if token != q:
                        expected[q][token] = expected[q].get(token, 0) + 1

    index = build_cooc_index(path, queries)
    assert index.counts == expected

    shard_paths = []
    for shard_id in range(4):
        shard_path = tmp_path / f"shard{shard_id}.txt"
        shard = lines[shard_id * 250 : (shard_id + 1) * 250]
        shard_path.write_text("".join(" ".join(t) + "\n" for t in shard))
        shard_paths.append(shard_path)
    merged = merge_cooc_indexes(
        [build_cooc_index(p, queries) for p in shard_paths]
    )
    assert merged.counts == expected
    assert merged.counts == index.counts
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(f"co-occurrence oracle (1000 lines + shard merge, {elapsed:.2f}s)")


# -----------------------------------------------------------------------
# criterion: CBOW gradient check


def test_cbow_gradient_check_100_configs():
    start = time.perf_counter()
    rng = np.random.default_rng(424242)
    eps = 1e-4
    worst = 0.0
    for _ in range(100):
        model = EmbeddingModel(
            vocab=[f"w{i}" for i in range(20)],
            input_vectors=rng.normal(0, 0.6, (20, 8)),
            output_vectors=rng.normal(0, 0.6, (20, 8)),
        )
        center = int(rng.integers(20))
        context = list(rng.choice(20, size=int(rng.integers(1, 6)), replace=True))
        negatives = list(rng.choice(20, size=int(rng.integers(1, 6)), replace=True))
        step = cbow_step_loss(model, center, context, negatives)

        analytic_in = np.zeros((20, 8))
        for token in context:
            analytic_in[token] += step.context_grad
        analytic_out = np.zeros((20, 8))
        for token, row in zip([center, *negatives], step.target_grads):
            analytic_out[token] += row

        numeric_in = np.zeros((20, 8))
        numeric_out = np.zeros((20, 8))
        touched = set(context) | {center, *negatives}
        for matrix, numeric in (
            (model.input_vectors, numeric_in),
            (model.output_vectors, numeric_out),
        ):
            for row in touched:
                for col in range(8):
                    keep = matrix[row, col]
                    matrix[row, col] = keep + eps
                    up = cbow_step_loss(model, center, context, negatives).loss
                    matrix[row, col] = keep - eps
                    down = cbow_step_loss(model, center, context, negatives).loss
                    matrix[row, col] = keep
                    numeric[row, col] = (up - down) / (2 * eps)
        for numeric, analytic in ((numeric_in, analytic_in), (numeric_out, analytic_out)):
            denom = max(np.linalg.norm(numeric), np.linalg.norm(analytic), 1e-8)
            worst = max(worst, np.linalg.norm(numeric - analytic) / denom)
    elapsed = time.perf_counter() - start
    assert worst < 1e-4
    assert elapsed < 30.0
    report(f"CBOW gradient check (100 configs, max rel err {worst:.2e}, {elapsed:.2f}s)")


# -----------------------------------------------------------------------
# criterion: projection correctness


def test_phi_correctness():
    rng = np.random.default_rng(77)
    dim, n = 8, 50
    base = rng.normal(0, 1, (n, dim))
    vocab = [f"x{i}" for i in range(n)] + [f"y{i}" for i in range(n)]
    pairs = [(f"x{i}", f"y{i}") for i in range(n)]

    shift = rng.normal(0, 1, dim)
    model = EmbeddingModel(vocab=vocab, input_vectors=np.vstack([base, base + shift]))
    offset_phi = fit_phi(pairs, model, PhiMode.OFFSET)
    offset_error = np.abs(offset_phi.offset - shift).max()
    assert offset_error < 1e-9

    gradient = 2.0 * np.mean((base + offset_phi.offset) - (base + shift), axis=0)
    gradient_norm = float(np.linalg.norm(gradient))
    assert gradient_norm < 1e-8

    target_map = rng.normal(0, 1, (dim, dim))
    ridge = 1e-10
    model = EmbeddingModel(
        vocab=vocab, input_vectors=np.vstack([base, base @ target_map.T])
    )
    matrix_phi = fit_phi(pairs, model, PhiMode.MATRIX, ridge=ridge)
    matrix_error = np.abs(matrix_phi.matrix - target_map).max()
    assert matrix_error < 1e-6
    report(
        "projection correctness "
        f"(offset err {offset_error:.1e}, grad norm {gradient_norm:.1e}, "
        f"matrix err {matrix_error:.1e})"
    )


# -----------------------------------------------------------------------
# criteria: end-to-end planted taxonomy, determinism, module-order relationship


@pytest.fixture(scope="module")
def planted_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("planted")
    dataset = synthetic.generate(
        root / "data", n_hypernyms=10, n_hyponyms=50, seed=7
    )
    work = root / "work"
    work.mkdir()
    cfg = PipelineConfig(
        corpus=str(dataset.corpus),
        vocab=str(dataset.vocab),
        queries=str(dataset.queries),
        gold=str(dataset.gold),
        train_queries=str(dataset.train_queries),
        train_gold=str(dataset.train_gold),
        normalized=str(work / "normalized.txt"),
        hearst_corpus=str(work / "hearst.tsv"),
        isa_corpus=str(work / "isa.tsv"),
        cooc_index=str(work / "cooc_index.tsv"),
        embedding=str(work / "embedding.txt"),
        phi=str(work / "phi.txt"),
        predictions=str(work / "predictions.tsv"),
        metrics=str(work / "metrics.tsv"),
        dim=32,
        window=5,
        min_count=5,
        negatives=5,
        epochs=2,
        lr=0.05,
        seed=20180601,
    )
    cfg_path = root / "config.txt"
    write_config(cfg_path, cfg)
    start = time.perf_counter()
    rc = main(["pipeline", "--config", str(cfg_path)])
    elapsed = time.perf_counter() - start
    assert rc == 0
    return dataset, cfg, cfg_path, elapsed


def _standalone_mrr(cfg, source):
    vocab = load_vocabulary(cfg.vocab)
    queries = load_queries(cfg.queries)
    gold_sets = load_gold(cfg.gold, queries)
    cooc_idx = load_cooc_index(cfg.cooc_index)
    hearst_idx = build_pair_index(cfg.hearst_corpus, Source.HEARST)
    isa_idx = build_pair_index(cfg.isa_corpus, Source.ISA)
    model = load_embedding(cfg.embedding)
    phi = load_phi(cfg.phi)
    rr_total = 0.0
    p1_total = 0.0
    for query, gold_set in zip(queries, gold_sets):
        lists = _source_lists(
            query, vocab, cooc_idx, hearst_idx, isa_idx, model, phi, cfg
        )
        terms = [c.term for c in lists[source]]
        rr_total += reciprocal_rank(terms, gold_set.hypernyms)
        p1_total += precision_at_k(terms, gold_set.hypernyms, 1)
    return rr_total / len(queries), p1_total / len(queries)


def test_end_to_end_planted_taxonomy(planted_run):
    dataset, cfg, _, elapsed = planted_run
    with open(dataset.corpus, encoding="utf-8") as fh:
        n_paragraphs = sum(1 for _ in fh)
    assert n_paragraphs >= 5000
    assert len(dataset.taxonomy.hypernyms) == 10
    assert all(len(m) == 50 for m in dataset.taxonomy.members.values())

    queries = load_queries(cfg.queries)
    gold_sets = load_gold(cfg.gold, queries)
    rows = read_predictions(cfg.predictions)
    merged_mrr = sum(
        reciprocal_rank(row, g.hypernyms) for row, g in zip(rows, gold_sets)
    ) / len(gold_sets)
    assert merged_mrr >= 0.5

    isa_mrr, isa_p1 = _standalone_mrr(cfg, Source.ISA)
    assert isa_p1 >= 0.8
    assert elapsed < 300.0
    report(
        "end-to-end planted taxonomy "
        f"({n_paragraphs} paragraphs, merged MRR {merged_mrr:.3f}, "
        f"IsA P@1 {isa_p1:.3f}, pipeline {elapsed:.1f}s)"
    )


def test_pipeline_determinism(tmp_path_factory):
    root = tmp_path_factory.mktemp("determinism")
    dataset = synthetic.generate(root / "data", n_hypernyms=4, n_hyponyms=8, seed=99)
    work = root / "work"
    work.mkdir()
    cfg = PipelineConfig(
        corpus=str(dataset.corpus),
        vocab=str(dataset.vocab),
        queries=str(dataset.queries),
        gold=str(dataset.gold),
        train_queries=str(dataset.train_queries),
        train_gold=str(dataset.train_gold),
        normalized=str(work / "normalized.txt"),
        hearst_corpus=str(work / "hearst.tsv"),
        isa_corpus=str(work / "isa.tsv"),
        cooc_index=str(work / "cooc_index.tsv"),
        embedding=str(work / "embedding.txt"),
        phi=str(work / "phi.txt"),
        predictions=str(work / "predictions.tsv"),
        metrics=str(work / "metrics.tsv"),
        dim=16,
        window=4,
        min_count=5,
        epochs=2,
        seed=31337,
        workers=1,
    )
    cfg_path = root / "config.txt"
    write_config(cfg_path, cfg)
    assert main(["pipeline", "--config", str(cfg_path)]) == 0
    first_predictions = Path(cfg.predictions).read_bytes()
    first_metrics = Path(cfg.metrics).read_bytes()
    assert main(["pipeline", "--config", str(cfg_path)]) == 0
    assert Path(cfg.predictions).read_bytes() == first_predictions
    assert Path(cfg.metrics).read_bytes() == first_metrics
    report("pipeline determinism (byte-identical predictions and metrics)")


def test_isa_outranks_hearst_and_phi(planted_run):
    _, cfg, _, _ = planted_run
    isa_mrr, _ = _standalone_mrr(cfg, Source.ISA)
    hearst_mrr, _ = _standalone_mrr(cfg, Source.HEARST)
    phi_mrr, _ = _standalone_mrr(cfg, Source.PHI)
    assert isa_mrr > hearst_mrr
    assert isa_mrr > phi_mrr
    report(
        "module-order relationship "
        f"(IsA MRR {isa_mrr:.3f} > Hearst {hearst_mrr:.3f}, Phi {phi_mrr:.3f})"
    )
