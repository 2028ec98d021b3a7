import itertools
import os
import subprocess
import sys
import warnings
from codecs import BOM_UTF8
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import hyperdisc
from hyperdisc import cli, corpus_io, synthetic
from hyperdisc.cli import CliError, PipelineConfig, load_config, main, module_lists, write_config
from hyperdisc.cooc import (
    Source,
    build_cooc_index,
    build_pair_index,
    candidates_from_cooc,
    load_cooc_index,
    save_cooc_index,
)
from hyperdisc.corpus_io import (
    FormatError,
    Query,
    QueryKind,
    load_gold,
    load_queries,
    load_vocabulary,
    normalize_term,
    read_artifact,
    read_header,
    read_predictions,
    term_to_token,
)
from hyperdisc.embedding import PhiMode, PhiTransform, fit_phi, load_phi, save_phi, train_cbow

ARTIFACT_KEYS = (
    "normalized",
    "hearst_corpus",
    "isa_corpus",
    "cooc_index",
    "embedding",
    "phi",
    "predictions",
    "metrics",
)
STAGE_ORDER = (
    "normalize",
    "extract-hearst",
    "extract-isa",
    "train-embedding",
    "cooc-index",
    "fit-phi",
    "predict",
    "evaluate",
)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    return synthetic.generate(
        root, n_hypernyms=3, n_hyponyms=4, seed=13, noise_lines=40
    )


def make_config(dataset, workdir, **overrides):
    values = dict(
        corpus=str(dataset.corpus),
        vocab=str(dataset.vocab),
        queries=str(dataset.queries),
        gold=str(dataset.gold),
        train_queries=str(dataset.train_queries),
        train_gold=str(dataset.train_gold),
        dim=8,
        window=4,
        min_count=5,
        negatives=3,
        epochs=2,
        lr=0.05,
        seed=123,
    )
    for key in ARTIFACT_KEYS:
        values[key] = str(workdir / PipelineConfig().__getattribute__(key))
    values.update(overrides)
    return PipelineConfig(**values)


def run(cfg_path, command, *flags):
    return main([command, "--config", str(cfg_path), *flags])


def test_pipeline_produces_predictions_and_metrics(tmp_path, dataset, capsys):
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "pipeline") == 0
    out = capsys.readouterr().out
    assert "predict:" in out and "MRR" in out
    for key in ARTIFACT_KEYS:
        assert os.path.exists(getattr(cfg, key)), key
    rows = read_predictions(cfg.predictions)
    assert len(rows) == len(dataset.test_pairs)
    assert all(len(row) <= 15 for row in rows)
    # artifacts carry the config hash
    for key in ARTIFACT_KEYS:
        with open(getattr(cfg, key), "rb") as fh:  # the vector files hold a binary block
            assert read_header(fh, fh.name).get("config-hash") == cfg.hash(), key


def test_predict_without_cooc_index_names_stage(tmp_path, dataset, capsys):
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "predict") == 2
    err = capsys.readouterr().err
    assert "cooc-index" in err


def test_module_lists_name_each_vocabulary_term_once(tmp_path, dataset):
    # the `_` spellings of the multiword vocabulary and query terms join the
    # vocabulary; they name no candidate in any module
    queries = load_queries(dataset.queries) + load_queries(dataset.train_queries)
    terms = dataset.vocab.read_text(encoding="utf-8").splitlines()
    spelled = sorted({t.replace(" ", "_") for t in terms + [q.term for q in queries] if " " in t})
    assert len(spelled) == 3
    vocab_path = tmp_path / "vocab.txt"
    vocab_path.write_text("".join(t + "\n" for t in terms + spelled), encoding="utf-8")
    cfg = make_config(dataset, tmp_path, vocab=str(vocab_path))
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "pipeline") == 0
    vocab = load_vocabulary(vocab_path)
    lists_for = module_lists(cfg)
    named = set()
    for query, lists in zip(queries, lists_for(queries)):
        for source, cands in lists.items():
            names = [c.term for c in cands]
            assert len(names) == len(set(names)), (query.term, source)
            assert set(names) <= vocab - set(spelled), (query.term, source)
            named.update(names)
    assert any(" " in t for t in named)  # a term with both spellings is named


def test_module_lists_name_terms_in_normal_form(tmp_path, dataset):
    # `rank.merge` compares candidate terms as given, so every module names
    # its terms in normal form, here from a vocabulary and queries spelled
    # in capitals with runs of blanks
    def respell(text):
        return text.upper().replace(" ", "  ")

    terms = dataset.vocab.read_text(encoding="utf-8").splitlines()
    vocab_path = tmp_path / "vocab.txt"
    vocab_path.write_text("".join(f" {respell(t)}\t\n" for t in terms), encoding="utf-8")
    queries_path = tmp_path / "queries.tsv"
    queries_path.write_text("".join(
        f"{respell(q.term)} \t{q.kind.value}\n" for q in load_queries(dataset.queries)
    ), encoding="utf-8")
    cfg = make_config(dataset, tmp_path, vocab=str(vocab_path), queries=str(queries_path))
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "pipeline") == 0
    queries = load_queries(queries_path)
    assert any(" " in q.term for q in queries)
    named = set()
    for lists in module_lists(cfg)(queries):
        for source, cands in lists.items():
            assert [c.term for c in cands] == [normalize_term(c.term) for c in cands]
            if cands:
                named.add(source)
    assert named == set(Source)


def test_head_word_ends_a_multiword_concepts_isa_list(tmp_path, dataset):
    """A multiword concept's head word joins its IS-A list at score 0.5 when
    the vocabulary holds it and the list has neither it nor k terms."""
    vocab_path = tmp_path / "vocab.txt"
    vocab_path.write_text(dataset.vocab.read_text(encoding="utf-8") + "widget\ngadget\ngizmo\n",
                          encoding="utf-8")
    cfg = make_config(dataset, tmp_path, vocab=str(vocab_path), k=2)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "pipeline") == 0
    pairs = ["red_widget\tgadget", "blue_widget\twidget", "blue_widget\twidget",
             "green_widget\tgadget", "green_widget\tgadget", "green_widget\tgizmo",
             "red_doohickey\tgadget"]
    with corpus_io.write_artifact(cfg.isa_corpus, cfg.header()) as fh:
        fh.write("".join(pair + "\n" for pair in pairs))
    queries = [Query("red widget", QueryKind.CONCEPT), Query("blue widget", QueryKind.CONCEPT),
               Query("red widget", QueryKind.ENTITY), Query("green widget", QueryKind.CONCEPT),
               Query("red doohickey", QueryKind.CONCEPT)]
    isa = [[(c.term, c.score) for c in lists[Source.ISA]] for lists in module_lists(cfg)(queries)]
    assert isa == [
        [("gadget", 1.0), ("widget", 0.5)],  # appended
        [("widget", 2.0)],  # not twice
        [("gadget", 1.0)],  # an entity has no head word
        [("gadget", 2.0), ("gizmo", 1.0)],  # the list holds k already
        [("gadget", 1.0)],  # the head word is not in the vocabulary
    ]


def test_stage_chain_requires_upstream(tmp_path, dataset, capsys):
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "cooc-index") == 2
    assert "normalize" in capsys.readouterr().err
    assert run(cfg_path, "fit-phi") == 2
    assert "train-embedding" in capsys.readouterr().err


def test_cooc_index_requires_train_queries(tmp_path, dataset, capsys):
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "normalize", "--train-queries", "") == 0
    capsys.readouterr()
    assert run(cfg_path, "cooc-index", "--train-queries", "") == 2
    assert capsys.readouterr().err == (
        "error: config key 'train_queries' is required for this stage\n"
    )


# every artifact a stage reads, with the stage that writes it
READ_EDGES = [
    ("train-embedding", "normalized", "normalize"),
    ("cooc-index", "normalized", "normalize"),
    ("fit-phi", "embedding", "train-embedding"),
    ("predict", "cooc_index", "cooc-index"),
    ("predict", "hearst_corpus", "extract-hearst"),
    ("predict", "isa_corpus", "extract-isa"),
    ("predict", "embedding", "train-embedding"),
    ("predict", "phi", "fit-phi"),
    ("evaluate", "predictions", "predict"),
]


@pytest.mark.parametrize(
    "stage, key, writer", READ_EDGES, ids=[f"{stage}-reads-{key}" for stage, key, _ in READ_EDGES]
)
def test_stale_or_missing_artifact_names_its_writer(tmp_path, dataset, capsys, stage, key, writer):
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "pipeline") == 0
    path = getattr(cfg, key)
    data = Path(path).read_bytes()  # the vector files hold a binary block
    stamp = f"#config-hash {cfg.hash()}\n".encode()
    assert data.count(stamp) == 1
    Path(path).write_bytes(data.replace(stamp, b"#config-hash 000000000000\n"))
    capsys.readouterr()
    assert run(cfg_path, stage) == 2
    assert capsys.readouterr().err == (
        f"error: stale artifact {path!r}: built with config-hash 000000000000, current config "
        f"is {cfg.hash()}; re-run the '{writer}' stage\n"
    )
    os.remove(path)
    assert run(cfg_path, stage) == 2
    assert capsys.readouterr().err == (
        f"error: missing artifact {path!r}: run the '{writer}' stage first\n"
    )


def test_artifact_read_as_a_directory_names_its_key(tmp_path, dataset, capsys):
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "train-embedding", "--normalized", str(tmp_path)) == 2
    assert capsys.readouterr().err == f"error: artifact 'normalized' is a directory: {tmp_path}\n"
    assert not os.path.exists(cfg.embedding)


def test_stage_table_is_a_graph_in_pipeline_order():
    writes = [row.writes for row in cli.STAGES.values()]
    assert len(writes) == len(set(writes))  # one writer per artifact
    written = set()
    for stage, _ in cli.PIPELINE_STAGES:
        row = cli.STAGES[stage]
        assert {key for key in row.reads if key in writes} <= written, stage
        written.add(row.writes)
    named = {key for row in cli.STAGES.values() for key in (*row.reads, row.writes)}
    settings = {"phi_mode", "order_mode"}
    assert named == {name for name, kind in cli._FIELD_TYPES.items() if kind is str} - settings
    assert [stage for stage, _ in cli.PIPELINE_STAGES] == list(STAGE_ORDER)
    assert list(cli.COMMANDS) == [*STAGE_ORDER, "pipeline"]


def test_stage_help_names_what_it_reads_and_writes(capsys):
    help_lines = {
        "normalize": "reads corpus; writes normalized",
        "extract-hearst": "reads corpus; writes hearst_corpus",
        "extract-isa": "reads corpus; writes isa_corpus",
        "train-embedding": "reads normalized; writes embedding",
        "cooc-index": "reads normalized, queries, train_queries; writes cooc_index",
        "fit-phi": "reads embedding, train_queries, train_gold; writes phi",
        "predict": "reads queries, vocab, cooc_index, hearst_corpus, isa_corpus, embedding, "
        "phi; writes predictions",
        "evaluate": "reads queries, gold, predictions; writes metrics",
    }
    with pytest.raises(SystemExit):
        main(["--help"])
    overview = " ".join(capsys.readouterr().out.split())
    for stage, line in help_lines.items():
        assert f"{stage} {line}" in overview, stage
        with pytest.raises(SystemExit):
            main([stage, "--help"])
        assert line in " ".join(capsys.readouterr().out.split()), stage


def test_train_embedding_requires_seed(tmp_path, dataset, capsys):
    cfg = make_config(dataset, tmp_path, seed=None)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "normalize") == 0
    assert run(cfg_path, "train-embedding") == 2
    assert "seed" in capsys.readouterr().err


def test_stage_by_stage_equals_pipeline(tmp_path, dataset, capsys):
    """The stage commands write the artifacts and print the summary lines
    that `pipeline` does."""
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    capsys.readouterr()
    for stage in STAGE_ORDER:
        assert run(cfg_path, stage) == 0, stage
    staged_out = capsys.readouterr().out
    staged = {key: Path(getattr(cfg, key)).read_bytes() for key in ARTIFACT_KEYS}
    assert run(cfg_path, "pipeline") == 0
    assert capsys.readouterr().out == staged_out
    for key in ARTIFACT_KEYS:
        assert Path(getattr(cfg, key)).read_bytes() == staged[key], key


def test_pipeline_is_deterministic(tmp_path, dataset):
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "pipeline") == 0
    first = {
        key: Path(getattr(cfg, key)).read_bytes()
        for key in ("predictions", "metrics")
    }
    assert run(cfg_path, "pipeline") == 0
    for key, body in first.items():
        assert Path(getattr(cfg, key)).read_bytes() == body, key


def test_pipeline_bytes_do_not_depend_on_workers(tmp_path, dataset):
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "pipeline") == 0
    serial = {key: Path(getattr(cfg, key)).read_bytes() for key in ARTIFACT_KEYS}
    assert run(cfg_path, "pipeline", "--workers", "2") == 0
    for key in ARTIFACT_KEYS:
        assert Path(getattr(cfg, key)).read_bytes() == serial[key], key


def test_workers_change_leaves_artifacts_current(tmp_path, dataset):
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "pipeline") == 0
    assert run(cfg_path, "predict", "--workers", "2") == 0


def test_truncated_embedding_is_clean_error(tmp_path, dataset, capsys):
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "pipeline") == 0
    data = Path(cfg.embedding).read_bytes()
    Path(cfg.embedding).write_bytes(data[: -8 * cfg.dim])  # the last row of the block
    capsys.readouterr()
    assert run(cfg_path, "fit-phi") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and cfg.embedding in err and "truncated" in err


def cut_mid_row(path):
    """Truncate a file halfway through its middle non-blank data row."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    rows = [i for i in range(len(read_artifact(path)[0]), len(lines)) if lines[i].strip()]
    i = rows[len(rows) // 2]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:i])
        fh.write(lines[i][: len(lines[i]) // 2])


@pytest.mark.parametrize(
    "key, loader, stage",
    [
        ("cooc_index", load_cooc_index, "predict"),
        ("hearst_corpus", partial(build_pair_index, kind=Source.HEARST), "predict"),
        ("isa_corpus", partial(build_pair_index, kind=Source.ISA), "predict"),
        ("predictions", read_predictions, "evaluate"),
    ],
    ids=["cooc_index", "hearst_corpus", "isa_corpus", "predictions"],
)
def test_artifact_cut_mid_row_is_clean_error(tmp_path, dataset, capsys, key, loader, stage):
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "pipeline") == 0
    path = getattr(cfg, key)
    cut_mid_row(path)
    with pytest.raises(FormatError, match="truncated"):
        loader(path)
    capsys.readouterr()
    assert run(cfg_path, stage) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "truncated" in err


@pytest.mark.parametrize("stage", ["cooc-index", "train-embedding"])
def test_normalized_corpus_cut_short_is_clean_error(tmp_path, dataset, capsys, stage):
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "normalize") == 0
    stamp = corpus_io.format_header(read_artifact(cfg.normalized)[0])
    with open(cfg.normalized, "w", encoding="utf-8") as fh:
        fh.write(stamp + "herb basil mint\nherb basi")
    capsys.readouterr()
    assert run(cfg_path, stage) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg.normalized}: last row cut short at line 3")


@pytest.mark.parametrize("workers", [1, 2])
def test_undecodable_corpus_leaves_no_artifact(tmp_path, dataset, capsys, workers):
    lines = [f"herb_NN basil_NN is_VBZ a_DT plant_NN {i}_CD ._.\n".encode() for i in range(600)]
    lines.insert(300, b"herb_NN \xff_NN\n")
    corpus = tmp_path / "corpus.pos.txt"
    corpus.write_bytes(b"".join(lines))
    cfg = make_config(dataset, tmp_path, corpus=str(corpus), workers=workers)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    before = sorted(os.listdir(tmp_path))
    assert run(cfg_path, "normalize") == 2
    assert capsys.readouterr().err.startswith(f"error: {corpus}: not UTF-8 text")
    assert sorted(os.listdir(tmp_path)) == before
    assert run(cfg_path, "cooc-index") == 2
    err = capsys.readouterr().err
    assert "missing artifact" in err and "run the 'normalize' stage first" in err


def test_pipeline_reads_tagged_corpus_once(tmp_path, dataset, monkeypatch):
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    original = corpus_io.iter_data_lines
    reads = []

    def counted(path, *args, **kwargs):
        reads.append(os.path.abspath(path))
        return original(path, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("hyperdisc") and getattr(module, "iter_data_lines", None) is original:
            monkeypatch.setattr(module, "iter_data_lines", counted)
    assert run(cfg_path, "pipeline") == 0
    assert reads.count(os.path.abspath(cfg.corpus)) == 1


def gold_without_line_2(dataset, tmp_path, gold_key):
    """A copy of the dataset's ``gold_key`` file with its second line emptied."""
    gold = tmp_path / f"{gold_key}.tsv"
    lines = Path(getattr(dataset, gold_key)).read_text(encoding="utf-8").split("\n")
    lines[1] = ""
    gold.write_text("\n".join(lines), encoding="utf-8")
    return gold


def test_gold_line_without_hypernym_names_file_and_line(tmp_path, dataset, capsys):
    """A gold line with no hypernym, in either gold file, stops `pipeline`
    before it writes anything, naming the file, the line and the query."""
    for gold_key, queries_key in (("gold", "queries"), ("train_gold", "train_queries")):
        (tmp_path / gold_key).mkdir()
        gold = gold_without_line_2(dataset, tmp_path / gold_key, gold_key)
        cfg = make_config(dataset, tmp_path / gold_key, **{gold_key: str(gold)})
        cfg_path = tmp_path / gold_key / "config.txt"
        write_config(cfg_path, cfg)
        term = load_queries(getattr(cfg, queries_key))[1].term
        assert run(cfg_path, "pipeline") == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {gold}: line 2: no gold hypernym for query {term!r}\n")
        assert not any(os.path.exists(getattr(cfg, key)) for key in ARTIFACT_KEYS)


def test_trained_predict_reads_training_gold_before_the_artifacts(tmp_path, dataset, capsys):
    # no artifact exists, so a check or a load of one would fail first
    gold = gold_without_line_2(dataset, tmp_path, "train_gold")
    cfg = make_config(dataset, tmp_path, order_mode="trained", train_gold=str(gold))
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    term = load_queries(cfg.train_queries)[1].term
    assert run(cfg_path, "predict") == 2
    assert capsys.readouterr().err == (
        f"error: {gold}: line 2: no gold hypernym for query {term!r}\n"
    )


def test_stale_artifact_rejected(tmp_path, dataset, capsys):
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "pipeline") == 0
    capsys.readouterr()
    # same artifacts, different parameters -> stale
    assert run(cfg_path, "predict", "--threshold", "2") == 2
    err = capsys.readouterr().err
    assert "stale artifact" in err and "re-run" in err


def test_artifacts_of_an_older_format_are_stale(tmp_path, dataset, capsys, monkeypatch):
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "pipeline") == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "ARTIFACT_FORMAT", cli.ARTIFACT_FORMAT + 1)
    assert run(cfg_path, "predict") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: stale artifact {cfg.cooc_index!r}")
    assert "re-run the 'cooc-index' stage" in err


def test_cooc_snapshot_holds_what_predict_reads(tmp_path, dataset, capsys):
    """`cooc-index` keeps the counts above threshold, counts them in its
    summary, and answers every query as the unpruned index does."""
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "pipeline") == 0
    out = capsys.readouterr().out
    assert list(read_artifact(cfg.cooc_index)[0]) == ["cooc-index", "cooc-floor", "config-hash"]
    snapshot = load_cooc_index(cfg.cooc_index)
    assert snapshot.floor == cfg.threshold + 1
    queries = load_queries(dataset.queries) + load_queries(dataset.train_queries)
    full = build_cooc_index(cfg.normalized, {term_to_token(q.term) for q in queries})
    kept = sum(len(row) for row in snapshot.counts.values())
    assert 0 < kept < sum(len(row) for row in full.counts.values())
    assert f"cooc-index: {len(full.counts)} query terms, {kept} candidate counts\n" in out
    vocab = load_vocabulary(dataset.vocab)
    for query in queries:
        assert candidates_from_cooc(snapshot, query.term, vocab, cfg.threshold) == (
            candidates_from_cooc(full, query.term, vocab, cfg.threshold)
        )


@pytest.mark.parametrize("floor, code", [(6, 0), (7, 2)])
def test_predict_rejects_snapshot_pruned_above_threshold(tmp_path, dataset, capsys, floor, code):
    # a snapshot stamped with the current config passes the stale check, so
    # only its floor can tell that it lacks counts the threshold reads
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "pipeline") == 0
    save_cooc_index(cfg.cooc_index, load_cooc_index(cfg.cooc_index), header=cfg.header(),
                    floor=floor)
    capsys.readouterr()
    assert run(cfg_path, "predict") == code
    if code:
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg.cooc_index}: the snapshot keeps only counts of")
        assert "re-run the 'cooc-index' stage" in err


@pytest.mark.parametrize(
    "flag, value, problem",
    [
        ("--threshold", "-5", "threshold must be at least 0, got -5"),
        ("--dim", "1", "dim must be at least 2, got 1"),
        ("--window", "0", "window must be at least 1, got 0"),
        ("--lr", "nan", "lr must be a finite number, got nan"),
        ("--ridge", "inf", "ridge must be a finite number, got inf"),
        ("--lr", "0", "lr must be positive, got 0.0"),
        ("--lr", "-0.5", "lr must be positive, got -0.5"),
        ("--ridge", "-1", "ridge must be at least 0, got -1.0"),
        ("--seed", "-1", "seed must be at least 0, got -1"),
        ("--min-count", "0", "min_count must be at least 1, got 0"),
        ("--negatives", "0", "negatives must be at least 1, got 0"),
        # past any array that fits in memory: refused before the corpus stages write
        ("--dim", str(10**20), f"dim must be at most 4294967296, got {10**20}"),
        ("--dim", str(2**63 - 1), f"dim must be at most 4294967296, got {2**63 - 1}"),
        ("--negatives", str(10**20), f"negatives must be at most 4294967296, got {10**20}"),
        ("--negatives", str(2**63 - 1), f"negatives must be at most 4294967296, got {2**63 - 1}"),
        ("--epochs", "0", "epochs must be at least 1, got 0"),
        ("--lr", "inf", "lr must be a finite number, got inf"),
        ("--k", "16", "k must be between 1 and 15, got 16"),
        ("--workers", "0", "workers must be at least 1"),
        # input files and the seed: `pipeline` checks every stage's before it writes
        ("--gold", "/no-such-dir/gold.tsv",
         "input file for 'gold' not found: /no-such-dir/gold.tsv"),
        ("--vocab", "/no-such-dir/vocab.txt",
         "input file for 'vocab' not found: /no-such-dir/vocab.txt"),
        ("--train-gold", "/no-such-dir/train_gold.tsv",
         "input file for 'train_gold' not found: /no-such-dir/train_gold.tsv"),
        ("--corpus", ".", "input file for 'corpus' is a directory: ."),
        ("--seed", "", "train-embedding requires a seed (--seed or seed= in the config)"),
        # and the directory of every artifact it writes, the last one too
        ("--predictions", "/no-such-dir/predictions.tsv",
         "directory of artifact 'predictions' not found: /no-such-dir"),
        ("--predictions", ".", "artifact 'predictions' is a directory: ."),
    ],
)
def test_bad_settings_rejected_before_any_stage(tmp_path, dataset, capsys, flag, value, problem):
    # matrix mode, so that `fit-phi` would read `ridge` too
    cfg = make_config(dataset, tmp_path, phi_mode="matrix")
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "pipeline", flag, value) == 2
    assert capsys.readouterr().err == f"error: {problem}\n"
    assert not any(os.path.exists(getattr(cfg, key)) for key in ARTIFACT_KEYS)


@pytest.mark.parametrize("command, flag, key, other", [
    ("normalize", "--normalized", "normalized", "corpus"),
    ("pipeline", "--isa-corpus", "isa_corpus", "hearst_corpus"),
])
def test_artifact_naming_another_keys_file_is_rejected(
    tmp_path, dataset, capsys, command, flag, key, other
):
    """An artifact path that names the file of an input or of another
    artifact is refused before any stage runs: the corpus keeps its bytes
    and the artifact directory stays empty."""
    corpus, work = tmp_path / "corpus.pos.txt", tmp_path / "work"
    corpus.write_bytes(dataset.corpus.read_bytes())
    work.mkdir()
    cfg = make_config(dataset, work, corpus=str(corpus))
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    path = getattr(cfg, other)
    assert run(cfg_path, command, flag, path) == 2
    assert capsys.readouterr().err == (
        f"error: config keys '{other}' and '{key}' name one file: {path}\n")
    assert corpus.read_bytes() == dataset.corpus.read_bytes()
    assert list(work.iterdir()) == []


@pytest.mark.parametrize("command, key, flags", [
    ("pipeline", "metrics", ()),
    ("predict", "predictions", ("--predictions", "./config.txt")),
], ids=["in-config", "flag"])
def test_artifact_key_naming_the_config_file_is_refused(
    tmp_path, dataset, capsys, monkeypatch, command, key, flags
):
    """An artifact key that names the config file, in the file or by a
    flag, is refused before any stage runs: the config keeps its bytes and
    no artifact is written."""
    monkeypatch.chdir(tmp_path)
    work = tmp_path / "work"
    work.mkdir()
    cfg = make_config(dataset, work)
    write_config("config.txt", cfg if flags else cfg._replace(metrics="config.txt"))
    before = (tmp_path / "config.txt").read_bytes()
    assert main([command, "--config", "config.txt", *flags]) == 2
    assert capsys.readouterr().err == f"error: config key '{key}' names the config file: config.txt\n"
    assert (tmp_path / "config.txt").read_bytes() == before
    assert list(work.iterdir()) == []


def test_paths_compare_as_absolute_paths(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(CliError, match="config keys 'corpus' and 'phi' name one file"):
        PipelineConfig(corpus="c.txt", phi=str(tmp_path / "c.txt"))
    with pytest.raises(CliError, match="config keys 'embedding' and 'metrics' name one file"):
        PipelineConfig(metrics="./embedding.txt")
    # inputs may share a file, and an empty path names none
    PipelineConfig(queries="q.tsv", train_queries="q.tsv", metrics="", vocab="")


@pytest.mark.parametrize("flag, value, problem", [
    ("--k", "abc", "invalid literal for int() with base 10: 'abc'"),
    ("--threshold", "1e3", "invalid literal for int() with base 10: '1e3'"),
    ("--p-at-normalized", "maybe", "not a boolean: 'maybe'"),
])
def test_bad_flag_value_names_its_flag(capsys, flag, value, problem):
    assert main(["predict", flag, value]) == 2
    assert capsys.readouterr().err == f"error: {flag}: {problem}\n"


@pytest.mark.parametrize("stage", list(cli.STAGES))
def test_stage_checks_its_artifact_directory_first(tmp_path, monkeypatch, capsys, stage):
    # every file it would read is missing and there is no seed: the directory
    # check is the first error, so the stage has read and trained nothing
    key = cli.STAGES[stage].writes
    missing = tmp_path / "missing"
    cfg = PipelineConfig(**{name: str(tmp_path / f"absent-{name}")
                            for name, kind in cli._FIELD_TYPES.items()
                            if kind is str and name not in ("phi_mode", "order_mode")})
    cfg = cfg._replace(**{key: str(missing / "artifact")})
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    for name in ("train_cbow", "normalize_corpus", "extract_corpus", "load_queries",
                 "load_embedding", "read_predictions"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: pytest.fail("read or trained"))
    assert run(cfg_path, stage) == 2
    assert capsys.readouterr().err == f"error: directory of artifact '{key}' not found: {missing}\n"


def test_header_line_holding_a_lone_cr_is_read_by_one_rule(tmp_path, dataset, capsys):
    """The stamp check and the loader read one header: a `#note` line that
    holds a lone CR, before the stamp, leaves the artifact current and its
    rows as they were."""
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "pipeline") == 0
    clean = Path(cfg.predictions).read_bytes()
    hearst = Path(cfg.hearst_corpus)
    hearst.write_bytes(b"#note a\rb\n" + hearst.read_bytes())
    os.remove(cfg.predictions)
    assert run(cfg_path, "predict") == 0, capsys.readouterr().err
    assert Path(cfg.predictions).read_bytes() == clean


def after_header(path):
    with open(path, "rb") as fh:
        read_header(fh, path)
        return fh.read()


def test_crlf_inputs_give_the_lf_run(tmp_path, dataset, capsys):
    """Inputs whose lines end in CRLF give every artifact, after its stamp,
    and every summary line of the run on the LF inputs."""
    inputs = {}
    for key in ("corpus", "vocab", "queries", "gold", "train_queries", "train_gold"):
        path = Path(getattr(dataset, key))
        inputs[key] = str(tmp_path / path.name)
        Path(inputs[key]).write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    runs = []
    for name, overrides in (("lf", {}), ("crlf", inputs)):
        (tmp_path / name).mkdir()
        cfg = make_config(dataset, tmp_path / name, **overrides)
        write_config(tmp_path / name / "config.txt", cfg)
        capsys.readouterr()
        assert run(tmp_path / name / "config.txt", "pipeline") == 0, name
        out = capsys.readouterr().out
        runs.append((out, {key: after_header(getattr(cfg, key)) for key in ARTIFACT_KEYS}))
    assert b"\r\n" in Path(inputs["corpus"]).read_bytes()
    assert runs[0] == runs[1]


@pytest.mark.parametrize("keys, config", [(("corpus",), False), (cli.INPUTS, True)],
                         ids=["corpus", "every-input"])
def test_byte_order_mark_inputs_give_the_plain_run(tmp_path, dataset, capsys, keys, config):
    """Inputs and a config that start with a UTF-8 byte-order mark give
    every artifact, after its stamp, and every summary line of the run on
    the plain files."""
    inputs = {}
    for key in keys:
        path = Path(getattr(dataset, key))
        inputs[key] = str(tmp_path / path.name)
        Path(inputs[key]).write_bytes(BOM_UTF8 + path.read_bytes())
    runs = []
    for name, overrides in (("plain", {}), ("marked", inputs)):
        (tmp_path / name).mkdir()
        cfg = make_config(dataset, tmp_path / name, **overrides)
        cfg_path = tmp_path / name / "config.txt"
        write_config(cfg_path, cfg)
        if overrides and config:
            cfg_path.write_bytes(BOM_UTF8 + cfg_path.read_bytes())
        capsys.readouterr()
        assert run(cfg_path, "pipeline") == 0, capsys.readouterr().err
        out = capsys.readouterr().out
        runs.append((out, {key: after_header(getattr(cfg, key)) for key in ARTIFACT_KEYS}))
    assert runs[0] == runs[1]


def test_unstamped_artifact_rejected(tmp_path, dataset, capsys):
    """A hand-written `phi.txt` without a stamp, and of the wrong width, is
    named as the bad file with the stage that writes it."""
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "pipeline") == 0
    with open(cfg.phi, "w", encoding="utf-8") as fh:
        fh.write("offset\n" + " ".join(["0.5"] * 5) + "\n")
    capsys.readouterr()
    assert run(cfg_path, "predict") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: unstamped artifact {cfg.phi!r}")
    assert "re-run the 'fit-phi' stage" in err


@pytest.mark.parametrize(
    "phi, problem",
    [
        (PhiTransform(PhiMode.OFFSET, offset=np.full(5, 0.5)),
         "the phi is offset of width 5, but phi_mode is offset and the embedding has dimension 8; "
         "re-run the 'fit-phi' stage"),
        (PhiTransform(PhiMode.MATRIX, matrix=np.eye(7, 8)),
         "a matrix is square; the size line declares 7 8"),
        (PhiTransform(PhiMode.MATRIX, matrix=np.eye(8)),
         "the phi is matrix of width 8, but phi_mode is offset and the embedding has dimension 8; "
         "re-run the 'fit-phi' stage"),
    ],
    ids=["offset-of-width-5", "matrix-7-by-8", "matrix-for-offset"],
)
def test_stamped_phi_that_does_not_fit_is_rejected(tmp_path, dataset, capsys, phi, problem):
    """A `phi.txt` under the current stamp, but of the wrong width, shape or
    mode, is named as the bad file instead of reaching numpy."""
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "pipeline") == 0
    save_phi(cfg.phi, phi, header=cfg.header())
    capsys.readouterr()
    assert run(cfg_path, "predict") == 2
    assert capsys.readouterr().err == f"error: {cfg.phi}: {problem}\n"


def test_diverging_training_writes_no_embedding(tmp_path, dataset, capsys):
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning raises past `main`
        assert run(cfg_path, "pipeline", "--lr", "1e300") == 2
    err = capsys.readouterr().err
    assert err == "error: training diverged in epoch 1 of 2; lower lr (now 1e+300)\n"
    assert not os.path.exists(cfg.embedding)


@pytest.mark.parametrize("message, err", [
    ("Unable to allocate 10.5 TiB", "error: out of memory: Unable to allocate 10.5 TiB\n"),
    ("", "error: out of memory\n"),
], ids=["message", "bare"])
def test_out_of_memory_is_clean_error(tmp_path, dataset, capsys, monkeypatch, message, err):
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "normalize") == 0
    capsys.readouterr()

    def exhausted(*args, **kwargs):
        raise MemoryError(*([message] if message else []))

    monkeypatch.setattr(cli, "train_cbow", exhausted)
    before = sorted(os.listdir(tmp_path))
    assert run(cfg_path, "train-embedding") == 2
    assert capsys.readouterr() == ("", err)
    assert sorted(os.listdir(tmp_path)) == before
    assert not os.path.exists(cfg.embedding)


def test_interrupt_is_one_line_and_leaves_no_temporary_file(tmp_path, dataset, capsys, monkeypatch):
    """A Ctrl-C while a stage writes its artifact ends the run with exit
    130 and one line, and deletes the artifact's temporary file."""
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)

    def interrupted(cfg):
        with corpus_io.write_artifact(cfg.normalized, cfg.header()) as fh:
            fh.write("herb plant\n")
            assert list(tmp_path.glob("*.tmp"))
            raise KeyboardInterrupt

    monkeypatch.setitem(cli.COMMANDS, "normalize", interrupted)
    assert run(cfg_path, "normalize") == 130
    assert capsys.readouterr() == ("", "error: interrupted\n")
    assert not list(tmp_path.glob("*.tmp")) and not os.path.exists(cfg.normalized)


def test_embedding_and_phi_hold_the_trained_weights_exactly(tmp_path, dataset):
    """`fit-phi` and `predict` load the model `train-embedding` trained, bit
    for bit: the embedding's block is the trained weights, and the offset
    is `fit_phi` of the trained model."""
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "pipeline") == 0
    model = train_cbow(cfg.normalized, cfg.cbow())
    block = model.input_vectors.astype("<f8").tobytes()
    assert Path(cfg.embedding).read_bytes()[-len(block):] == block
    pairs = [(g.query.term, h) for g in load_gold(cfg.train_gold, load_queries(cfg.train_queries))
             for h in g.hypernyms]
    want = fit_phi(pairs, model, PhiMode.OFFSET, ridge=cfg.ridge).offset
    assert load_phi(cfg.phi).offset.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_empty_query_term_stops_pipeline_before_any_artifact(tmp_path, dataset, capsys):
    lines = Path(dataset.queries).read_text(encoding="utf-8").split("\n")
    lines[1] = "   \t" + lines[1].partition("\t")[2]
    queries = tmp_path / "queries.tsv"
    queries.write_text("\n".join(lines), encoding="utf-8")
    cfg = make_config(dataset, tmp_path, queries=str(queries))
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "pipeline") == 2
    assert capsys.readouterr() == ("", f"error: {queries}: line 2: empty query term\n")
    assert not any(os.path.exists(getattr(cfg, key)) for key in ARTIFACT_KEYS)


@pytest.mark.parametrize("command", ["pipeline", "stage"])
@pytest.mark.parametrize("key", [key for key in ARTIFACT_KEYS if key != "metrics"])
def test_empty_artifact_path_is_refused_before_any_file(
    tmp_path, dataset, capsys, monkeypatch, key, command
):
    """An empty path for any artifact but `metrics` is refused when the
    config is built, naming its key: neither `pipeline` nor the stage that
    writes the artifact leaves an artifact or a temporary file."""
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)  # where a temporary file beside an empty path would go
    cfg = make_config(dataset, work)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    stage = "pipeline" if command == "pipeline" else cli.WRITERS[key]
    assert run(cfg_path, stage, f"--{key.replace('_', '-')}=") == 2
    assert capsys.readouterr() == (
        "", f"error: config key '{key}' names no file; only 'metrics' may be empty\n")
    assert list(work.iterdir()) == []


@pytest.mark.parametrize("window", ["9223372036854775807", "99999999999999999999"])
def test_window_beyond_int64_trains_as_a_window_longer_than_every_line(
    tmp_path, dataset, window
):
    """A window is cut at its line's bounds, so one past the int64 range
    trains the weights of a window as long as the longest line."""
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "pipeline", "--window", window) == 0
    longest = max(len(line.split()) for line in corpus_io.iter_data_lines(cfg.normalized))
    model = train_cbow(cfg.normalized, cfg._replace(window=longest).cbow())
    block = model.input_vectors.astype("<f8").tobytes()
    assert Path(cfg.embedding).read_bytes()[-len(block):] == block


def test_flag_overrides_config(tmp_path, dataset):
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    loaded = load_config(str(cfg_path), {"threshold": 2, "phi_mode": "matrix"})
    assert loaded.threshold == 2
    assert loaded.phi_mode == "matrix"
    assert loaded.seed == 123


def test_config_file_round_trip(tmp_path, dataset):
    cfg = make_config(
        dataset, tmp_path, lr=0.0125, ridge=1e-09, p_at_normalized=True, workers=2
    )
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert load_config(str(cfg_path)) == cfg
    assert load_config(str(cfg_path)).hash() == cfg.hash()


def test_unknown_config_key_is_error(tmp_path):
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text("no_such_key=1\n")
    assert main(["normalize", "--config", str(cfg_path)]) == 2


DIRECTORY = "a directory in place of the file"


@pytest.mark.parametrize("text, problem", [
    (None, "config file not found: {path}"),
    (DIRECTORY, "config file is a directory: {path}"),
    ("# note\nk=abc\n", "{path}: line 2: invalid literal for int() with base 10: 'abc'"),
    ("p_at_normalized=maybe\n", "{path}: line 1: not a boolean: 'maybe'"),
    # line numbers count the comment and the blank line, as `file_line` does
    ("k=5\n# note\n\nk=7\n", "{path}: line 4: config key 'k' is already set on line 1"),
], ids=["missing", "directory", "bad-int", "bad-bool", "repeated-key"])
def test_config_file_error_names_the_file(tmp_path, capsys, text, problem):
    cfg_path = tmp_path / "config.txt"
    if text is DIRECTORY:
        cfg_path.mkdir()
    elif text is not None:
        cfg_path.write_text(text, encoding="utf-8")
    assert main(["normalize", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"error: {problem.format(path=cfg_path)}\n"


def test_config_not_utf8_names_file_and_line(tmp_path, capsys):
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_bytes(b"# written by hand\n# caf\xe9\nk=5\n")
    assert main(["normalize", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {cfg_path}: not UTF-8 text at line 2 (invalid continuation byte)\n"
    )


def test_config_with_a_byte_order_mark_reads_as_without(tmp_path, dataset):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    write_config(plain, make_config(dataset, tmp_path))
    marked.write_bytes(BOM_UTF8 + plain.read_bytes())
    assert load_config(str(marked)) == load_config(str(plain)) == make_config(dataset, tmp_path)


def test_config_error_lines_count_comments(tmp_path):
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text("# caf\u00e9\n\nk=5\nno_such_key=1\n", encoding="utf-8")
    with pytest.raises(CliError) as info:
        load_config(str(cfg_path))
    assert str(info.value) == f"{cfg_path}: line 4: unknown config key 'no_such_key'"


def test_readme_configuration_table_matches_config():
    """The README's "Configuration keys" table names every `PipelineConfig`
    field once, and a row that gives one default per key gives the defaults
    of `PipelineConfig()` (— for None or empty)."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.split("## Configuration keys\n", 1)[1].lstrip("\n").splitlines()
    rows = list(itertools.takewhile(lambda line: line.startswith("|"), lines))[2:]
    defaults = PipelineConfig()
    named = []
    for row in rows:
        keys_cell, default_cell = row.strip("|").split("|")[:2]
        keys = [key.strip() for key in keys_cell.strip().strip("`").split(",")]
        named += keys
        values = [value.strip().strip("`") for value in default_cell.split(",")]
        if len(values) != len(keys):
            continue
        for key, value in zip(keys, values):
            want = getattr(defaults, key)
            if value == "—":
                assert want in (None, ""), key
            else:
                assert cli._coerce(key, value) == want, key
    assert sorted(named) == sorted(PipelineConfig._fields)


def test_invalid_parameter_values():
    with pytest.raises(Exception):
        PipelineConfig(k=20)
    with pytest.raises(Exception):
        PipelineConfig(phi_mode="banana")
    with pytest.raises(Exception):
        PipelineConfig(order_mode="magic")


@pytest.mark.parametrize("build", [
    lambda: PipelineConfig()._replace(k=99, workers=0),
    lambda: PipelineConfig._make((PipelineConfig()._asdict() | dict(k=99, workers=0)).values()),
], ids=["replace", "make"])
def test_config_replace_and_make_run_the_checks(build):
    with pytest.raises(CliError) as info:
        PipelineConfig(k=99, workers=0)
    with pytest.raises(CliError) as made:
        build()
    assert str(made.value) == str(info.value)


def test_trained_order_mode_runs(tmp_path, dataset, capsys):
    cfg = make_config(dataset, tmp_path, order_mode="trained")
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "pipeline") == 0
    out = capsys.readouterr().out
    assert "module order" in out


def test_matrix_phi_mode_runs(tmp_path, dataset):
    cfg = make_config(dataset, tmp_path, phi_mode="matrix", ridge=1e-3)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "pipeline") == 0
    assert b"matrix" in Path(cfg.phi).read_bytes().split(b"\n")[1]


def test_evaluate_rejects_row_mismatch(tmp_path, dataset, capsys):
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "pipeline") == 0
    with open(cfg.predictions, "a", encoding="utf-8") as fh:
        fh.write("extra\n")
    capsys.readouterr()
    assert run(cfg_path, "evaluate") == 2
    assert "prediction lines" in capsys.readouterr().err


NUMPY_ON_FIRST_USE = """
import sys
import hyperdisc.cli as cli
import hyperdisc
assert "numpy" not in sys.modules and "hyperdisc.embedding" in sys.modules
for stage in ("normalize", "extract-hearst", "extract-isa", "cooc-index"):
    assert cli.main([stage, "--config", sys.argv[1]]) == 0, stage
    assert "numpy" not in sys.modules, stage
for stage in ("train-embedding", "fit-phi"):  # train_cbow, load_embedding
    assert cli.main([stage, "--config", sys.argv[1]]) == 0, stage
from hyperdisc import corpus_io, embedding
import numpy
assert embedding.np is numpy
cfg = cli.load_config(sys.argv[1])
model = embedding.load_embedding(cfg.embedding)
vocab = frozenset(map(corpus_io.token_to_term, model.vocab))
found = embedding.candidates_from_phi(embedding.load_phi(cfg.phi), model, model.vocab[0], vocab, 3)
assert [c.term for c in found] and all(c.term != model.vocab[0] for c in found)
"""


def run_fresh_python(*args):
    """Run a new interpreter that imports this package with ``args``
    (``"-c", code, ...`` or ``"-m", module, ...``)."""
    src = os.path.dirname(os.path.dirname(hyperdisc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run(
        [sys.executable, *map(str, args)], env=env, capture_output=True, text=True, timeout=120,
    )


def test_stages_that_train_nothing_never_import_numpy(tmp_path, dataset):
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    proc = run_fresh_python("-c", NUMPY_ON_FIRST_USE, cfg_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", ["hyperdisc", "hyperdisc.cli"])
def test_module_entry_points_list_every_command(module):
    """``python -m hyperdisc`` (``__main__.py``) and ``python -m
    hyperdisc.cli``, the one the benchmark spawns, both run the CLI."""
    proc = run_fresh_python("-m", module, "--help")
    assert proc.returncode == 0, proc.stderr
    listed = [line.split()[0] for line in proc.stdout.splitlines()
              if line.startswith("    ") and not line.startswith("     ")]
    assert listed == list(cli.COMMANDS) and len(listed) == 9


# what every stage process pays for before it works: importing the CLI loads
# every layer module (which `perfbench/trace.py` wraps after importing only
# the CLI) and none of these modules
CLI_IMPORT = """
import sys
import hyperdisc.cli
loaded = [name for name in ("dataclasses", "inspect", "numpy", "multiprocessing")
          if name in sys.modules]
assert not loaded, f"imported by hyperdisc.cli: {loaded}"
layers = ("cooc", "corpus_io", "embedding", "metrics", "normalize", "patterns", "rank", "_parallel")
missing = [name for name in layers if f"hyperdisc.{name}" not in sys.modules]
assert not missing, f"not imported by hyperdisc.cli: {missing}"
"""


def test_cli_import_loads_every_layer_and_no_heavy_module():
    proc = run_fresh_python("-c", CLI_IMPORT)
    assert proc.returncode == 0, proc.stderr


# what the benchmark's tracer (perfbench/trace.py, which shadows the standard
# library's `trace`) wraps by name: every function of its SPAN_FUNCTIONS and
# every handler of `cli.PIPELINE_STAGES` and `cli.COMMANDS`
BENCHMARK_TRACER = """
import sys
sys.path.insert(0, sys.argv[1])
import trace
trace.Tracer(sample_rss=False).install()
from hyperdisc import cli
for layer, names in trace.SPAN_FUNCTIONS.items():
    for name in names:
        assert hasattr(getattr(sys.modules[f"hyperdisc.{layer}"], name), "__wrapped__"), name
assert [stage for stage, _ in cli.PIPELINE_STAGES] == list(cli.STAGES)
assert all(hasattr(handler, "__wrapped__") for _, handler in cli.PIPELINE_STAGES)
assert all(hasattr(handler, "__wrapped__") for handler in cli.COMMANDS.values())
"""


def test_benchmark_tracer_finds_every_name_it_wraps():
    """A rename of a function the benchmark times fails here as well as in
    the benchmark."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    proc = run_fresh_python("-c", BENCHMARK_TRACER, perfbench)
    assert proc.returncode == 0, proc.stderr
