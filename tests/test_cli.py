import os
import subprocess
import sys
from functools import partial

import numpy as np
import pytest

import hyperdisc
from hyperdisc import corpus_io, synthetic
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
    load_queries,
    load_vocabulary,
    read_artifact,
    read_predictions,
    term_to_token,
)

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
        assert read_artifact(getattr(cfg, key))[0].get("config-hash") == cfg.hash(), key


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
    for query in queries:
        for source, cands in lists_for(query).items():
            names = [c.term for c in cands]
            assert len(names) == len(set(names)), (query.term, source)
            assert set(names) <= vocab.terms - set(spelled), (query.term, source)
            named.update(names)
    assert any(" " in t for t in named)  # a term with both spellings is named


def test_stage_chain_requires_upstream(tmp_path, dataset, capsys):
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "cooc-index") == 2
    assert "normalize" in capsys.readouterr().err
    assert run(cfg_path, "fit-phi") == 2
    assert "train-embedding" in capsys.readouterr().err


def test_train_embedding_requires_seed(tmp_path, dataset, capsys):
    cfg = make_config(dataset, tmp_path, seed=None)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "normalize") == 0
    assert run(cfg_path, "train-embedding") == 2
    assert "seed" in capsys.readouterr().err


def test_stage_by_stage_equals_pipeline(tmp_path, dataset):
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    stages = (
        "normalize",
        "extract-hearst",
        "extract-isa",
        "train-embedding",
        "cooc-index",
        "fit-phi",
        "predict",
        "evaluate",
    )
    for stage in stages:
        assert run(cfg_path, stage) == 0, stage
    staged = {key: open(getattr(cfg, key), "rb").read() for key in ARTIFACT_KEYS}
    assert run(cfg_path, "pipeline") == 0
    for key in ARTIFACT_KEYS:
        assert open(getattr(cfg, key), "rb").read() == staged[key], key


def test_pipeline_is_deterministic(tmp_path, dataset):
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "pipeline") == 0
    first = {
        key: open(getattr(cfg, key), "rb").read()
        for key in ("predictions", "metrics")
    }
    assert run(cfg_path, "pipeline") == 0
    for key, body in first.items():
        assert open(getattr(cfg, key), "rb").read() == body, key


def test_pipeline_bytes_do_not_depend_on_workers(tmp_path, dataset):
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "pipeline") == 0
    serial = {key: open(getattr(cfg, key), "rb").read() for key in ARTIFACT_KEYS}
    assert run(cfg_path, "pipeline", "--workers", "2") == 0
    for key in ARTIFACT_KEYS:
        assert open(getattr(cfg, key), "rb").read() == serial[key], key


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
    lines = open(cfg.embedding, encoding="utf-8").readlines()
    with open(cfg.embedding, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-1])
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
    assert err.startswith(f"error: {cfg.normalized}: last row cut short at data line 2")


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
    # an unstamped snapshot passes the stale check, so only its floor can
    # tell that it lacks counts the threshold reads
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "pipeline") == 0
    save_cooc_index(cfg.cooc_index, load_cooc_index(cfg.cooc_index), floor=floor)
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
        ("--lr", "nan", "lr must be a finite number, got nan"),
        ("--ridge", "inf", "ridge must be a finite number, got inf"),
    ],
)
def test_bad_settings_rejected_before_any_stage(tmp_path, dataset, capsys, flag, value, problem):
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "pipeline", flag, value) == 2
    assert capsys.readouterr().err == f"error: {problem}\n"
    assert not os.path.exists(cfg.normalized)


def test_diverging_training_writes_no_embedding(tmp_path, dataset, capsys):
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    with np.errstate(all="ignore"):
        assert run(cfg_path, "pipeline", "--lr", "1e300") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg.embedding}: row ") and "has a non-finite value" in err
    assert not os.path.exists(cfg.embedding)


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


def test_config_not_utf8_names_file_and_line(tmp_path, capsys):
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_bytes(b"# written by hand\n# caf\xe9\nk=5\n")
    assert main(["normalize", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {cfg_path}: not UTF-8 text at line 2 (invalid continuation byte)\n"
    )


def test_config_error_lines_count_comments(tmp_path):
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text("# caf\u00e9\n\nk=5\nno_such_key=1\n", encoding="utf-8")
    with pytest.raises(CliError) as info:
        load_config(str(cfg_path))
    assert str(info.value) == f"{cfg_path}: line 4: unknown config key 'no_such_key'"


def test_invalid_parameter_values():
    with pytest.raises(Exception):
        PipelineConfig(k=20)
    with pytest.raises(Exception):
        PipelineConfig(phi_mode="banana")
    with pytest.raises(Exception):
        PipelineConfig(order_mode="magic")


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
    assert "matrix" in open(cfg.phi).read().splitlines()[1]


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
from hyperdisc import embedding
import numpy
assert embedding.np is numpy
cfg = cli.load_config(sys.argv[1])
model = embedding.load_embedding(cfg.embedding)
found = embedding.candidates_from_phi(embedding.load_phi(cfg.phi), model, model.vocab[0], None, 3)
assert [c.term for c in found] and all(c.term != model.vocab[0] for c in found)
"""


def test_stages_that_train_nothing_never_import_numpy(tmp_path, dataset):
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    src = os.path.dirname(os.path.dirname(hyperdisc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_ON_FIRST_USE, str(cfg_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
