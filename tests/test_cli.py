import os

import pytest

from hyperdisc import synthetic
from hyperdisc.cli import PipelineConfig, load_config, main, write_config
from hyperdisc.corpus_io import read_header, read_predictions

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
        assert read_header(getattr(cfg, key)).get("config-hash") == cfg.hash(), key


def test_predict_without_cooc_index_names_stage(tmp_path, dataset, capsys):
    cfg = make_config(dataset, tmp_path)
    cfg_path = tmp_path / "config.txt"
    write_config(cfg_path, cfg)
    assert run(cfg_path, "predict") == 2
    err = capsys.readouterr().err
    assert "cooc-index" in err


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
