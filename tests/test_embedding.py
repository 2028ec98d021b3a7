import math

import numpy as np
import pytest

from hyperdisc import synthetic
from hyperdisc.corpus_io import CandidateVocabulary, FormatError
from hyperdisc.embedding import (
    EmbeddingConfig,
    EmbeddingModel,
    PhiMode,
    PhiTransform,
    apply_step,
    candidates_from_phi,
    cbow_step_loss,
    fit_phi,
    load_embedding,
    load_phi,
    save_embedding,
    save_phi,
    train_cbow,
)
from hyperdisc.normalize import normalize_corpus


def random_model(rng, vocab_size=20, dim=8, scale=0.5):
    return EmbeddingModel(
        vocab=[f"w{i}" for i in range(vocab_size)],
        input_vectors=rng.normal(0.0, scale, (vocab_size, dim)),
        output_vectors=rng.normal(0.0, scale, (vocab_size, dim)),
    )


def random_example(rng, vocab_size=20):
    center = int(rng.integers(vocab_size))
    n_ctx = int(rng.integers(1, 6))
    context = list(rng.choice(vocab_size, size=n_ctx, replace=True))
    n_neg = int(rng.integers(1, 6))
    negatives = list(rng.choice(vocab_size, size=n_neg, replace=True))
    return center, context, negatives


def numeric_gradients(model, center, context, negatives, eps=1e-4):
    """Central finite differences over every parameter the loss touches."""
    grad_in = np.zeros_like(model.input_vectors)
    grad_out = np.zeros_like(model.output_vectors)
    for matrix, grad in (
        (model.input_vectors, grad_in),
        (model.output_vectors, grad_out),
    ):
        rows = set(context) | {center, *negatives}
        for row in rows:
            for col in range(matrix.shape[1]):
                original = matrix[row, col]
                matrix[row, col] = original + eps
                up = cbow_step_loss(model, center, context, negatives).loss
                matrix[row, col] = original - eps
                down = cbow_step_loss(model, center, context, negatives).loss
                matrix[row, col] = original
                grad[row, col] = (up - down) / (2 * eps)
    return grad_in, grad_out


def analytic_gradients(model, center, context, negatives):
    step = cbow_step_loss(model, center, context, negatives)
    grad_in = np.zeros_like(model.input_vectors)
    grad_out = np.zeros_like(model.output_vectors)
    for token in context:
        grad_in[token] += step.context_grad
    for token, row in zip([center, *negatives], step.target_grads):
        grad_out[token] += row
    return grad_in, grad_out


def relative_error(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-8)
    return np.linalg.norm(a - b) / denom


def test_loss_at_zero_vectors():
    model = EmbeddingModel(
        vocab=["a", "b", "c", "d"],
        input_vectors=np.zeros((4, 6)),
        output_vectors=np.zeros((4, 6)),
    )
    step = cbow_step_loss(model, 0, [1, 2], [3, 3, 3])
    assert step.loss == pytest.approx(4 * math.log(2))
    assert np.all(step.context_grad == 0)
    assert np.all(step.target_grads == 0)


def test_empty_context_is_error():
    model = random_model(np.random.default_rng(0))
    with pytest.raises(ValueError):
        cbow_step_loss(model, 0, [], [1])


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        model = random_model(rng)
        center, context, negatives = random_example(rng)
        num_in, num_out = numeric_gradients(model, center, context, negatives)
        ana_in, ana_out = analytic_gradients(model, center, context, negatives)
        worst = max(
            worst,
            relative_error(num_in, ana_in),
            relative_error(num_out, ana_out),
        )
    assert worst < 1e-4


def test_negative_equal_to_center_lower_bound():
    # -log s(z) - log s(-z) >= 2 log 2 for every z; exact at zero init
    model = EmbeddingModel(
        vocab=["a", "b"],
        input_vectors=np.zeros((2, 4)),
        output_vectors=np.zeros((2, 4)),
    )
    step = cbow_step_loss(model, 0, [1], [0])
    assert step.loss == pytest.approx(2 * math.log(2))
    rng = np.random.default_rng(5)
    for _ in range(20):
        model = random_model(rng)
        step = cbow_step_loss(model, 3, [1, 2], [3])
        assert step.loss >= 2 * math.log(2) - 1e-12


def step_rows(center, context, negatives):
    return (
        np.asarray(context, dtype=np.intp),
        np.asarray([center, *negatives], dtype=np.intp),
    )


def test_sgd_step_decreases_loss():
    rng = np.random.default_rng(7)
    for _ in range(50):
        model = random_model(rng)
        center, context, negatives = random_example(rng)
        before = cbow_step_loss(model, center, context, negatives).loss
        apply_step(
            model.input_vectors, model.output_vectors,
            *step_rows(center, context, negatives), lr=1e-3,
        )
        after = cbow_step_loss(model, center, context, negatives).loss
        assert after < before


def test_apply_step_is_minus_lr_times_oracle_gradients():
    rng = np.random.default_rng(17)
    lr = 0.05
    for _ in range(100):
        model = random_model(rng)
        center, context, negatives = random_example(rng)
        # repeated rows must accumulate, as they do in the oracle
        context = [*context, context[0]]
        negatives = [*negatives, negatives[0], center]
        grad_in, grad_out = analytic_gradients(model, center, context, negatives)
        w_in, w_out = model.input_vectors.copy(), model.output_vectors.copy()
        apply_step(w_in, w_out, *step_rows(center, context, negatives), lr)
        assert relative_error(w_in - model.input_vectors, -lr * grad_in) < 1e-12
        assert relative_error(w_out - model.output_vectors, -lr * grad_out) < 1e-12


def write_corpus(path, lines):
    path.write_text("".join(" ".join(t) + "\n" for t in lines))


def test_min_count_filters_vocab(tmp_path):
    path = tmp_path / "c.txt"
    lines = [["common", "other"]] * 5 + [["rare", "common"]] * 4
    write_corpus(path, lines)
    config = EmbeddingConfig(dimension=4, window=2, min_count=5, epochs=1, seed=0)
    model = train_cbow(path, config)
    assert "rare" not in model
    assert "common" in model and model.frequencies["common"] == 9


def test_vector_dimension_matches_config(tmp_path):
    path = tmp_path / "c.txt"
    write_corpus(path, [["a", "b"]] * 6)
    config = EmbeddingConfig(dimension=7, window=2, min_count=5, epochs=1, seed=0)
    model = train_cbow(path, config)
    assert model.input_vectors.shape == (2, 7)
    assert np.isfinite(model.input_vectors).all()


def test_empty_vocabulary_is_error(tmp_path):
    path = tmp_path / "c.txt"
    write_corpus(path, [["a", "b"], ["c", "d"]])
    config = EmbeddingConfig(dimension=4, window=2, min_count=5, epochs=1, seed=0)
    with pytest.raises(ValueError, match="min_count"):
        train_cbow(path, config)


def correlated_pair_corpus(path, rng):
    """a and b occur 1000 times each in identical contexts, plus noise."""
    noise_words = [f"n{i}" for i in range(20)]
    context_words = ["x", "y", "z"]
    lines = []
    for i in range(1000):
        c1 = context_words[i % 3]
        c2 = context_words[(i + 1) % 3]
        lines.append([c1, "a", c2])
        lines.append([c1, "b", c2])
    for _ in range(800):
        k = int(rng.integers(3, 7))
        lines.append(list(rng.choice(noise_words, size=k)))
    order = rng.permutation(len(lines))
    write_corpus(path, [lines[i] for i in order])
    return noise_words


def cosine(model, x, y):
    vx, vy = model.vector(x), model.vector(y)
    return float(vx @ vy / (np.linalg.norm(vx) * np.linalg.norm(vy)))


def test_correlated_tokens_end_up_similar(tmp_path):
    path = tmp_path / "c.txt"
    noise_words = correlated_pair_corpus(path, np.random.default_rng(5))
    config = EmbeddingConfig(
        dimension=16, window=5, min_count=5, negatives=5, epochs=3,
        learning_rate=0.025, seed=3,
    )
    model = train_cbow(path, config)
    pair_cos = cosine(model, "a", "b")
    for word in noise_words:
        if word in model:
            assert pair_cos > cosine(model, "a", word)


def test_multi_worker_training_produces_valid_model(tmp_path):
    # workers spread the normalization that feeds training; the model trained
    # on a parallel normalization must be valid and equal the serial one
    data = synthetic.generate(
        tmp_path, n_hypernyms=3, n_hyponyms=4, seed=12, noise_lines=600
    )
    config = EmbeddingConfig(dimension=8, window=3, min_count=2, epochs=2, seed=1)
    models = []
    for workers in (1, 3):
        normalized = tmp_path / f"normalized_{workers}.txt"
        normalize_corpus(data.corpus, normalized, workers=workers)
        models.append(train_cbow(normalized, config))
    serial, model = models
    assert np.isfinite(model.input_vectors).all()
    assert np.isfinite(model.output_vectors).all()
    assert model.output_vectors.any()  # the output vectors were trained
    assert model.vocab == serial.vocab
    assert np.array_equal(model.input_vectors, serial.input_vectors)
    assert np.array_equal(model.output_vectors, serial.output_vectors)


def test_training_is_deterministic_for_fixed_seed(tmp_path):
    path = tmp_path / "c.txt"
    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(15)]
    write_corpus(
        path, [list(rng.choice(words, size=6)) for _ in range(200)]
    )
    config = EmbeddingConfig(dimension=8, window=3, min_count=2, epochs=2, seed=42)
    model_a = train_cbow(path, config)
    model_b = train_cbow(path, config)
    assert model_a.vocab == model_b.vocab
    assert np.array_equal(model_a.input_vectors, model_b.input_vectors)
    assert np.array_equal(model_a.output_vectors, model_b.output_vectors)
    out_a, out_b = tmp_path / "a.emb", tmp_path / "b.emb"
    save_embedding(out_a, model_a)
    save_embedding(out_b, model_b)
    assert out_a.read_bytes() == out_b.read_bytes()


# ---------------------------------------------------------------------------
# projection


def planted_model(rng, dim=6, n=12):
    vocab = [f"x{i}" for i in range(n)] + [f"y{i}" for i in range(n)]
    base = rng.normal(0, 1, (n, dim))
    return vocab, base


def test_fit_phi_identity_pairs():
    rng = np.random.default_rng(0)
    vocab, base = planted_model(rng)
    model = EmbeddingModel(vocab=vocab, input_vectors=np.vstack([base, base]))
    phi = fit_phi([(f"x{i}", f"y{i}") for i in range(12)], model, PhiMode.OFFSET)
    assert np.allclose(phi.offset, 0.0)


def test_fit_phi_recovers_constant_offset():
    rng = np.random.default_rng(1)
    vocab, base = planted_model(rng)
    shift = rng.normal(0, 1, base.shape[1])
    model = EmbeddingModel(vocab=vocab, input_vectors=np.vstack([base, base + shift]))
    phi = fit_phi([(f"x{i}", f"y{i}") for i in range(12)], model, PhiMode.OFFSET)
    assert np.abs(phi.offset - shift).max() < 1e-9


def test_fit_phi_offset_is_local_minimum():
    rng = np.random.default_rng(2)
    vocab, base = planted_model(rng)
    noise = rng.normal(0, 0.3, base.shape)
    model = EmbeddingModel(vocab=vocab, input_vectors=np.vstack([base, base + noise]))
    pairs = [(f"x{i}", f"y{i}") for i in range(12)]
    phi = fit_phi(pairs, model, PhiMode.OFFSET)
    x = base
    y = base + noise

    def objective(offset):
        return np.mean(np.sum((x + offset - y) ** 2, axis=1))

    best = objective(phi.offset)
    gradient = 2.0 * np.mean((x + phi.offset) - y, axis=0)
    assert np.linalg.norm(gradient) < 1e-8
    for _ in range(100):
        assert best <= objective(phi.offset + rng.normal(0, 0.1, phi.offset.shape))


def test_fit_phi_matrix_recovers_linear_map():
    rng = np.random.default_rng(3)
    dim, n = 6, 40
    base = rng.normal(0, 1, (n, dim))
    target_map = rng.normal(0, 1, (dim, dim))
    vocab = [f"x{i}" for i in range(n)] + [f"y{i}" for i in range(n)]
    model = EmbeddingModel(
        vocab=vocab, input_vectors=np.vstack([base, base @ target_map.T])
    )
    pairs = [(f"x{i}", f"y{i}") for i in range(n)]
    phi = fit_phi(pairs, model, PhiMode.MATRIX, ridge=1e-10)
    assert np.abs(phi.matrix - target_map).max() < 1e-6
    # normal-equations residual
    residual = (base.T @ base + 1e-10 * np.eye(dim)) @ phi.matrix.T - base.T @ (
        base @ target_map.T
    )
    assert np.linalg.norm(residual) < 1e-8


def test_fit_phi_skips_oov_pairs():
    rng = np.random.default_rng(4)
    vocab, base = planted_model(rng)
    model = EmbeddingModel(vocab=vocab, input_vectors=np.vstack([base, base]))
    phi = fit_phi(
        [("x0", "y0"), ("x1", "unknown"), ("ghost", "y2")], model, PhiMode.OFFSET
    )
    assert phi.skipped_pairs == 2


def test_fit_phi_no_usable_pairs_is_error():
    rng = np.random.default_rng(4)
    vocab, base = planted_model(rng)
    model = EmbeddingModel(vocab=vocab, input_vectors=np.vstack([base, base]))
    with pytest.raises(ValueError):
        fit_phi([("ghost", "spirit")], model, PhiMode.OFFSET)


def test_phi_candidates_self_excluded():
    model = EmbeddingModel(vocab=["q"], input_vectors=np.zeros((1, 4)))
    phi = PhiTransform(PhiMode.OFFSET, offset=np.zeros(4))
    assert candidates_from_phi(phi, model, "q", None) == []


def test_phi_candidates_planted_cluster():
    dim = 4
    shift = np.array([1.0, 0.0, 0.0, 0.0])
    vectors = {
        "lemongrass": np.zeros(dim),
        "herb": shift,                      # exactly at the projected point
        "plant": shift + [0.0, 0.2, 0.0, 0.0],
        "rock": shift + [0.0, 3.0, 0.0, 0.0],
    }
    model = EmbeddingModel(
        vocab=list(vectors), input_vectors=np.array(list(vectors.values()))
    )
    phi = PhiTransform(PhiMode.OFFSET, offset=shift)
    got = candidates_from_phi(phi, model, "lemongrass", None, k=2)
    assert [c.term for c in got] == ["herb", "plant"]
    assert got[0].score == pytest.approx(1.0)
    assert got[0].score > got[1].score


def test_phi_candidates_query_out_of_vocab():
    model = EmbeddingModel(vocab=["a"], input_vectors=np.zeros((1, 3)))
    phi = PhiTransform(PhiMode.OFFSET, offset=np.zeros(3))
    assert candidates_from_phi(phi, model, "missing", None) == []


def test_phi_candidates_match_brute_force_scan():
    rng = np.random.default_rng(8)
    n, dim = 200, 10
    vocab = [f"w{i:03d}" for i in range(n)]
    model = EmbeddingModel(vocab=vocab, input_vectors=rng.normal(0, 1, (n, dim)))
    phi = PhiTransform(PhiMode.OFFSET, offset=rng.normal(0, 1, dim))
    candidate_vocab = CandidateVocabulary(frozenset(vocab[: n // 2]))
    got = candidates_from_phi(phi, model, "w005", candidate_vocab, k=15)
    target = model.vector("w005") + phi.offset
    scan = sorted(
        (
            (float(np.linalg.norm(model.vector(w) - target)), w)
            for w in vocab[: n // 2]
            if w != "w005"
        ),
    )[:15]
    assert [c.term for c in got] == [w for _, w in scan]
    dists = [1.0 / c.score - 1.0 for c in got]
    assert dists == sorted(dists)


def test_matrix_phi_applies_matrix():
    matrix = np.array([[0.0, 1.0], [1.0, 0.0]])
    phi = PhiTransform(PhiMode.MATRIX, matrix=matrix)
    assert np.allclose(phi.apply(np.array([1.0, 2.0])), [2.0, 1.0])


def test_embedding_file_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    model = EmbeddingModel(
        vocab=["alpha", "beta_gamma"],
        input_vectors=rng.normal(0, 1, (2, 5)),
    )
    path = tmp_path / "emb.txt"
    save_embedding(path, model, header={"config-hash": "f00d"})
    loaded = load_embedding(path)
    assert loaded.vocab == model.vocab
    assert np.abs(loaded.input_vectors - model.input_vectors).max() < 1e-6
    first_data_line = [
        line for line in path.read_text().splitlines() if not line.startswith("#")
    ][0]
    assert first_data_line == "2 5"


def test_phi_file_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    offset_phi = PhiTransform(PhiMode.OFFSET, offset=rng.normal(0, 1, 6))
    path = tmp_path / "phi.txt"
    save_phi(path, offset_phi)
    loaded = load_phi(path)
    assert loaded.mode is PhiMode.OFFSET
    assert np.array_equal(loaded.offset, offset_phi.offset)

    matrix_phi = PhiTransform(PhiMode.MATRIX, matrix=rng.normal(0, 1, (4, 4)))
    save_phi(path, matrix_phi)
    loaded = load_phi(path)
    assert loaded.mode is PhiMode.MATRIX
    assert np.array_equal(loaded.matrix, matrix_phi.matrix)


def test_config_validation():
    with pytest.raises(ValueError):
        EmbeddingConfig(dimension=1)
    with pytest.raises(ValueError):
        EmbeddingConfig(epochs=0)
    with pytest.raises(ValueError):
        EmbeddingConfig(learning_rate=0.0)


def truncations(text, header_lines):
    """The saved ``text`` cut at the start of its last line, in the middle of
    that line, and just after its ``header_lines`` leading lines."""
    lines = text.splitlines(keepends=True)
    last = len(text) - len(lines[-1])
    return {
        "row_boundary": text[:last],
        "mid_row": text[: last + len(lines[-1]) // 2],
        "header_only": "".join(lines[:header_lines]),
    }


def save_for(kind, path):
    rng = np.random.default_rng(12)
    if kind == "embedding":
        vectors = rng.normal(0, 1, (3, 4))
        model = EmbeddingModel(vocab=["a", "b", "c"], input_vectors=vectors)
        save_embedding(path, model, header={"config-hash": "f00d"})
        return load_embedding, 2     # stamp, size line
    if kind == "offset_phi":
        save_phi(path, PhiTransform(PhiMode.OFFSET, offset=rng.normal(0, 1, 4)),
                 header={"config-hash": "f00d"})
        return load_phi, 2           # stamp, mode line
    save_phi(path, PhiTransform(PhiMode.MATRIX, matrix=rng.normal(0, 1, (3, 3))),
             header={"config-hash": "f00d"})
    return load_phi, 3               # stamp, mode line, size line


@pytest.mark.parametrize("cut", ["row_boundary", "mid_row", "header_only"])
@pytest.mark.parametrize("kind", ["embedding", "offset_phi", "matrix_phi"])
def test_truncated_file_is_format_error(tmp_path, kind, cut):
    path = tmp_path / f"{kind}.txt"
    load, header_lines = save_for(kind, path)
    path.write_text(truncations(path.read_text(), header_lines)[cut])
    with pytest.raises(FormatError, match="truncated") as info:
        load(path)
    assert str(path) in str(info.value)
    assert "row" in str(info.value)
