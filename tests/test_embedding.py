import functools
import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdisc import embedding, synthetic
from hyperdisc.cooc import ScoredCandidate, Source
from hyperdisc.corpus_io import CandidateVocabulary, FormatError, term_to_token, token_to_term
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
    """A block of one position, a group of its own: its context row, its
    center and its row of negatives."""
    return (
        np.asarray([context], dtype=np.intp),
        np.asarray([center], dtype=np.intp),
        np.asarray([negatives], dtype=np.intp),
    )


def test_sgd_step_decreases_loss():
    rng = np.random.default_rng(7)
    for _ in range(50):
        model = random_model(rng)
        center, context, negatives = random_example(rng)
        before = cbow_step_loss(model, center, context, negatives).loss
        apply_step(
            model.input_vectors, model.output_vectors,
            *step_rows(center, context, negatives), lr=np.array([1e-3]),
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
        apply_step(w_in, w_out, *step_rows(center, context, negatives), np.array([lr]))
        assert relative_error(w_in - model.input_vectors, -lr * grad_in) < 1e-12
        assert relative_error(w_out - model.output_vectors, -lr * grad_out) < 1e-12


def test_block_update_is_sum_of_oracle_steps():
    rng = np.random.default_rng(23)
    short = 0
    for trial in range(50):
        model = random_model(rng)
        groups, width, n_neg = int(rng.integers(2, 5)), int(rng.integers(1, 5)), 3
        # every other trial ends in a short group; ``apply_step`` reads the
        # width back as ceil(size / groups)
        size = groups * width - (trial % 2) * int(rng.integers(0, min(groups, width)))
        assert -(-size // groups) == width
        short += size < groups * width
        context = np.full((size, 6), -1, dtype=np.intp)
        centers = rng.integers(0, 20, size)
        negatives = rng.integers(0, 20, (groups, n_neg))
        negatives[:, 1] = negatives[:, 0]            # a repeated negative row
        negatives[0, 2] = centers[0]                 # a clash left in
        if groups > 1:
            negatives[1, 2] = centers[0]             # another group's center, allowed
        lr = rng.uniform(0.01, 0.1, size)
        grad_in = np.zeros_like(model.input_vectors)
        grad_out = np.zeros_like(model.output_vectors)
        for b in range(size):
            _, ctx, _ = random_example(rng)
            ctx = [*ctx, ctx[0]]                     # a repeated context row
            slots = np.sort(rng.choice(6, size=len(ctx), replace=False))
            context[b, slots] = ctx                  # padding scattered in between
            # every position's gradient at the block-start weights, with the
            # negatives of its group
            step_in, step_out = analytic_gradients(
                model, centers[b], ctx, negatives[b // width].tolist()
            )
            grad_in += lr[b] * step_in
            grad_out += lr[b] * step_out
        w_in, w_out = model.input_vectors.copy(), model.output_vectors.copy()
        apply_step(w_in, w_out, context, centers, negatives, lr)
        assert relative_error(w_in - model.input_vectors, -grad_in) < 1e-12
        assert relative_error(w_out - model.output_vectors, -grad_out) < 1e-12
    assert short > 5


def per_position_reference(lines, w_in, w_out, noise_cdf, config, rng, total):
    """The trainer as one SGD step per position, each taken at the weights
    the previous step left: the reference the block trainer reduces to at
    block size 1."""
    window = config.window
    n_neg = config.negatives
    lr0 = config.learning_rate
    lr_floor = embedding.LR_FLOOR_FRACTION * lr0
    done = 0
    with np.errstate(over="ignore"):
        for _ in range(config.epochs):
            for ids in lines:
                n = len(ids)
                for pos in range(n):
                    lo = pos - window if pos > window else 0
                    ctx = np.concatenate((ids[lo:pos], ids[pos + 1 : pos + 1 + window]))
                    if ctx.size == 0:
                        continue
                    center = ids[pos]
                    negs = np.searchsorted(noise_cdf, rng.random(n_neg))
                    while True:
                        clash = negs == center
                        if not clash.any():
                            break
                        negs[clash] = np.searchsorted(
                            noise_cdf, rng.random(int(clash.sum()))
                        )
                    lr = lr0 * (1.0 - 0.9 * done / total)
                    if lr < lr_floor:
                        lr = lr_floor
                    done += 1
                    targets = np.concatenate(([center], negs))
                    h = w_in[ctx].mean(axis=0)
                    u = w_out[targets] @ h
                    g = 1.0 / (1.0 + np.exp(-u))
                    g[0] -= 1.0
                    grad_h = g @ w_out[targets]
                    np.add.at(w_out, targets, np.outer(g, (-lr) * h))
                    np.add.at(w_in, ctx, (-lr / ctx.size) * grad_h)


@st.composite
def training_cases(draw):
    vocab_size = draw(st.integers(2, 6))
    lines = draw(st.lists(
        st.lists(st.integers(0, vocab_size - 1), min_size=2, max_size=12),
        min_size=1, max_size=6,
    ))
    config = EmbeddingConfig(
        dimension=draw(st.integers(2, 8)), window=draw(st.integers(1, 4)),
        negatives=draw(st.integers(1, 4)), epochs=draw(st.integers(1, 2)),
        learning_rate=draw(st.floats(0.01, 0.5)), seed=draw(st.integers(0, 2**32 - 1)),
    )
    counts = np.array(draw(st.lists(
        st.integers(1, 50), min_size=vocab_size, max_size=vocab_size)), dtype=float)
    return [np.asarray(ids, dtype=np.intp) for ids in lines], config, counts


@settings(max_examples=200, deadline=None)
@given(training_cases())
def test_block_size_one_reproduces_per_position_trainer(case):
    lines, config, counts = case
    noise_cdf = np.cumsum(counts**embedding.NOISE_POWER)
    noise_cdf /= noise_cdf[-1]
    init = np.random.default_rng(config.seed)
    shape = (len(counts), config.dimension)
    w_in, w_out = init.normal(0, 0.5, shape), init.normal(0, 0.5, shape)
    total = config.epochs * sum(len(ids) for ids in lines)
    runs = []
    for train in (
        functools.partial(per_position_reference, total=total),
        functools.partial(embedding._train, block=1),
    ):
        rng = np.random.default_rng(config.seed)
        weights = w_in.copy(), w_out.copy()
        train(lines, *weights, noise_cdf, config, rng)
        runs.append((rng.bit_generator.state, *weights))
    (state_a, in_a, out_a), (state_b, in_b, out_b) = runs
    # the same draws, clash redraws included, and the same steps
    assert state_a == state_b
    assert relative_error(in_b, in_a) < 1e-12
    assert relative_error(out_b, out_a) < 1e-12


def record_blocks(monkeypatch, lines, w_in, w_out, config, rng):
    """Train at the module block size; each block's weights before its
    update, with the arguments of its `apply_step` call. Checks that no
    negative equals a center of its group."""
    noise_cdf = np.cumsum(np.ones(len(w_in)))
    noise_cdf /= noise_cdf[-1]
    blocks = []
    real_step = embedding.apply_step

    def recording_step(w_in, w_out, context, centers, negatives, lr):
        width = -(-len(centers) // len(negatives))
        for b, center in enumerate(centers):
            assert center not in negatives[b // width]
        blocks.append((w_in.copy(), w_out.copy(), context, centers, negatives, lr))
        real_step(w_in, w_out, context, centers, negatives, lr)

    monkeypatch.setattr(embedding, "apply_step", recording_step)
    embedding._train(lines, w_in, w_out, noise_cdf, config, rng)
    return blocks


def test_block_context_stays_in_its_paragraph(monkeypatch):
    # two paragraphs over disjoint vocabularies, so long that a block of the
    # module size holds positions of both
    rng = np.random.default_rng(31)
    lines = [rng.integers(0, 5, embedding.BLOCK - 40), rng.integers(5, 10, embedding.BLOCK)]
    dim = 4
    w_in, w_out = rng.normal(0, 0.5, (10, dim)), rng.normal(0, 0.5, (10, dim))
    config = EmbeddingConfig(dimension=dim, window=4, negatives=2, epochs=1, seed=1)
    mixed = 0
    for w_in, w_out, context, centers, negatives, lr in record_blocks(
        monkeypatch, lines, w_in, w_out, config, rng
    ):
        in_first = centers < 5
        mixed += in_first.any() and not in_first.all()
        # each position's row of negatives, so that a position is a group of one
        width = -(-len(centers) // len(negatives))
        rows = np.repeat(negatives, width, axis=0)[: len(centers)]
        for own, other in ((in_first, np.arange(5, 10)), (~in_first, np.arange(5))):
            if not own.any():
                continue
            # the block's update from one paragraph's positions alone
            keep_in, keep_out = w_in.copy(), w_out.copy()
            apply_step(keep_in, keep_out, context[own], centers[own], rows[own], lr[own])
            assert np.array_equal(keep_in[other], w_in[other])
    assert mixed == 1


def test_block_learning_rate_is_per_position(monkeypatch):
    rng = np.random.default_rng(37)
    lines = [rng.integers(0, 8, int(n)) for n in rng.integers(2, 40, 60)]
    config = EmbeddingConfig(dimension=3, window=2, negatives=1, epochs=2,
                             learning_rate=0.05, seed=2)
    w_in, w_out = rng.normal(0, 0.5, (8, 3)), np.zeros((8, 3))
    blocks = record_blocks(monkeypatch, lines, w_in, w_out, config, rng)
    assert len(blocks) > 2
    total = config.epochs * sum(map(len, lines))
    schedule = [max(0.05 * (1.0 - 0.9 * i / total), 0.005) for i in range(total)]
    assert np.concatenate([lr for *_, lr in blocks]).tolist() == schedule


@pytest.mark.parametrize("vocab_size", [2, 3, 8, 16, 17, 40])
def test_groups_covering_the_vocabulary_still_train(monkeypatch, vocab_size):
    # every line cycles through the whole vocabulary, so a group of GROUP
    # positions would hold every token as a center whenever GROUP >= the
    # vocabulary size, and no negative could avoid them all
    lines = [np.arange(embedding.BLOCK + 7) % vocab_size] * 3
    rng = np.random.default_rng(41)
    w_in, w_out = rng.normal(0, 0.5, (vocab_size, 3)), np.zeros((vocab_size, 3))
    config = EmbeddingConfig(dimension=3, window=2, negatives=3, epochs=1, seed=3)
    previous = signal.signal(signal.SIGALRM, _took_too_long)
    signal.alarm(15)
    try:
        blocks = record_blocks(monkeypatch, lines, w_in, w_out, config, rng)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    width = -(-len(blocks[0][3]) // len(blocks[0][4]))
    assert width == min(embedding.GROUP, vocab_size - 1)
    assert np.isfinite(w_in).all() and np.isfinite(w_out).all()


def _took_too_long(signum, frame):
    raise TimeoutError("training did not finish within 15 s")


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


def full_sort_reference(phi, model, q, vocab, k):
    """Projection retrieval as a full sort: every vocabulary term resolved to
    its row on each call, the whole pool scored and sorted by (distance, term).
    A term that is not its token's term (``a_b``, `` b ``) names no candidate."""
    q_token = term_to_token(q)
    q_row = model.index.get(q_token)
    if q_row is None:
        return []
    target = phi.apply(model.input_vectors[q_row])
    if vocab is None:
        pool = [(token, row) for token, row in model.index.items() if token != q_token]
    else:
        pool = []
        for term in vocab.terms:
            token = term_to_token(term)
            row = model.index.get(token)
            if row is not None and token != q_token and token_to_term(token) == term:
                pool.append((token, row))
    if not pool:
        return []
    rows = np.fromiter((row for _, row in pool), dtype=np.intp, count=len(pool))
    dists = np.linalg.norm(model.input_vectors[rows] - target, axis=1)
    ranked = sorted(
        ((dists[i], token_to_term(token)) for i, (token, _) in enumerate(pool)),
        key=lambda it: (it[0], it[1]),
    )
    return [
        ScoredCandidate(term, 1.0 / (1.0 + dist), Source.PHI)
        for dist, term in ranked[:k]
    ]


PHI_TOKENS = ["a", "b", "c", "d", "a_b", "b_c", "c_d_a"]
# out-of-vocabulary terms, and "a b" spelled as its token too
PHI_EXTRA_TERMS = ["zz", "q r", "a_b", " b "]


@st.composite
def phi_cases(draw):
    tokens = draw(st.lists(st.sampled_from(PHI_TOKENS), min_size=1, unique=True))
    dim = draw(st.integers(1, 3))
    rows = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    # few distinct rows, so that rows repeat and distances tie exactly
    distinct = draw(st.lists(rows, min_size=2, max_size=3))
    vectors = [draw(st.sampled_from(distinct)) for _ in tokens]
    model = EmbeddingModel(vocab=tokens, input_vectors=np.array(vectors, dtype=float))
    if draw(st.booleans()):
        phi = PhiTransform(PhiMode.OFFSET, offset=np.array(draw(rows), dtype=float))
    else:
        matrix = np.array(draw(st.lists(rows, min_size=dim, max_size=dim)), dtype=float)
        phi = PhiTransform(PhiMode.MATRIX, matrix=matrix)
    terms = [token_to_term(t) for t in PHI_TOKENS] + PHI_EXTRA_TERMS
    vocab_sets = st.one_of(
        st.none(), st.sets(st.sampled_from(terms)).map(lambda t: CandidateVocabulary(frozenset(t)))
    )
    vocabs = draw(st.lists(vocab_sets, min_size=1, max_size=3))
    queries = draw(st.lists(st.sampled_from(terms + tokens), min_size=1, max_size=3))
    # most k below the pool size (at most len(tokens)), so a screened pool prunes
    k_values = st.one_of(
        st.integers(-1, len(tokens)), st.integers(-1, len(tokens) + len(terms) + 2)
    )
    ks = draw(st.lists(k_values, min_size=1, max_size=3))
    return model, phi, vocabs, queries, ks


@settings(max_examples=300, deadline=None)
@given(phi_cases())
def test_phi_candidates_equal_full_sort_reference(case):
    model, phi, vocabs, queries, ks = case
    # several calls on one model: the cached rows must follow each vocabulary,
    # including an equal copy of one already seen
    if vocabs[0] is not None:
        vocabs.append(CandidateVocabulary(frozenset(vocabs[0].terms)))
    for vocab in vocabs:
        for q in queries:
            for k in ks:
                got = candidates_from_phi(phi, model, q, vocab, k)
                assert got == full_sort_reference(phi, model, q, vocab, max(k, 0))


def test_phi_candidates_screened_equal_full_sort_reference(monkeypatch):
    # every pool takes the float32 screen: tiny integer pools with exact ties
    monkeypatch.setattr(embedding, "SCREEN_CELLS", 0)
    test_phi_candidates_equal_full_sort_reference()


def test_phi_candidate_rows_resolved_once():
    rng = np.random.default_rng(9)
    tokens = [f"w{i}" for i in range(50)]
    model = EmbeddingModel(vocab=tokens, input_vectors=rng.normal(0, 1, (50, 4)))
    phi = PhiTransform(PhiMode.OFFSET, offset=rng.normal(0, 1, 4))
    vocab = CandidateVocabulary(frozenset(tokens[:30]))
    candidates_from_phi(phi, model, "w1", vocab)
    pool = model._phi_pool
    candidates_from_phi(phi, model, "w2", vocab)
    candidates_from_phi(phi, model, "w3", CandidateVocabulary(frozenset(tokens[:30])))
    assert model._phi_pool is pool  # the same and an equal vocabulary reuse the rows
    other = CandidateVocabulary(frozenset(tokens[20:]))
    for q in ("w1", "w25"):
        got = candidates_from_phi(phi, model, q, other)
        assert got == full_sort_reference(phi, model, q, other, 15)


@pytest.mark.parametrize("cells", [math.inf, 0], ids=["exact", "screened"])
def test_phi_names_each_vocabulary_term_once(monkeypatch, cells):
    # both spellings of five phrase tokens, and one only as its token: a row
    # enters the pool when its token's term is in the vocabulary, as in the
    # count modules, so no term is named twice or from outside the vocabulary
    monkeypatch.setattr(embedding, "SCREEN_CELLS", cells)
    rng = np.random.default_rng(14)
    phrases = [f"t{i}_x" for i in range(6)]
    tokens = phrases + [f"w{i}" for i in range(20)]
    model = EmbeddingModel(vocab=tokens, input_vectors=rng.normal(0, 1, (len(tokens), 4)))
    phi = PhiTransform(PhiMode.OFFSET, offset=rng.normal(0, 1, 4))
    terms = {token_to_term(t) for t in tokens if t != "t5_x"} | set(phrases)
    vocab = CandidateVocabulary(frozenset(terms))
    pool_size = 25  # t0_x to t4_x and the twenty words, t5_x not among them
    for q in ("w0", "t0 x", "t0_x", "t5 x"):
        others = pool_size if q == "t5 x" else pool_size - 1
        for k in (3, 15, 40):
            got = candidates_from_phi(phi, model, q, vocab, k)
            names = [c.term for c in got]
            assert len(names) == len(set(names)) == min(k, others)
            assert set(names) <= vocab.terms and "t5 x" not in names
            assert got == full_sort_reference(phi, model, q, vocab, k)


def test_screen_cutoff_rounds_to_nearest_float32():
    # a zero target scores each column by its cached squared norm alone, exactly
    steps = [np.float32(1)]
    for _ in range(4):
        steps.append(np.nextafter(steps[-1], np.float32(2)))
    sq = np.array([0.25, 0.5, *steps], dtype=np.float32)
    norm = math.sqrt(1.75 / 9)  # at dim 1, 2E is 1.75 float32 steps of 1.0
    pool = embedding._PhiPool(
        vocab=None, source=None, rows=np.arange(sq.size), vectors=None,
        v32=np.zeros((1, sq.size), np.float32), sq=sq, norm=norm,
    )
    cut = 2  # the (cut + 1)-th smallest score is 1.0
    cutoff = 1.0 + 2 * (9 * 2.0**-24 * norm**2 + 3 * 2.0**-148)
    # float32 cannot hold the cutoff, and rounds it up
    assert float(steps[1]) < cutoff < float(np.float32(cutoff)) == float(steps[2])
    keep = embedding._screen(pool, np.zeros(1), cut).tolist()
    assert set(np.flatnonzero(sq <= cutoff).tolist()) <= set(keep)
    assert 5 not in keep  # steps[3]: two steps above steps[1], the float32 below the cutoff


def assert_screen_copy(pool, screened):
    """A screened pool holds its vectors in float32 only, any other pool in
    float64 only."""
    columns = pool.source[pool.rows].T
    if not screened:
        assert pool.v32 is None and pool.sq is None
        assert np.array_equal(pool.vectors, columns)
        return
    assert pool.vectors is None
    assert pool.v32.dtype == np.float32 and pool.sq.dtype == np.float32
    assert np.array_equal(pool.v32, columns.astype(np.float32))
    assert np.array_equal(pool.sq, np.einsum("ij,ij->j", pool.v32, pool.v32))
    assert pool.norm == pytest.approx(np.linalg.norm(columns, axis=0).max(), rel=1e-12)


def test_phi_pool_follows_input_vectors_and_vocabulary():
    rng = np.random.default_rng(11)
    tokens = [f"w{i}" for i in range(40)]
    model = EmbeddingModel(vocab=tokens, input_vectors=rng.normal(0, 1, (40, 5)))
    phi = PhiTransform(PhiMode.OFFSET, offset=rng.normal(0, 1, 5))
    vocab = CandidateVocabulary(frozenset(tokens[:25]))
    assert candidates_from_phi(phi, model, "w3", vocab) == full_sort_reference(
        phi, model, "w3", vocab, 15
    )
    pool = model._phi_pool
    assert_screen_copy(pool, False)  # 25 x 5 cells, below the screen's threshold
    # a new array, not an in-place edit: the pool must be rebuilt from it
    model.input_vectors = rng.normal(0, 1, (40, 5))
    for q in ("w3", "w30"):
        got = candidates_from_phi(phi, model, q, vocab)
        assert got == full_sort_reference(phi, model, q, vocab, 15)
    assert model._phi_pool is not pool
    rebuilt = model._phi_pool
    assert_screen_copy(rebuilt, False)
    other = CandidateVocabulary(frozenset(tokens[10:]))
    got = candidates_from_phi(phi, model, "w12", other)
    assert got == full_sort_reference(phi, model, "w12", other, 15)
    assert model._phi_pool is not rebuilt
    assert model._phi_pool.vocab == other


def test_phi_pool_above_screen_threshold_follows_input_vectors():
    rng = np.random.default_rng(12)
    n, dim = 4000, 16
    tokens = [f"w{i}" for i in range(n)]
    model = EmbeddingModel(vocab=tokens, input_vectors=rng.normal(0, 1, (n, dim)))
    phi = PhiTransform(PhiMode.OFFSET, offset=rng.normal(0, 1, dim))
    vocab = CandidateVocabulary(frozenset(tokens[:3000]))
    assert 3000 * dim >= embedding.SCREEN_CELLS

    def check(q):
        got = candidates_from_phi(phi, model, q, vocab)
        want = full_sort_reference(phi, model, q, vocab, 15)
        assert [c.term for c in got] == [c.term for c in want]
        assert [c.score for c in got] == [pytest.approx(c.score, rel=1e-12) for c in want]

    check("w3")
    pool = model._phi_pool
    assert_screen_copy(pool, True)
    # a new array: the float32 copy must be rebuilt from it with the pool
    model.input_vectors = rng.normal(0, 1, (n, dim))
    for q in ("w3", "w3500"):
        check(q)
    rebuilt = model._phi_pool
    assert rebuilt is not pool
    assert_screen_copy(rebuilt, True)
    assert not np.array_equal(rebuilt.v32, pool.v32)
    check("w12")
    assert model._phi_pool is rebuilt


@pytest.mark.parametrize("dim", [16, 300])
@pytest.mark.parametrize("mode", list(PhiMode))
def test_phi_candidates_float_vectors_match_full_sort(dim, mode):
    rng = np.random.default_rng(dim)
    n = 400
    tokens = [f"w{i:03d}" for i in range(n)]
    model = EmbeddingModel(vocab=tokens, input_vectors=rng.normal(0, 1, (n, dim)))
    if mode is PhiMode.OFFSET:
        phi = PhiTransform(mode, offset=rng.normal(0, 1, dim))
    else:
        phi = PhiTransform(mode, matrix=rng.normal(0, 1 / np.sqrt(dim), (dim, dim)))
    # part of the embedding, every query among it, and a term it lacks
    vocab = CandidateVocabulary(frozenset(tokens[::3]) | {"missing"})
    pool_size = len(tokens[::3])
    for q in ("w000", "w150", "w399"):
        for k in (1, 15, pool_size - 1, pool_size, pool_size + 5):
            got = candidates_from_phi(phi, model, q, vocab, k)
            want = full_sort_reference(phi, model, q, vocab, k)
            assert [c.term for c in got] == [c.term for c in want]
            assert [c.score for c in got] == [pytest.approx(c.score, rel=1e-12) for c in want]
            assert q not in [c.term for c in got]
            assert len(got) == min(k, pool_size - 1)


def screen_model(dim, mode, scale, outlier):
    """A query, its projection and a pool with three groups of columns near
    one distance D, placed between the 12th and 13th nearest random rows:
    eight 1 to 4 ulps apart (they differ from the target in one coordinate,
    by 1 to 4 ulps a step, so both sides compute the same distances), six
    duplicates just beyond, and eight along random directions whose
    distances differ by 1e-9 of D, far below float32's resolution."""
    rng = np.random.default_rng(dim)
    n_random = 240
    vectors = rng.normal(0, scale, (n_random + 22, dim))
    if outlier:
        vectors[7] *= 1e6
    if mode is PhiMode.OFFSET:
        phi = PhiTransform(mode, offset=rng.normal(0, scale, dim))
    else:
        phi = PhiTransform(mode, matrix=rng.normal(0, 1 / np.sqrt(dim), (dim, dim)))
    target = phi.apply(vectors[0])
    near = np.sort(np.linalg.norm(vectors[1:n_random] - target, axis=1))
    radius = (near[11] + near[12]) / 2
    ulps = vectors[n_random : n_random + 8]
    ulps[:] = target
    ulps[0, 0] = target[0] + radius
    for i in range(1, 8):
        ulps[i, 0] = ulps[i - 1, 0]
        for _ in range(1 + (i - 1) % 4):
            ulps[i, 0] = np.nextafter(ulps[i, 0], np.inf)
    direction = rng.normal(0, 1, dim)
    vectors[n_random + 8 : n_random + 14] = (
        target + radius * (1 + 5e-10) * direction / np.linalg.norm(direction)
    )
    for i in range(8):
        direction = rng.normal(0, 1, dim)
        length = radius * (1 + 1e-8 + i * 1e-9)
        vectors[n_random + 14 + i] = target + length * direction / np.linalg.norm(direction)
    tokens = [f"w_{i:03d}" for i in range(len(vectors))]
    model = EmbeddingModel(vocab=tokens, input_vectors=vectors)
    terms = {token_to_term(t) for t in tokens}
    # both spellings of the query and of a duplicate, the `_` ones naming no
    # candidate; and a vocabulary without the query
    spelled = terms | {"w_000", f"w_{n_random + 9}"}
    vocabs = [spelled, terms - {"w 000"}]
    return model, phi, [CandidateVocabulary(frozenset(v)) for v in vocabs]


@pytest.mark.parametrize("dim", [16, 300])
@pytest.mark.parametrize("mode", list(PhiMode))
@pytest.mark.parametrize(
    "scale, outlier",
    [(1.0, False), (1e25, False), (1e-22, False), (1e-30, False), (1.0, True)],
    ids=["plain", "scaled 1e25", "scaled 1e-22", "scaled 1e-30", "outlier"],
)
def test_phi_screen_keeps_every_candidate(monkeypatch, dim, mode, scale, outlier):
    # at 1e-22 float32 products underflow to subnormals, at 1e-30 to zero
    model, phi, vocabs = screen_model(dim, mode, scale, outlier)
    screened = []

    def spy(pool, target, cut):
        keep = screen(pool, target, cut)
        screened.append(None if keep is None else keep.size)
        return keep

    screen = embedding._screen
    calls = [(vocab, k) for vocab in vocabs for k in range(1, 40)]
    with monkeypatch.context() as patch:
        patch.setattr(embedding, "_screen", spy)
        patch.setattr(embedding, "SCREEN_CELLS", 0)
        lists = [candidates_from_phi(phi, model, "w 000", vocab, k) for vocab, k in calls]
        screened_pool = model._phi_pool
    monkeypatch.setattr(embedding, "SCREEN_CELLS", math.inf)
    for (vocab, k), got in zip(calls, lists):
        want = full_sort_reference(phi, model, "w 000", vocab, k)
        assert [c.term for c in got] == [c.term for c in want]
        assert [c.score for c in got] == [pytest.approx(c.score, rel=1e-12) for c in want]
        # the exact steps over the whole pool give the same list, bit for bit
        assert got == candidates_from_phi(phi, model, "w 000", vocab, k)
        assert model._phi_pool.v32 is None
    if scale == 1e25:
        # norms above SCREEN_MAX_NORM: no float32 copy, every call exact
        assert screened == [] and screened_pool.v32 is None
    else:
        assert None not in screened and len(screened) == len(calls)
        if scale == 1.0 and not outlier:
            assert max(screened) < len(model.vocab) / 4  # the screen prunes


def test_phi_screen_falls_back_on_large_norms(monkeypatch):
    monkeypatch.setattr(embedding, "SCREEN_CELLS", 0)
    rng = np.random.default_rng(13)
    tokens = [f"w{i}" for i in range(100)]
    vectors = rng.normal(0, 1, (100, 16))
    phi = PhiTransform(PhiMode.OFFSET, offset=rng.normal(0, 1, 16))
    model = EmbeddingModel(vocab=tokens, input_vectors=vectors)
    candidates_from_phi(phi, model, "w0", None)
    pool = model._phi_pool
    assert pool.v32 is not None
    for far in (2.0**60, math.inf, math.nan):
        assert embedding._screen(pool, np.full(16, far), 15) is None
    assert embedding._screen(pool, np.full(16, 2.0**55), 15) is not None
    # a target that far is ranked from all the pool's columns, exactly
    far = PhiTransform(PhiMode.OFFSET, offset=np.full(16, 2.0**61))
    got = candidates_from_phi(far, model, "w0", None)
    with monkeypatch.context() as exact:
        exact.setattr(embedding, "SCREEN_CELLS", math.inf)
        model._phi_pool = None
        assert got == candidates_from_phi(far, model, "w0", None)
    vectors[7] *= 2.0**60  # one row whose norm float32 squares could not hold
    model.input_vectors = vectors.copy()
    got = candidates_from_phi(phi, model, "w0", None)
    assert model._phi_pool.v32 is None
    want = full_sort_reference(phi, model, "w0", None, 15)
    assert [c.term for c in got] == [c.term for c in want]


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


@pytest.mark.parametrize(
    "kind, problem",
    [
        ("embedding", "row 2 of 3 (token 'b') has a non-finite value"),
        ("offset_phi", "the offset row has a non-finite value"),
        ("matrix_phi", "matrix row 2 of 3 has a non-finite value"),
    ],
)
def test_writers_refuse_non_finite_values(tmp_path, kind, problem):
    """A writer rejects what its reader would, with the reader's words, and
    leaves the file it would have replaced as it was."""
    path = tmp_path / "out.txt"
    path.write_text("earlier\n")
    vectors = np.ones((3, 3))
    vectors[1, 2] = np.nan
    with pytest.raises(FormatError) as info:
        if kind == "embedding":
            save_embedding(path, EmbeddingModel(vocab=["a", "b", "c"], input_vectors=vectors))
        elif kind == "offset_phi":
            save_phi(path, PhiTransform(PhiMode.OFFSET, offset=np.array([1.0, np.inf])))
        else:
            save_phi(path, PhiTransform(PhiMode.MATRIX, matrix=vectors))
    assert str(info.value) == f"{path}: {problem}"
    assert path.read_text() == "earlier\n"


def test_config_validation():
    with pytest.raises(ValueError):
        EmbeddingConfig(dimension=1)
    with pytest.raises(ValueError):
        EmbeddingConfig(epochs=0)
    for lr in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            EmbeddingConfig(learning_rate=lr)


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


@pytest.mark.parametrize(
    "kind, text, problem",
    [
        ("embedding", "2 2\na 1 2\na nan 1\n", "row 2 of 2 (token 'a') has a non-finite value"),
        ("embedding", "2 2\na 1 2\na 3 1\n", "row 2 of 2 repeats token 'a'"),
        ("embedding", "3 1\na 1\nb -inf\nc 2\n", "row 2 of 3 (token 'b') has a non-finite value"),
        ("phi", "offset\n0.5 nan\n", "the offset row has a non-finite value"),
        ("phi", "matrix\n2 2\n1 0\ninf 1\n", "matrix row 2 of 2 has a non-finite value"),
        ("embedding", "2 3\na 1 2 3\nb 4 5 6\nc 7 8 9\n", "extra row after row 2 of 2 (token 'b')"),
        ("phi", "offset\n1 2\n3 4\n", "extra row after the offset row"),
        ("phi", "matrix\n1 2\n1 2\n3 4\n", "extra row after matrix row 1 of 1"),
        ("embedding", "2 -3\na 1 2\n", "the size line '2 -3' is not two positive integers"),
        ("phi", "matrix\n-1 2\n1 2\n", "the size line '-1 2' is not two positive integers"),
        ("embedding", "2 2\na 1 2\nb x 1\n", "row 2 of 2 (token 'b') has a non-number"),
        ("phi", "offset\n0.5 x\n", "the offset row has a non-number"),
        ("embedding", "2 2\na 1 2\nb 1 2 3\n", "row 2 of 2 (token 'b') has 3 values, expected 2"),
        ("embedding", "2 2\na 1 2 3\nb 1 2\n", "row 1 of 2 (token 'a') has 3 values, expected 2"),
        ("phi", "matrix\n2 2\n1 2\n\n", "matrix row 2 of 2 has no values"),
    ],
    ids=["nan-and-repeat", "repeated-token", "infinity", "nan-offset", "infinite-matrix",
         "extra-row", "extra-offset-row", "extra-matrix-row", "negative-size",
         "negative-matrix-size", "non-number", "non-number-offset", "wide-row",
         "wide-first-row", "blank-matrix-row"],
)
def test_malformed_vectors_are_format_error(tmp_path, kind, text, problem):
    path = tmp_path / f"{kind}.txt"
    path.write_text("#config-hash f00d\n" + text)
    load = load_embedding if kind == "embedding" else load_phi
    with pytest.raises(FormatError) as info:
        load(path)
    assert str(info.value) == f"{path}: {problem}"
