import functools
import math
import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hyperdisc import embedding, synthetic
from hyperdisc.cooc import ScoredCandidate, Source
from hyperdisc.corpus_io import FormatError, term_to_token, token_to_term
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


def step_args(center, context, negatives):
    """A block of one position, a group of its own: its window as the
    segment, the context and then the center, and its row of negatives."""
    segment = np.asarray([*context, center], dtype=np.intp)
    return (segment, np.array([0]), np.array([segment.size]), len(context),
            np.asarray([negatives], dtype=np.intp))


def test_sgd_step_decreases_loss():
    rng = np.random.default_rng(7)
    for _ in range(50):
        model = random_model(rng)
        center, context, negatives = random_example(rng)
        before = cbow_step_loss(model, center, context, negatives).loss
        apply_step(
            model.input_vectors, model.output_vectors,
            *step_args(center, context, negatives), lr=np.array([1e-3]),
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
        apply_step(w_in, w_out, *step_args(center, context, negatives), np.array([lr]))
        assert relative_error(w_in - model.input_vectors, -lr * grad_in) < 1e-12
        assert relative_error(w_out - model.output_vectors, -lr * grad_out) < 1e-12


def random_windows(rng, start, size, rows):
    """Windows ``[lo, hi)`` for the positions ``start..start + size - 1`` of
    a segment of ``rows`` rows: each holds its position and one more row at
    least, and neither end moves back from one position to the next."""
    while True:
        at = np.arange(start, start + size)
        lo = np.maximum(np.maximum.accumulate(at - rng.integers(0, 4, size)), 0)
        reach = at + 1 + rng.integers(0, 4, size)
        hi = np.minimum(np.minimum.accumulate(reach[::-1])[::-1], rows)
        if (hi - lo >= 2).all():
            return lo, hi


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
        # rows before and after the positions, so that windows reach past them
        start, after = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        segment = rng.integers(0, 20, start + size + after)
        segment[start + size // 2] = segment[start]   # a repeated row, in context and as center
        lo, hi = random_windows(rng, start, size, segment.size)
        centers = segment[start : start + size]
        negatives = rng.integers(0, 20, (groups, n_neg))
        negatives[:, 1] = negatives[:, 0]            # a repeated negative row
        negatives[0, 2] = centers[0]                 # a clash left in
        if groups > 1:
            negatives[1, 2] = centers[0]             # another group's center, allowed
        lr = rng.uniform(0.01, 0.1, size)
        grad_in = np.zeros_like(model.input_vectors)
        grad_out = np.zeros_like(model.output_vectors)
        for b in range(size):
            at = start + b
            ctx = [*segment[lo[b] : at], *segment[at + 1 : hi[b]]]
            # every position's gradient at the block-start weights, with the
            # negatives of its group
            step_in, step_out = analytic_gradients(
                model, centers[b], ctx, negatives[b // width].tolist()
            )
            grad_in += lr[b] * step_in
            grad_out += lr[b] * step_out
        w_in, w_out = model.input_vectors.copy(), model.output_vectors.copy()
        apply_step(w_in, w_out, segment, lo, hi, start, negatives, lr)
        assert relative_error(w_in - model.input_vectors, -grad_in) < 1e-12
        assert relative_error(w_out - model.output_vectors, -grad_out) < 1e-12
    assert short > 5


def per_position_reference(lines, w_in, w_out, noise_cdf, config, rng, total):
    """The trainer as one SGD step per position, each taken at the weights
    the previous step left: the reference the block trainer reduces to at
    block size 1."""
    window = config.window
    n_neg = config.negatives
    lr0 = config.lr
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


def ids_and_bounds(lines):
    """The trainer's corpus shape of ``lines``: their ids in one array, and
    the bounds of each line in it, from 0."""
    ends = np.cumsum([len(ids) for ids in lines])
    return np.concatenate(lines), np.concatenate(([0], ends))


@st.composite
def training_cases(draw):
    vocab_size = draw(st.integers(2, 6))
    lines = draw(st.lists(
        st.lists(st.integers(0, vocab_size - 1), min_size=2, max_size=12),
        min_size=1, max_size=6,
    ))
    config = EmbeddingConfig(
        dim=draw(st.integers(2, 8)), window=draw(st.integers(1, 4)),
        negatives=draw(st.integers(1, 4)), epochs=draw(st.integers(1, 2)),
        lr=draw(st.floats(0.01, 0.5)), seed=draw(st.integers(0, 2**32 - 1)),
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
    shape = (len(counts), config.dim)
    w_in, w_out = init.normal(0, 0.5, shape), init.normal(0, 0.5, shape)
    total = config.epochs * sum(len(ids) for ids in lines)
    runs = []
    for train in (
        functools.partial(per_position_reference, total=total),
        lambda lines, *args: embedding._train(*ids_and_bounds(lines), *args, block=1),
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

    def recording_step(w_in, w_out, segment, lo, hi, start, negatives, lr, work):
        width = -(-len(lo) // len(negatives))
        for b, center in enumerate(segment[start : start + len(lo)]):
            assert center not in negatives[b // width]
        blocks.append((w_in.copy(), w_out.copy(), segment, lo, hi, start, negatives, lr))
        real_step(w_in, w_out, segment, lo, hi, start, negatives, lr, work)

    monkeypatch.setattr(embedding, "apply_step", recording_step)
    embedding._train(*ids_and_bounds(lines), w_in, w_out, noise_cdf, config, rng)
    return blocks


def test_block_context_stays_in_its_paragraph(monkeypatch):
    # two paragraphs over disjoint vocabularies, so long that a block of the
    # module size holds positions of both
    rng = np.random.default_rng(31)
    lines = [rng.integers(0, 5, embedding.BLOCK - 40), rng.integers(5, 10, embedding.BLOCK)]
    dim = 4
    w_in, w_out = rng.normal(0, 0.5, (10, dim)), rng.normal(0, 0.5, (10, dim))
    config = EmbeddingConfig(dim=dim, window=4, negatives=2, epochs=1, seed=1)
    mixed = 0
    for w_in, w_out, segment, lo, hi, start, negatives, lr in record_blocks(
        monkeypatch, lines, w_in, w_out, config, rng
    ):
        in_first = segment[start : start + len(lo)] < 5
        mixed += in_first.any() and not in_first.all()
        # each position's row of negatives, so that a position is a group of one
        width = -(-len(lo) // len(negatives))
        rows = np.repeat(negatives, width, axis=0)[: len(lo)]
        for own, other in ((in_first, np.arange(5, 10)), (~in_first, np.arange(5))):
            if not own.any():
                continue
            # the block's update from one paragraph's positions alone, which
            # are consecutive
            keep_in, keep_out = w_in.copy(), w_out.copy()
            apply_step(keep_in, keep_out, segment, lo[own], hi[own], start + int(np.argmax(own)),
                       rows[own], lr[own])
            assert np.array_equal(keep_in[other], w_in[other])
    assert mixed == 1


def test_block_learning_rate_is_per_position(monkeypatch):
    rng = np.random.default_rng(37)
    lines = [rng.integers(0, 8, int(n)) for n in rng.integers(2, 40, 60)]
    config = EmbeddingConfig(dim=3, window=2, negatives=1, epochs=2, lr=0.05, seed=2)
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
    config = EmbeddingConfig(dim=3, window=2, negatives=3, epochs=1, seed=3)
    previous = signal.signal(signal.SIGALRM, _took_too_long)
    signal.alarm(15)
    try:
        blocks = record_blocks(monkeypatch, lines, w_in, w_out, config, rng)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    width = -(-len(blocks[0][3]) // len(blocks[0][6]))
    assert width == min(embedding.GROUP, vocab_size - 1)
    assert np.isfinite(w_in).all() and np.isfinite(w_out).all()


def padded_step(w_in, w_out, context, centers, negatives, lr):
    """The block update as it was written before the windowed one: row ``b``
    of ``context`` holds position ``b``'s context rows, padded with -1, and
    every context row is gathered and scattered on its own. A reference
    for `apply_step`, with the same grouping of negatives."""
    inside = context >= 0
    n_ctx = inside.sum(axis=1)
    size, groups, dim = len(centers), len(negatives), w_in.shape[1]
    width = -(-size // groups)
    h, step_h = np.zeros((2, groups * width, dim))
    h[:size] = np.einsum("bk,bkd->bd", inside.astype(w_in.dtype), w_in[context]) / n_ctx[:, None]
    step_h[:size] = (-lr)[:, None] * h[:size]
    out_c, out_n = w_out[centers], w_out[negatives]
    g_c = 1.0 / (1.0 + np.exp(-np.einsum("bd,bd->b", h[:size], out_c))) - 1.0
    u_n = np.einsum("kgd,knd->kgn", h.reshape(groups, width, dim), out_n)
    g_n = 1.0 / (1.0 + np.exp(-u_n))
    grad_h = g_c[:, None] * out_c
    grad_h += np.einsum("kgn,knd->kgd", g_n, out_n).reshape(h.shape)[:size]
    step_n = np.einsum("kgn,kgd->knd", g_n, step_h.reshape(groups, width, dim))
    step_out = np.concatenate((g_c[:, None] * step_h[:size], step_n.reshape(-1, dim)))
    np.add.at(w_out, np.concatenate((centers, negatives.ravel())), step_out)
    step_in = (-lr / n_ctx)[:, None] * grad_h
    np.add.at(w_in, context[inside], np.repeat(step_in, n_ctx, axis=0))


def padded_reference(ids, bounds, w_in, w_out, noise_cdf, config, rng, block=embedding.BLOCK):
    """The block trainer with `padded_step`: each block's contexts as a
    padded (block, 2 window) array, its negatives drawn as `_train` draws
    them."""
    total = config.epochs * ids.size
    window = config.window
    offsets = np.concatenate((np.arange(-window, 0), np.arange(1, window + 1)))
    n_neg = config.negatives
    group = min(embedding.GROUP, block, noise_cdf.size - 1)
    with np.errstate(over="ignore"):
        for epoch in range(config.epochs):
            for first in range(0, ids.size, block):
                pos = np.arange(first, min(first + block, ids.size))
                line = np.searchsorted(bounds, pos, side="right")
                at = pos[:, None] + offsets
                inside = (at >= bounds[line - 1, None]) & (at < bounds[line, None])
                context = np.where(inside, ids[np.where(inside, at, 0)], -1)
                centers = ids[pos]
                groups = -(-pos.size // group)
                width = -(-pos.size // groups)
                negs = np.searchsorted(noise_cdf, rng.random(groups * n_neg)).reshape(groups, n_neg)
                while True:
                    hits = np.repeat(negs, width, axis=0)[: pos.size] == centers[:, None]
                    clash = np.logical_or.reduceat(hits, np.arange(0, pos.size, width))
                    if not clash.any():
                        break
                    negs[clash] = np.searchsorted(noise_cdf, rng.random(int(clash.sum())))
                lr = config.lr * (1.0 - 0.9 * (epoch * ids.size + pos) / total)
                lr = np.maximum(lr, embedding.LR_FLOOR_FRACTION * config.lr)
                padded_step(w_in, w_out, context, centers, negs, lr)


def windowed_case(seed, vocab_size, window, lengths, dim=4, negatives=3, epochs=1):
    """A corpus of lines of ``lengths`` random ids, with its noise and settings."""
    rng = np.random.default_rng(seed)
    lines = [rng.integers(0, vocab_size, n) for n in lengths]
    counts = rng.integers(1, 50, vocab_size).astype(float)
    config = EmbeddingConfig(dim=dim, window=window, negatives=negatives, epochs=epochs,
                             lr=0.2, seed=seed)
    return lines, config, counts


@st.composite
def windowed_cases(draw):
    window = draw(st.integers(1, 8))
    # short lines (two ids, or fewer than the window) among long ones that
    # cross a block boundary, over at least two blocks
    length = st.one_of(st.just(2), st.integers(2, max(2, window)), st.integers(2, 300))
    lengths = [draw(length)]
    while sum(lengths) <= embedding.BLOCK:
        lengths.append(draw(length))
    return windowed_case(
        draw(st.integers(0, 2**32 - 1)), draw(st.integers(2, 40)), window, lengths,
        dim=draw(st.integers(2, 8)), negatives=draw(st.integers(1, 4)),
        epochs=draw(st.integers(1, 2)),
    )


def train_both(lines, config, counts, trainers):
    """Each trainer's RNG end state and weights, from the same start."""
    noise_cdf = np.cumsum(counts**embedding.NOISE_POWER)
    noise_cdf /= noise_cdf[-1]
    init = np.random.default_rng(config.seed + 1)
    shape = (len(counts), config.dim)
    w_in, w_out = init.normal(0, 0.5, shape), init.normal(0, 0.5, shape)
    runs = []
    for train in trainers:
        rng = np.random.default_rng(config.seed)
        weights = w_in.copy(), w_out.copy()
        train(*ids_and_bounds(lines), *weights, noise_cdf, config, rng)
        runs.append((rng.bit_generator.state, *weights))
    return runs


@settings(max_examples=100, deadline=None)
@given(windowed_cases())
# a line of two ids, lines shorter than the window, a vocabulary smaller
# than GROUP, and a line across the first block boundary
@example(windowed_case(3, 5, 6, [2, 4, 2, 300, 3, 2], negatives=2, epochs=2))
@example(windowed_case(4, 2, 3, [2] * 200))
def test_windowed_trainer_equals_padded_reference(case):
    lines, config, counts = case
    (state_a, in_a, out_a), (state_b, in_b, out_b) = train_both(
        lines, config, counts, (padded_reference, embedding._train))
    assert state_a == state_b
    assert relative_error(in_b, in_a) < 1e-12
    assert relative_error(out_b, out_a) < 1e-12


def test_trainer_memory_is_bounded_by_the_chunk():
    # windows precomputed for the whole corpus would make the peak grow
    # with it, 4x from the smaller corpus to the larger
    peaks = []
    for tokens in (50_000, 200_000):
        rng = np.random.default_rng(47)
        lengths = rng.integers(2, 40, tokens // 10)
        lengths = lengths[: np.searchsorted(np.cumsum(lengths), tokens)]
        lines, config, counts = windowed_case(47, 300, 5, lengths, dim=8)
        ids, bounds = ids_and_bounds(lines)
        noise_cdf = np.cumsum(counts) / counts.sum()
        w_in, w_out = rng.normal(0, 0.1, (300, 8)), np.zeros((300, 8))
        tracemalloc.start()
        try:
            embedding._train(ids, bounds, w_in, w_out, noise_cdf, config, rng)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]


def _took_too_long(signum, frame):
    raise TimeoutError("training did not finish within 15 s")


def write_corpus(path, lines):
    path.write_text("".join(" ".join(t) + "\n" for t in lines))


def test_min_count_filters_vocab(tmp_path):
    path = tmp_path / "c.txt"
    lines = [["common", "other"]] * 5 + [["rare", "common"]] * 4
    write_corpus(path, lines)
    config = EmbeddingConfig(dim=4, window=2, min_count=5, epochs=1, seed=0)
    model = train_cbow(path, config)
    # "common" occurs 9 times, "other" 5 and "rare" 4
    assert model.vocab == ["common", "other"]


def test_vector_dimension_matches_config(tmp_path):
    path = tmp_path / "c.txt"
    write_corpus(path, [["a", "b"]] * 6)
    config = EmbeddingConfig(dim=7, window=2, min_count=5, epochs=1, seed=0)
    model = train_cbow(path, config)
    assert model.input_vectors.shape == (2, 7)
    assert np.isfinite(model.input_vectors).all()


def test_empty_vocabulary_is_error(tmp_path):
    path = tmp_path / "c.txt"
    write_corpus(path, [["a", "b"], ["c", "d"]])
    config = EmbeddingConfig(dim=4, window=2, min_count=5, epochs=1, seed=0)
    with pytest.raises(ValueError, match="min_count"):
        train_cbow(path, config)


def test_one_token_vocabulary_is_error(tmp_path):
    path = tmp_path / "c.txt"
    write_corpus(path, [["a", "a", "b"]] * 5)
    config = EmbeddingConfig(dim=4, window=2, min_count=6, epochs=1, seed=0)
    with pytest.raises(ValueError) as info:
        train_cbow(path, config)
    assert str(info.value) == "need at least two vocabulary tokens for negative sampling"


def trained_corpus(monkeypatch, path, config):
    """`train_cbow`'s model, and the ids and bounds of each `_train` call."""
    calls = []
    real_train = embedding._train

    def recording_train(ids, bounds, *args):
        calls.append((ids.tolist(), bounds.tolist()))
        real_train(ids, bounds, *args)

    monkeypatch.setattr(embedding, "_train", recording_train)
    return train_cbow(path, config), calls


def test_blank_line_is_dropped(monkeypatch, tmp_path):
    path = tmp_path / "c.txt"
    write_corpus(path, [["a", "b"], [], ["b", "a", "c"]])
    config = EmbeddingConfig(dim=4, window=2, min_count=1, epochs=1, seed=0)
    model, calls = trained_corpus(monkeypatch, path, config)
    assert model.vocab == ["a", "b", "c"]
    assert calls == [([0, 1, 1, 0, 2], [0, 2, 5])]


def test_lines_of_fewer_than_two_vocabulary_tokens_are_dropped(monkeypatch, tmp_path):
    path = tmp_path / "c.txt"
    lines = [["a", "b"], ["c"], ["rare", "a"], ["b", "x"], ["a", "b", "a"], ["c", "y"]]
    write_corpus(path, lines)
    config = EmbeddingConfig(dim=4, window=2, min_count=2, epochs=1, seed=0)
    model, calls = trained_corpus(monkeypatch, path, config)
    # a occurs 4 times, b 3 and c 2; the kept lines are the first and the fifth
    assert model.vocab == ["a", "b", "c"]
    assert calls == [([0, 1, 0, 1, 0], [0, 2, 5])]


def test_corpus_with_no_trainable_line_returns_untrained_weights(monkeypatch, tmp_path):
    path = tmp_path / "c.txt"
    write_corpus(path, [["a", "x1"], ["b", "x2"], ["a", "x3"], ["b"]])
    config = EmbeddingConfig(dim=4, window=2, min_count=2, epochs=1, seed=5)
    model, calls = trained_corpus(monkeypatch, path, config)
    assert model.vocab == ["a", "b"] and calls == []
    initial = (np.random.default_rng(5).random((2, 4)) - 0.5) / 4
    assert np.array_equal(model.input_vectors, initial)
    assert np.array_equal(model.output_vectors, np.zeros((2, 4)))


def test_training_memory_does_not_grow_with_the_corpus(tmp_path):
    # the corpus is held as one id array and its line bounds, about 8 B a
    # token; holding its token strings or one array per line costs over 100
    rng = np.random.default_rng(43)
    words = [f"tok{i}" for i in range(300)]
    lengths = rng.integers(2, 40, 9500)
    path = tmp_path / "c.txt"
    path.write_text("".join(" ".join(words[i] for i in rng.integers(0, 300, n)) + "\n"
                            for n in lengths))
    tokens = int(lengths.sum())
    assert 190_000 < tokens < 210_000
    config = EmbeddingConfig(dim=8, window=5, min_count=1, epochs=1, seed=1)
    tracemalloc.start()
    try:
        train_cbow(path, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / tokens <= 40


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
    vx, vy = model.input_vectors[model.row(x)], model.input_vectors[model.row(y)]
    return float(vx @ vy / (np.linalg.norm(vx) * np.linalg.norm(vy)))


def test_correlated_tokens_end_up_similar(tmp_path):
    path = tmp_path / "c.txt"
    noise_words = correlated_pair_corpus(path, np.random.default_rng(5))
    config = EmbeddingConfig(
        dim=16, window=5, min_count=5, negatives=5, epochs=3, lr=0.025, seed=3,
    )
    model = train_cbow(path, config)
    pair_cos = cosine(model, "a", "b")
    for word in noise_words:
        if model.row(word) is not None:
            assert pair_cos > cosine(model, "a", word)


def test_multi_worker_training_produces_valid_model(tmp_path):
    # workers spread the normalization that feeds training; the model trained
    # on a parallel normalization must be valid and equal the serial one
    data = synthetic.generate(
        tmp_path, n_hypernyms=3, n_hyponyms=4, seed=12, noise_lines=600
    )
    config = EmbeddingConfig(dim=8, window=3, min_count=2, epochs=2, seed=1)
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
    config = EmbeddingConfig(dim=8, window=3, min_count=2, epochs=2, seed=42)
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


def test_fit_phi_rejects_negative_ridge():
    rng = np.random.default_rng(4)
    vocab, base = planted_model(rng)
    model = EmbeddingModel(vocab=vocab, input_vectors=np.vstack([base, base]))
    with pytest.raises(ValueError) as info:
        fit_phi([("x0", "y0")], model, PhiMode.MATRIX, ridge=-1e-3)
    assert str(info.value) == "ridge must be non-negative"


def every_term(model):
    """The vocabulary that admits every row of ``model``."""
    return frozenset(map(token_to_term, model.vocab))


def test_phi_candidates_self_excluded():
    model = EmbeddingModel(vocab=["q"], input_vectors=np.zeros((1, 4)))
    phi = PhiTransform(PhiMode.OFFSET, offset=np.zeros(4))
    assert candidates_from_phi(phi, model, "q", every_term(model)) == []


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
    got = candidates_from_phi(phi, model, "lemongrass", every_term(model), k=2)
    assert [c.term for c in got] == ["herb", "plant"]
    assert got[0].score == pytest.approx(1.0)
    assert got[0].score > got[1].score


def test_phi_candidates_query_out_of_vocab():
    model = EmbeddingModel(vocab=["a"], input_vectors=np.zeros((1, 3)))
    phi = PhiTransform(PhiMode.OFFSET, offset=np.zeros(3))
    assert candidates_from_phi(phi, model, "missing", every_term(model)) == []


def test_phi_candidates_match_brute_force_scan():
    rng = np.random.default_rng(8)
    n, dim = 200, 10
    vocab = [f"w{i:03d}" for i in range(n)]
    model = EmbeddingModel(vocab=vocab, input_vectors=rng.normal(0, 1, (n, dim)))
    phi = PhiTransform(PhiMode.OFFSET, offset=rng.normal(0, 1, dim))
    candidate_vocab = frozenset(vocab[: n // 2])
    got = candidates_from_phi(phi, model, "w005", candidate_vocab, k=15)
    target = model.input_vectors[model.row("w005")] + phi.offset
    scan = sorted(
        (
            (float(np.linalg.norm(model.input_vectors[model.row(w)] - target)), w)
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
    pool = []
    for term in vocab:
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
    vocab_sets = st.one_of(st.just(every_term(model)), st.frozensets(st.sampled_from(terms)))
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
    vocabs.append(frozenset(list(vocabs[0])))
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
    vocab = frozenset(tokens[:30])
    candidates_from_phi(phi, model, "w1", vocab)
    pool = model._phi_pool
    candidates_from_phi(phi, model, "w2", vocab)
    candidates_from_phi(phi, model, "w3", frozenset(tokens[:30]))
    assert model._phi_pool is pool  # the same and an equal vocabulary reuse the rows
    other = frozenset(tokens[20:])
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
    vocab = frozenset(terms)
    pool_size = 25  # t0_x to t4_x and the twenty words, t5_x not among them
    for q in ("w0", "t0 x", "t0_x", "t5 x"):
        others = pool_size if q == "t5 x" else pool_size - 1
        for k in (3, 15, 40):
            got = candidates_from_phi(phi, model, q, vocab, k)
            names = [c.term for c in got]
            assert len(names) == len(set(names)) == min(k, others)
            assert set(names) <= vocab and "t5 x" not in names
            assert got == full_sort_reference(phi, model, q, vocab, k)


@pytest.mark.parametrize("cells", [math.inf, 0], ids=["exact", "screened"])
@pytest.mark.parametrize("n, k", [(8, 3), (8, 15), (40, 5)], ids=["small", "all", "partitioned"])
def test_phi_leaves_out_the_query_row_anywhere_in_the_pool(monkeypatch, cells, n, k):
    # the query's own row first, in the middle and last among the pool's
    # rows, or not in the pool at all; a zero offset puts it nearest; 40
    # columns are above PARTITION_FACTOR * (k + 1), so a partition runs first
    monkeypatch.setattr(embedding, "SCREEN_CELLS", cells)
    assert (n > embedding.PARTITION_FACTOR * (k + 1)) == (n == 40)
    rng = np.random.default_rng(n + k)
    tokens = [f"w{i}" for i in range(n)]
    model = EmbeddingModel(vocab=tokens, input_vectors=rng.normal(0, 1, (n, 4)))
    phi = PhiTransform(PhiMode.OFFSET, offset=np.zeros(4))
    for q in (tokens[0], tokens[n // 2], tokens[-1]):
        for vocab in (every_term(model), every_term(model) - {q}):
            got = candidates_from_phi(phi, model, q, vocab, k)
            assert got == full_sort_reference(phi, model, q, vocab, k)
            assert len(got) == min(k, n - 1)


def test_screen_cutoff_rounds_to_nearest_float32():
    # a zero target scores each column by its cached squared norm alone, exactly
    steps = [np.float32(1)]
    for _ in range(4):
        steps.append(np.nextafter(steps[-1], np.float32(2)))
    sq = np.array([0.25, 0.5, *steps], dtype=np.float32)
    norm = math.sqrt(1.75 / 9)  # at dim 1, 2E is 1.75 float32 steps of 1.0
    pool = embedding._PhiPool(
        vocab=frozenset("abcdef"), source=None, rows=np.arange(sq.size), terms=list("abcdef"),
        vectors=None,
        v32=np.zeros((1, sq.size), np.float32), sq=sq, norm=norm,
    )
    cut = 2  # the (cut + 1)-th smallest score is 1.0
    cutoff = 1.0 + 2 * (9 * 2.0**-24 * norm**2 + 3 * 2.0**-148)
    # float32 cannot hold the cutoff, and rounds it up
    assert float(steps[1]) < cutoff < float(np.float32(cutoff)) == float(steps[2])
    keep = embedding._screen(pool, np.zeros(1), cut).tolist()
    assert set(np.flatnonzero(sq <= cutoff).tolist()) <= set(keep)
    assert 5 not in keep  # steps[3]: two steps above steps[1], the float32 below the cutoff


GROUPS = embedding.GROUPS


@pytest.mark.parametrize(
    "n, layout, k",
    [
        (3 * GROUPS + 100, "random", 15),
        (3 * GROUPS + 100, "random", GROUPS - 2),  # cut = GROUPS - 1, the last grouped
        (3 * GROUPS + 100, "random", GROUPS - 1),  # cut = GROUPS: the full partition
        (3 * GROUPS + 100, "random", 300),
        (2 * GROUPS, "random", 1),
        (16 * GROUPS + 10, "one group", 15),
        (2 * GROUPS + 1, "ties", 15),
    ],
    ids=["tail", "last-grouped-cut", "cut-at-groups", "cut-above-groups", "two-a-group",
         "nearest-in-one-group", "ties"],
)
def test_grouped_screen_keeps_full_partition_survivors(monkeypatch, n, layout, k):
    # pools of at least two columns a group, screened; column j is row j
    monkeypatch.setattr(embedding, "SCREEN_CELLS", 0)
    rng = np.random.default_rng(n + k)
    dim = 8
    vectors = rng.normal(0, 1, (n, dim))
    phi = PhiTransform(PhiMode.OFFSET, offset=rng.normal(0, 1, dim))
    target = phi.apply(vectors[0])
    if layout == "one group":
        # the 17 columns of group 5 (cut + 1 at k = 15) nearer than any other
        vectors[5::GROUPS] = target + rng.normal(0, 1e-3, (len(vectors[5::GROUPS]), dim))
    elif layout == "ties":
        # three distinct vectors: every group's minimum ties, and so does the cutoff
        vectors[1:] = rng.normal(0, 1, (3, dim))[rng.integers(0, 3, n - 1)]
    tokens = [f"w{i:05d}" for i in range(n)]
    model = EmbeddingModel(vocab=tokens, input_vectors=vectors)
    got = candidates_from_phi(phi, model, "w00000", every_term(model), k)
    pool = model._phi_pool
    assert pool.v32 is not None and pool.rows.size == n
    keep = embedding._screen(pool, target, k + 1)
    with monkeypatch.context() as full:
        full.setattr(embedding, "GROUPS", math.inf)  # no groups: today's full partition
        every = embedding._screen(pool, target, k + 1)
    assert set(every.tolist()) <= set(keep.tolist())
    if layout == "one group":
        assert keep.size > every.size  # the grouped cutoff ran, and is looser here
    if k + 1 >= GROUPS:
        assert np.array_equal(keep, every)
    monkeypatch.setattr(embedding, "SCREEN_CELLS", math.inf)
    model._phi_pool = None
    assert got == candidates_from_phi(phi, model, "w00000", every_term(model), k)
    assert len(got) == k


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
    vocab = frozenset(tokens[:25])
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
    other = frozenset(tokens[10:])
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
    vocab = frozenset(tokens[:3000])
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
    vocab = frozenset(tokens[::3]) | {"missing"}
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
    return model, phi, [frozenset(v) for v in vocabs]


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
    vocab = every_term(model)
    candidates_from_phi(phi, model, "w0", vocab)
    pool = model._phi_pool
    assert pool.v32 is not None
    for far in (2.0**60, math.inf, math.nan):
        assert embedding._screen(pool, np.full(16, far), 15) is None
    assert embedding._screen(pool, np.full(16, 2.0**55), 15) is not None
    # a target that far is ranked from all the pool's columns, exactly
    far = PhiTransform(PhiMode.OFFSET, offset=np.full(16, 2.0**61))
    got = candidates_from_phi(far, model, "w0", vocab)
    with monkeypatch.context() as exact:
        exact.setattr(embedding, "SCREEN_CELLS", math.inf)
        model._phi_pool = None
        assert got == candidates_from_phi(far, model, "w0", vocab)
    vectors[7] *= 2.0**60  # one row whose norm float32 squares could not hold
    model.input_vectors = vectors.copy()
    got = candidates_from_phi(phi, model, "w0", vocab)
    assert model._phi_pool.v32 is None
    want = full_sort_reference(phi, model, "w0", vocab, 15)
    assert [c.term for c in got] == [c.term for c in want]


def per_token_pool(model, vocab):
    """The pool's rows and terms by the per-token rule: each token of the
    model's index, in row order, whose term is in the vocabulary."""
    pairs = [(row, token_to_term(token)) for token, row in model.index.items()
             if token_to_term(token) in vocab]
    return [row for row, _ in pairs], [term for _, term in pairs]


@pytest.mark.parametrize("cells", [math.inf, 0], ids=["exact", "screened"])
def test_bulk_pool_equals_per_token_rule(monkeypatch, cells):
    monkeypatch.setattr(embedding, "SCREEN_CELLS", cells)
    monkeypatch.setattr(embedding, "CHUNK_CELLS", 3 * 4)  # three rows a chunk, the last short
    tokens = ["a_b_c", "__x", "x__", "café_au_lait", "naïve", "Ünï_côdé", "oil_plant", "oil",
              "plant", "a", "b_c", "ж_б", "tree"]
    rng = np.random.default_rng(15)
    model = EmbeddingModel(vocab=tokens, input_vectors=rng.normal(0, 1, (len(tokens), 4)))
    terms = {token_to_term(t) for t in tokens}
    vocabs = [
        terms,
        # both spellings of a phrase, and phrases only as their tokens
        {"oil plant", "oil_plant", "a_b_c", "café au lait", "Ünï côdé", "  x", "tree", "ж б"},
        {"missing", "plant"},
        set(),
    ]
    for vocab in map(frozenset, vocabs):
        model._phi_pool = None
        pool = embedding._candidate_pool(model, vocab)
        rows, names = per_token_pool(model, vocab)
        assert pool.rows.tolist() == rows and pool.terms == names
        assert pool.rows.dtype == np.intp
        assert_screen_copy(pool, cells == 0 and bool(rows))


def test_bulk_pool_leaves_a_large_norm_unrounded(monkeypatch):
    # the norm past SCREEN_MAX_NORM sits in the last chunk, after two are copied
    monkeypatch.setattr(embedding, "SCREEN_CELLS", 0)
    monkeypatch.setattr(embedding, "CHUNK_CELLS", 2 * 4)
    rng = np.random.default_rng(16)
    vectors = rng.normal(0, 1, (6, 4))
    vectors[5] *= 2.0**130
    model = EmbeddingModel(vocab=[f"w{i}" for i in range(6)], input_vectors=vectors)
    with np.errstate(over="raise"):
        pool = embedding._candidate_pool(model, every_term(model))
    assert_screen_copy(pool, False)


@settings(max_examples=200, deadline=None)
@given(phi_cases(), st.integers(1, 4))
def test_nearest_terms_equal_full_sort_reference(case, block):
    model, phi, vocabs, queries, ks = case
    queries = queries + queries[:1] + ["zz"]  # a repeat and a term outside the embedding
    for cells in (math.inf, 0):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(embedding, "SCREEN_CELLS", cells)
            # blocks of a few queries: a pool holds at most seven terms
            patch.setattr(embedding, "SCREEN_BLOCK_CELLS", 7 * block)
            for vocab in vocabs:
                model._phi_pool = None
                for k in ks:
                    got = embedding.nearest_terms(phi, model, queries, vocab, k)
                    assert got == [full_sort_reference(phi, model, q, vocab, max(k, 0))
                                   for q in queries]
                    assert got == [candidates_from_phi(phi, model, q, vocab, k) for q in queries]


@pytest.mark.parametrize("dim", [16, 300])
@pytest.mark.parametrize("mode", list(PhiMode))
def test_nearest_terms_equal_candidates_from_phi(monkeypatch, dim, mode):
    rng = np.random.default_rng(dim + 1)
    n = 600
    tokens = [f"w{i:03d}" for i in range(n)]
    vectors = rng.normal(0, 1, (n, dim))
    vectors[-1] *= 2.0**62  # a query too far to screen: not in the vocabulary
    # duplicates: ties at the cutoff, among them the query's own vector
    vectors[10:14] = vectors[9]
    model = EmbeddingModel(vocab=tokens, input_vectors=vectors)
    if mode is PhiMode.OFFSET:
        phi = PhiTransform(mode, offset=rng.normal(0, 0.1, dim))
    else:
        phi = PhiTransform(mode, matrix=np.eye(dim) + rng.normal(0, 0.01, (dim, dim)))
    vocab = frozenset(tokens[:-1:2]) | {"missing"}
    pool_size = len(tokens[:-1:2])
    queries = ["w009", "w000", "missing", "w599", "w010", "w001", "w300", "w 009", "w011"]
    for k in (1, 3, 15, pool_size - 1, pool_size, pool_size + 5):
        want = [candidates_from_phi(phi, model, q, vocab, k) for q in queries]
        for cells in (math.inf, 0):
            monkeypatch.setattr(embedding, "SCREEN_CELLS", cells)
            for block_cells in (2**22, 2 * pool_size):  # one block, and blocks of two
                monkeypatch.setattr(embedding, "SCREEN_BLOCK_CELLS", block_cells)
                model._phi_pool = None
                assert embedding.nearest_terms(phi, model, queries, vocab, k) == want
        for q, found in zip(queries, want):
            ref = full_sort_reference(phi, model, q, vocab, k)
            assert [c.term for c in found] == [c.term for c in ref]
            assert [c.score for c in found] == [pytest.approx(c.score, rel=1e-12) for c in ref]


def test_nearest_terms_screens_each_block_once(monkeypatch):
    # ten queries in blocks of three: one screen product a block, the last
    # block short; the query's own row survives its screen and is left out
    monkeypatch.setattr(embedding, "SCREEN_CELLS", 0)
    rng = np.random.default_rng(17)
    n = 700
    tokens = [f"w{i:03d}" for i in range(n)]
    model = EmbeddingModel(vocab=tokens, input_vectors=rng.normal(0, 1, (n, 8)))
    phi = PhiTransform(PhiMode.OFFSET, offset=np.zeros(8))  # each target is its query
    vocab = every_term(model)
    monkeypatch.setattr(embedding, "SCREEN_BLOCK_CELLS", 3 * n)
    blocks = []

    def spy(pool, targets, cut):
        kept = screen(pool, targets, cut)
        blocks.append((targets.shape, kept))
        return kept

    screen = embedding._screen
    monkeypatch.setattr(embedding, "_screen", spy)
    queries = [f"w{i:03d}" for i in range(0, 500, 50)]
    got = embedding.nearest_terms(phi, model, queries, vocab, 15)
    assert [shape for shape, _ in blocks] == [(3, 8)] * 3 + [(1, 8)]
    survivors = [at for _, kept in blocks for at in kept]
    assert all(model.row(q) in at for q, at in zip(queries, survivors))
    monkeypatch.setattr(embedding, "SCREEN_CELLS", math.inf)
    model._phi_pool = None
    assert got == [candidates_from_phi(phi, model, q, vocab, 15) for q in queries]
    assert all(q not in [c.term for c in found] for q, found in zip(queries, got))


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
    assert loaded.input_vectors.tobytes() == model.input_vectors.tobytes()
    first_data_line = [
        line for line in path.read_bytes().split(b"\n") if not line.startswith(b"#")
    ][0]
    assert first_data_line == b"2 5"


@st.composite
def embedding_cases(draw):
    """Tokens, non-ASCII and underscores included, and one row of any finite
    float64 values for each."""
    vocab = draw(st.lists(st.text(st.characters(exclude_categories=("Cs", "Z", "Cc")) | st.just("_"),
                                  min_size=1, max_size=6), min_size=1, max_size=5, unique=True))
    dim = draw(st.integers(min_value=1, max_value=4))
    return vocab, draw(arrays(np.float64, (len(vocab), dim),
                              elements=st.floats(allow_nan=False, allow_infinity=False)))


@given(embedding_cases())
# signed zeros, subnormals, and magnitudes from 2^52 / 10^6 up to the largest double
@example((["a", "b_c", "ü", "δ", "e"], np.array([
    [0.0, -0.0], [5e-324, -(2.0**-1030)], [2.0**52 / 1e6, -(2.0**53) / 1e6],
    [np.nextafter(2.0**52 / 1e6, np.inf), 2.0**60 / 1e6], [1e300, -np.finfo(np.float64).max],
])))
def test_embedding_file_round_trip_any_token_and_value(tmp_path_factory, case):
    """`load_embedding` returns the tokens and the values `save_embedding`
    wrote, bit for bit."""
    vocab, values = case
    path = tmp_path_factory.mktemp("emb") / "emb.txt"
    save_embedding(path, EmbeddingModel(vocab=vocab, input_vectors=values),
                   header={"config-hash": "f00d"})
    loaded = load_embedding(path)
    assert loaded.vocab == vocab
    assert loaded.input_vectors.shape == values.shape
    assert loaded.input_vectors.view(np.int64).tolist() == values.view(np.int64).tolist()


@given(st.sampled_from(PhiMode), st.integers(min_value=1, max_value=5), st.data())
def test_phi_file_round_trip(tmp_path_factory, mode, dim, data):
    """`load_phi` returns what `save_phi` wrote, bit for bit: signed zeros,
    subnormals and the extremes of float64 included."""
    shape = (1, dim) if mode is PhiMode.OFFSET else (dim, dim)
    values = data.draw(arrays(np.float64, shape, elements=st.floats(allow_nan=False,
                                                                     allow_infinity=False)))
    phi = (PhiTransform(mode, offset=values[0]) if mode is PhiMode.OFFSET
           else PhiTransform(mode, matrix=values))
    path = tmp_path_factory.mktemp("phi") / "phi.txt"
    save_phi(path, phi, header={"config-hash": "f00d"})
    loaded = load_phi(path)
    assert loaded.mode is mode
    got = loaded.offset if mode is PhiMode.OFFSET else loaded.matrix
    want = values[0] if mode is PhiMode.OFFSET else values
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "kind, problem",
    [
        ("embedding", "row 2 of 3 (token 'b') has a non-finite value"),
        ("offset_phi", "offset row 1 of 1 has a non-finite value"),
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
    # each message names the config key, as `PipelineConfig` reports it
    for setting, problem in [
        (dict(dim=1), "dim must be at least 2, got 1"),
        (dict(epochs=0), "epochs must be at least 1, got 0"),
        (dict(lr=0.0), "lr must be positive, got 0.0"),
        (dict(lr=math.nan), "lr must be a finite number, got nan"),
        (dict(lr=math.inf), "lr must be a finite number, got inf"),
        (dict(seed=-1), "seed must be at least 0, got -1"),
        (dict(dim=10**20), f"dim must be at most 4294967296, got {10**20}"),
        (dict(dim=2**63 - 1), f"dim must be at most 4294967296, got {2**63 - 1}"),
        (dict(negatives=10**20), f"negatives must be at most 4294967296, got {10**20}"),
        (dict(negatives=2**63 - 1), f"negatives must be at most 4294967296, got {2**63 - 1}"),
    ]:
        with pytest.raises(ValueError) as info:
            EmbeddingConfig(**setting)
        assert str(info.value) == problem


@pytest.mark.parametrize("record, fields, problem", [
    (EmbeddingConfig(seed=1), dict(dim=1), "dim must be at least 2, got 1"),
    (PhiTransform(PhiMode.OFFSET, offset=np.zeros(2)), dict(offset=None),
     "offset mode needs an offset vector"),
    (PhiTransform(PhiMode.MATRIX, matrix=np.eye(2)), dict(matrix=None), "matrix mode needs a matrix"),
], ids=["embedding_config", "offset_phi", "matrix_phi"])
def test_replace_and_make_run_the_checks(record, fields, problem):
    changed = tuple(fields.get(name, value) for name, value in zip(record._fields, record))
    for build in (lambda: type(record)(*changed), lambda: record._replace(**fields),
                  lambda: type(record)._make(changed)):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == problem


def test_training_needs_a_seed(tmp_path):
    path = tmp_path / "normalized.txt"
    path.write_text("herb basil mint\n" * 5)
    with pytest.raises(ValueError, match="seed"):
        train_cbow(path, EmbeddingConfig(dim=2, min_count=1))


def truncations(data, header_lines, row_bytes):
    """The saved ``data`` cut at the start of its last row of ``row_bytes``
    bytes, in the middle of that row, and just after its ``header_lines``
    leading lines."""
    last = len(data) - row_bytes
    return {
        "row_boundary": data[:last],
        "mid_row": data[: last + row_bytes // 2],
        "header_only": b"".join(data.splitlines(keepends=True)[:header_lines]),
    }


def save_for(kind, path):
    """Save a small file of ``kind``: its loader, its number of text lines
    before the tokens or the block, and the bytes of one row of its block."""
    rng = np.random.default_rng(12)
    if kind == "embedding":
        vectors = rng.normal(0, 1, (3, 4))
        model = EmbeddingModel(vocab=["a", "b", "c"], input_vectors=vectors)
        save_embedding(path, model, header={"config-hash": "f00d"})
        return load_embedding, 2, 32     # stamp, size line
    if kind == "offset_phi":
        save_phi(path, PhiTransform(PhiMode.OFFSET, offset=rng.normal(0, 1, 4)),
                 header={"config-hash": "f00d"})
        return load_phi, 3, 32           # stamp, mode line, size line
    save_phi(path, PhiTransform(PhiMode.MATRIX, matrix=rng.normal(0, 1, (3, 3))),
             header={"config-hash": "f00d"})
    return load_phi, 3, 24               # stamp, mode line, size line


@pytest.mark.parametrize("cut", ["row_boundary", "mid_row", "header_only"])
@pytest.mark.parametrize("kind", ["embedding", "offset_phi", "matrix_phi"])
def test_truncated_file_is_format_error(tmp_path, kind, cut):
    path = tmp_path / f"{kind}.txt"
    load, header_lines, row_bytes = save_for(kind, path)
    path.write_bytes(truncations(path.read_bytes(), header_lines, row_bytes)[cut])
    with pytest.raises(FormatError, match="truncated") as info:
        load(path)
    assert str(path) in str(info.value)
    assert "row" in str(info.value)


@pytest.mark.parametrize("kind", ["embedding", "offset_phi", "matrix_phi"])
def test_vector_file_cut_at_any_byte_or_lengthened_is_format_error(tmp_path, kind):
    """A cut at every byte, in the header, the text lines or the block, and
    one byte appended, are each a `FormatError` naming the file."""
    path = tmp_path / f"{kind}.txt"
    load = save_for(kind, path)[0]
    data = path.read_bytes()
    for changed in [data[:cut] for cut in range(len(data))] + [data + b"\0"]:
        path.write_bytes(changed)
        with pytest.raises(FormatError) as info:
            load(path)
        assert str(info.value).startswith(f"{path}: ")


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "kind, text, values, problem",
    [
        ("embedding", b"2 2\na\na\n", [1, 2, NAN, 1],
         "row 2 of 2 (token 'a') has a non-finite value"),
        ("embedding", b"2 2\na\na\n", [1, 2, 3, 1], "row 2 of 2 repeats token 'a'"),
        ("embedding", b"3 1\na\nb\nc\n", [1, -INF, 2],
         "row 2 of 3 (token 'b') has a non-finite value"),
        ("phi", b"offset\n1 2\n", [0.5, NAN], "offset row 1 of 1 has a non-finite value"),
        ("phi", b"matrix\n2 2\n", [1, 0, INF, 1], "matrix row 2 of 2 has a non-finite value"),
        ("embedding", b"2 3\na\nb\n", range(1, 10), "24 bytes after row 2 of 2 (token 'b')"),
        ("phi", b"offset\n1 2\n", [1, 2, 3, 4], "16 bytes after offset row 1 of 1"),
        ("phi", b"offset\n2 2\n", [1, 2, 3, 4], "an offset is one row; the size line declares 2"),
        ("phi", b"offset\n0.5 1\n", [1], "the size line '0.5 1' is not two positive integers"),
        ("phi", b"matrix\n1 2\n", [1, 2, 3, 4], "16 bytes after matrix row 1 of 1"),
        ("embedding", b"2 -3\na\n", [1, 2], "the size line '2 -3' is not two positive integers"),
        ("phi", b"matrix\n-1 2\n", [1, 2], "the size line '-1 2' is not two positive integers"),
        ("embedding", b"2 2\na\nb\n", [1, 2, 1],
         "row 2 of 2 (token 'b') is cut short; the file is truncated"),
        ("phi", b"offset\n1 2\n", [0.5], "offset row 1 of 1 is cut short; the file is truncated"),
        ("embedding", b"2 2\na\nb\n", [1, 2, 1, 2, 3], "8 bytes after row 2 of 2 (token 'b')"),
        # the third token line runs into the block, which holds no newline byte
        ("embedding", b"3 2\na\nb\n", [1, 2, 3, 4, 5, 6],
         "row 3 of 3 is missing; the file is truncated"),
        ("phi", b"matrix\n2 2\n", [1, 2], "matrix row 2 of 2 is missing; the file is truncated"),
        ("embedding", b"2 1\na\n\xff\n", [1, 2],
         "row 2 of 2 has a token that is not UTF-8 (invalid start byte)"),
        ("phi", b"shift\n1 2\n", [1, 2], "unknown projection mode 'shift'"),
    ],
    ids=["nan-and-repeat", "repeated-token", "infinity", "nan-offset", "infinite-matrix",
         "extra-row", "extra-offset-row", "two-row-offset", "unsized-offset",
         "extra-matrix-row", "negative-size", "negative-matrix-size", "short-block",
         "short-offset-block", "wide-row", "few-token-lines", "blank-matrix-row",
         "undecodable-token", "unknown-mode"],
)
def test_malformed_vectors_are_format_error(tmp_path, kind, text, values, problem):
    path = tmp_path / f"{kind}.txt"
    path.write_bytes(b"#config-hash f00d\n" + text + np.array(values, "<f8").tobytes())
    load = load_embedding if kind == "embedding" else load_phi
    with pytest.raises(FormatError) as info:
        load(path)
    assert str(info.value) == f"{path}: {problem}"
