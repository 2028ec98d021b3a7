"""CBOW embeddings with negative sampling, and the hypernymy projection.

Training predicts each center token from the mean of the input vectors of
up to ``window`` in-vocabulary context tokens on each side. The loss per
position is

    -log s(u_c . h) - sum_neg log s(-u_n . h)

with h the context mean, u the output vectors, and negatives drawn from
the unigram^(3/4) distribution. The learning rate decays linearly to 10%
of its initial value over all positions of all epochs.

Training is block-batched: the corpus is one id array with its line
bounds, and each block of ``BLOCK`` consecutive positions is one weight
update, ``apply_step``, the only one. A block takes every gradient at its
start weights, cuts its own positions' context windows at their lines'
bounds and takes each position's own learning rate, so that no array it
makes grows with the corpus. Its positions are consecutive, so it
reads every context from one segment of the id array: the contexts'
sums and the input rows' updates are differences of prefix sums over
that segment. After Ji et al. (arXiv:1604.04661),
each group of ``GROUP`` consecutive positions shares one row of
negatives, all drawn in one RNG call; a negative equal to any center of
its group is redrawn, and a group holds fewer positions than the
vocabulary has tokens, so that a valid negative exists. With blocks of
one position it is the plain per-position SGD. Training stays
single-process, and its only BLAS calls are the small matrix products of
each group's vectors with its negatives. So the weights are
byte-reproducible for a fixed seed on one BLAS build; CI compares the
embedding trained at one, two and four BLAS threads, byte for byte.
``cbow_step_loss`` is the independent oracle for the same loss and
gradients.

The projection maps a hyponym vector toward its hypernym region: either a
single offset vector (the closed-form mean of y - x over training pairs)
or a ridge-regularized linear map fit by least squares. Candidates are the
vocabulary terms nearest to the projected query point in Euclidean
distance: `candidates_from_phi` answers one query, `nearest_terms` a list
of them, the same lists bit for bit. The candidate pool of a vocabulary,
its embedding rows and one contiguous dimension-major copy of their
vectors, is built on the first query, once per (model, vocabulary,
``input_vectors`` array), and kept on the model, with the term of each
row. It is built in bulk: the terms and the membership mask in one pass
each over the tokens, the copy from row-major chunks of the pool's rows.
A pool of at least ``SCREEN_CELLS`` cells (terms x dim) holds that copy
in float32, with its squared norms, and a block of targets first screens
every column by ||v||^2 - 2<t, v> in float32, from one BLAS product (a
matrix-vector product for a single query, a matrix-matrix product for a
block of up to ``SCREEN_BLOCK_CELLS`` scores), keeping each column within
twice a proven error bound of its target's cutoff; on a smaller pool the
screen costs more than it saves, and the copy is in float64. The bound
holds for any order of summation, so the BLAS build, its thread count and
the block may change which columns survive, never the result. On a large
pool the cutoff comes from a partition of the minima of ``GROUPS`` groups
of columns alone, which can only keep more columns than a partition of
every score. The exact steps then take the distances of each target's
survivors (gathered from ``input_vectors``), or of every column of a
small pool, in one fused float64 pass (an einsum, no BLAS call), and sort
them by (distance, term), with a partition first only where the columns
far outnumber ``k``. The screen never changes the result:
`candidates_from_phi` derives the bound and shows why. So the screen is
the only BLAS call of retrieval; the exact steps make none.
Embedding and projection files share one layout and one reader: text up
to the size line (and an embedding's tokens, one per line), then the values
as one little-endian float64 block of exactly rows x dim x 8 bytes, which
`np.fromfile` reads in one call, with no parsing: word2vec's binary layout
(Mikolov et al., arXiv:1301.3781) with float64 values, bit-exact.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Sequence

from .corpus_io import (
    MAX_PREDICTIONS,
    FormatError,
    checked,
    read_artifact,
    read_header,
    term_to_token,
    write_artifact,
)
from .cooc import ScoredCandidate, Source


class _NumpyOnFirstUse:
    """Stands in for numpy until this module first uses it, so importing the
    package (and the CLI stages that train nothing) does not load numpy. The
    first attribute read imports numpy and rebinds the global ``np`` to it."""

    def __getattr__(self, name: str):
        global np
        import numpy as np

        return getattr(np, name)


np = _NumpyOnFirstUse()

NOISE_POWER = 0.75
LR_FLOOR_FRACTION = 0.1
BLOCK = 256  # training positions per weight update
GROUP = 16  # consecutive positions of a block that share one row of negatives
# the most `dim` and `negatives` may be: far past any array that fits in memory,
# so that a larger value fails before any stage runs, not inside numpy
MAX_SIDE = 2**32
# projection retrieval screens a pool in float32 from this many cells (terms x
# dim), past the measured break-even (16k cells at dim 16, 19k to 38k at dim
# 300); on smaller pools the screen costs more than it saves
SCREEN_CELLS = 32768
SCREEN_MAX_DIM = 4096  # widest vectors for which the screen's bound is proven
SCREEN_MAX_NORM = 2.0**60  # larger norms could overflow float32 squares
# the screen's cutoff partitions the minima of this many groups of columns,
# on a pool of at least two columns a group and a cut below the group count
GROUPS = 256
# float32 scores of one block of targets screened together (64 MB): 76
# targets on a pool of the paper's 218k terms at dim 300, where one sgemm
# ran at 86 GFLOP/s on one Xeon core against 7 for one sgemv a target
SCREEN_BLOCK_CELLS = 2**24
CHUNK_CELLS = 2**16  # float64 cells of a chunk of rows of a pool's copy
# the exact steps partition the distances of more than this many times k + 1 columns
PARTITION_FACTOR = 2


@checked
class EmbeddingConfig(NamedTuple):
    """The CBOW settings, named as their config keys, with their defaults and
    range checks, run at construction: `cli.PipelineConfig` takes both from
    here. ``seed=None`` means not given yet; `train_cbow` needs one."""

    dim: int = 300
    window: int = 10
    min_count: int = 5
    negatives: int = 5
    epochs: int = 5
    lr: float = 0.025
    seed: int | None = None

    def _check(self) -> None:
        for name, least in (("dim", 2), ("window", 1), ("min_count", 1), ("negatives", 1),
                            ("epochs", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        for name in ("dim", "negatives"):  # each sizes an array
            if getattr(self, name) > MAX_SIDE:
                raise ValueError(f"{name} must be at most {MAX_SIDE}, got {getattr(self, name)}")
        if not math.isfinite(self.lr):
            raise ValueError(f"lr must be a finite number, got {self.lr}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")


class _PhiPool(NamedTuple):
    """The candidates of one vocabulary in one model's embedding."""

    vocab: frozenset[str]
    source: np.ndarray   # the ``input_vectors`` array the vectors were copied from
    rows: np.ndarray     # the candidates' embedding rows, each at most once
    terms: list[str]     # the term of each row's token, in the order of ``rows``
    # ``source[rows].T``, one contiguous (dim, len(rows)) copy, in float64
    # on a pool too small to screen and in float32 on one screened by
    # `candidates_from_phi` and `nearest_terms`; the other one is None
    vectors: np.ndarray | None
    v32: np.ndarray | None
    sq: np.ndarray | None  # the squared norms of ``v32``'s columns, in float32
    norm: float            # V, the largest norm of a column, on a screened pool


class EmbeddingModel:
    __slots__ = ("vocab", "input_vectors", "output_vectors", "index", "_phi_pool")

    def __init__(
        self, vocab: list[str], input_vectors: np.ndarray, output_vectors: np.ndarray | None = None
    ) -> None:
        self.vocab = vocab
        self.input_vectors = input_vectors
        self.output_vectors = output_vectors
        self.index = {token: i for i, token in enumerate(vocab)}
        # the pool `_candidate_pool` built last, for `candidates_from_phi` or `nearest_terms`
        self._phi_pool: _PhiPool | None = None

    @property
    def dimension(self) -> int:
        return self.input_vectors.shape[1]

    def row(self, term: str) -> int | None:
        return self.index.get(term_to_token(term))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class CbowStep(NamedTuple):
    loss: float
    context_grad: np.ndarray   # (d,) gradient for each context input row
    target_grads: np.ndarray   # (1 + negatives, d), rows align [center, *negatives]


def cbow_step_loss(
    model: EmbeddingModel,
    center: int,
    context: Sequence[int],
    negatives: Sequence[int],
) -> CbowStep:
    """Loss and analytic gradients of one training position.

    ``context_grad`` applies to every context instance (h is the context
    mean, so each instance receives 1/|context| of the h gradient);
    ``target_grads`` rows apply to the output vectors of the center and
    each negative, repeated indices accumulating.
    """
    if len(context) == 0:
        raise ValueError("context must be non-empty")
    ctx = np.asarray(context, dtype=np.intp)
    targets = np.asarray([center, *negatives], dtype=np.intp)
    h = model.input_vectors[ctx].mean(axis=0)
    u = model.output_vectors[targets] @ h
    loss = float(np.logaddexp(0.0, -u[0]) + np.sum(np.logaddexp(0.0, u[1:])))
    g = _sigmoid(u)
    g[0] -= 1.0
    target_grads = np.outer(g, h)
    context_grad = (g @ model.output_vectors[targets]) / len(ctx)
    return CbowStep(loss, context_grad, target_grads)


def apply_step(
    w_in: np.ndarray,
    w_out: np.ndarray,
    segment: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    start: int,
    negatives: np.ndarray,
    lr: np.ndarray,
    work: dict | None = None,
) -> None:
    """One SGD update for a block of positions, on the weights in place.

    ``segment`` holds input rows, and position ``b`` of the block is its
    row ``start + b``: the positions are consecutive. Position ``b``'s
    window is ``segment[lo[b]:hi[b]]``, which holds the position itself;
    its context is the rest of the window (at least one row), its center
    ``segment[start + b]`` and ``lr[b]`` its learning rate. Neither ``lo``
    nor ``hi`` decreases. Position ``b`` takes row ``b // width`` of
    ``negatives``, with ``width = ceil(len(lo) / len(negatives))``: groups
    of consecutive positions share a row, the last group possibly shorter.
    Every gradient is taken at the block-start weights and repeated rows
    accumulate, so the update is the sum over the block of ``-lr[b]``
    times the gradients ``cbow_step_loss`` returns for position ``b`` with
    its group's negatives, a negative equal to a center included. `_train`
    redraws those, and caps the group size at the vocabulary size minus
    one so that a valid negative always exists.

    The input side reads the segment's rows once: each ``h`` is a
    difference of their prefix sums, less the position's own row. The
    positions whose window covers a segment row form one range, as the
    windows never move back, so that row's update is a difference of
    prefix sums of the positions' steps, less the step of the position it
    is. The output side takes each group's products with its negatives as
    matrix products. Every array of block x dim values is written into
    ``work``'s arrays (`_rows`), which a caller passes again to the next
    block, so that no block allocates them anew.
    """
    work = {} if work is None else work
    size, groups, dim = lo.size, len(negatives), w_in.shape[1]
    width = -(-size // groups)
    own = slice(start, start + size)
    n_ctx = (hi - lo - 1)[:, None]
    x = np.take(w_in, segment, axis=0, out=_rows(work, "x", segment.size, dim), mode="clip")
    sums = _rows(work, "sums", segment.size + 1, dim)
    sums[0] = 0.0
    np.cumsum(x, axis=0, out=sums[1:])
    # zero rows pad the last group, so a padding position adds nothing
    h, step_h = _rows(work, "h", groups * width, dim), _rows(work, "step_h", groups * width, dim)
    h[size:] = step_h[size:] = 0.0
    np.take(sums, hi, axis=0, out=h[:size], mode="clip")
    h[:size] -= np.take(sums, lo, axis=0, out=_rows(work, "gather", size, dim), mode="clip")
    h[:size] -= x[own]
    h[:size] /= n_ctx
    np.multiply(-lr[:, None], h[:size], out=step_h[:size])
    centers = segment[own]
    out_c = np.take(w_out, centers, axis=0, out=_rows(work, "out_c", size, dim), mode="clip")
    out_n = np.take(w_out, negatives.ravel(), axis=0, mode="clip",
                    out=_rows(work, "out_n", negatives.size, dim)).reshape(groups, -1, dim)
    g_c = 1.0 / (1.0 + np.exp(-np.einsum("bd,bd->b", h[:size], out_c))) - 1.0
    g_n = 1.0 / (1.0 + np.exp(-(h.reshape(groups, width, dim) @ out_n.transpose(0, 2, 1))))
    # the output rows' steps: the centers', then the negatives'
    step_out = _rows(work, "step_out", size + negatives.size, dim)
    np.multiply(g_c[:, None], step_h[:size], out=step_out[:size])
    np.matmul(g_n.transpose(0, 2, 1), step_h.reshape(groups, width, dim),
              out=step_out[size:].reshape(out_n.shape))
    grad_n = np.matmul(g_n, out_n, out=h.reshape(groups, width, dim)).reshape(h.shape)
    grad_h = np.multiply(g_c[:, None], out_c, out=out_c)
    grad_h += grad_n[:size]
    _scatter_add(w_out, np.concatenate((centers, negatives.ravel())), step_out, work)
    step_in = np.multiply(-lr[:, None] / n_ctx, grad_h, out=grad_h)
    # row b + 1 holds the steps of positions 0..b
    steps = _rows(work, "steps", size + 1, dim)
    steps[0] = 0.0
    np.cumsum(step_in, axis=0, out=steps[1:])
    # segment row j is in the windows of positions searchsorted(hi, j) up to
    # searchsorted(lo, j), both on the right
    rows = np.arange(segment.size)
    update = np.take(steps, np.searchsorted(lo, rows, side="right"), axis=0, mode="clip",
                     out=_rows(work, "update", segment.size, dim))
    update -= np.take(steps, np.searchsorted(hi, rows, side="right"), axis=0, mode="clip",
                      out=_rows(work, "gather", segment.size, dim))
    update[own] -= step_in
    _scatter_add(w_in, segment, update, work)


def _rows(work: dict, key: str, rows: int, dim: int, dtype: type = float) -> np.ndarray:
    """The first ``rows`` rows of ``work[key]``, an array of ``dim``
    columns that grows to the most rows asked for."""
    array = work.get(key)
    if array is None or len(array) < rows:
        array = work[key] = np.empty((rows, dim), dtype)
    return array[:rows]


def _scatter_add(w: np.ndarray, rows: np.ndarray, values: np.ndarray, work: dict) -> None:
    """``w[rows] += values`` with repeated rows accumulating: one
    `np.bincount` sums the values of each distinct row, in the order given,
    and each distinct row is then added to once. Its cell indices and its
    gather of ``w`` are written into ``work``'s arrays (`_rows`)."""
    dim = w.shape[1]
    distinct, slot = np.unique(rows, return_inverse=True)
    cells = np.add((slot * dim)[:, None], np.arange(dim),
                   out=_rows(work, "cells", rows.size, dim, np.intp))
    sums = np.bincount(cells.ravel(), values.ravel(), minlength=distinct.size * dim)
    sums = sums.reshape(-1, dim)
    sums += np.take(w, distinct, axis=0, out=_rows(work, "gather", distinct.size, dim), mode="clip")
    w[distinct] = sums


def _train(
    ids: np.ndarray,
    bounds: np.ndarray,
    w_in: np.ndarray,
    w_out: np.ndarray,
    noise_cdf: np.ndarray,
    config: EmbeddingConfig,
    rng: np.random.Generator,
    block: int = BLOCK,
) -> None:
    """Train over the lines ``ids[bounds[k]:bounds[k + 1]]`` (``bounds``
    rises from 0 to ``ids.size``; each line has at least two ids, so that
    every position has a context) in blocks of ``block`` consecutive
    positions, one `apply_step` per block, on the block's segment of
    ``ids``: from its first position's window to its last one's. Each block
    cuts its own positions' windows at their lines' bounds and takes their
    learning rates, so that no array it makes grows with the corpus.
    Raises `ValueError` naming ``lr`` when an epoch leaves a non-finite
    weight."""
    total = config.epochs * ids.size
    window = min(config.window, ids.size)  # a window is cut at its line's bounds anyway
    n_neg = config.negatives
    # fewer centers than vocabulary tokens, so every group has a valid negative
    group = min(GROUP, block, noise_cdf.size - 1)
    lr0 = config.lr
    lr_floor = LR_FLOOR_FRACTION * lr0
    work: dict = {}  # `apply_step`'s arrays, reused block after block
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged epoch raises below
        for epoch in range(config.epochs):
            for first in range(0, ids.size, block):
                pos = np.arange(first, min(first + block, ids.size))
                line = np.searchsorted(bounds, pos, side="right")
                # each position's window [lo, hi), itself included
                lo = np.maximum(pos - window, bounds[line - 1])
                hi = np.minimum(pos + window + 1, bounds[line])
                lr = np.maximum(lr0 * (1.0 - 0.9 * (epoch * ids.size + pos) / total), lr_floor)
                size, centers = pos.size, ids[first : first + pos.size]
                groups = -(-size // group)
                width = -(-size // groups)  # as `apply_step` reads it, <= group
                negs = np.searchsorted(noise_cdf, rng.random(groups * n_neg)).reshape(groups, n_neg)
                while True:
                    # a negative clashes with any center of its group
                    hits = np.repeat(negs, width, axis=0)[:size] == centers[:, None]
                    clash = np.logical_or.reduceat(hits, np.arange(0, size, width))
                    if not clash.any():
                        break
                    negs[clash] = np.searchsorted(noise_cdf, rng.random(int(clash.sum())))
                seg = int(lo[0])
                apply_step(w_in, w_out, ids[seg : hi[-1]], lo - seg, hi - seg, first - seg, negs,
                           lr, work)
            if not (np.isfinite(w_in).all() and np.isfinite(w_out).all()):
                raise ValueError(f"training diverged in epoch {epoch + 1} of {config.epochs}; "
                                 f"lower lr (now {lr0})")


def train_cbow(
    normalized_corpus_path: str | os.PathLike,
    config: EmbeddingConfig,
) -> EmbeddingModel:
    """Train CBOW vectors over a normalized corpus file.

    The vocabulary is every token with frequency >= ``min_count``, ordered
    by descending frequency then token. The file is read twice. The first
    pass counts every distinct token, `normalize`'s noun phrases included,
    so its `Counter` grows with the corpus; it is dropped once the
    vocabulary's counts are taken. The second encodes each line of at least
    two vocabulary tokens into one id array and its end into the line
    bounds; only those two arrays are kept, and `_train` cuts each block's
    windows from them as it reaches the block. Raises if nothing survives the
    frequency filter, ``config.seed`` is None or an epoch leaves a weight
    that is not finite, and `FormatError` if the corpus's last line is cut
    short.
    """
    if config.seed is None:
        raise ValueError("train_cbow needs a seed, so that its weights are reproducible")
    freqs = Counter(itertools.chain.from_iterable(
        map(str.split, read_artifact(normalized_corpus_path)[1])))
    vocab = sorted(
        (t for t, c in freqs.items() if c >= config.min_count),
        key=lambda t: (-freqs[t], t),
    )
    if not vocab:
        raise ValueError(f"no token reaches min_count={config.min_count}; cannot train")
    if len(vocab) < 2:
        raise ValueError("need at least two vocabulary tokens for negative sampling")
    counts = np.array([freqs[t] for t in vocab], dtype=np.float64)
    del freqs
    index = {t: i for i, t in enumerate(vocab)}
    from array import array  # here, as numpy is, so that only training imports it
    ids, bounds = array("q"), array("q", [0])
    for line in read_artifact(normalized_corpus_path)[1]:
        row = [index[t] for t in line.split() if t in index]
        if len(row) >= 2:
            ids.extend(row)
            bounds.append(len(ids))

    rng = np.random.default_rng(config.seed)
    dim = config.dim
    w_in = (rng.random((len(vocab), dim)) - 0.5) / dim
    w_out = np.zeros((len(vocab), dim))
    noise_cdf = np.cumsum(counts**NOISE_POWER)
    noise_cdf /= noise_cdf[-1]

    if ids:
        _train(np.frombuffer(ids, np.int64), np.frombuffer(bounds, np.int64),
               w_in, w_out, noise_cdf, config, rng)
    return EmbeddingModel(vocab=vocab, input_vectors=w_in, output_vectors=w_out)


# ---------------------------------------------------------------------------
# hypernymy projection


class PhiMode(Enum):
    OFFSET = "offset"
    MATRIX = "matrix"


@checked
class PhiTransform(NamedTuple):
    """The fitted projection; its mode's array is checked at construction."""

    mode: PhiMode
    offset: np.ndarray | None = None
    matrix: np.ndarray | None = None
    skipped_pairs: int = 0

    def _check(self) -> None:
        if self.mode is PhiMode.OFFSET and self.offset is None:
            raise ValueError("offset mode needs an offset vector")
        if self.mode is PhiMode.MATRIX and self.matrix is None:
            raise ValueError("matrix mode needs a matrix")

    def apply(self, vector: np.ndarray) -> np.ndarray:
        if self.mode is PhiMode.OFFSET:
            return vector + self.offset
        return self.matrix @ vector


def fit_phi(
    pairs: Iterable[tuple[str, str]],
    model: EmbeddingModel,
    mode: PhiMode = PhiMode.OFFSET,
    ridge: float = 1e-6,
) -> PhiTransform:
    """Fit the hyponym -> hypernym transform from (x term, y term) pairs.

    Offset mode returns mean(vec(y) - vec(x)), the closed-form minimizer of
    the mean squared residual ||(x + offset) - y||^2. Matrix mode solves the
    ridge normal equations (X'X + ridge*I) M' = X'Y for the map y ~ M x.
    Pairs with an out-of-vocabulary side are skipped and counted; having no
    usable pair at all is a hard error.
    """
    x_rows: list[int] = []
    y_rows: list[int] = []
    skipped = 0
    for x_term, y_term in pairs:
        xi = model.row(x_term)
        yi = model.row(y_term)
        if xi is None or yi is None:
            skipped += 1
            continue
        x_rows.append(xi)
        y_rows.append(yi)
    if not x_rows:
        raise ValueError("no training pair has both terms in the embedding")
    x = model.input_vectors[x_rows]
    y = model.input_vectors[y_rows]
    if mode is PhiMode.OFFSET:
        offset = (y - x).mean(axis=0)
        return PhiTransform(PhiMode.OFFSET, offset=offset, skipped_pairs=skipped)
    if ridge < 0:
        raise ValueError("ridge must be non-negative")
    gram = x.T @ x + ridge * np.eye(model.dimension)
    matrix_t = np.linalg.solve(gram, x.T @ y)
    return PhiTransform(PhiMode.MATRIX, matrix=matrix_t.T, skipped_pairs=skipped)


def _candidate_pool(model: EmbeddingModel, vocab: frozenset[str]) -> _PhiPool:
    """The pool of the embedding rows whose token's term is in ``vocab``,
    in row order: the rule the count modules apply to their tokens, so a
    row enters once, and a vocabulary term spelled with ``_`` names no
    candidate. Built on the first call and reused while calls pass an
    equal vocabulary and ``model.input_vectors`` is the array it was built
    from. Assigning a new array is seen. Editing it in place is not
    supported: the pool's copy would not see the edit, while a screened
    pool reads its survivors' float64 vectors from the array.

    The build is in bulk: one pass maps the tokens to their terms and one
    tests each term's membership; the mask gives the rows (a model's tokens
    are distinct, so its rows are ``0..n-1``); and the copy and the norms
    come from row-major chunks of the pool's rows alone (`_columns`)."""
    pool = model._phi_pool
    if (
        pool is not None
        and pool.source is model.input_vectors
        and (pool.vocab is vocab or pool.vocab == vocab)
    ):
        return pool
    # token_to_term of every token: a token without ``_`` is its own term,
    # the same object, whose hash the model's index has already taken
    terms = [token.replace("_", " ") for token in model.vocab]
    inside = list(map(vocab.__contains__, terms))
    terms = list(itertools.compress(terms, inside))
    rows = np.frombuffer(bytes(inside), dtype=bool).nonzero()[0]
    source = model.input_vectors
    dim = source.shape[1]
    vectors = v32 = sq = None
    norm = math.inf
    if 0 < rows.size * dim >= SCREEN_CELLS and dim <= SCREEN_MAX_DIM:
        v32, norm = _columns(source, rows, np.float32, SCREEN_MAX_NORM)
        if v32 is not None:
            sq = np.einsum("ij,ij->j", v32, v32)
    if v32 is None:
        vectors, _ = _columns(source, rows, source.dtype)
    model._phi_pool = _PhiPool(vocab, source, rows, terms, vectors, v32, sq, norm)
    return model._phi_pool


def _columns(
    source: np.ndarray, rows: np.ndarray, dtype, limit: float | None = None
) -> tuple[np.ndarray | None, float]:
    """``source[rows].T`` as one contiguous array of ``dtype``, filled from
    chunks of ``CHUNK_CELLS`` cells of whole rows, so that no second
    full-size copy is made. With a ``limit``, also V, the largest norm of a
    row, and no copy (None, and V inf) when V is not below it: the check
    comes before a chunk is rounded, so that no float32 overflows."""
    columns = np.empty((source.shape[1], rows.size), dtype=dtype)
    norm = 0.0
    step = max(1, CHUNK_CELLS // max(1, source.shape[1]))
    for first in range(0, rows.size, step):
        chunk = source[rows[first : first + step]]
        if limit is not None:
            top = math.sqrt(np.einsum("ij,ij->i", chunk, chunk).max())
            if not top < limit:  # true for inf and nan too
                return None, math.inf
            norm = max(norm, top)
        columns[:, first : first + step] = chunk.T
    return columns, norm


def candidates_from_phi(
    phi: PhiTransform,
    model: EmbeddingModel,
    q: str,
    vocab: frozenset[str],
    k: int = MAX_PREDICTIONS,
) -> list[ScoredCandidate]:
    """The ``k`` terms of ``vocab`` nearest to the projected query vector:
    `nearest_terms` for a block of one query. `perfbench/answer.py` calls it
    and `perfbench/trace.py` times it by name; ROADMAP item 1 removes it.

    Euclidean distance to vec(q) + offset (or matrix @ vec(q)), the query
    itself excluded, ties lexicographic, scores 1/(1 + distance). A query
    missing from the embedding, or ``k <= 0``, yields an empty list. The
    pool (`_candidate_pool`) is built on the first call. One einsum over
    dimension-major vectors gives every distance the exact steps take, a
    contiguous pass per dimension (a row-major layout would broadcast the
    target once per row). The ``k`` nearest are among the columns at or
    below the (k + 1)-th smallest distance, as the query's own row is at
    most one column of the pool. Only where the columns far outnumber k
    does a partition find that distance and keep only those columns. One
    sort of (distance, term), the query's row left out, then orders them,
    so ties at the cutoff still go by term, as in a full sort. So the exact
    steps do Python work in proportion to the columns they are given, and
    none over the whole pool.

    On a large pool those exact steps see only the columns that survive a
    float32 screen (`_screen`), gathered from ``model.input_vectors``, the
    pool keeping no float64 copy; the coarse-then-exact pattern of
    nearest-neighbour search (Johnson et al., arXiv:1702.08734). With t the
    target, v_j the pool's columns and t32, v32_j their float32 copies, the
    screen scores s_j = sq_j - 2<t32, v32_j> in float32, sq_j = ||v32_j||^2
    cached with the pool, the dot products of a block of targets all from
    one BLAS product (a matrix-vector product for a lone target). s_j is
    ||v_j - t||^2 - ||t32||^2 (the same shift for every column) to within

        E = (dim + 8) u (V + T)^2 + (dim + 2) 2^-148,    u = 2^-24,

    V the pool's largest float64 norm and T = ||t||. Derivation, with
    eta = 2^-150 the error of a float32 rounding that underflows (gradual
    underflow, numpy's default):

    * Inputs. Rounding moves a component x by at most u|x| + eta, so by
      the triangle inequality ||v32_j - t32|| is within
      rho = u(V + T) + 2 sqrt(dim) eta of ||v_j - t||, and its square
      within rho (2(V + T) + rho) = (2u + u^2)(V + T)^2 + cross terms.
    * Arithmetic. A float32 sum of dim products errs by at most
      gamma_dim = dim u / (1 - dim u) times the sum of their magnitudes,
      in any order (Higham, Accuracy and Stability, 3.1), plus eta per
      product that underflows (an addition that underflows is exact); the
      subtraction adds u |sq_j - 2<t32, v32_j>|. The bound holds for every
      order of summation, so for whatever blocking, SIMD lanes or threads a
      BLAS build uses, for a matrix-vector or a matrix-matrix product, and
      for fused multiply-adds, which round once where it counts two
      roundings. So the BLAS build, its thread count and the block a
      target is screened in may change which columns survive, but no score
      errs by more than E.
      With ||v32_j|| + ||t32|| <= (1 + u)(V + T) + 2 sqrt(dim) eta that is
      gamma_(dim+3) (V + T)^2 + 3 dim eta + cross terms.
    * The exact steps' own float64 rounding, (dim + 2) 2^-53 (V + T)^2 on a
      squared distance and an ulp in its root, is below u (V + T)^2 / 64;
      by AM-GM the eta cross terms are below u (V + T)^2 / 64 + eta.

    The sum stays below E while (dim + 3)^2 u <= 2, up to dim 5789:
    ``SCREEN_MAX_DIM`` keeps below it. The screen keeps every column with
    s_j at most c + 2E, cut = k + 1, where c is at least the (cut + 1)-th
    smallest score. Let D be the cut-th smallest exact squared distance,
    less the shift. Each score is within E of its column's value, so the
    cut-th smallest score, and so c, is at least D - E, and a column at or
    below the exact cutoff scores at most D + E: it survives. On a pool of
    at least 2 ``GROUPS`` columns, with cut < ``GROUPS``, c is the
    (cut + 1)-th smallest of the minima of ``GROUPS`` groups of columns
    (column j in group j mod ``GROUPS``, but for the first columns, short
    of a whole row of groups, which are in none), from a partition of those
    minima alone. It is at least the (cut + 1)-th smallest score: the
    groups are disjoint, so the cut + 1 smallest minima are the scores of
    cut + 1 distinct columns, all at or below c. On any other pool c is the
    (cut + 1)-th smallest score, from a partition of them all. The
    survivors' cut-th smallest distance is then the global one, and the
    exact steps pick the same columns, ties at the cutoff still by term.
    A target's survivors are gathered into a C-contiguous array, so einsum
    adds each column's terms in the same order as over a whole pool, and
    the list is the same bit for bit as without the screen, and whatever
    block the target was screened in. A cutoff at or above the (cut + 1)-th
    score keeps at least two columns: einsum would sum a lone (dim, 1)
    column in another order.

    The screen runs only on a pool of at least ``SCREEN_CELLS`` cells
    (terms x dim), where it was measured to pay for its fixed costs, with
    dim <= ``SCREEN_MAX_DIM``, and with V and T finite and below
    ``SCREEN_MAX_NORM``, so that no float32 square or product overflows.
    Otherwise every column goes to the exact steps, from the pool's float64
    copy, or gathered from ``model.input_vectors`` on a screened pool.
    """
    q_row = model.row(q)
    if q_row is None or k <= 0:
        return []
    pool = _candidate_pool(model, vocab)
    target = phi.apply(pool.source[q_row])
    at = _screen(pool, target, k + 1) if _screened(pool, k) else None
    return _exact(pool, target, at, q_row, k)


def nearest_terms(
    phi: PhiTransform,
    model: EmbeddingModel,
    terms: Sequence[str],
    vocab: frozenset[str],
    k: int = MAX_PREDICTIONS,
) -> list[list[ScoredCandidate]]:
    """`candidates_from_phi` of each of ``terms``, one list per term, the
    same bit for bit. The queries in the embedding go in blocks of as many
    as ``SCREEN_BLOCK_CELLS`` float32 scores hold (at least one), each
    block screened by one BLAS matrix product."""
    q_rows = [model.row(term) for term in terms]
    lists: list[list[ScoredCandidate]] = [[] for _ in terms]
    asked = [i for i, row in enumerate(q_rows) if row is not None] if k > 0 else []
    if not asked:
        return lists
    pool = _candidate_pool(model, vocab)
    step = max(1, SCREEN_BLOCK_CELLS // max(1, pool.rows.size))
    for first in range(0, len(asked), step):
        block = asked[first : first + step]
        targets = np.array([phi.apply(pool.source[q_rows[i]]) for i in block])
        kept = _screen(pool, targets, k + 1) if _screened(pool, k) else [None] * len(block)
        for i, target, at in zip(block, targets, kept):
            lists[i] = _exact(pool, target, at, q_rows[i], k)
    return lists


def _screened(pool: _PhiPool, k: int) -> bool:
    """Whether the pool is screened for the ``k`` nearest: it holds a
    float32 copy and more than k + 1 columns."""
    return pool.v32 is not None and k + 1 < pool.rows.size


def _exact(
    pool: _PhiPool, target: np.ndarray, at: np.ndarray | None, q_row: int, k: int
) -> list[ScoredCandidate]:
    """The exact steps: the ``k`` nearest columns of the pool to ``target``
    among the columns ``at`` (every column for None), the query's row
    ``q_row`` left out, by (distance, term). See `candidates_from_phi`."""
    if at is None:
        rows = pool.rows
        vectors = pool.vectors if pool.vectors is not None else pool.source[rows].T
        diff = np.ascontiguousarray(vectors) - target[:, None]
    else:
        rows = pool.rows[at]
        diff = pool.source.take(rows, axis=0)
        diff -= target
        diff = np.ascontiguousarray(diff.T)
    dists = np.sqrt(np.einsum("ij,ij->j", diff, diff))
    if dists.size > PARTITION_FACTOR * (k + 1):
        keep = (dists <= np.partition(dists, k)[k]).nonzero()[0]
        dists, rows = dists[keep], rows[keep]
        at = keep if at is None else at[keep]
    # with ``at`` None every column is left, in order: the pool's own terms
    terms = pool.terms if at is None else map(pool.terms.__getitem__, at.tolist())
    pairs = list(zip(dists.tolist(), terms))
    own = int(rows.searchsorted(q_row))  # the rows ascend, as the pool's and ``at`` do
    if own < rows.size and rows[own] == q_row:
        del pairs[own]
    ranked = sorted(pairs)[:k]
    # tuple.__new__ of the fields in order is what ScoredCandidate(...) runs,
    # less a Python-level call per candidate
    new, from_phi = tuple.__new__, Source.PHI
    return [new(ScoredCandidate, (term, 1.0 / (1.0 + dist), from_phi)) for dist, term in ranked]


def _screen(pool: _PhiPool, targets: np.ndarray, cut: int):
    """The indices of the columns of a screened pool that may be among the
    ``cut`` nearest to a target, ascending, or None when the target's norm
    is too large to screen; ``cut`` < the pool size. ``targets`` is one
    target (dim,), answered with one entry from one BLAS sgemv, or a block
    (n, dim), answered with a list of n entries from one BLAS sgemm. See
    `candidates_from_phi`."""
    # scaling t32 by -2 is exact, so the products give sq - 2<t32, v32>
    if targets.ndim == 1:
        t_norm = math.sqrt(targets.dot(targets))
        if not t_norm < SCREEN_MAX_NORM:  # true for inf and nan too
            return None
        return _survivors(pool, (targets.astype(np.float32) * -2) @ pool.v32, t_norm, cut)
    t_norms = np.sqrt(np.einsum("ij,ij->i", targets, targets)).tolist()
    fit = [i for i, t_norm in enumerate(t_norms) if t_norm < SCREEN_MAX_NORM]
    t32 = targets[fit].astype(np.float32) * -2
    kept = [None] * len(targets)
    for i, score in zip(fit, t32 @ pool.v32):
        kept[i] = _survivors(pool, score, t_norms[i], cut)
    return kept


def _survivors(pool: _PhiPool, score: np.ndarray, t_norm: float, cut: int) -> np.ndarray:
    """The columns whose score, ``score`` plus the squared norms, is within
    twice the error bound of the cutoff, for a target of norm ``t_norm``;
    ``score`` is overwritten. See `candidates_from_phi`."""
    score += pool.sq
    if score.size >= 2 * GROUPS and cut < GROUPS:
        # the minimum of each group, column j in group j mod GROUPS, but for
        # the first columns, short of a whole row of groups, in none
        lows = score[score.size % GROUPS :].reshape(-1, GROUPS).min(axis=0)
    else:
        lows = score.copy()
    lows.partition(cut)
    dim = pool.v32.shape[0]
    bound = (dim + 8) * 2.0**-24 * (pool.norm + t_norm) ** 2 + (dim + 2) * 2.0**-148
    cutoff = float(lows[cut]) + 2 * bound
    # rounding to the nearest float32 is monotone, so a float32 score at or
    # below the cutoff is at or below its rounding too: no column is lost
    return (score <= np.float32(cutoff)).nonzero()[0]


# ---------------------------------------------------------------------------
# file formats


def _require_finite(path, values: np.ndarray, name: Callable[[int], str]) -> None:
    """Reject a nan or infinite value, naming its row i by ``name(i)``; the
    writers check as the readers do, so no file is written that is refused."""
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise FormatError(f"{path}: {name(int(bad[0]))} has a non-finite value")


def save_embedding(
    path: str | os.PathLike,
    model: EmbeddingModel,
    header: dict[str, str] | None = None,
) -> None:
    """A ``rows dim`` size line and one token per line, as text, then the
    vectors as one block (`_write_vectors`), exact: `load_embedding` returns
    the trained model bit for bit. A nan or infinite value is a
    `FormatError`, as `load_embedding` makes it."""
    vocab, vectors = model.vocab, model.input_vectors
    _require_finite(path, vectors, lambda i: f"row {i + 1} of {len(vocab)} (token {vocab[i]!r})")
    text = f"{len(vocab)} {model.dimension}\n" + "".join(token + "\n" for token in vocab)
    _write_vectors(path, header, text, vectors)


def _write_vectors(path, header, text: str, values: np.ndarray) -> None:
    """Write ``text``, then ``values`` as one little-endian float64 block,
    row by row, with nothing after it."""
    with write_artifact(path, header) as fh:
        fh.write(text)
        fh.flush()  # the text goes out before the block
        fh.buffer.write(np.ascontiguousarray(values, dtype="<f8"))


def _read_vectors(path, phi: bool) -> tuple[PhiMode | None, list[str], np.ndarray]:
    """A vector file, from one open in binary: the header (`read_header`),
    a phi's mode line, a ``rows width`` size line, an embedding's token
    lines, one per row, then exactly rows x width little-endian float64
    values. The phi mode, the tokens and the (rows, width) array. Each fault
    is a `FormatError` naming the file, and row i as ``<label> i of <rows>``
    (with its token): a size line that is not two positive integers, a
    missing token line, a token that is not UTF-8, a block of another
    length (checked against the file size before it is read) and a nan or
    infinite value."""
    keys: list[str] = []
    with open(path, "rb") as fh:
        read_header(fh, path)
        mode = None
        if phi:
            line = fh.readline().decode("utf-8", "replace").rstrip("\n")
            try:
                mode = PhiMode(line.strip())
            except ValueError:
                raise FormatError(f"{path}: unknown projection mode {line!r}") from None
        label = "row" if mode is None else f"{mode.value} row"
        line = fh.readline().decode("utf-8", "replace").rstrip("\n")
        parts = line.split()
        if len(parts) != 2 or not all(p.isascii() and p.isdigit() and int(p) > 0 for p in parts):
            raise FormatError(f"{path}: the size line {line!r} is not two positive integers")
        n, width = int(parts[0]), int(parts[1])

        def name(i: int) -> str:
            token = f" (token {keys[i]!r})" if i < len(keys) else ""
            return f"{label} {i + 1} of {n}{token}"

        if not phi:
            raw = list(itertools.islice(fh, n))
            # only the last line read can lack its newline, at the end of the file
            whole = len(raw) - (bool(raw) and not raw[-1].endswith(b"\n"))
            if whole < n:
                raise FormatError(f"{path}: {name(whole)} is missing; the file is truncated")
            joined = b"".join(raw)
            try:
                keys += joined.decode("utf-8").split("\n")[:-1]
            except UnicodeDecodeError as exc:
                row = name(joined.count(b"\n", 0, exc.start))
                raise FormatError(f"{path}: {row} has a token that is not UTF-8 ({exc.reason})") from None
        size, row_bytes = os.fstat(fh.fileno()).st_size - fh.tell(), width * 8
        if size < n * row_bytes:
            fault = "is cut short" if size % row_bytes else "is missing"
            raise FormatError(f"{path}: {name(size // row_bytes)} {fault}; the file is truncated")
        if size > n * row_bytes:
            raise FormatError(f"{path}: {size - n * row_bytes} bytes after {name(n - 1)}")
        values = np.fromfile(fh, "<f8", count=n * width).reshape(n, width)
    _require_finite(path, values, name)
    return mode, keys, values


def load_embedding(path: str | os.PathLike) -> EmbeddingModel:
    """Load a `save_embedding` file (input vectors only).

    A repeated token or a nan or infinite value is a `FormatError`: the
    rows of a model map one-to-one to tokens, and distances must compare.
    So is every fault `_read_vectors` finds.
    """
    _, vocab, vectors = _read_vectors(path, phi=False)
    model = EmbeddingModel(vocab, vectors)
    if len(model.index) != len(vocab):
        first: dict[str, int] = {}
        i = next(i for i, token in enumerate(vocab) if first.setdefault(token, i) != i)
        raise FormatError(f"{path}: row {i + 1} of {len(vocab)} repeats token {vocab[i]!r}")
    return model


def save_phi(
    path: str | os.PathLike,
    phi: PhiTransform,
    header: dict[str, str] | None = None,
) -> None:
    """Mode line (``offset``/``matrix``) and a ``rows width`` size line, as
    text, then the rows as one block (`_write_vectors`), exact: one row for
    an offset, ``d`` for a matrix. A nan or infinite value is a
    `FormatError`, as `load_phi` makes it."""
    rows = phi.offset[None] if phi.mode is PhiMode.OFFSET else phi.matrix
    _require_finite(path, rows, lambda i: f"{phi.mode.value} row {i + 1} of {len(rows)}")
    _write_vectors(path, header, f"{phi.mode.value}\n{len(rows)} {rows.shape[1]}\n", rows)


def load_phi(path: str | os.PathLike) -> PhiTransform:
    """Read a `save_phi` file back. An unknown mode, an offset of other than
    one row, a matrix that is not square and every fault `_read_vectors`
    finds is a `FormatError`."""
    mode, _, rows = _read_vectors(path, phi=True)
    if mode is PhiMode.MATRIX:
        if rows.shape[0] != rows.shape[1]:
            raise FormatError(f"{path}: a matrix is square; the size line declares "
                              f"{rows.shape[0]} {rows.shape[1]}")
        return PhiTransform(PhiMode.MATRIX, matrix=rows)
    if len(rows) != 1:
        raise FormatError(f"{path}: an offset is one row; the size line declares {len(rows)}")
    return PhiTransform(PhiMode.OFFSET, offset=rows[0])
