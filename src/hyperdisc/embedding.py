"""CBOW embeddings with negative sampling, and the hypernymy projection.

Training predicts each center token from the mean of the input vectors of
up to ``window`` in-vocabulary context tokens on each side. The loss per
position is

    -log s(u_c . h) - sum_neg log s(-u_n . h)

with h the context mean, u the output vectors, and negatives drawn from
the unigram^(3/4) distribution. The learning rate decays linearly to 10%
of its initial value over all positions of all epochs.

Training is block-batched: the lines are concatenated, and each block of
``BLOCK`` consecutive positions is one weight update, ``apply_step``, the
only one. A block takes every gradient at its start weights, masks each
context window at its line's ends and keeps each position's own learning
rate. After Ji et al. (arXiv:1604.04661), each group of ``GROUP``
consecutive positions shares one row of negatives, all drawn in one RNG
call; a negative equal to any center of its group is redrawn, and a group
holds fewer positions than the vocabulary has tokens, so that a valid
negative exists. With blocks of one position it is the plain per-position
SGD. Training stays single-process and uses no BLAS call, so the weights
are byte-reproducible for a fixed seed, whatever the CPU count.
``cbow_step_loss`` is the independent oracle for the same loss and
gradients.

The projection maps a hyponym vector toward its hypernym region: either a
single offset vector (the closed-form mean of y - x over training pairs)
or a ridge-regularized linear map fit by least squares. Candidates are the
vocabulary terms nearest to the projected query point in Euclidean
distance. The candidate pool of a vocabulary, its embedding rows and one
contiguous dimension-major copy of their vectors, is built once per
(model, vocabulary, ``input_vectors`` array) and kept on the model. A
pool of at least ``SCREEN_CELLS`` cells (terms x dim) holds that copy in
float32, with its squared norms, and a query first screens every column
by ||v||^2 - 2<t, v> in float32, keeping each column within twice a
proven error bound of the cutoff; on a smaller pool the screen costs more
than it saves, and the copy is in float64. The exact steps then take the
distances of the survivors (gathered from ``input_vectors``), or of every
column of a small pool, in one fused float64 pass (an einsum, no BLAS
call), pick the nearest ``k`` other terms with a partition and sort only
the entries at or below the cutoff. The screen never changes the result:
`candidates_from_phi` derives the bound and shows why.
Embedding and projection files share one parser, which converts all rows
in one `np.loadtxt` call and examines a row only when the call rejects it.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .corpus_io import (
    CandidateVocabulary,
    FormatError,
    read_artifact,
    term_to_token,
    token_to_term,
    write_artifact,
)
from .cooc import ScoredCandidate, Source, TOP_K


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
# projection retrieval screens a pool in float32 from this many cells (terms x
# dim), past the measured break-even (16k cells at dim 16, 19k to 38k at dim
# 300); on smaller pools the screen costs more than it saves
SCREEN_CELLS = 32768
SCREEN_MAX_DIM = 4096  # widest vectors for which the screen's bound is proven
SCREEN_MAX_NORM = 2.0**60  # larger norms could overflow float32 squares


@dataclass(frozen=True)
class EmbeddingConfig:
    dimension: int = 300
    window: int = 10
    min_count: int = 5
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.025
    seed: int = 1

    def __post_init__(self) -> None:
        if self.dimension < 2:
            raise ValueError("dimension must be at least 2")
        for name in ("window", "min_count", "negatives", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")


class _PhiPool(NamedTuple):
    """The candidates of one vocabulary in one model's embedding."""

    vocab: CandidateVocabulary | None
    source: np.ndarray   # the ``input_vectors`` array the vectors were copied from
    rows: np.ndarray     # the candidates' embedding rows, each at most once
    # ``source[rows].T``, one contiguous (dim, len(rows)) copy, in float64
    # on a pool too small to screen and in float32 on one screened by
    # `candidates_from_phi`; the other one is None
    vectors: np.ndarray | None
    v32: np.ndarray | None
    sq: np.ndarray | None  # the squared norms of ``v32``'s columns, in float32
    norm: float            # V, the largest norm of a column, on a screened pool


@dataclass
class EmbeddingModel:
    vocab: list[str]
    input_vectors: np.ndarray
    output_vectors: np.ndarray | None = None
    frequencies: dict[str, int] = field(default_factory=dict)
    index: dict[str, int] = field(init=False, repr=False)
    # the candidate pool of the last `candidates_from_phi` call
    _phi_pool: _PhiPool | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.index = {token: i for i, token in enumerate(self.vocab)}

    @property
    def dimension(self) -> int:
        return self.input_vectors.shape[1]

    def __contains__(self, term: str) -> bool:
        return term_to_token(term) in self.index

    def row(self, term: str) -> int | None:
        return self.index.get(term_to_token(term))

    def vector(self, term: str) -> np.ndarray | None:
        row = self.row(term)
        return None if row is None else self.input_vectors[row]


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
    context: np.ndarray,
    centers: np.ndarray,
    negatives: np.ndarray,
    lr: np.ndarray,
) -> None:
    """One SGD update for a block of positions, on the weights in place.

    Row ``b`` of ``context`` holds the input rows of position ``b``'s
    context, padded with -1 (each row has at least one input row),
    ``centers[b]`` its center and ``lr[b]`` its learning rate. Position
    ``b`` takes row ``b // width`` of ``negatives``, with ``width =
    ceil(len(centers) / len(negatives))``: groups of consecutive positions
    share a row, the last group possibly shorter. Every gradient is taken
    at the block-start weights and repeated rows accumulate, so the update
    is the sum over the block of ``-lr[b]`` times the gradients
    ``cbow_step_loss`` returns for position ``b`` with its group's
    negatives, a negative equal to a center included. `_train` redraws
    those, and caps the group size at the vocabulary size minus one so that
    a valid negative always exists.
    """
    inside = context >= 0
    n_ctx = inside.sum(axis=1)
    size, groups, dim = len(centers), len(negatives), w_in.shape[1]
    width = -(-size // groups)
    # zero rows pad the last group, so a padding position adds nothing
    h, step_h = np.zeros((2, groups * width, dim))
    # padding gathers the last row and weighs it by zero
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
    _scatter_add(w_out, np.concatenate((centers, negatives.ravel())), step_out)
    step_in = (-lr / n_ctx)[:, None] * grad_h
    _scatter_add(w_in, context[inside], np.repeat(step_in, n_ctx, axis=0))


def _scatter_add(w: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``w[rows] += values`` with repeated rows accumulating: one
    `np.bincount` sums the values of each distinct row, in the order given,
    and each distinct row is then added to once."""
    dim = w.shape[1]
    distinct, slot = np.unique(rows, return_inverse=True)
    cells = (slot[:, None] * dim + np.arange(dim)).ravel()
    sums = np.bincount(cells, values.ravel(), minlength=distinct.size * dim)
    w[distinct] += sums.reshape(-1, dim)


def _encode_corpus(lines: Iterable[list[str]], index: dict[str, int]) -> list[np.ndarray]:
    encoded = []
    for tokens in lines:
        ids = [index[t] for t in tokens if t in index]
        if len(ids) >= 2:
            encoded.append(np.asarray(ids, dtype=np.intp))
    return encoded


def _train(
    lines: Sequence[np.ndarray],
    w_in: np.ndarray,
    w_out: np.ndarray,
    noise_cdf: np.ndarray,
    config: EmbeddingConfig,
    rng: np.random.Generator,
    block: int = BLOCK,
) -> None:
    """Train over ``lines`` (at least one, each of at least two ids, so that
    every position has a context) in blocks of ``block`` consecutive
    positions of the concatenated lines, one `apply_step` per block."""
    flat = np.concatenate(lines)
    total = config.epochs * flat.size
    sizes = np.fromiter((len(ids) for ids in lines), dtype=np.intp, count=len(lines))
    line_end = np.repeat(np.cumsum(sizes), sizes)
    line_start = line_end - np.repeat(sizes, sizes)
    window = config.window
    offsets = np.concatenate((np.arange(-window, 0), np.arange(1, window + 1)))
    n_neg = config.negatives
    # fewer centers than vocabulary tokens, so every group has a valid negative
    group = min(GROUP, block, noise_cdf.size - 1)
    lr0 = config.learning_rate
    lr_floor = LR_FLOOR_FRACTION * lr0
    with np.errstate(over="ignore"):
        for epoch in range(config.epochs):
            for first in range(0, flat.size, block):
                pos = np.arange(first, min(first + block, flat.size))
                at = pos[:, None] + offsets
                inside = (at >= line_start[pos, None]) & (at < line_end[pos, None])
                context = np.where(inside, flat[np.where(inside, at, 0)], -1)
                centers = flat[pos]
                groups = -(-pos.size // group)
                width = -(-pos.size // groups)  # as `apply_step` reads it, <= group
                negs = np.searchsorted(noise_cdf, rng.random(groups * n_neg))
                negs = negs.reshape(groups, n_neg)
                while True:
                    # a negative clashes with any center of its group
                    hits = np.repeat(negs, width, axis=0)[: pos.size] == centers[:, None]
                    clash = np.logical_or.reduceat(hits, np.arange(0, pos.size, width))
                    if not clash.any():
                        break
                    negs[clash] = np.searchsorted(
                        noise_cdf, rng.random(int(clash.sum()))
                    )
                lr = lr0 * (1.0 - 0.9 * (epoch * flat.size + pos) / total)
                apply_step(
                    w_in, w_out, context, centers, negs, np.maximum(lr, lr_floor)
                )


def train_cbow(
    normalized_corpus_path: str | os.PathLike,
    config: EmbeddingConfig,
) -> EmbeddingModel:
    """Train CBOW vectors over a normalized corpus file.

    The vocabulary is every token with frequency >= ``min_count``, ordered
    by descending frequency then token. Raises if nothing survives the
    frequency filter, and raises `FormatError` if the corpus's last line is
    cut short.
    """
    lines = [line.split() for line in read_artifact(normalized_corpus_path)[1]]
    freqs = Counter(itertools.chain.from_iterable(lines))
    vocab = sorted(
        (t for t, c in freqs.items() if c >= config.min_count),
        key=lambda t: (-freqs[t], t),
    )
    if not vocab:
        raise ValueError(
            f"no token reaches min_count={config.min_count}; cannot train"
        )
    if len(vocab) < 2:
        raise ValueError("need at least two vocabulary tokens for negative sampling")
    index = {t: i for i, t in enumerate(vocab)}
    encoded = _encode_corpus(lines, index)

    rng = np.random.default_rng(config.seed)
    dim = config.dimension
    w_in = (rng.random((len(vocab), dim)) - 0.5) / dim
    w_out = np.zeros((len(vocab), dim))
    counts = np.array([freqs[t] for t in vocab], dtype=np.float64)
    noise_cdf = np.cumsum(counts**NOISE_POWER)
    noise_cdf /= noise_cdf[-1]

    if encoded:
        _train(encoded, w_in, w_out, noise_cdf, config, rng)
    return EmbeddingModel(
        vocab=vocab,
        input_vectors=w_in,
        output_vectors=w_out,
        frequencies={t: int(freqs[t]) for t in vocab},
    )


# ---------------------------------------------------------------------------
# hypernymy projection


class PhiMode(Enum):
    OFFSET = "offset"
    MATRIX = "matrix"


@dataclass(frozen=True)
class PhiTransform:
    mode: PhiMode
    offset: np.ndarray | None = None
    matrix: np.ndarray | None = None
    skipped_pairs: int = 0

    def __post_init__(self) -> None:
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


def _candidate_pool(model: EmbeddingModel, vocab: CandidateVocabulary | None) -> _PhiPool:
    """The pool of the embedding rows whose token's term is in the
    vocabulary (every row when ``vocab`` is None), in row order: the rule
    the count modules apply to their tokens, so a row enters once, and a
    vocabulary term spelled with ``_`` names no candidate. Built on the
    first call and reused while calls pass an equal vocabulary and
    ``model.input_vectors`` is the array it was built from. Assigning a new
    array is seen. Editing it in place is not supported: the pool's copy
    would not see the edit, while a screened pool reads its survivors'
    float64 vectors from the array."""
    pool = model._phi_pool
    if (
        pool is not None
        and pool.source is model.input_vectors
        and (pool.vocab is vocab or pool.vocab == vocab)
    ):
        return pool
    index = model.index
    if vocab is not None:
        index = {token: row for token, row in index.items() if token_to_term(token) in vocab.terms}
    rows = np.fromiter(index.values(), dtype=np.intp, count=len(index))
    source = model.input_vectors
    dim = source.shape[1]
    vectors = v32 = sq = None
    norm = math.inf
    if 0 < rows.size * dim >= SCREEN_CELLS and dim <= SCREEN_MAX_DIM:
        norm = math.sqrt(np.einsum("ij,ij->i", source, source)[rows].max())
        if norm < SCREEN_MAX_NORM:  # false for inf and nan too
            v32 = _columns(source, rows, np.float32)
            sq = np.einsum("ij,ij->j", v32, v32)
    if v32 is None:
        vectors = _columns(source, rows, source.dtype)
    model._phi_pool = _PhiPool(vocab, source, rows, vectors, v32, sq, norm)
    return model._phi_pool


def _columns(source: np.ndarray, rows: np.ndarray, dtype) -> np.ndarray:
    """``source[rows].T`` as one contiguous array of ``dtype``, filled one
    dimension at a time, so that no second full-size copy is made."""
    columns = np.empty((source.shape[1], rows.size), dtype=dtype)
    for line, values in zip(columns, source.T):
        line[:] = values[rows]
    return columns


def candidates_from_phi(
    phi: PhiTransform,
    model: EmbeddingModel,
    q: str,
    vocab: CandidateVocabulary | None,
    k: int = TOP_K,
) -> list[ScoredCandidate]:
    """The ``k`` vocabulary terms nearest to the projected query vector.

    Euclidean distance to vec(q) + offset (or matrix @ vec(q)), the query
    itself excluded, ties lexicographic, scores 1/(1 + distance). A query
    missing from the embedding, or ``k <= 0``, yields an empty list. One
    einsum over the dimension-major vectors of `_candidate_pool` gives every
    distance, a contiguous pass per dimension (a row-major layout would
    broadcast the target once per row). A partition finds the (k + 1)-th
    smallest, as the query's own row is at most one column of the pool;
    only the entries at or below it are sorted, the query's row left out,
    so ties at the cutoff still go by term, as in a full sort.

    On a large pool those exact steps see only the columns that survive a
    float32 screen (`_screen`), gathered from ``model.input_vectors``, the
    pool keeping no float64 copy; the coarse-then-exact pattern of
    nearest-neighbour search (Johnson et al., arXiv:1702.08734). With t the
    target, v_j the pool's columns and t32, v32_j their float32 copies, the
    screen scores s_j = sq_j - 2<t32, v32_j> in float32, sq_j = ||v32_j||^2
    cached with the pool. s_j is ||v_j - t||^2 - ||t32||^2 (the same shift
    for every column) to within

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
      product that underflows; the subtraction adds u |sq_j - 2<t32, v32_j>|.
      With ||v32_j|| + ||t32|| <= (1 + u)(V + T) + 2 sqrt(dim) eta that is
      gamma_(dim+3) (V + T)^2 + 3 dim eta + cross terms.
    * The exact steps' own float64 rounding, (dim + 2) 2^-53 (V + T)^2 on a
      squared distance and an ulp in its root, is below u (V + T)^2 / 64;
      by AM-GM the eta cross terms are below u (V + T)^2 / 64 + eta.

    The sum stays below E while (dim + 3)^2 u <= 2, up to dim 5789:
    ``SCREEN_MAX_DIM`` keeps below it. The screen keeps every column with
    s_j at most the (cut + 1)-th smallest score plus 2E, cut = k + 1. Let
    D be the cut-th smallest exact squared distance, less the shift. Each
    score is within E of its column's value, so the cut-th smallest score
    is at least D - E, and a column at or below the exact cutoff scores at
    most D + E: it survives. The survivors' cut-th smallest distance is
    then the global one, and the exact steps pick the same columns, ties
    at the cutoff still by term. The survivors are gathered into a
    C-contiguous array, so einsum adds each column's terms in the same
    order as over a whole pool, and the list is the same bit for bit as
    without the screen. The (cut + 1)-th score keeps at least two columns:
    einsum would sum a lone (dim, 1) column in another order.

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
    target = phi.apply(model.input_vectors[q_row])
    vectors, rows = pool.vectors, pool.rows
    cut = k + 1
    if vectors is None:  # a screened pool: its float64 columns come from source
        keep = _screen(pool, target, cut) if cut < rows.size else None
        if keep is not None:
            rows = rows[keep]
        vectors = np.ascontiguousarray(pool.source[rows].T)
    diff = vectors - target[:, None]
    dists = np.sqrt(np.einsum("ij,ij->j", diff, diff))
    if cut < rows.size:
        keep = np.flatnonzero(dists <= np.partition(dists, cut - 1)[cut - 1])
        dists, rows = dists[keep], rows[keep]
    ranked = sorted(
        (dist, token_to_term(model.vocab[row]))
        for dist, row in zip(dists.tolist(), rows.tolist())
        if row != q_row
    )
    return [
        ScoredCandidate(term, 1.0 / (1.0 + dist), Source.PHI)
        for dist, term in ranked[:k]
    ]


def _screen(pool: _PhiPool, target: np.ndarray, cut: int) -> np.ndarray | None:
    """The indices of the columns of a screened pool that may be among the
    ``cut`` nearest to ``target``, ascending, or None when the target's
    norm is too large to screen; ``cut`` < the pool size. See
    `candidates_from_phi`."""
    t_norm = math.sqrt(np.einsum("i,i->", target, target))
    if not t_norm < SCREEN_MAX_NORM:  # true for inf and nan too
        return None
    dim = target.size
    bound = (dim + 8) * 2.0**-24 * (pool.norm + t_norm) ** 2 + (dim + 2) * 2.0**-148
    # scaling t32 by -2 is exact, so this is sq - 2<t32, v32> in one pass
    score = np.einsum("i,ij->j", target.astype(np.float32) * -2, pool.v32)
    score += pool.sq
    cutoff = float(np.partition(score, cut)[cut]) + 2 * bound
    # rounding to the nearest float32 is monotone, so a float32 score at or
    # below the cutoff is at or below its rounding too: no column is lost
    return np.flatnonzero(score <= np.float32(cutoff))


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
    """Text format: ``|vocab| dimension`` line, then ``token v1 ... vd`` rows.
    A nan or infinite value is a `FormatError`, as `load_embedding` makes it."""
    vocab = model.vocab
    _require_finite(path, model.input_vectors,
                    lambda i: f"row {i + 1} of {len(vocab)} (token {vocab[i]!r})")
    with write_artifact(path, header) as fh:
        fh.write(f"{len(model.vocab)} {model.dimension}\n")
        for token, row in zip(model.vocab, model.input_vectors):
            fh.write(token + " " + " ".join(f"{v:.6f}" for v in row) + "\n")


def _read_rows(path, lines, label, keys=None, sized=True) -> np.ndarray:
    """The rest of ``lines`` as an array of finite numbers: the rows and
    columns a leading ``rows width`` line says when ``sized``, else one row.
    With ``keys``, each row starts with a token, appended to ``keys``. One
    `np.loadtxt` call converts every row; it pulls one line at a time, so
    the row it rejects is the last one pulled. Errors name rows by ``label``."""
    n, width = 1, None
    if sized:
        line = next(lines, "")
        parts = line.split()
        if len(parts) != 2 or not all(p.isascii() and p.isdigit() and int(p) > 0 for p in parts):
            raise FormatError(f"{path}: the size line {line!r} is not two positive integers")
        n, width = int(parts[0]), int(parts[1])

    def name(i: int) -> str:
        token = f" (token {keys[i]!r})" if keys is not None and i < len(keys) else ""
        return (f"{label} {i + 1} of {n}" if sized else label) + token

    last = [-1, ""]  # index and value text of the last row pulled

    def rows() -> Iterator[str]:
        for i, line in enumerate(lines):
            if i == n:
                raise FormatError(f"{path}: extra row after {name(n - 1)}")
            if keys is not None:
                key, _, line = line.partition(" ")
                keys.append(key)
            if not line or line.isspace():  # np.loadtxt would skip it
                raise FormatError(f"{path}: {name(i)} has no values")
            last[:] = i, line
            yield line
        if last[0] < n - 1:
            raise FormatError(f"{path}: {name(last[0] + 1)} is missing; the file is truncated")

    pulled = rows()
    first = next(pulled)
    width = width or len(first.split())
    try:
        if len(first.split()) != width:
            raise ValueError
        values = np.loadtxt(itertools.chain((first,), pulled), comments=None, ndmin=2)
    except FormatError:
        raise
    except ValueError:
        i, line = last
        k = len(line.split())
        fault = f"has {k} values, expected {width}" if k != width else "has a non-number"
        raise FormatError(f"{path}: {name(i)} {fault}") from None
    _require_finite(path, values, name)
    return values


def load_embedding(path: str | os.PathLike) -> EmbeddingModel:
    """Load a saved embedding (input vectors only; frequencies not stored).

    A repeated token or a nan or infinite value is a `FormatError`: the
    rows of a model map one-to-one to tokens, and distances must compare.
    """
    vocab: list[str] = []
    model = EmbeddingModel(vocab, _read_rows(path, read_artifact(path)[1], "row", vocab))
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
    """Mode line, then the offset vector or a dimension header plus matrix
    rows. A nan or infinite value is a `FormatError`, as `load_phi` makes it."""
    if phi.mode is PhiMode.OFFSET:
        _require_finite(path, phi.offset[None], lambda i: "the offset row")
    else:
        _require_finite(path, phi.matrix, lambda i: f"matrix row {i + 1} of {len(phi.matrix)}")
    with write_artifact(path, header) as fh:
        fh.write(phi.mode.value + "\n")
        if phi.mode is PhiMode.OFFSET:
            fh.write(" ".join(f"{v:.17g}" for v in phi.offset) + "\n")
        else:
            rows, cols = phi.matrix.shape
            fh.write(f"{rows} {cols}\n")
            for row in phi.matrix:
                fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_phi(path: str | os.PathLike) -> PhiTransform:
    _, lines = read_artifact(path)
    mode_line = next(lines, "")
    try:
        mode = PhiMode(mode_line.strip())
    except ValueError:
        raise FormatError(f"{path}: unknown projection mode {mode_line!r}") from None
    if mode is PhiMode.OFFSET:
        offset = _read_rows(path, lines, "the offset row", sized=False)
        return PhiTransform(PhiMode.OFFSET, offset=offset[0])
    return PhiTransform(PhiMode.MATRIX, matrix=_read_rows(path, lines, "matrix row"))
