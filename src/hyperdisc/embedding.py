"""CBOW embeddings with negative sampling, and the hypernymy projection.

Training predicts each center token from the mean of the input vectors of
up to ``window`` in-vocabulary context tokens on each side. The loss per
position is

    -log s(u_c . h) - sum_neg log s(-u_n . h)

with h the context mean, u the output vectors, and negatives drawn from
the unigram^(3/4) distribution (redrawn when they collide with the
center). The learning rate decays linearly to 10% of its initial value
over all positions of all epochs. Training is serial and exactly
reproducible for a fixed seed. Its only weight update is ``apply_step``;
``cbow_step_loss`` is the independent oracle for the same loss and
gradients.

The projection maps a hyponym vector toward its hypernym region: either a
single offset vector (the closed-form mean of y - x over training pairs)
or a ridge-regularized linear map fit by least squares. Candidates are the
vocabulary terms nearest to the projected query point in Euclidean
distance.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .corpus_io import (
    CandidateVocabulary,
    FormatError,
    format_header,
    iter_data_lines,
    term_to_token,
    token_to_term,
)
from .cooc import ScoredCandidate, Source, TOP_K

NOISE_POWER = 0.75
LR_FLOOR_FRACTION = 0.1


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
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class EmbeddingModel:
    vocab: list[str]
    input_vectors: np.ndarray
    output_vectors: np.ndarray | None = None
    frequencies: dict[str, int] = field(default_factory=dict)
    index: dict[str, int] = field(init=False, repr=False)

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
    targets: np.ndarray,
    lr: float,
) -> None:
    """One SGD step of learning rate ``lr`` on the weights in place.

    ``context`` holds the input rows of the context, ``targets`` the output
    rows ``[center, *negatives]``; repeated rows accumulate. The step is
    ``-lr`` times the gradients ``cbow_step_loss`` returns.
    """
    h = w_in[context].mean(axis=0)
    u = w_out[targets] @ h
    g = 1.0 / (1.0 + np.exp(-u))
    g[0] -= 1.0
    grad_h = g @ w_out[targets]
    np.add.at(w_out, targets, np.outer(g, (-lr) * h))
    np.add.at(w_in, context, (-lr / context.size) * grad_h)


def _encode_corpus(path, index) -> list[np.ndarray]:
    encoded = []
    for line in iter_data_lines(path):
        ids = [index[t] for t in line.split() if t in index]
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
    total: int,
) -> None:
    window = config.window
    n_neg = config.negatives
    lr0 = config.learning_rate
    lr_floor = LR_FLOOR_FRACTION * lr0
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
                    apply_step(w_in, w_out, ctx, np.concatenate(([center], negs)), lr)


def train_cbow(
    normalized_corpus_path: str | os.PathLike,
    config: EmbeddingConfig,
) -> EmbeddingModel:
    """Train CBOW vectors over a normalized corpus file.

    The vocabulary is every token with frequency >= ``min_count``, ordered
    by descending frequency then token. Raises if nothing survives the
    frequency filter.
    """
    freqs: Counter[str] = Counter()
    for line in iter_data_lines(normalized_corpus_path):
        freqs.update(line.split())
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
    encoded = _encode_corpus(normalized_corpus_path, index)

    rng = np.random.default_rng(config.seed)
    dim = config.dimension
    w_in = (rng.random((len(vocab), dim)) - 0.5) / dim
    w_out = np.zeros((len(vocab), dim))
    counts = np.array([freqs[t] for t in vocab], dtype=np.float64)
    noise_cdf = np.cumsum(counts**NOISE_POWER)
    noise_cdf /= noise_cdf[-1]

    total = config.epochs * sum(len(ids) for ids in encoded)
    if total > 0:
        _train(encoded, w_in, w_out, noise_cdf, config, rng, total)
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
    ridge: float = 0.0
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
    return PhiTransform(
        PhiMode.MATRIX, matrix=matrix_t.T, ridge=ridge, skipped_pairs=skipped
    )


def candidates_from_phi(
    phi: PhiTransform,
    model: EmbeddingModel,
    q: str,
    vocab: CandidateVocabulary | None,
    k: int = TOP_K,
) -> list[ScoredCandidate]:
    """Vocabulary terms nearest to the projected query vector.

    Euclidean distance to vec(q) + offset (or matrix @ vec(q)), the query
    itself excluded, ties lexicographic, scores 1/(1 + distance). A query
    missing from the embedding yields an empty list.
    """
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
            if row is not None and token != q_token:
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


# ---------------------------------------------------------------------------
# file formats


def save_embedding(
    path: str | os.PathLike,
    model: EmbeddingModel,
    header: dict[str, str] | None = None,
) -> None:
    """Text format: ``|vocab| dimension`` line, then ``token v1 ... vd`` rows."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(format_header(header))
        fh.write(f"{len(model.vocab)} {model.dimension}\n")
        for token, row in zip(model.vocab, model.input_vectors):
            fh.write(token + " " + " ".join(f"{v:.6f}" for v in row) + "\n")


def _bad_line(
    path: str | os.PathLike, what: str, line: str, width: int | None
) -> FormatError:
    """The error for a data line (newline kept) that is missing, cut short
    by truncation, or not ``width`` fields wide."""
    if not line.endswith("\n"):
        state = "cut short" if line else "missing"
        return FormatError(f"{path}: {what} is {state}; the file is truncated")
    return FormatError(f"{path}: {what} has {len(line.split())} fields, expected {width}")


def _fields(
    lines: Iterator[str], path: str | os.PathLike, what: str, width: int | None = None
) -> list[str]:
    """Fields of the next line of ``iter_data_lines(path, keep_newline=True)``."""
    line = next(lines, "")
    parts = line.split()
    if not line.endswith("\n") or (width is not None and len(parts) != width):
        raise _bad_line(path, what, line, width)
    return parts


def load_embedding(path: str | os.PathLike) -> EmbeddingModel:
    """Load a saved embedding (input vectors only; frequencies not stored)."""
    lines = iter_data_lines(path, keep_newline=True)
    n, dim = (int(part) for part in _fields(lines, path, "the size line", 2))
    vocab = []
    vectors = np.empty((n, dim))
    for i in range(n):
        line = next(lines, "")
        parts = line.split()
        if len(parts) != dim + 1 or not line.endswith("\n"):
            raise _bad_line(path, f"row {i + 1} of {n}", line, dim + 1)
        vocab.append(parts[0])
        vectors[i] = [float(v) for v in parts[1:]]
    return EmbeddingModel(vocab=vocab, input_vectors=vectors)


def save_phi(
    path: str | os.PathLike,
    phi: PhiTransform,
    header: dict[str, str] | None = None,
) -> None:
    """Mode line, then the offset vector or a dimension header plus matrix rows."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(format_header(header))
        fh.write(phi.mode.value + "\n")
        if phi.mode is PhiMode.OFFSET:
            fh.write(" ".join(f"{v:.17g}" for v in phi.offset) + "\n")
        else:
            rows, cols = phi.matrix.shape
            fh.write(f"{rows} {cols}\n")
            for row in phi.matrix:
                fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_phi(path: str | os.PathLike) -> PhiTransform:
    lines = iter_data_lines(path, keep_newline=True)
    mode_line = " ".join(_fields(lines, path, "the mode line"))
    try:
        mode = PhiMode(mode_line)
    except ValueError:
        raise FormatError(f"{path}: unknown projection mode {mode_line!r}") from None
    if mode is PhiMode.OFFSET:
        offset = np.array([float(v) for v in _fields(lines, path, "the offset row")])
        return PhiTransform(PhiMode.OFFSET, offset=offset)
    rows, cols = (int(part) for part in _fields(lines, path, "the size line", 2))
    matrix = np.empty((rows, cols))
    for i in range(rows):
        parts = _fields(lines, path, f"matrix row {i + 1} of {rows}", cols)
        matrix[i] = [float(v) for v in parts]
    return PhiTransform(PhiMode.MATRIX, matrix=matrix)
