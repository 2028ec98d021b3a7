"""Ranking metrics: MRR, MAP and P@{1,3,5,15}.

Predictions and gold terms are compared by exact string equality after
lowercasing and whitespace normalization; no lemmatization. Only the top
15 predictions ever count. P@k divides by k (so sparse gold caps the
attainable value); pass ``normalized=True`` to divide by min(k, |gold|)
instead. Average precision divides by min(|gold|, 15) so a perfect
15-slot prediction scores 1.0.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Sequence

from .corpus_io import MAX_PREDICTIONS, GoldSet, QueryKind, normalize_term, write_artifact

P_AT_KS = (1, 3, 5, 15)
METRIC_ROWS = ("MRR", "MAP", "P@1", "P@3", "P@5", "P@15")


def _hits(
    predicted: Sequence[str], gold: Iterable[str], depth: int = MAX_PREDICTIONS
) -> tuple[list[bool], int]:
    """Whether each of the first ``depth`` predictions is gold, and the
    number of distinct gold terms, each term normalized once."""
    gold_set = set(map(normalize_term, gold))
    return [normalize_term(t) in gold_set for t in predicted[:depth]], len(gold_set)


def _reciprocal_rank(hits: list[bool]) -> float:
    return 1.0 / (hits.index(True) + 1) if True in hits else 0.0


def _average_precision(hits: list[bool], n_gold: int) -> float:
    found = 0
    total = 0.0
    for rank, hit in enumerate(hits, start=1):
        if hit:
            found += 1
            total += found / rank
    return total / min(n_gold, MAX_PREDICTIONS)


def _precision(hits: list[bool], k: int, n_gold: int, normalized: bool) -> float:
    denom = min(k, n_gold) if normalized else k
    if denom == 0:
        raise ValueError("empty gold set")
    return sum(hits[:k]) / denom


def reciprocal_rank(predicted: Sequence[str], gold: Iterable[str]) -> float:
    """1/rank of the first predicted term in gold, 0.0 when none hits.

    >>> reciprocal_rank(["a", "b", "c"], {"b"})
    0.5
    """
    hits, n_gold = _hits(predicted, gold)
    if not n_gold:
        raise ValueError("empty gold set")
    return _reciprocal_rank(hits)


def average_precision(predicted: Sequence[str], gold: Iterable[str]) -> float:
    """Mean of precision at each hit position, over min(|gold|, 15).

    >>> round(average_precision(["x", "a", "y"], {"x", "y"}), 4)
    0.8333
    """
    hits, n_gold = _hits(predicted, gold)
    if not n_gold:
        raise ValueError("empty gold set")
    return _average_precision(hits, n_gold)


def precision_at_k(
    predicted: Sequence[str], gold: Iterable[str], k: int, normalized: bool = False
) -> float:
    """Fraction of the first k predictions that are gold.

    >>> precision_at_k(["x", "a", "b"], {"x"}, 3)
    0.3333333333333333
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    hits, n_gold = _hits(predicted, gold, k)
    return _precision(hits, k, n_gold, normalized)


@dataclass(frozen=True)
class MetricsReport:
    mrr: float
    map: float
    p_at: dict[int, float]
    n_queries: int
    kind_filter: QueryKind | None = None

    @property
    def label(self) -> str:
        return self.kind_filter.value.lower() if self.kind_filter else "all"

    def rows(self) -> list[tuple[str, float]]:
        rows = [("MRR", self.mrr), ("MAP", self.map)]
        rows.extend((f"P@{k}", self.p_at[k]) for k in P_AT_KS)
        return rows


def evaluate(
    predictions: Sequence[Sequence[str]],
    gold_sets: Sequence[GoldSet],
    kind_filter: QueryKind | None = None,
    normalized_p: bool = False,
) -> MetricsReport:
    """Unweighted per-query means over the queries passing the kind filter.

    ``predictions[i]`` is scored against ``gold_sets[i]``; a length mismatch
    is a hard error, as is an empty gold list for a scored query. Each
    query's gold terms and top 15 predictions are normalized once, and
    every metric is taken from those.
    """
    if len(predictions) != len(gold_sets):
        raise ValueError(
            f"{len(predictions)} prediction rows for {len(gold_sets)} gold sets"
        )
    rr_total = 0.0
    ap_total = 0.0
    p_totals = {k: 0.0 for k in P_AT_KS}
    n = 0
    for predicted, gold_set in zip(predictions, gold_sets):
        if kind_filter is not None and gold_set.query.kind is not kind_filter:
            continue
        n += 1
        hits, n_gold = _hits(predicted, gold_set.hypernyms)
        if not n_gold:
            raise ValueError("empty gold set")
        rr_total += _reciprocal_rank(hits)
        ap_total += _average_precision(hits, n_gold)
        for k in P_AT_KS:
            p_totals[k] += _precision(hits, k, n_gold, normalized_p)
    if n == 0:
        return MetricsReport(0.0, 0.0, {k: 0.0 for k in P_AT_KS}, 0, kind_filter)
    return MetricsReport(
        rr_total / n,
        ap_total / n,
        {k: p_totals[k] / n for k in P_AT_KS},
        n,
        kind_filter,
    )


def format_table(reports: Sequence[MetricsReport]) -> str:
    """Aligned metric table, one column per report."""
    labels = [r.label for r in reports]
    width = max(6, *(len(lab) for lab in labels)) if reports else 6
    lines = ["metric  " + "  ".join(f"{lab:>{width}}" for lab in labels)]
    for row_index, name in enumerate(METRIC_ROWS):
        values = [r.rows()[row_index][1] for r in reports]
        lines.append(
            f"{name:<6}  " + "  ".join(f"{v:>{width}.3f}" for v in values)
        )
    lines.append(
        "n       " + "  ".join(f"{r.n_queries:>{width}d}" for r in reports)
    )
    return "\n".join(lines)


def write_report(
    path: str | os.PathLike,
    reports: Sequence[MetricsReport],
    header: dict[str, str] | None = None,
) -> None:
    """Machine-readable report: ``metric<TAB>value`` lines, 3-decimal values.

    Sections for filtered reports are prefixed with the filter label, e.g.
    ``concept:mrr``.
    """
    with write_artifact(path, header) as fh:
        for report in reports:
            prefix = "" if report.kind_filter is None else f"{report.label}:"
            fh.write(f"{prefix}n_queries\t{report.n_queries}\n")
            for name, value in report.rows():
                fh.write(f"{prefix}{name.lower()}\t{value:.3f}\n")
