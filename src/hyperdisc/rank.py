"""Merge per-module candidate lists into the final top-15 per query.

Lists are concatenated in module order (block concatenation, no score
fusion), deduplicated first-occurrence-wins by term as given (the modules
name vocabulary terms, in normal form), the query term itself is dropped,
and the result is truncated to k. The default order puts IS-A
evidence first and embedding-projection evidence last. The trained order
instead scores each module alone on training data with `module_reports`
(one `metrics.evaluate` report per module) and `choose_order` sorts the
modules by those reports' MRR; that order is applied to the test data.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .cooc import ScoredCandidate, Source
from .corpus_io import MAX_PREDICTIONS, GoldSet, Query, checked, normalize_term
from .metrics import MetricsReport, evaluate

DEFAULT_ORDER = (Source.ISA, Source.COOC, Source.HEARST, Source.PHI)


@checked
class ModuleOrder(NamedTuple):
    """The order of the module lists; each source exactly once, checked
    at construction."""

    order: tuple[Source, ...] = DEFAULT_ORDER

    def _check(self) -> None:
        if sorted(self.order, key=lambda s: s.value) != sorted(
            Source, key=lambda s: s.value
        ):
            raise ValueError(f"order must list each source exactly once: {self.order}")


class RankedPrediction(NamedTuple):
    query: Query
    candidates: tuple[ScoredCandidate, ...]

    def terms(self) -> list[str]:
        return [c.term for c in self.candidates]


def merge(
    query: Query,
    per_source: Mapping[Source, Sequence[ScoredCandidate]],
    order: ModuleOrder | None = None,
    k: int = MAX_PREDICTIONS,
) -> RankedPrediction:
    """Concatenate source lists in order; first occurrence of a term wins,
    and the query term (`normalize_term` of it) is dropped. At most ``k``
    candidates are kept, none for ``k <= 0``.

    Candidate terms must be in normal form, as the terms of every module
    are: each admits only terms of the vocabulary, which `load_vocabulary`
    normalizes. They are compared as given, so ``Plant`` and ``plant``
    would be two terms.

    >>> from hyperdisc.corpus_io import QueryKind
    >>> q = Query("lemongrass", QueryKind.CONCEPT)
    >>> merge(q, {Source.ISA: [ScoredCandidate("herb", 2.0, Source.ISA)],
    ...           Source.COOC: [ScoredCandidate("lemongrass", 9.0, Source.COOC),
    ...                         ScoredCandidate("herb", 7.0, Source.COOC),
    ...                         ScoredCandidate("plant", 5.0, Source.COOC)]}).terms()
    ['herb', 'plant']
    """
    if k <= 0:
        return RankedPrediction(query, ())
    order = order or ModuleOrder()
    seen = {normalize_term(query.term)}
    out: list[ScoredCandidate] = []
    for source in order.order:
        for candidate in per_source.get(source, ()):
            term = candidate.term
            if term in seen:
                continue
            seen.add(term)
            out.append(candidate)
            if len(out) == k:
                return RankedPrediction(query, tuple(out))
    return RankedPrediction(query, tuple(out))


def module_reports(
    lists: Sequence[Mapping[Source, Sequence[ScoredCandidate]]],
    gold_sets: Sequence[GoldSet],
) -> dict[Source, MetricsReport]:
    """Each module's standalone `evaluate` report, in `Source` order:
    ``lists[i]`` holds the per-module candidates for ``gold_sets[i]``. Empty
    or misaligned gold is a `ValueError`."""
    if not gold_sets:
        raise ValueError("cannot score modules on empty gold")
    return {
        source: evaluate([[c.term for c in per.get(source, ())] for per in lists], gold_sets)
        for source in Source
    }


def choose_order(reports: Mapping[Source, MetricsReport]) -> ModuleOrder:
    """Order modules by the MRR of their `module_reports`, best first; ties
    keep `Source` order, so the order is a deterministic function of the
    MRR values."""
    return ModuleOrder(tuple(sorted(Source, key=lambda s: -reports[s].mrr)))
