import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperdisc.cooc import ScoredCandidate, Source
from hyperdisc.corpus_io import GoldSet, Query, QueryKind
from hyperdisc.metrics import evaluate
from hyperdisc.rank import (
    DEFAULT_ORDER,
    ModuleOrder,
    choose_order,
    merge,
    module_reports,
)

QUERY = Query("lemongrass", QueryKind.CONCEPT)


def cands(source, *terms, start_score=10.0):
    return [
        ScoredCandidate(term, start_score - i, source) for i, term in enumerate(terms)
    ]


def test_default_order_matches_module_priorities():
    assert DEFAULT_ORDER == (Source.ISA, Source.COOC, Source.HEARST, Source.PHI)


def test_merge_dedup_keeps_first():
    merged = merge(
        QUERY,
        {
            Source.ISA: cands(Source.ISA, "plant"),
            Source.COOC: cands(Source.COOC, "plant", "herb"),
        },
    )
    assert merged.terms() == ["plant", "herb"]
    assert merged.candidates[0].source is Source.ISA


def test_merge_all_empty():
    assert merge(QUERY, {}).terms() == []


def test_merge_truncates_before_later_sources():
    sixteen = [f"c{i:02d}" for i in range(16)]
    merged = merge(
        QUERY,
        {
            Source.ISA: cands(Source.ISA, *sixteen, start_score=99.0),
            Source.COOC: cands(Source.COOC, "never"),
        },
    )
    assert merged.terms() == sixteen[:15]


def test_merge_drops_query_term():
    merged = merge(
        QUERY,
        {Source.ISA: cands(Source.ISA, "lemongrass", "herb")},
    )
    assert merged.terms() == ["herb"]


def test_merge_compares_candidate_terms_as_given():
    # candidate terms are vocabulary terms, already in normal form: only the
    # query term is normalized, and two spellings of a candidate are two terms
    merged = merge(
        Query(" LemonGrass ", QueryKind.CONCEPT),
        {
            Source.ISA: cands(Source.ISA, "lemongrass", "herb"),
            Source.COOC: cands(Source.COOC, "herb", "Herb", "plant"),
        },
    )
    assert merged.terms() == ["herb", "Herb", "plant"]
    assert [c.source for c in merged.candidates] == [Source.ISA, Source.COOC, Source.COOC]


def test_merge_respects_custom_order():
    order = ModuleOrder((Source.PHI, Source.ISA, Source.COOC, Source.HEARST))
    merged = merge(
        QUERY,
        {
            Source.ISA: cands(Source.ISA, "plant"),
            Source.PHI: cands(Source.PHI, "herb"),
        },
        order,
    )
    assert merged.terms() == ["herb", "plant"]


def test_module_order_must_be_permutation():
    with pytest.raises(ValueError):
        ModuleOrder((Source.ISA, Source.ISA, Source.COOC, Source.PHI))
    with pytest.raises(ValueError):
        ModuleOrder((Source.ISA,))


source_lists = st.fixed_dictionaries(
    {
        src: st.lists(
            st.sampled_from([f"t{i}" for i in range(8)]), unique=True, max_size=6
        )
        for src in Source
    }
)


@given(source_lists, st.integers(min_value=1, max_value=15))
def test_merge_properties(lists, k):
    per_source = {
        src: cands(src, *terms) for src, terms in lists.items()
    }
    merged = merge(Query("t0", QueryKind.CONCEPT), per_source, k=k)
    terms = merged.terms()
    assert len(terms) <= k
    assert len(terms) == len(set(terms))
    assert "t0" not in terms
    # stability: within one source the relative order is preserved
    for src, original in lists.items():
        emitted = [c.term for c in merged.candidates if c.source is src]
        filtered = [t for t in original if t in emitted]
        assert emitted == filtered


def test_disjoint_lists_concatenate_exactly():
    per_source = {
        Source.ISA: cands(Source.ISA, "a", "b"),
        Source.COOC: cands(Source.COOC, "c"),
        Source.HEARST: cands(Source.HEARST, "d"),
        Source.PHI: cands(Source.PHI, "e"),
    }
    merged = merge(Query("q", QueryKind.CONCEPT), per_source)
    assert merged.terms() == ["a", "b", "c", "d", "e"]


GOLD = [GoldSet(Query("q", QueryKind.CONCEPT), ("gold",))]


def make_training_data(rr_by_source):
    """One query; each source predicts the gold term at a chosen rank."""
    lists = [{
        source: cands(source, *(f"junk{i}" for i in range(rank - 1)), "gold")
        for source, rank in rr_by_source.items()
    }]
    return lists, GOLD


def test_module_reports_equal_per_module_evaluate():
    gold = [
        GoldSet(Query("basil", QueryKind.CONCEPT), ("herb", "plant")),
        GoldSet(Query("paris", QueryKind.ENTITY), ("city",)),
    ]
    lists = [
        {Source.ISA: cands(Source.ISA, "herb"), Source.COOC: cands(Source.COOC, "x", "plant")},
        {Source.ISA: cands(Source.ISA, "town"), Source.PHI: cands(Source.PHI, "city", "herb")},
    ]
    reports = module_reports(lists, gold)
    assert tuple(reports) == tuple(Source)
    expected = {
        Source.ISA: [["herb"], ["town"]],
        Source.COOC: [["x", "plant"], []],
        Source.HEARST: [[], []],
        Source.PHI: [[], ["city", "herb"]],
    }
    for source, rows in expected.items():
        assert reports[source] == evaluate(rows, gold), source
    assert reports[Source.COOC].mrr == 0.25 and reports[Source.PHI].mrr == 0.5


def test_module_reports_misaligned_lists_is_error():
    with pytest.raises(ValueError, match="2 prediction rows for 1 gold sets"):
        module_reports([{}, {}], GOLD)


def test_module_reports_empty_gold_is_error():
    with pytest.raises(ValueError, match="empty gold"):
        module_reports([], [])


def test_choose_order_sorts_by_mrr():
    # standalone quality: IsA best, then Cooc, then Phi, then Hearst
    lists, gold = make_training_data(
        {Source.ISA: 1, Source.COOC: 2, Source.PHI: 5, Source.HEARST: 10}
    )
    order = choose_order(module_reports(lists, gold))
    assert order.order == (Source.ISA, Source.COOC, Source.PHI, Source.HEARST)


def test_choose_order_all_zero_falls_back_to_enum_order():
    lists = [{src: cands(src, "junk") for src in Source}]
    order = choose_order(module_reports(lists, GOLD))
    assert order.order == tuple(Source)


def test_choose_order_tie_break_is_enum_order():
    lists, gold = make_training_data(
        {Source.ISA: 2, Source.HEARST: 2, Source.COOC: 1, Source.PHI: 1}
    )
    order = choose_order(module_reports(lists, gold))
    assert order.order == (Source.COOC, Source.PHI, Source.HEARST, Source.ISA)


def test_choose_order_empty_gold_is_error():
    with pytest.raises(ValueError):
        choose_order(module_reports([], []))


def test_choose_order_misaligned_predictions_is_error():
    lists = [{Source.ISA: cands(Source.ISA, "a")}, {Source.ISA: cands(Source.ISA, "b")}]
    with pytest.raises(ValueError):
        choose_order(module_reports(lists, GOLD))
