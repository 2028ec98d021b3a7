import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperdisc.corpus_io import GoldSet, Query, QueryKind
from hyperdisc.metrics import (
    P_AT_KS,
    average_precision,
    evaluate,
    format_table,
    precision_at_k,
    reciprocal_rank,
    write_report,
)


def oracle_rr(predicted, gold):
    for i in range(min(len(predicted), 15)):
        if predicted[i] in gold:
            return 1.0 / (i + 1)
    return 0.0


def oracle_ap(predicted, gold):
    hits = 0
    total = 0.0
    for i in range(min(len(predicted), 15)):
        if predicted[i] in gold:
            hits += 1
            total += hits / (i + 1)
    return total / min(len(gold), 15)


def oracle_p_at_k(predicted, gold, k):
    return sum(1 for t in predicted[:k] if t in gold) / k


class TestReciprocalRank:
    def test_rank_two(self):
        assert reciprocal_rank(["a", "b", "c"], {"b"}) == 0.5

    def test_rank_one(self):
        assert reciprocal_rank(["x"], {"x"}) == 1.0

    def test_no_hit(self):
        assert reciprocal_rank(["a", "b"], {"z"}) == 0.0

    def test_empty_gold_is_error(self):
        with pytest.raises(ValueError):
            reciprocal_rank(["a"], set())

    def test_positive_iff_hit_in_top_15(self):
        predicted = [f"t{i}" for i in range(20)]
        assert reciprocal_rank(predicted, {"t14"}) > 0
        assert reciprocal_rank(predicted, {"t15"}) == 0.0


class TestAveragePrecision:
    def test_hand_computed(self):
        assert average_precision(["x", "a", "y"], {"x", "y"}) == pytest.approx(
            (1 / 2) * (1 / 1 + 2 / 3)
        )

    def test_perfect_ordering(self):
        assert average_precision(["g1", "g2"], {"g1", "g2"}) == 1.0

    def test_no_hits(self):
        assert average_precision(["a", "b"], {"z"}) == 0.0

    def test_one_iff_prefix_is_all_gold(self):
        assert average_precision(["g1", "g2", "junk"], {"g1", "g2"}) == 1.0
        assert average_precision(["g1", "junk", "g2"], {"g1", "g2"}) < 1.0


class TestPrecisionAtK:
    def test_hit_at_one(self):
        assert precision_at_k(["x", "a", "b"], {"x"}, 1) == 1.0

    def test_divides_by_k(self):
        assert precision_at_k(["x", "a", "b"], {"x"}, 3) == pytest.approx(1 / 3)

    def test_empty_prediction(self):
        assert precision_at_k([], {"z"}, 5) == 0.0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            precision_at_k(["a"], {"a"}, 0)

    def test_normalized_variant(self):
        assert precision_at_k(["x", "a", "b"], {"x"}, 3, normalized=True) == 1.0


# reciprocal_rank's case is TestReciprocalRank.test_empty_gold_is_error
@pytest.mark.parametrize("metric", [
    lambda gold: average_precision(["a"], gold),
    lambda gold: precision_at_k(["a"], gold, 3),
    lambda gold: precision_at_k(["a"], gold, 3, normalized=True),
    lambda gold: evaluate([["a"]], [GoldSet(Query("q", QueryKind.CONCEPT), tuple(gold))]),
], ids=["ap", "p_at_k", "normalized_p_at_k", "evaluate"])
def test_every_metric_rejects_empty_gold(metric):
    with pytest.raises(ValueError, match="empty gold set"):
        metric(set())


def test_comparison_is_case_and_space_insensitive():
    assert reciprocal_rank(["Oil  Plant"], {"oil plant"}) == 1.0


def random_instance(rng):
    universe = [f"t{i}" for i in range(30)]
    n_pred = int(rng.integers(0, 16))
    predicted = list(rng.choice(universe, size=n_pred, replace=False))
    n_gold = int(rng.integers(1, 8))
    gold = set(rng.choice(universe, size=n_gold, replace=False))
    return predicted, gold


def test_oracle_equivalence_small():
    rng = np.random.default_rng(1234)
    for _ in range(300):
        predicted, gold = random_instance(rng)
        assert reciprocal_rank(predicted, gold) == pytest.approx(
            oracle_rr(predicted, gold), abs=1e-12
        )
        assert average_precision(predicted, gold) == pytest.approx(
            oracle_ap(predicted, gold), abs=1e-12
        )
        for k in P_AT_KS:
            assert precision_at_k(predicted, gold, k) == pytest.approx(
                oracle_p_at_k(predicted, gold, k), abs=1e-12
            )


@given(
    st.lists(st.sampled_from("abcdefgh"), max_size=15, unique=True),
    st.sets(st.sampled_from("abcdefgh"), min_size=1),
)
def test_rr_positive_iff_intersection(predicted, gold):
    rr = reciprocal_rank(predicted, gold)
    assert (rr > 0) == bool(set(predicted) & gold)


def gold_set(term, kind, hypernyms):
    return GoldSet(Query(term, kind), tuple(hypernyms))


def test_evaluate_single_perfect_query():
    gold_sets = [gold_set("q", QueryKind.CONCEPT, ["g"])]
    report = evaluate([["g"]], gold_sets)
    assert report.mrr == 1.0
    assert report.map == 1.0
    assert report.p_at[1] == 1.0
    assert report.p_at[3] == pytest.approx(1 / 3)
    assert report.p_at[5] == pytest.approx(1 / 5)
    assert report.p_at[15] == pytest.approx(1 / 15)
    assert report.n_queries == 1


def test_evaluate_mean_of_queries():
    gold_sets = [
        gold_set("a", QueryKind.CONCEPT, ["x"]),
        gold_set("b", QueryKind.CONCEPT, ["y"]),
    ]
    report = evaluate([["x"], ["nope"]], gold_sets)
    assert report.mrr == 0.5


def test_evaluate_kind_filter():
    gold_sets = [
        gold_set("a", QueryKind.CONCEPT, ["x"]),
        gold_set("b", QueryKind.ENTITY, ["y"]),
    ]
    report = evaluate([["x"], ["y"]], gold_sets, kind_filter=QueryKind.ENTITY)
    assert report.n_queries == 1
    assert report.kind_filter is QueryKind.ENTITY


def test_evaluate_misalignment_is_error():
    with pytest.raises(ValueError):
        evaluate([["x"]], [])


def test_table_and_report_file(tmp_path):
    gold_sets = [gold_set("a", QueryKind.CONCEPT, ["x"])]
    reports = [
        evaluate([["x"]], gold_sets),
        evaluate([["x"]], gold_sets, QueryKind.CONCEPT),
        evaluate([["x"]], gold_sets, QueryKind.ENTITY),
    ]
    table = format_table(reports)
    for row in ("MRR", "MAP", "P@1", "P@3", "P@5", "P@15"):
        assert row in table
    assert "concept" in table and "entity" in table
    out = tmp_path / "metrics.tsv"
    write_report(out, reports, header={"config-hash": "beef"})
    lines = out.read_text().splitlines()
    assert lines[0] == "#config-hash beef"
    assert "mrr\t1.000" in lines
    assert "concept:p@15\t0.067" in lines
    assert "entity:n_queries\t0" in lines
