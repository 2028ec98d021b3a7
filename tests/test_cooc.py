import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdisc.cooc import (
    CoocIndex,
    PairIndex,
    ScoredCandidate,
    Source,
    build_cooc_index,
    build_pair_index,
    candidates_from_cooc,
    candidates_from_pairs,
    head_word_heuristic,
    load_cooc_index,
    merge_cooc_indexes,
    save_cooc_index,
)
from hyperdisc import synthetic
from hyperdisc.corpus_io import (
    FormatError,
    Query,
    QueryKind,
    load_queries,
    read_artifact,
    term_to_token,
    token_to_term,
)
from hyperdisc.normalize import normalize_corpus
from hyperdisc.patterns import extract_corpus


def brute_force_cooc(lines: list[list[str]], queries: set[str]) -> dict:
    """Independent counter: per line, if q occurs anywhere, every token
    instance other than q itself adds one."""
    counts = {q: {} for q in queries}
    for tokens in lines:
        for q in queries:
            if q not in tokens:
                continue
            for token in tokens:
                if token != q:
                    counts[q][token] = counts[q].get(token, 0) + 1
    return counts


def write_lines(path, lines):
    path.write_text("".join(" ".join(tokens) + "\n" for tokens in lines))


def test_cooc_example(tmp_path):
    path = tmp_path / "n.txt"
    write_lines(path, [["cat", "animal", "pet"], ["cat", "animal"]])
    index = build_cooc_index(path, ["cat"])
    assert index.counts == {"cat": {"animal": 2, "pet": 1}}


def test_query_absent_registers_empty_row(tmp_path):
    path = tmp_path / "n.txt"
    write_lines(path, [["dog", "bone"]])
    index = build_cooc_index(path, ["cat"])
    assert index.counts == {"cat": {}}


def test_self_pairs_excluded_and_multiplicity(tmp_path):
    path = tmp_path / "n.txt"
    write_lines(path, [["cat", "cat", "dog"]])
    index = build_cooc_index(path, ["cat"])
    assert index.counts["cat"] == {"dog": 1}
    write_lines(path, [["cat", "dog", "dog"]])
    index = build_cooc_index(path, ["cat"])
    assert index.counts["cat"] == {"dog": 2}


token_lists = st.lists(
    st.sampled_from(["cat", "dog", "pet", "animal", "tree", "rock"]),
    min_size=1,
    max_size=8,
)


@settings(deadline=None)
@given(st.lists(token_lists, max_size=30), st.sets(st.sampled_from(["cat", "dog", "tree"])))
def test_matches_brute_force(tmp_path_factory, lines, queries):
    path = tmp_path_factory.mktemp("cooc") / "n.txt"
    write_lines(path, lines)
    index = build_cooc_index(path, queries)
    assert index.counts == brute_force_cooc(lines, queries)


def test_order_independence(tmp_path):
    rng = np.random.default_rng(0)
    vocab = [f"w{i}" for i in range(12)]
    lines = [
        list(rng.choice(vocab, size=rng.integers(2, 7))) for _ in range(100)
    ]
    path_a = tmp_path / "a.txt"
    path_b = tmp_path / "b.txt"
    write_lines(path_a, lines)
    write_lines(path_b, [lines[i] for i in rng.permutation(len(lines))])
    queries = {"w0", "w3", "w7"}
    assert build_cooc_index(path_a, queries).counts == build_cooc_index(path_b, queries).counts


def test_shard_merge_homomorphism(tmp_path):
    rng = np.random.default_rng(1)
    vocab = [f"w{i}" for i in range(10)]
    lines = [list(rng.choice(vocab, size=5)) for _ in range(90)]
    queries = {"w0", "w1"}
    whole = tmp_path / "whole.txt"
    write_lines(whole, lines)
    parts = []
    for shard_id in range(3):
        shard_path = tmp_path / f"s{shard_id}.txt"
        write_lines(shard_path, lines[shard_id * 30 : (shard_id + 1) * 30])
        parts.append(build_cooc_index(shard_path, queries))
    merged = merge_cooc_indexes(parts)
    assert merged.counts == build_cooc_index(whole, queries).counts


def test_parallel_build_equals_serial(tmp_path):
    # workers spread the normalization that feeds the index; the index built
    # from a parallel normalization must equal the serial one
    data = synthetic.generate(
        tmp_path, n_hypernyms=3, n_hyponyms=4, seed=2, noise_lines=600
    )
    queries = {term_to_token(q.term) for q in load_queries(data.queries)}
    indexes = []
    for workers in (1, 3):
        normalized = tmp_path / f"normalized_{workers}.txt"
        normalize_corpus(data.corpus, normalized, workers=workers)
        indexes.append(build_cooc_index(normalized, queries))
    assert indexes[0].counts  # the queries do co-occur with something
    assert indexes[0].counts == indexes[1].counts


def every_term(row):
    """The vocabulary that admits every candidate of ``row``."""
    return frozenset(map(token_to_term, row))


class TestCandidatesFromCooc:
    def index(self, row):
        return CoocIndex({"q": row})

    def test_strictly_above_threshold(self):
        row = {"a": 6, "b": 5, "c": 7}
        got = candidates_from_cooc(self.index(row), "q", every_term(row))
        assert [(c.term, c.score) for c in got] == [("c", 7.0), ("a", 6.0)]
        assert all(c.source is Source.COOC for c in got)

    def test_all_at_or_below_threshold(self):
        row = {"a": 5, "b": 1}
        assert candidates_from_cooc(self.index(row), "q", every_term(row)) == []

    def test_lexicographic_tie_break(self):
        row = {"y": 6, "x": 6}
        got = candidates_from_cooc(self.index(row), "q", every_term(row))
        assert [c.term for c in got] == ["x", "y"]

    def test_unknown_query(self):
        assert candidates_from_cooc(self.index({"a": 9}), "missing", frozenset({"a"})) == []

    @pytest.mark.parametrize("k", [0, -1])
    def test_no_candidate_for_k_below_one(self, k):
        row = {"a": 9, "b": 8, "c": 7}
        assert candidates_from_cooc(self.index(row), "q", every_term(row), k=k) == []

    def test_vocab_filter_uses_external_form(self):
        vocab = frozenset({"oil plant"})
        got = candidates_from_cooc(
            self.index({"oil_plant": 9, "weed": 8}), "q", vocab
        )
        assert [c.term for c in got] == ["oil plant"]

    def test_truncates_to_k(self):
        row = {f"t{i:02d}": 10 + i for i in range(30)}
        got = candidates_from_cooc(self.index(row), "q", every_term(row))
        assert len(got) == 15
        scores = [c.score for c in got]
        assert scores == sorted(scores, reverse=True)
        assert len({c.term for c in got}) == 15


counts_rows = st.dictionaries(
    st.sampled_from([f"c{i}" for i in range(40)]),
    st.integers(min_value=1, max_value=20),
    max_size=30,
)


@given(counts_rows, st.integers(min_value=0, max_value=8))
def test_ranked_list_properties(row, threshold):
    vocab = frozenset(f"c{i}" for i in range(0, 40, 2))
    got = candidates_from_cooc(CoocIndex({"q": row}), "q", vocab, threshold)
    assert len(got) <= 15
    scores = [c.score for c in got]
    assert scores == sorted(scores, reverse=True)
    terms = [c.term for c in got]
    assert len(terms) == len(set(terms))
    assert all(t in vocab for t in terms)
    assert all(row[t] > threshold for t in terms)
    got_pairs = candidates_from_pairs(PairIndex({"q": row}, Source.ISA), "q", vocab)
    assert len(got_pairs) <= 15
    assert all(c.term in vocab for c in got_pairs)


def test_pair_index_hearst_counts(tmp_path):
    path = tmp_path / "h.tsv"
    path.write_text("apple\tpear\tfruit\napple\tpear\tfruit\n")
    index = build_pair_index(path, Source.HEARST)
    assert index.counts == {"apple": {"fruit": 2}, "pear": {"fruit": 2}}


def test_pair_index_empty(tmp_path):
    path = tmp_path / "h.tsv"
    path.write_text("")
    assert build_pair_index(path, Source.HEARST).counts == {}


def test_pair_index_isa(tmp_path):
    path = tmp_path / "i.tsv"
    path.write_text("fennel\tplant\n")
    index = build_pair_index(path, Source.ISA)
    assert index.counts == {"fennel": {"plant": 1}}
    assert index.kind is Source.ISA


def test_pair_index_rejects_malformed_lines(tmp_path):
    path = tmp_path / "h.tsv"
    for bad in ["no-tab-line", "\ttrailing", "x\t", "a\t\tb", "a\tb\t", ""]:
        path.write_text(f"#config-hash cafe\na\t1,2-b\tgood\n{bad}\n")
        for kind in (Source.HEARST, Source.ISA):
            with pytest.raises(FormatError) as info:
                build_pair_index(path, kind)
            assert str(info.value) == (
                f"{path}: line 3 is not hyponym<TAB>...<TAB>hypernym: {bad!r}"
            )


def test_pair_index_error_names_the_line_by_the_one_rule(tmp_path):
    """A lone CR stays inside its line, so the bad row is named at the line
    it is on, counted at LF."""
    path = tmp_path / "h.tsv"
    path.write_bytes(b"#config-hash x\na\tb\rc\td\ncd\n")
    with pytest.raises(FormatError) as info:
        build_pair_index(path, Source.HEARST)
    assert str(info.value) == f"{path}: line 3 is not hyponym<TAB>...<TAB>hypernym: 'cd'"


def test_pair_index_rejects_other_kinds(tmp_path):
    path = tmp_path / "h.tsv"
    path.write_text("")
    with pytest.raises(ValueError):
        build_pair_index(path, Source.COOC)


class TestCandidatesFromPairs:
    def test_tie_and_truncate(self):
        index = PairIndex({"q": {"plant": 3, "herb": 3, "weed": 1}}, Source.ISA)
        got = candidates_from_pairs(index, "q", every_term(index.counts["q"]), k=2)
        assert [c.term for c in got] == ["herb", "plant"]
        assert all(c.source is Source.ISA for c in got)

    def test_unknown_query(self):
        index = PairIndex({"p": {"plant": 1}}, Source.ISA)
        assert candidates_from_pairs(index, "q", frozenset({"plant"})) == []

    @pytest.mark.parametrize("k", [0, -1])
    def test_no_candidate_for_k_below_one(self, k):
        index = PairIndex({"q": {"plant": 3, "herb": 2, "weed": 1}}, Source.ISA)
        assert candidates_from_pairs(index, "q", every_term(index.counts["q"]), k=k) == []

    def test_single_pair_listed(self):
        index = PairIndex({"q": {"plant": 1}}, Source.ISA)
        got = candidates_from_pairs(index, "q", frozenset({"plant"}))
        assert [(c.term, c.score) for c in got] == [("plant", 1.0)]


def test_head_word_for_multiword_concept():
    got = head_word_heuristic(Query("oil plant", QueryKind.CONCEPT))
    assert got == ScoredCandidate("plant", 0.5, Source.ISA)


def test_head_word_skips_unigram_concept():
    assert head_word_heuristic(Query("lemongrass", QueryKind.CONCEPT)) is None


def test_head_word_skips_entities():
    assert head_word_heuristic(Query("new york times", QueryKind.ENTITY)) is None


def test_snapshot_round_trip(tmp_path):
    index = CoocIndex({"b": {"x": 2, "a": 1}, "a": {"z": 7}, "empty": {}})
    path = tmp_path / "idx.tsv"
    save_cooc_index(path, index, header={"config-hash": "cafe"})
    text = path.read_text()
    assert text.startswith("#cooc-index v1\n#config-hash cafe\n")
    body = [line for line in text.splitlines() if not line.startswith("#")]
    assert body == sorted(body)
    loaded = load_cooc_index(path)
    assert loaded.counts == {"a": {"z": 7}, "b": {"x": 2, "a": 1}}
    assert read_artifact(path)[0]["config-hash"] == "cafe"


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "idx.tsv"
    path.write_text("#something v2\na\tb\t1\n")
    with pytest.raises(ValueError, match="cooc-index"):
        load_cooc_index(path)


@pytest.mark.parametrize(
    "row, problem",
    [
        ("a\tb\t1", "last row cut short at line 4; the file is truncated"),
        ("a\tb\t", "last row cut short at line 4; the file is truncated"),
        ("a\tb\n", "line 4 is not term<TAB>candidate<TAB>count"),
        ("a\tb\t1\t2\n", "line 4 is not term<TAB>candidate<TAB>count"),
        ("a\tb\tmany\n", "line 4 is not term<TAB>candidate<TAB>count"),
        ("a\tb\t-3\n", "line 4 is not term<TAB>candidate<TAB>count"),
        ("a\tb\t0\n", "line 4 has count 0; counts are at least 1"),
        ("a\tb\t1_000\n", "line 4 is not term<TAB>candidate<TAB>count"),
        ("a\tb\t+2\n", "line 4 is not term<TAB>candidate<TAB>count"),
    ],
    ids=["cut-in-count", "cut-before-count", "two-fields", "four-fields", "non-integer",
         "negative", "zero", "underscore", "plus-sign"],
)
def test_load_rejects_malformed_row(tmp_path, row, problem):
    path = tmp_path / "idx.tsv"
    path.write_text("#cooc-index v1\n#config-hash cafe\nq\tc\t12\n" + row)
    with pytest.raises(FormatError) as info:
        load_cooc_index(path)
    assert str(info.value).startswith(f"{path}: {problem}")


def test_hash_sign_line_after_stamp_is_data(tmp_path):
    src = tmp_path / "c.txt"
    src.write_text("the_DT ._.\n#hashtag_NN is_VBZ a_DT topic_NN\n")
    header = {"config-hash": "cafe"}
    normalize_corpus(src, tmp_path / "n.txt", header=header)
    extract_corpus(src, isa_out=tmp_path / "isa.tsv", header=header)
    index = build_cooc_index(tmp_path / "n.txt", ["topic"])
    assert index.counts == {"topic": {"#hashtag": 1, "is": 1}}
    pairs = build_pair_index(tmp_path / "isa.tsv", Source.ISA)
    assert pairs.counts == {"#hashtag": {"topic": 1}}


snapshot_indexes = st.dictionaries(
    st.sampled_from(["q", "r", "oil_plant"]), counts_rows, max_size=3
).map(CoocIndex)


@settings(max_examples=50)
@given(snapshot_indexes, st.integers(min_value=1, max_value=25))
def test_snapshot_keeps_the_counts_at_or_above_its_floor(tmp_path_factory, index, floor):
    path = tmp_path_factory.mktemp("snap") / "idx.tsv"
    save_cooc_index(path, index, header={"config-hash": "cafe"}, floor=floor)
    loaded = load_cooc_index(path)
    kept = {
        term: {token: count for token, count in row.items() if count >= floor}
        for term, row in index.counts.items()
    }
    assert loaded.counts == {term: row for term, row in kept.items() if row}
    assert loaded.floor == floor
    assert list(read_artifact(path)[0]) == ["cooc-index"] + ["cooc-floor"] * (floor > 1) + [
        "config-hash"
    ]


@given(counts_rows, st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=12))
def test_snapshot_answers_every_threshold_from_its_floor(tmp_path_factory, row, floor, above):
    """Pruned to ``floor``, a snapshot gives the lists of the full index for
    every ``threshold >= floor - 1``."""
    threshold = floor - 1 + above
    path = tmp_path_factory.mktemp("snap") / "idx.tsv"
    full = CoocIndex({"q": row})
    save_cooc_index(path, full, floor=floor)
    pruned = load_cooc_index(path)
    vocab = frozenset(f"c{i}" for i in range(0, 40, 2))
    for v in (frozenset(f"c{i}" for i in range(40)), vocab):
        for k in (1, 15):
            assert candidates_from_cooc(pruned, "q", v, threshold, k) == candidates_from_cooc(
                full, "q", v, threshold, k
            )


@pytest.mark.parametrize(
    "header, row, problem",
    [
        ("#cooc-floor 6\n", "q\tc\t5\n", "line 4 has count 5; counts are at least 6"),
        ("#cooc-floor 0\n", "q\tc\t5\n", "#cooc-floor '0' is not a positive integer"),
        ("#cooc-floor +6\n", "q\tc\t7\n", "#cooc-floor '+6' is not a positive integer"),
        ("#cooc-floor\n", "q\tc\t7\n", "#cooc-floor '' is not a positive integer"),
    ],
    ids=["count-below-floor", "zero-floor", "signed-floor", "empty-floor"],
)
def test_load_rejects_bad_floor(tmp_path, header, row, problem):
    path = tmp_path / "idx.tsv"
    path.write_text("#cooc-index v1\n" + header + "#config-hash cafe\n" + row)
    with pytest.raises(FormatError) as info:
        load_cooc_index(path)
    assert str(info.value).startswith(f"{path}: {problem}")
