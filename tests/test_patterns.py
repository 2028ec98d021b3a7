from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdisc import corpus_io, patterns
from hyperdisc.corpus_io import parse_tagged_line
from hyperdisc.cooc import Source, build_pair_index
from hyperdisc.patterns import (
    _HEARST_GRAMMARS,
    _ISA_GRAMMARS,
    _match_np,
    _match_np_list,
    PatternId,
    PatternMatch,
    extract_corpus,
    extract_hearst,
    extract_isa,
    format_match_line,
)

from pattern_fixture import SENTENCES


def match_np(line, start):
    return _match_np(*parse_tagged_line(line), start)


class TestMatchNp:
    def test_strips_determiner(self):
        np_match = match_np("the_DT loved-ones_NNS such_JJ as_IN x_NN", 0)
        phrase, end = np_match
        assert phrase == "loved-ones"
        assert end == 2

    def test_single_noun_after_article(self):
        phrase, end = match_np("a_DT fennel_NN is_VBZ", 0)
        assert phrase == "fennel"
        assert end == 2

    def test_no_noun_is_no_match(self):
        assert match_np("run_VB fast_RB", 0) is None

    def test_caps_at_three_content_words(self):
        phrase, end = match_np("web_NN base_NN corpus_NN system_NN", 0)
        assert phrase == "web_base_corpus"
        assert end == 3

    def test_shrinks_to_noun_head(self):
        phrase, end = match_np("red_JJ car_NN fast_JJ thing_VB", 0)
        assert phrase == "red_car"
        assert end == 2

    def test_all_adjectives_no_match(self):
        assert match_np("nice_JJ big_JJ red_JJ car_NN", 0) is None

    @pytest.mark.parametrize("tag", ["PDT", "WDT", "dt"])
    def test_only_exact_dt_is_stripped(self, tag):
        # another determiner-like tag is neither stripped nor part of an NP
        assert match_np(f"all_{tag} storms_NNS", 0) is None
        assert match_np(f"all_{tag} storms_NNS", 1) == ("storms", 2)
        assert match_np(f"the_DT all_{tag} storms_NNS", 0) is None


@pytest.mark.parametrize("line, expected", [
    ("cats_NNS ,_, dogs_NNS ,_, birds_NNS", (["cats", "dogs", "birds"], 5)),
    ("cats_NNS ,_, and_CC dogs_NNS ,_, birds_NNS", (["cats", "dogs"], 4)),
    ("cats_NNS and_CC dogs_NNS and_CC birds_NNS", (["cats", "dogs"], 3)),
    ("cats_NNS ,_, or_CC run_VB", (["cats"], 1)),
    ("cats_NNS ,_, dogs_NNS or_CC", (["cats", "dogs"], 3)),
    ("cats_NNS ,_, run_VB", (["cats"], 1)),
], ids=["comma", "comma-and", "and", "comma-or-no-np", "conjunction-at-end", "comma-no-np"])
def test_np_list_steps(line, expected):
    """One NP-list step: an optional comma, an optional conjunction, one NP;
    the NP after a conjunction ends the list, and a step with no NP is not
    taken."""
    assert _match_np_list(*parse_tagged_line(line), 0) == expected


@pytest.mark.parametrize("trigger, pattern_id", [
    ("such_JJ as_IN", PatternId.SUCH_AS),
    ("including_VBG", PatternId.INCLUDING),
    ("especially_RB", PatternId.ESPECIALLY),
])
@pytest.mark.parametrize("comma", ["", ",_, "])
def test_trigger_with_and_without_comma(trigger, pattern_id, comma):
    """NP trigger NP-list, where only a one-word trigger may have a comma
    before it."""
    line = f"the_DT herbs_NNS {comma}{trigger} basil_NN ,_, and_CC mint_NN"
    found = extract_hearst(parse_tagged_line(line))
    if comma and pattern_id is PatternId.SUCH_AS:
        assert found == []
    else:
        assert found == [PatternMatch(pattern_id, "herbs", ("basil", "mint"))]


def test_and_other_list_stops_at_a_comma_after_a_non_noun():
    line = "Quickly_RB ,_, cars_NNS and_CC other_JJ vehicles_NNS"
    assert extract_hearst(parse_tagged_line(line)) == [
        PatternMatch(PatternId.AND_OTHER, "vehicles", ("cars",))
    ]


@pytest.mark.parametrize("line,expected", SENTENCES)
def test_fixture_sentence(line, expected):
    paragraph = parse_tagged_line(line)
    found = [
        (m.pattern_id, m.hypernym, m.hyponyms)
        for m in extract_hearst(paragraph) + extract_isa(paragraph)
    ]
    assert sorted(found) == sorted(expected), line


def test_isa_ignores_hearst_sentences():
    paragraph = parse_tagged_line("dogs_NNS such_JJ as_IN poodles_NNS")
    assert extract_isa(paragraph) == []


def test_hypernym_never_among_hyponyms():
    # "a noun is a noun" collapses to nothing
    paragraph = parse_tagged_line("a_DT plant_NN is_VBZ a_DT plant_NN")
    assert extract_isa(paragraph) == []


def test_matches_do_not_overlap_within_one_grammar():
    line = (
        "herbs_NNS such_JJ as_IN basil_NN and_CC trees_NNS "
        "such_JJ as_IN oaks_NNS"
    )
    matches = extract_hearst(parse_tagged_line(line))
    such_as = [m for m in matches if m.pattern_id is PatternId.SUCH_AS]
    # the second trigger's left NP ("trees") is inside the first match's
    # hyponym list span, so only the first match is emitted
    assert such_as == [
        PatternMatch(PatternId.SUCH_AS, "herbs", ("basil", "trees"))
    ]


def test_self_consistency_on_fixture():
    # re-running the responsible grammar alone reproduces each match
    for line, expected in SENTENCES:
        paragraph = parse_tagged_line(line)
        for pattern_id, hypernym, hyponyms in expected:
            if pattern_id is PatternId.IS_A:
                again = extract_isa(paragraph)
            else:
                again = [
                    m
                    for m in extract_hearst(paragraph)
                    if m.pattern_id is pattern_id
                ]
            assert PatternMatch(pattern_id, hypernym, hyponyms) in again


def test_extract_corpus_files(tmp_path):
    src = tmp_path / "c.txt"
    src.write_text(
        "the_DT loved-ones_NNS such_JJ as_IN family_NN and_CC friends_NNS\n"
        "a_DT fennel_NN is_VBZ a_DT plant_NN\n"
    )
    hearst_out = tmp_path / "hearst.tsv"
    isa_out = tmp_path / "isa.tsv"
    stats = extract_corpus(src, hearst_out, isa_out)
    assert stats.hearst_matches == 1
    assert stats.isa_matches == 1
    assert hearst_out.read_text() == "family\tfriends\tloved-ones\n"
    assert isa_out.read_text() == "fennel\tplant\n"


def test_extract_corpus_runs_only_requested_grammars(tmp_path):
    src = tmp_path / "c.txt"
    src.write_text("".join(line + "\n" for line, _ in SENTENCES) * 2)
    both = (tmp_path / "h.tsv", tmp_path / "i.tsv")
    full = extract_corpus(src, *both)
    hearst_only = extract_corpus(src, hearst_out=tmp_path / "h2.tsv")
    isa_only = extract_corpus(src, isa_out=tmp_path / "i2.tsv")
    assert (hearst_only.hearst_matches, hearst_only.isa_matches) == (full.hearst_matches, 0)
    assert (isa_only.hearst_matches, isa_only.isa_matches) == (0, full.isa_matches)
    assert (tmp_path / "h2.tsv").read_bytes() == both[0].read_bytes()
    assert (tmp_path / "i2.tsv").read_bytes() == both[1].read_bytes()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("command", ["extract-hearst", "extract-isa", "pipeline"])
def test_fixture_through_production_pass(tmp_path, command, workers):
    """The fixture's sentences through `extract_corpus` as ``command`` runs
    it: an extract stage gated, with its one output; ``pipeline`` ungated,
    with all three. Each pattern file holds exactly the fixture's expected
    matches as `format_match_line` lines."""
    src = tmp_path / "c.txt"
    src.write_text("".join(line + "\n" for line, _ in SENTENCES))
    hearst, isa, normalized = {
        "extract-hearst": (tmp_path / "h.tsv", None, None),
        "extract-isa": (None, tmp_path / "i.tsv", None),
        "pipeline": (tmp_path / "h.tsv", tmp_path / "i.tsv", tmp_path / "n.txt"),
    }[command]
    with mock.patch.object(corpus_io, "BATCH_LINES", 7):  # several batches for the workers
        stats = extract_corpus(src, hearst, isa, workers, normalized_out=normalized)
    # the gate leaves the lines without a trigger word unparsed
    assert (stats.paragraphs_in == len(SENTENCES)) == (normalized is not None)
    for path, is_isa in ((hearst, False), (isa, True)):
        if path is not None:
            expected = [format_match_line(PatternMatch(*match)) for _, matches in SENTENCES
                        for match in matches if (match[0] is PatternId.IS_A) == is_isa]
            assert sorted(path.read_text().splitlines()) == sorted(expected)


def test_extract_corpus_empty(tmp_path):
    src = tmp_path / "c.txt"
    src.write_text("")
    hearst_out = tmp_path / "hearst.tsv"
    isa_out = tmp_path / "isa.tsv"
    stats = extract_corpus(src, hearst_out, isa_out)
    assert (stats.hearst_matches, stats.isa_matches) == (0, 0)
    assert hearst_out.read_text() == "" and isa_out.read_text() == ""


def test_pattern_files_round_trip_through_pair_loader(tmp_path):
    src = tmp_path / "c.txt"
    src.write_text(
        "herbs_NNS such_JJ as_IN lemongrass_NN and_CC basil_NN\n"
        "a_DT fennel_NN is_VBZ a_DT plant_NN\n"
        "lemongrass_NN is_VBZ a_DT herb_NN\n"
    )
    hearst_out = tmp_path / "hearst.tsv"
    isa_out = tmp_path / "isa.tsv"
    extract_corpus(src, hearst_out, isa_out)
    hearst_index = build_pair_index(hearst_out, Source.HEARST)
    isa_index = build_pair_index(isa_out, Source.ISA)
    assert hearst_index.counts == {"lemongrass": {"herbs": 1}, "basil": {"herbs": 1}}
    assert isa_index.counts == {"fennel": {"plant": 1}, "lemongrass": {"herb": 1}}


def test_hyponym_with_commas_reads_back_whole(tmp_path):
    src = tmp_path / "c.txt"
    src.write_text("solvents_NNS such_JJ as_IN 1,2-dichloroethane_NN and_CC benzene_NN\n")
    extract_corpus(src, tmp_path / "hearst.tsv")
    index = build_pair_index(tmp_path / "hearst.tsv", Source.HEARST)
    assert index.counts == {"1,2-dichloroethane": {"solvents": 1}, "benzene": {"solvents": 1}}


# one-word phrases with commas, digits, hyphens, `#` and non-ASCII letters;
# none is a word the grammars read, so each drawn sentence is exactly one match
GRAMMAR_WORDS = {",", "such", "as", "and", "or", "other", "including", "especially", "is",
                 "a", "an", "the"}
phrase_surfaces = st.text(
    st.characters(categories=("L", "Nd"), include_characters=",-#"), min_size=1, max_size=6
).filter(lambda surface: surface.lower() not in GRAMMAR_WORDS)
drawn_matches = st.lists(
    st.tuples(st.lists(phrase_surfaces, min_size=1, max_size=4), phrase_surfaces).filter(
        lambda match: match[1].lower() not in {h.lower() for h in match[0]}
    ),
    max_size=6,
)


@given(drawn_matches)
def test_pattern_corpora_round_trip_through_pair_loader(tmp_path_factory, matches):
    """Whatever matches `extract_corpus` writes, `build_pair_index` returns."""
    lines, hearst, isa = [], {}, {}
    for hypos, hyper in matches:
        nouns = [f"{h}_NN" for h in hypos]
        listed = " ,_, ".join(nouns[:-1]) + " and_CC " + nouns[-1] if len(nouns) > 1 else nouns[0]
        lines.append(f"{hyper}_NNS such_JJ as_IN {listed}")
        lines.append(f"{hypos[0]}_NN is_VBZ a_DT {hyper}_NN")
        for hypo in hypos:
            row = hearst.setdefault(hypo.lower(), {})
            row[hyper.lower()] = row.get(hyper.lower(), 0) + 1
        row = isa.setdefault(hypos[0].lower(), {})
        row[hyper.lower()] = row.get(hyper.lower(), 0) + 1
    root = tmp_path_factory.mktemp("patterns")
    (root / "c.txt").write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    extract_corpus(root / "c.txt", root / "h.tsv", root / "i.tsv", header={"config-hash": "cafe"})
    assert build_pair_index(root / "h.tsv", Source.HEARST).counts == hearst
    assert build_pair_index(root / "i.tsv", Source.ISA).counts == isa


def test_terms_are_short_and_lowercase():
    for line, _ in SENTENCES:
        paragraph = parse_tagged_line(line)
        for match in extract_hearst(paragraph) + extract_isa(paragraph):
            terms = (match.hypernym, *match.hyponyms)
            for term in terms:
                assert term == term.lower()
                assert 1 <= len(term.split("_")) <= 3
            assert match.hypernym not in match.hyponyms
            if match.pattern_id is PatternId.IS_A:
                assert len(match.hyponyms) == 1


def test_workers_do_not_change_extraction(tmp_path):
    src = tmp_path / "c.txt"
    src.write_text("".join(line + "\n" for line, _ in SENTENCES) * 5)
    out_a = (tmp_path / "h1.tsv", tmp_path / "i1.tsv")
    out_b = (tmp_path / "h2.tsv", tmp_path / "i2.tsv")
    extract_corpus(src, *out_a, workers=1)
    extract_corpus(src, *out_b, workers=3)
    assert out_a[0].read_bytes() == out_b[0].read_bytes()
    assert out_a[1].read_bytes() == out_b[1].read_bytes()


def all_positions_scan(paragraph, grammars):
    """Reference: every scanner tried at every token position, with the
    non-overlap rule of one grammar's left-to-right scan."""
    words, codes = paragraph
    matches = []
    for _, scanner in grammars:
        floor = 0
        i = 0
        while i < len(words):
            hit = scanner(words, codes, i)
            if hit is None or hit[1] < floor:
                i += 1
                continue
            match, _, span_end = hit
            matches.append(match)
            floor = span_end
            i = max(span_end, i + 1)
    return matches


def assert_dispatch_matches_reference(paragraph):
    hearst = all_positions_scan(paragraph, _HEARST_GRAMMARS)
    isa = all_positions_scan(paragraph, _ISA_GRAMMARS)
    assert extract_hearst(paragraph) == hearst
    assert extract_isa(paragraph) == isa
    outs = ([], [], [])
    assert patterns._scan_columns(False, True, True, *paragraph, outs) == 0
    assert outs == ([], *([format_match_line(m) for m in found] for found in (hearst, isa)))


grammar_words = ["herb", "Basil", "tree", "oak", "red", "such", "is"]
noun_phrases = st.tuples(
    st.lists(st.sampled_from([("a", "DT"), ("the", "DT")]), max_size=1),
    st.lists(st.tuples(st.sampled_from(grammar_words), st.just("JJ")), max_size=2),
    st.lists(
        st.tuples(st.sampled_from(grammar_words), st.sampled_from(["NN", "NNS"])),
        min_size=1,
        max_size=2,
    ),
).map(lambda parts: parts[0] + parts[1] + parts[2])
grammar_pieces = st.one_of(
    noun_phrases,
    st.sampled_from([
        [("such", "JJ"), ("as", "IN")], [("Such", "JJ")], [("as", "IN")],
        [("including", "VBG")], [("especially", "RB")], [("or", "CC")],
        [("and", "CC")], [("other", "JJ")], [("or", "CC"), ("other", "JJ")],
        [("and", "CC"), ("other", "JJ")], [("is", "VBZ"), ("a", "DT")],
        [("Is", "VBZ"), ("an", "DT")], [("is", "VBZ")], [(",", ",")],
    ]),
    st.tuples(st.sampled_from(grammar_words), st.sampled_from(["VB", "JJ", "DT"])).map(
        lambda pair: [pair]
    ),
)
grammar_lines = st.lists(grammar_pieces, min_size=1, max_size=12).map(
    lambda pieces: " ".join(f"{surface}_{tag}" for piece in pieces for surface, tag in piece)
)


@settings(max_examples=400)
@given(grammar_lines)
def test_trigger_dispatch_equals_all_positions_scan(line):
    assert_dispatch_matches_reference(parse_tagged_line(line))


def test_trigger_dispatch_on_fixture():
    for line, _ in SENTENCES:
        assert_dispatch_matches_reference(parse_tagged_line(line))
