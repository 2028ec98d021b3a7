"""Planted-taxonomy corpus generator for end-to-end benchmarks.

Builds a tagged corpus in which known (hyponym, hypernym) pairs are planted
through every evidence channel the pipeline consumes: IS-A sentences,
sentences for each of the six Hearst grammars, plain co-occurrence
sentences, plus distractor and noise material so that ranking actually has
to separate signal from confusers. The generator also emits the candidate
vocabulary, a train/test query split and the gold files, all reproducible
from one seed.

Hearst evidence is deliberately sparser and noisier than IS-A evidence
(only a fraction of pairs get pattern sentences, and wrong-hypernym
pattern sentences are planted at a similar rate), which mirrors the
relative quality the evidence modules show on real corpora.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus_io import QueryKind

SYLLABLES = [
    c + v
    for c in "bdfglmnprstvz"
    for v in "aeiou"
]

ISA_REPEATS = 3
COOC_REPEATS = 8
HEARST_FRACTION = 0.4
HEARST_NOISE_FRACTION = 0.3
ENTITY_FRACTION = 0.1  # the chance that a query is of kind Entity
TRAIN_FRACTION = 0.5  # the share of planted pairs in the training split
WORD_SYLLABLES = 3  # the syllables of a pseudoword
CONFUSER_COOC_REPEATS = 2


@dataclass(frozen=True)
class PlantedTaxonomy:
    hypernyms: tuple[str, ...]
    members: dict[str, tuple[str, ...]]

    @property
    def pairs(self) -> list[tuple[str, str]]:
        return [
            (hyponym, hypernym)
            for hypernym in self.hypernyms
            for hyponym in self.members[hypernym]
        ]


@dataclass(frozen=True)
class PlantedDataset:
    root: Path
    corpus: Path
    vocab: Path
    train_queries: Path
    train_gold: Path
    queries: Path
    gold: Path
    taxonomy: PlantedTaxonomy
    train_pairs: list[tuple[str, str]]
    test_pairs: list[tuple[str, str]]


def _pseudoword(rng: np.random.Generator) -> str:
    return "".join(SYLLABLES[rng.integers(len(SYLLABLES))] for _ in range(WORD_SYLLABLES))


def _unique_words(rng: np.random.Generator, count: int, taken: set[str]) -> list[str]:
    words = []
    while len(words) < count:
        word = _pseudoword(rng)
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def make_taxonomy(
    rng: np.random.Generator,
    n_hypernyms: int = 10,
    n_hyponyms: int = 50,
    taken: set[str] | None = None,
) -> PlantedTaxonomy:
    """Generate pseudoword classes; one hypernym and a few hyponyms are bigrams."""
    taken = taken if taken is not None else set()
    singles = _unique_words(rng, n_hypernyms - 1, taken)
    bigram = " ".join(_unique_words(rng, 2, taken))
    hypernyms = tuple(singles + [bigram])
    members = {}
    for h_index, hypernym in enumerate(hypernyms):
        words = _unique_words(rng, n_hyponyms, taken)
        if h_index == 0 and n_hyponyms >= 3:
            extra = _unique_words(rng, 2, taken)
            words[0] = f"{words[0]} {extra[0]}"
            words[1] = f"{words[1]} {extra[1]}"
        members[hypernym] = tuple(words)
    return PlantedTaxonomy(hypernyms, members)


def _nn_phrase(term: str) -> str:
    """Tag every word of a term as a noun: ``oil plant`` -> ``oil_NN plant_NN``."""
    return " ".join(f"{word}_NN" for word in term.split())


def _sentences_for_pair(
    hyponym: str,
    hypernym: str,
    confuser: str,
    sibling: str,
    fillers: list[str],
    rng: np.random.Generator,
    hearst: bool,
    hearst_noise: bool,
) -> list[str]:
    x = _nn_phrase(hyponym)
    h = _nn_phrase(hypernym)
    d = _nn_phrase(confuser)
    sib = _nn_phrase(sibling)
    lines = []
    for _ in range(ISA_REPEATS):
        lines.append(f"a_DT {x} is_VBZ a_DT {h} ._.")
    lines.append(f"a_DT {x} is_VBZ a_DT {d} ._.")
    for _ in range(COOC_REPEATS):
        f1, f2, f3 = (fillers[rng.integers(len(fillers))] for _ in range(3))
        lines.append(
            f"the_DT {x} {f1}_VBD the_DT {h} {f2}_RB near_IN the_DT {f3}_NN ._."
        )
    for _ in range(CONFUSER_COOC_REPEATS):
        f1 = fillers[rng.integers(len(fillers))]
        lines.append(f"the_DT {x} {f1}_VBD the_DT {d} ._.")
    if hearst:
        template = int(rng.integers(6))
        lines.append(_hearst_sentence(template, h, x, sib))
    if hearst_noise:
        template = int(rng.integers(6))
        lines.append(_hearst_sentence(template, d, x, sib))
    return lines


def _hearst_sentence(template: int, h: str, x: str, sibling: str) -> str:
    if template == 0:
        return f"{h} such_JJ as_IN {x} and_CC {sibling} ._."
    if template == 1:
        return f"such_JJ {h} as_IN {x} ,_, {sibling} ._."
    if template == 2:
        return f"{h} ,_, including_VBG {x} and_CC {sibling} ._."
    if template == 3:
        return f"{h} ,_, especially_RB {x} ._."
    if template == 4:
        return f"{x} ,_, {sibling} or_CC other_JJ {h} ._."
    return f"{x} ,_, {sibling} and_CC other_JJ {h} ._."


def generate(
    out_dir: str | os.PathLike,
    n_hypernyms: int = 10,
    n_hyponyms: int = 50,
    seed: int = 7,
    noise_lines: int = 600,
    distractor_vocab: int = 20,
) -> PlantedDataset:
    """Write the planted corpus and its query/gold/vocabulary files.

    The train/test split is over planted pairs; every query's gold list is
    its single planted hypernym.
    """
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    taken: set[str] = set()
    taxonomy = make_taxonomy(rng, n_hypernyms, n_hyponyms, taken)
    fillers = _unique_words(rng, 60, taken)
    vocab_distractors = _unique_words(rng, distractor_vocab, taken)

    lines: list[str] = []
    for hypernym in taxonomy.hypernyms:
        members = taxonomy.members[hypernym]
        others = [h for h in taxonomy.hypernyms if h != hypernym]
        for hyponym in members:
            confuser = others[rng.integers(len(others))]
            sibling = members[rng.integers(len(members))]
            if sibling == hyponym:
                sibling = members[(list(members).index(hyponym) + 1) % len(members)]
            lines.extend(
                _sentences_for_pair(
                    hyponym,
                    hypernym,
                    confuser,
                    sibling,
                    fillers,
                    rng,
                    hearst=rng.random() < HEARST_FRACTION,
                    hearst_noise=rng.random() < HEARST_NOISE_FRACTION,
                )
            )
    noise_pool = fillers + vocab_distractors
    tags = ["NN", "VBD", "JJ", "RB"]
    for _ in range(noise_lines):
        n = int(rng.integers(5, 11))
        words = [noise_pool[rng.integers(len(noise_pool))] for _ in range(n)]
        lines.append(
            " ".join(f"{w}_{tags[rng.integers(len(tags))]}" for w in words) + " ._."
        )
    order = rng.permutation(len(lines))
    corpus_path = root / "corpus.pos.txt"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for i in order:
            fh.write(lines[i] + "\n")

    vocab_path = root / "vocab.txt"
    vocab_terms = sorted(set(taxonomy.hypernyms) | set(vocab_distractors))
    vocab_path.write_text("".join(t + "\n" for t in vocab_terms), encoding="utf-8")

    pairs = taxonomy.pairs
    split_order = rng.permutation(len(pairs))
    n_train = int(len(pairs) * TRAIN_FRACTION)
    train_pairs = [pairs[i] for i in split_order[:n_train]]
    test_pairs = [pairs[i] for i in split_order[n_train:]]

    def write_split(prefix: str, split: list[tuple[str, str]]) -> tuple[Path, Path]:
        q_path = root / f"{prefix}queries.tsv"
        g_path = root / f"{prefix}gold.tsv"
        with open(q_path, "w", encoding="utf-8") as qf, open(
            g_path, "w", encoding="utf-8"
        ) as gf:
            for hyponym, hypernym in split:
                kind = QueryKind.ENTITY if rng.random() < ENTITY_FRACTION else QueryKind.CONCEPT
                qf.write(f"{hyponym}\t{kind.value}\n")
                gf.write(f"{hypernym}\n")
        return q_path, g_path

    train_queries, train_gold = write_split("train_", train_pairs)
    queries, gold = write_split("", test_pairs)
    return PlantedDataset(
        root=root,
        corpus=corpus_path,
        vocab=vocab_path,
        train_queries=train_queries,
        train_gold=train_gold,
        queries=queries,
        gold=gold,
        taxonomy=taxonomy,
        train_pairs=train_pairs,
        test_pairs=test_pairs,
    )
