"""Hard planted input: `hyperdisc.synthetic.generate` output made harder.

The stock planted corpus saturates (merged MRR 1.000, IS-A and Cooc each
1.000 standalone). This post-processor rewrites the generated corpus so
that the evidence modules disagree:

* for a fixed fraction of planted pairs every true IS-A sentence
  (``a x is a h .``) is dropped, so IS-A only sees the confuser sentence;
* for another fixed fraction, drawn independently, the co-occurrence
  sentences (``the x ... the h ... near the f .``) are thinned to a few,
  so the pair may fall under the co-occurrence threshold.

Which pairs are hit is drawn from the seed, so the same seed always gives
the same files; how many are hit is fixed, so sizes and scores vary little
from seed to seed. Query, gold and vocabulary files are left as generated.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hyperdisc import synthetic

DROP_ISA_FRACTION = 0.5
THIN_COOC_FRACTION = 0.4
THIN_COOC_KEEP = 2


@dataclass(frozen=True)
class HardDataset:
    planted: synthetic.PlantedDataset
    lines: int
    tokens: int
    vocab_terms: int
    queries: int


def _nn(term: str) -> str:
    return " ".join(f"{word}_NN" for word in term.split())


def generate_hard(
    out_dir: str | os.PathLike,
    seed: int,
    n_hypernyms: int,
    n_hyponyms: int,
    noise_lines: int = 600,
    distractor_vocab: int = 20,
) -> HardDataset:
    planted = synthetic.generate(
        out_dir,
        n_hypernyms=n_hypernyms,
        n_hyponyms=n_hyponyms,
        seed=seed,
        noise_lines=noise_lines,
        distractor_vocab=distractor_vocab,
    )
    rng = np.random.default_rng([seed, 0x4A7D])
    pairs = planted.taxonomy.pairs
    test_pairs = set(planted.test_pairs)
    in_test = np.array([pair in test_pairs for pair in pairs])
    drop_isa = _exact_fraction(rng, in_test, DROP_ISA_FRACTION)
    thin_cooc = _exact_fraction(rng, in_test, THIN_COOC_FRACTION)
    isa_lines = {
        f"a_DT {_nn(x)} is_VBZ a_DT {_nn(h)} ._."
        for (x, h), drop in zip(pairs, drop_isa)
        if drop
    }
    # co-occurrence sentence prefix -> remaining allowance
    cooc_keep = {
        (f"the_DT {_nn(x)} ", f"_VBD the_DT {_nn(h)} "): THIN_COOC_KEEP
        for (x, h), thin in zip(pairs, thin_cooc)
        if thin
    }
    cooc_by_hyponym = {key[0]: key for key in cooc_keep}

    kept: list[str] = []
    dropped = 0
    with open(planted.corpus, encoding="utf-8") as fh:
        for line in fh:
            text = line.rstrip("\n")
            if text in isa_lines:
                dropped += 1
                continue
            if " near_IN the_DT " in text:
                key = _cooc_key(text, cooc_by_hyponym)
                if key is not None:
                    if cooc_keep[key] == 0:
                        dropped += 1
                        continue
                    cooc_keep[key] -= 1
            kept.append(text)
    expected = synthetic.ISA_REPEATS * int(drop_isa.sum()) + (
        synthetic.COOC_REPEATS - THIN_COOC_KEEP
    ) * int(thin_cooc.sum())
    if dropped != expected:
        raise ValueError(
            f"dropped {dropped} planted sentences, expected {expected}: "
            "the generator's sentence templates changed"
        )
    Path(planted.corpus).write_text(
        "".join(text + "\n" for text in kept), encoding="utf-8"
    )
    with open(planted.vocab, encoding="utf-8") as fh:
        vocab_terms = sum(1 for line in fh if line.strip())
    return HardDataset(
        planted=planted,
        lines=len(kept),
        tokens=sum(len(text.split()) for text in kept),
        vocab_terms=vocab_terms,
        queries=len(planted.test_pairs),
    )


def _exact_fraction(
    rng: np.random.Generator, groups: np.ndarray, fraction: float
) -> np.ndarray:
    """A random mask that sets exactly round(fraction * size) entries of each
    group (train and test pairs), so both splits are equally hard."""
    mask = np.zeros(len(groups), dtype=bool)
    for group in (False, True):
        members = np.flatnonzero(groups == group)
        chosen = rng.permutation(len(members))[: round(fraction * len(members))]
        mask[members[chosen]] = True
    return mask


def _cooc_key(text: str, by_hyponym: dict[str, tuple[str, str]]):
    """The thinned pair this co-occurrence sentence plants, if any."""
    # the hyponym phrase ends at the first verb token
    head, sep, _ = text.partition("_VBD ")
    if not sep:
        return None
    prefix = head.rsplit(" ", 1)[0] + " "
    key = by_hyponym.get(prefix)
    if key is not None and key[1] in text:
        return key
    return None
