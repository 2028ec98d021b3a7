#!/usr/bin/env python3
"""Generate a planted-taxonomy benchmark dataset.

Writes a tagged corpus with known (hyponym, hypernym) pairs planted through
IS-A sentences, Hearst-pattern sentences and co-occurrence sentences, plus
the vocabulary, train/test query files and gold files.
"""

import argparse
from pathlib import Path

from hyperdisc import synthetic


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir", type=Path, help="directory for the dataset files")
    parser.add_argument("--hypernyms", type=int, default=10)
    parser.add_argument("--hyponyms", type=int, default=50, help="per hypernym")
    parser.add_argument("--noise-lines", type=int, default=600)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--distractor-vocab", type=int, default=20,
                        help="vocabulary terms that occur only in noise lines")
    args = parser.parse_args()

    try:
        dataset = synthetic.generate(
            args.out_dir,
            n_hypernyms=args.hypernyms,
            n_hyponyms=args.hyponyms,
            seed=args.seed,
            noise_lines=args.noise_lines,
            distractor_vocab=args.distractor_vocab,
        )
    except ValueError as exc:  # a size out of range (`synthetic.check_sizes`)
        parser.error(str(exc))
    with open(dataset.corpus, "rb") as fh:
        n_lines = sum(1 for _ in fh)
    print(f"corpus:        {dataset.corpus} ({n_lines} paragraphs)")
    print(f"vocabulary:    {dataset.vocab}")
    print(f"train queries: {dataset.train_queries} ({len(dataset.train_pairs)})")
    print(f"test queries:  {dataset.queries} ({len(dataset.test_pairs)})")


if __name__ == "__main__":
    main()
