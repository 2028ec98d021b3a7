"""Subcommand front-end for the hypernym-discovery pipeline.

Stages persist their artifacts as files so late stages can be re-run
without re-scanning the corpus:

    normalize        tagged corpus -> normalized corpus
    extract-hearst   tagged corpus -> Hearst pattern corpus
    extract-isa      tagged corpus -> IS-A pattern corpus
    train-embedding  normalized corpus -> embedding file (requires a seed)
    cooc-index       normalized corpus + queries -> co-occurrence snapshot
    fit-phi          embedding + training queries/gold -> projection file
    predict          all four evidence sources -> merged predictions
    evaluate         predictions + gold -> metric table and report file
    pipeline         all of the above, in order, reading the corpus once

Configuration is a flat ``key=value`` file; every key can be overridden
with a ``--key value`` flag. Each artifact is stamped with a hash of the
resolved configuration and stages refuse to consume artifacts whose stamp
does not match, so artifacts from different configurations cannot be
composed by accident. Every stage is byte-for-byte reproducible at any
``--workers``, which only spreads normalize and extract over processes and
is left out of the hash.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, fields

from .cooc import (
    Source,
    build_cooc_index,
    build_pair_index,
    candidates_from_cooc,
    candidates_from_pairs,
    head_word_heuristic,
    load_cooc_index,
    save_cooc_index,
)
from .corpus_io import (
    CONFIG_HASH_KEY,
    FormatError,
    GoldSet,
    Query,
    QueryKind,
    decode_error,
    load_gold,
    load_queries,
    load_vocabulary,
    read_artifact,
    read_predictions,
    term_to_token,
    write_artifact,
    write_predictions,
)
from .embedding import (
    EmbeddingConfig,
    PhiMode,
    candidates_from_phi,
    fit_phi,
    load_embedding,
    load_phi,
    save_embedding,
    save_phi,
    train_cbow,
)
from .metrics import evaluate, format_table, write_report
from .normalize import normalize_corpus
from .patterns import extract_corpus
from .rank import ModuleOrder, choose_order, merge, module_reports


class CliError(Exception):
    pass


@dataclass
class PipelineConfig:
    # inputs
    corpus: str = ""
    vocab: str = ""
    queries: str = ""
    gold: str = ""
    train_queries: str = ""
    train_gold: str = ""
    # artifacts
    normalized: str = "normalized.txt"
    hearst_corpus: str = "hearst_corpus.tsv"
    isa_corpus: str = "isa_corpus.tsv"
    cooc_index: str = "cooc_index.tsv"
    embedding: str = "embedding.txt"
    phi: str = "phi.txt"
    predictions: str = "predictions.tsv"
    metrics: str = "metrics.tsv"
    # parameters
    threshold: int = 5
    k: int = 15
    dim: int = 300
    window: int = 10
    min_count: int = 5
    negatives: int = 5
    epochs: int = 5
    lr: float = 0.025
    seed: int | None = None
    phi_mode: str = "offset"
    ridge: float = 1e-6
    order_mode: str = "fixed"
    p_at_normalized: bool = False
    workers: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.k <= 15:
            raise CliError(f"k must be between 1 and 15, got {self.k}")
        if self.phi_mode not in ("offset", "matrix"):
            raise CliError(f"phi_mode must be 'offset' or 'matrix', got {self.phi_mode!r}")
        if self.order_mode not in ("fixed", "trained"):
            raise CliError(f"order_mode must be 'fixed' or 'trained', got {self.order_mode!r}")
        if self.workers < 1:
            raise CliError("workers must be at least 1")
        if self.threshold < 0:
            raise CliError(f"threshold must be at least 0, got {self.threshold}")
        for name in ("lr", "ridge"):
            if not math.isfinite(getattr(self, name)):
                raise CliError(f"{name} must be a finite number, got {getattr(self, name)}")

    def serialize(self, skip: tuple[str, ...] = ()) -> str:
        parts = []
        for f in sorted(fields(self), key=lambda f: f.name):
            if f.name in skip:
                continue
            value = getattr(self, f.name)
            parts.append(f"{f.name}={'' if value is None else value}")
        return "\n".join(parts) + "\n"

    def hash(self) -> str:
        """Stamp of the settings artifacts depend on: all but ``workers``, which
        changes no output."""
        text = self.serialize(skip=("workers",))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]

    def header(self) -> dict[str, str]:
        return {CONFIG_HASH_KEY: self.hash()}


_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    raw = raw.strip()
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    if kind == "bool":
        return _parse_bool(raw)
    if kind == "int | None":
        return int(raw) if raw else None
    return raw


def load_config(
    path: str | None = None, overrides: dict[str, object] | None = None
) -> PipelineConfig:
    """Read a ``key=value`` config file and apply flag overrides on top."""
    values: dict[str, object] = {}
    if path:
        if not os.path.exists(path):
            raise CliError(f"config file not found: {path}")
        try:
            with open(path, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, start=1):
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    key, sep, raw = line.partition("=")
                    key = key.strip()
                    if not sep or key not in _FIELD_TYPES:
                        raise CliError(f"{path}: line {lineno}: unknown config key {key!r}")
                    try:
                        values[key] = _coerce(key, raw)
                    except ValueError as exc:
                        raise CliError(f"{path}: line {lineno}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise CliError(str(decode_error(path, exc))) from None
    if overrides:
        values.update(overrides)
    return PipelineConfig(**values)


def write_config(path: str | os.PathLike, cfg: PipelineConfig) -> None:
    with write_artifact(path, None) as fh:
        fh.write(cfg.serialize())


# ---------------------------------------------------------------------------
# stage plumbing


def _require_input(path: str, key: str) -> None:
    if not path:
        raise CliError(f"config key '{key}' is required for this stage")
    if not os.path.exists(path):
        raise CliError(f"input file for '{key}' not found: {path}")


def _require_artifact(cfg: PipelineConfig, path: str, stage: str) -> None:
    if not path or not os.path.exists(path):
        raise CliError(
            f"missing artifact {path!r}: run the '{stage}' stage first"
        )
    stamped = read_artifact(path)[0].get(CONFIG_HASH_KEY)
    if stamped is not None and stamped != cfg.hash():
        raise CliError(
            f"stale artifact {path!r}: built with config-hash {stamped}, current "
            f"config is {cfg.hash()}; re-run the '{stage}' stage"
        )


SCAN_SUMMARIES = {  # corpus stage -> one-line summary of its ScanStats
    "normalize": "normalize: {0.paragraphs_in} paragraphs in, {0.paragraphs_out} out, "
    "{0.phrases_appended} phrases appended",
    "extract-hearst": "extract-hearst: {0.hearst_matches} matches",
    "extract-isa": "extract-isa: {0.isa_matches} matches",
}


def cmd_normalize(cfg: PipelineConfig) -> None:
    _require_input(cfg.corpus, "corpus")
    stats = normalize_corpus(cfg.corpus, cfg.normalized, cfg.workers, cfg.header())
    print(SCAN_SUMMARIES["normalize"].format(stats))


def cmd_extract_hearst(cfg: PipelineConfig) -> None:
    _require_input(cfg.corpus, "corpus")
    stats = extract_corpus(cfg.corpus, cfg.hearst_corpus, None, cfg.workers, cfg.header())
    print(SCAN_SUMMARIES["extract-hearst"].format(stats))


def cmd_extract_isa(cfg: PipelineConfig) -> None:
    _require_input(cfg.corpus, "corpus")
    stats = extract_corpus(cfg.corpus, None, cfg.isa_corpus, cfg.workers, cfg.header())
    print(SCAN_SUMMARIES["extract-isa"].format(stats))


def cmd_train_embedding(cfg: PipelineConfig) -> None:
    if cfg.seed is None:
        raise CliError("train-embedding requires a seed (--seed or seed= in the config)")
    _require_artifact(cfg, cfg.normalized, "normalize")
    config = EmbeddingConfig(
        dimension=cfg.dim,
        window=cfg.window,
        min_count=cfg.min_count,
        negatives=cfg.negatives,
        epochs=cfg.epochs,
        learning_rate=cfg.lr,
        seed=cfg.seed,
    )
    model = train_cbow(cfg.normalized, config)
    save_embedding(cfg.embedding, model, header=cfg.header())
    print(f"train-embedding: {len(model.vocab)} tokens, dimension {model.dimension}")


def _query_tokens(cfg: PipelineConfig) -> set[str]:
    tokens = {term_to_token(q.term) for q in load_queries(cfg.queries)}
    if cfg.train_queries and os.path.exists(cfg.train_queries):
        tokens |= {term_to_token(q.term) for q in load_queries(cfg.train_queries)}
    return tokens


def cmd_cooc_index(cfg: PipelineConfig) -> None:
    _require_artifact(cfg, cfg.normalized, "normalize")
    _require_input(cfg.queries, "queries")
    index = build_cooc_index(cfg.normalized, _query_tokens(cfg))
    floor = cfg.threshold + 1  # `predict` reads only the counts above threshold
    save_cooc_index(cfg.cooc_index, index, header=cfg.header(), floor=floor)
    n_rows = sum(count >= floor for row in index.counts.values() for count in row.values())
    print(f"cooc-index: {len(index.counts)} query terms, {n_rows} candidate counts")


def _train_gold(cfg: PipelineConfig) -> list[GoldSet]:
    _require_input(cfg.train_queries, "train_queries")
    _require_input(cfg.train_gold, "train_gold")
    return load_gold(cfg.train_gold, load_queries(cfg.train_queries))


def cmd_fit_phi(cfg: PipelineConfig) -> None:
    _require_artifact(cfg, cfg.embedding, "train-embedding")
    pairs = [
        (gold_set.query.term, hypernym)
        for gold_set in _train_gold(cfg)
        for hypernym in gold_set.hypernyms
    ]
    model = load_embedding(cfg.embedding)
    phi = fit_phi(pairs, model, PhiMode(cfg.phi_mode), ridge=cfg.ridge)
    save_phi(cfg.phi, phi, header=cfg.header())
    print(
        f"fit-phi: {cfg.phi_mode} mode from {len(pairs) - phi.skipped_pairs} pairs "
        f"({phi.skipped_pairs} skipped out-of-vocabulary)"
    )


def _source_lists(query, vocab, cooc_idx, hearst_idx, isa_idx, model, phi, cfg):
    isa = candidates_from_pairs(isa_idx, query.term, vocab, cfg.k)
    head = head_word_heuristic(query)
    if (
        head is not None
        and (vocab is None or head.term in vocab)
        and head.term not in {c.term for c in isa}
    ):
        isa = (isa + [head])[: cfg.k]
    return {
        Source.ISA: isa,
        Source.COOC: candidates_from_cooc(
            cooc_idx, query.term, vocab, cfg.threshold, cfg.k
        ),
        Source.HEARST: candidates_from_pairs(hearst_idx, query.term, vocab, cfg.k),
        Source.PHI: candidates_from_phi(phi, model, query.term, vocab, cfg.k),
    }


def module_lists(cfg: PipelineConfig) -> Callable[[Query], dict]:
    """Check the vocabulary and the five artifacts `predict` reads, load
    each once, and return the function from a query to its four module
    lists."""
    _require_input(cfg.vocab, "vocab")
    _require_artifact(cfg, cfg.cooc_index, "cooc-index")
    _require_artifact(cfg, cfg.hearst_corpus, "extract-hearst")
    _require_artifact(cfg, cfg.isa_corpus, "extract-isa")
    _require_artifact(cfg, cfg.embedding, "train-embedding")
    _require_artifact(cfg, cfg.phi, "fit-phi")
    cooc_idx = load_cooc_index(cfg.cooc_index)
    if cooc_idx.floor > cfg.threshold + 1:
        raise CliError(f"{cfg.cooc_index}: the snapshot keeps only counts of at least "
                       f"{cooc_idx.floor}, too few for threshold {cfg.threshold}; "
                       "re-run the 'cooc-index' stage")
    sources = (
        load_vocabulary(cfg.vocab),
        cooc_idx,
        build_pair_index(cfg.hearst_corpus, Source.HEARST),
        build_pair_index(cfg.isa_corpus, Source.ISA),
        load_embedding(cfg.embedding),
        load_phi(cfg.phi),
    )
    return lambda query: _source_lists(query, *sources, cfg)


def cmd_predict(cfg: PipelineConfig) -> None:
    _require_input(cfg.queries, "queries")
    lists_for = module_lists(cfg)
    if cfg.order_mode == "trained":
        train_gold = _train_gold(cfg)
        order = choose_order(module_reports([lists_for(g.query) for g in train_gold], train_gold))
    else:
        order = ModuleOrder()
    predictions = [merge(q, lists_for(q), order, cfg.k) for q in load_queries(cfg.queries)]
    write_predictions(
        cfg.predictions, (p.terms() for p in predictions), header=cfg.header()
    )
    order_text = " > ".join(s.value for s in order.order)
    print(f"predict: {len(predictions)} queries, module order {order_text}")


def cmd_evaluate(cfg: PipelineConfig) -> None:
    _require_input(cfg.queries, "queries")
    _require_input(cfg.gold, "gold")
    _require_artifact(cfg, cfg.predictions, "predict")
    queries = load_queries(cfg.queries)
    gold_sets = load_gold(cfg.gold, queries)
    rows = read_predictions(cfg.predictions)
    if len(rows) != len(queries):
        raise CliError(
            f"{cfg.predictions}: {len(rows)} prediction lines for {len(queries)} queries"
        )
    reports = [
        evaluate(rows, gold_sets, None, cfg.p_at_normalized),
        evaluate(rows, gold_sets, QueryKind.CONCEPT, cfg.p_at_normalized),
        evaluate(rows, gold_sets, QueryKind.ENTITY, cfg.p_at_normalized),
    ]
    print(format_table(reports))
    if cfg.metrics:
        write_report(cfg.metrics, reports, header=cfg.header())


PIPELINE_STAGES = [
    ("normalize", cmd_normalize),
    ("extract-hearst", cmd_extract_hearst),
    ("extract-isa", cmd_extract_isa),
    ("train-embedding", cmd_train_embedding),
    ("cooc-index", cmd_cooc_index),
    ("fit-phi", cmd_fit_phi),
    ("predict", cmd_predict),
    ("evaluate", cmd_evaluate),
]


def cmd_pipeline(cfg: PipelineConfig) -> None:
    """Every stage in order; the corpus stages share one pass over the corpus."""
    _require_input(cfg.corpus, "corpus")
    stats = extract_corpus(cfg.corpus, cfg.hearst_corpus, cfg.isa_corpus, cfg.workers,
                           cfg.header(), normalized_out=cfg.normalized)
    for stage, handler in PIPELINE_STAGES:
        if stage in SCAN_SUMMARIES:
            print(SCAN_SUMMARIES[stage].format(stats))
        else:
            handler(cfg)


COMMANDS = dict(PIPELINE_STAGES) | {"pipeline": cmd_pipeline}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperdisc",
        description="Hypernym discovery over a POS-tagged corpus.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub = subparsers.add_parser(name, help=f"run the {name} stage")
        sub.add_argument("--config", help="key=value configuration file")
        for f in fields(PipelineConfig):
            flag = "--" + f.name.replace("_", "-")
            sub.add_argument(flag, dest=f.name, default=argparse.SUPPRESS, metavar="V")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    raw = vars(args)
    command = raw.pop("command")
    config_path = raw.pop("config", None)
    try:
        overrides = {key: _coerce(key, str(value)) for key, value in raw.items()}
        cfg = load_config(config_path, overrides)
        COMMANDS[command](cfg)
    except (CliError, FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
