"""Subcommand front-end for the hypernym-discovery pipeline.

Stages persist their artifacts as files so late stages can be re-run
without re-scanning the corpus. `STAGES` says what each stage reads and
writes; ``pipeline`` runs them all in order, reading the corpus once.

Configuration is a flat ``key=value`` file; every key can be overridden
with a ``--key value`` flag. Each artifact is stamped with a hash of the
resolved configuration and stages refuse to consume artifacts whose stamp
does not match, so artifacts from different configurations cannot be
composed by accident. Every stage is byte-for-byte reproducible at any
``--workers``, which only spreads normalize and extract over processes and
is left out of the hash.
"""

import argparse
import hashlib
import math
import os
import sys
from collections.abc import Callable, Sequence
from typing import NamedTuple

from .cooc import (
    DEFAULT_THRESHOLD,
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
    MAX_PREDICTIONS,
    Query,
    QueryKind,
    checked,
    file_line,
    iter_data_lines,
    load_gold,
    load_queries,
    load_vocabulary,
    read_header,
    read_predictions,
    term_to_token,
    write_artifact,
    write_predictions,
)
from .embedding import (
    EmbeddingConfig,
    PhiMode,
    fit_phi,
    load_embedding,
    load_phi,
    nearest_terms,
    save_embedding,
    save_phi,
    train_cbow,
)
from .metrics import evaluate, format_table, write_report
from .normalize import normalize_corpus
from .patterns import extract_corpus
from .rank import ModuleOrder, choose_order, merge, module_reports


# the layout version of the artifacts, hashed into every stamp, so that a
# file written in an older layout is refused as stale instead of misread
ARTIFACT_FORMAT = 3


class CliError(ValueError):
    pass


_CBOW = EmbeddingConfig._field_defaults


@checked
class PipelineConfig(NamedTuple):
    """Every setting of the pipeline, one field per config key, checked at
    construction. The CBOW settings take their defaults and checks from
    `EmbeddingConfig` (`cbow`), so a bad setting fails here, before any
    stage runs; so does an artifact path that is empty (but `metrics`) or
    names the file of an input or of another artifact."""

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
    threshold: int = DEFAULT_THRESHOLD
    k: int = MAX_PREDICTIONS
    dim: int = _CBOW["dim"]
    window: int = _CBOW["window"]
    min_count: int = _CBOW["min_count"]
    negatives: int = _CBOW["negatives"]
    epochs: int = _CBOW["epochs"]
    lr: float = _CBOW["lr"]
    seed: int | None = _CBOW["seed"]
    phi_mode: str = PhiMode.OFFSET.value
    ridge: float = 1e-6
    order_mode: str = "fixed"
    p_at_normalized: bool = False
    workers: int = 1

    def _check(self) -> None:
        if not 1 <= self.k <= MAX_PREDICTIONS:
            raise CliError(f"k must be between 1 and {MAX_PREDICTIONS}, got {self.k}")
        if self.phi_mode not in {mode.value for mode in PhiMode}:
            modes = " or ".join(repr(mode.value) for mode in PhiMode)
            raise CliError(f"phi_mode must be {modes}, got {self.phi_mode!r}")
        if self.order_mode not in ("fixed", "trained"):
            raise CliError(f"order_mode must be 'fixed' or 'trained', got {self.order_mode!r}")
        if self.workers < 1:
            raise CliError("workers must be at least 1")
        for name, least in (("threshold", 0), ("ridge", 0)):
            if getattr(self, name) < least:
                raise CliError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if not math.isfinite(self.ridge):
            raise CliError(f"ridge must be a finite number, got {self.ridge}")
        self.cbow()  # raises ValueError on a bad CBOW setting
        named = {}  # file -> the first key naming it; inputs may share a file, artifacts may not
        for key in (*INPUTS, *WRITERS):
            path = getattr(self, key)
            if not path and key in WRITERS and key != "metrics":
                raise CliError(f"config key '{key}' names no file; only 'metrics' may be empty")
            first = named.setdefault(os.path.abspath(path), key) if path else key
            if first != key and key in WRITERS:
                raise CliError(f"config keys '{first}' and '{key}' name one file: {path}")

    def cbow(self) -> EmbeddingConfig:
        """The CBOW settings, checked by `EmbeddingConfig`."""
        return EmbeddingConfig(**{name: getattr(self, name) for name in EmbeddingConfig._fields})

    def serialize(self, skip: tuple[str, ...] = ()) -> str:
        """One ``key=value`` line per field, sorted by key; None is empty."""
        return "".join(f"{name}={'' if value is None else value}\n"
                       for name, value in sorted(zip(self._fields, self)) if name not in skip)

    def hash(self) -> str:
        """Stamp of the artifact layout (`ARTIFACT_FORMAT`) and of the settings
        artifacts depend on: all but ``workers``, which changes no output."""
        text = f"artifact_format={ARTIFACT_FORMAT}\n" + self.serialize(skip=("workers",))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]

    def header(self) -> dict[str, str]:
        return {CONFIG_HASH_KEY: self.hash()}


# config key -> its type; this module's annotations are evaluated, not strings
_FIELD_TYPES = PipelineConfig.__annotations__


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
    if kind is bool:
        return _parse_bool(raw)
    if kind == int | None:
        return int(raw) if raw else None
    return kind(raw)  # str, int or float


def load_config(
    path: str | None = None, overrides: dict[str, object] | None = None
) -> PipelineConfig:
    """Read a ``key=value`` config file, each key set at most once, and apply
    flag overrides on top. An artifact key that names the config file is
    refused, so that no stage writes over it."""
    values: dict[str, object] = {}
    if path:
        if not os.path.exists(path):
            raise CliError(f"config file not found: {path}")
        if os.path.isdir(path):
            raise CliError(f"config file is a directory: {path}")
        set_on: dict[str, int] = {}  # key -> the data line that set it
        for n, line in enumerate(iter_data_lines(path), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, raw = line.partition("=")
            key = key.strip()
            if not sep or key not in _FIELD_TYPES:
                raise CliError(f"{path}: line {file_line(path, n)}: unknown config key {key!r}")
            if key in set_on:
                raise CliError(f"{path}: line {file_line(path, n)}: config key {key!r} is "
                               f"already set on line {file_line(path, set_on[key])}")
            set_on[key] = n
            try:
                values[key] = _coerce(key, raw)
            except ValueError as exc:
                raise CliError(f"{path}: line {file_line(path, n)}: {exc}") from None
    if overrides:
        values.update(overrides)
    cfg = PipelineConfig(**values)
    config_file = os.path.abspath(path) if path else None
    for key in WRITERS:
        if getattr(cfg, key) and os.path.abspath(getattr(cfg, key)) == config_file:
            raise CliError(f"config key '{key}' names the config file: {path}")
    return cfg


def write_config(path: str | os.PathLike, cfg: PipelineConfig) -> None:
    with write_artifact(path, None) as fh:
        fh.write(cfg.serialize())


# ---------------------------------------------------------------------------
# stage plumbing


def _require_file(cfg: PipelineConfig, key: str) -> None:
    """Check the file under config key `key`: an input must be set and be a
    file; an artifact must be a file and carry the current stamp, or its
    writer is named."""
    path, writer = getattr(cfg, key), WRITERS.get(key)
    if writer is None:
        if not path:
            raise CliError(f"config key '{key}' is required for this stage")
        if not os.path.exists(path):
            raise CliError(f"input file for '{key}' not found: {path}")
        if os.path.isdir(path):
            raise CliError(f"input file for '{key}' is a directory: {path}")
        return
    if not path or not os.path.exists(path):
        raise CliError(f"missing artifact {path!r}: run the '{writer}' stage first")
    if os.path.isdir(path):
        raise CliError(f"artifact '{key}' is a directory: {path}")
    with open(path, "rb") as fh:
        stamped = read_header(fh, path).get(CONFIG_HASH_KEY)
    if stamped is None:
        raise CliError(f"unstamped artifact {path!r}: it has no #{CONFIG_HASH_KEY} line; "
                       f"re-run the '{writer}' stage")
    if stamped != cfg.hash():
        raise CliError(f"stale artifact {path!r}: built with config-hash {stamped}, current "
                       f"config is {cfg.hash()}; re-run the '{writer}' stage")


def _require(cfg: PipelineConfig, stage: str) -> None:
    """Check every file `stage` reads, in the order of its `STAGES` row."""
    for key in STAGES[stage].reads:
        _require_file(cfg, key)


def _require_writable(cfg: PipelineConfig, key: str) -> None:
    """Check the artifact under config key `key` can be written: its
    directory exists, and the path is not a directory."""
    path = getattr(cfg, key)
    directory = os.path.dirname(path)
    if directory and not os.path.isdir(directory):
        raise CliError(f"directory of artifact '{key}' not found: {directory}")
    if os.path.isdir(path):
        raise CliError(f"artifact '{key}' is a directory: {path}")


def _require_seed(cfg: PipelineConfig) -> None:
    if cfg.seed is None:
        raise CliError("train-embedding requires a seed (--seed or seed= in the config)")


SCAN_SUMMARIES = {  # corpus stage -> one-line summary of its ScanStats
    "normalize": "normalize: {0.paragraphs_in} paragraphs in, {0.paragraphs_out} out, "
    "{0.phrases_appended} phrases appended",
    "extract-hearst": "extract-hearst: {0.hearst_matches} matches",
    "extract-isa": "extract-isa: {0.isa_matches} matches",
}


def cmd_normalize(cfg: PipelineConfig) -> None:
    _require(cfg, "normalize")
    stats = normalize_corpus(cfg.corpus, cfg.normalized, cfg.workers, cfg.header())
    print(SCAN_SUMMARIES["normalize"].format(stats))


def cmd_extract_hearst(cfg: PipelineConfig) -> None:
    _require(cfg, "extract-hearst")
    stats = extract_corpus(cfg.corpus, cfg.hearst_corpus, None, cfg.workers, cfg.header())
    print(SCAN_SUMMARIES["extract-hearst"].format(stats))


def cmd_extract_isa(cfg: PipelineConfig) -> None:
    _require(cfg, "extract-isa")
    stats = extract_corpus(cfg.corpus, None, cfg.isa_corpus, cfg.workers, cfg.header())
    print(SCAN_SUMMARIES["extract-isa"].format(stats))


def cmd_train_embedding(cfg: PipelineConfig) -> None:
    _require_seed(cfg)
    _require(cfg, "train-embedding")
    model = train_cbow(cfg.normalized, cfg.cbow())
    save_embedding(cfg.embedding, model, header=cfg.header())
    print(f"train-embedding: {len(model.vocab)} tokens, dimension {model.dimension}")


def cmd_cooc_index(cfg: PipelineConfig) -> None:
    _require(cfg, "cooc-index")
    queries = load_queries(cfg.queries) + load_queries(cfg.train_queries)
    index = build_cooc_index(cfg.normalized, {term_to_token(q.term) for q in queries})
    # `predict` reads only the counts above threshold
    n_rows = save_cooc_index(cfg.cooc_index, index, header=cfg.header(), floor=cfg.threshold + 1)
    print(f"cooc-index: {len(index.counts)} query terms, {n_rows} candidate counts")


def cmd_fit_phi(cfg: PipelineConfig) -> None:
    _require(cfg, "fit-phi")
    pairs = [
        (gold_set.query.term, hypernym)
        for gold_set in load_gold(cfg.train_gold, load_queries(cfg.train_queries))
        for hypernym in gold_set.hypernyms
    ]
    model = load_embedding(cfg.embedding)
    phi = fit_phi(pairs, model, PhiMode(cfg.phi_mode), ridge=cfg.ridge)
    save_phi(cfg.phi, phi, header=cfg.header())
    print(
        f"fit-phi: {cfg.phi_mode} mode from {len(pairs) - phi.skipped_pairs} pairs "
        f"({phi.skipped_pairs} skipped out-of-vocabulary)"
    )


def module_lists(cfg: PipelineConfig) -> Callable[[Sequence[Query]], list[dict]]:
    """Check every file `predict` reads, load the vocabulary and the five
    artifacts once, and return the function from a list of queries to
    their four module lists each, the projection's from one
    `nearest_terms` call."""
    _require(cfg, "predict")
    cooc_idx = load_cooc_index(cfg.cooc_index)
    if cooc_idx.floor > cfg.threshold + 1:
        raise CliError(f"{cfg.cooc_index}: the snapshot keeps only counts of at least "
                       f"{cooc_idx.floor}, too few for threshold {cfg.threshold}; "
                       "re-run the 'cooc-index' stage")
    model, phi = load_embedding(cfg.embedding), load_phi(cfg.phi)
    # a square matrix or one row: its last axis is the width phi applies to
    width = (phi.offset if phi.mode is PhiMode.OFFSET else phi.matrix).shape[-1]
    if phi.mode.value != cfg.phi_mode or width != model.dimension:
        raise CliError(f"{cfg.phi}: the phi is {phi.mode.value} of width {width}, but phi_mode "
                       f"is {cfg.phi_mode} and the embedding has dimension {model.dimension}; "
                       "re-run the 'fit-phi' stage")
    vocab = load_vocabulary(cfg.vocab)
    hearst_idx = build_pair_index(cfg.hearst_corpus, Source.HEARST)
    isa_idx = build_pair_index(cfg.isa_corpus, Source.ISA)

    def lists_for(queries: Sequence[Query]) -> list[dict]:
        phi_lists = nearest_terms(phi, model, [q.term for q in queries], vocab, cfg.k)
        lists = []
        for q, phi_list in zip(queries, phi_lists):
            isa = candidates_from_pairs(isa_idx, q.term, vocab, cfg.k)
            head = head_word_heuristic(q)
            if head is not None and head.term in vocab and head.term not in {c.term for c in isa}:
                isa = (isa + [head])[: cfg.k]
            lists.append({
                Source.ISA: isa,
                Source.COOC: candidates_from_cooc(cooc_idx, q.term, vocab, cfg.threshold, cfg.k),
                Source.HEARST: candidates_from_pairs(hearst_idx, q.term, vocab, cfg.k),
                Source.PHI: phi_list,
            })
        return lists

    return lists_for


def cmd_predict(cfg: PipelineConfig) -> None:
    train_gold = None
    if cfg.order_mode == "trained":  # the one read no `STAGES` row lists, before the loads
        _require_file(cfg, "train_queries")
        _require_file(cfg, "train_gold")
        train_gold = load_gold(cfg.train_gold, load_queries(cfg.train_queries))
    lists_for = module_lists(cfg)
    order = ModuleOrder() if train_gold is None else choose_order(
        module_reports(lists_for([g.query for g in train_gold]), train_gold))
    queries = load_queries(cfg.queries)
    predictions = [merge(q, lists, order, cfg.k) for q, lists in zip(queries, lists_for(queries))]
    write_predictions(
        cfg.predictions, (p.terms() for p in predictions), header=cfg.header()
    )
    order_text = " > ".join(s.value for s in order.order)
    print(f"predict: {len(predictions)} queries, module order {order_text}")


def cmd_evaluate(cfg: PipelineConfig) -> None:
    _require(cfg, "evaluate")
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


class Stage(NamedTuple):
    handler: Callable[[PipelineConfig], None]
    reads: tuple[str, ...]  # config keys of the files it always reads, in check order
    writes: str  # config key of the artifact it writes, whose directory `main` checks first


# the stage graph, in pipeline order
STAGES = {
    "normalize": Stage(cmd_normalize, ("corpus",), "normalized"),
    "extract-hearst": Stage(cmd_extract_hearst, ("corpus",), "hearst_corpus"),
    "extract-isa": Stage(cmd_extract_isa, ("corpus",), "isa_corpus"),
    "train-embedding": Stage(cmd_train_embedding, ("normalized",), "embedding"),
    "cooc-index": Stage(cmd_cooc_index, ("normalized", "queries", "train_queries"), "cooc_index"),
    "fit-phi": Stage(cmd_fit_phi, ("embedding", "train_queries", "train_gold"), "phi"),
    "predict": Stage(cmd_predict, ("queries", "vocab", "cooc_index", "hearst_corpus",
                                   "isa_corpus", "embedding", "phi"), "predictions"),
    "evaluate": Stage(cmd_evaluate, ("queries", "gold", "predictions"), "metrics"),
}
WRITERS = {row.writes: stage for stage, row in STAGES.items()}  # artifact key -> stage
INPUTS = tuple(dict.fromkeys(k for row in STAGES.values() for k in row.reads if k not in WRITERS))
# what runs a stage, with `COMMANDS`: a handler rebound in either is the one called
PIPELINE_STAGES = [(stage, row.handler) for stage, row in STAGES.items()]


def cmd_pipeline(cfg: PipelineConfig) -> None:
    """Every stage in order; the corpus stages share one pass over the corpus.
    Every input file, the directory of every artifact, the seed and both
    gold files' lines are checked first, so that a bad one stops the run
    before it writes anything."""
    for key in INPUTS:
        _require_file(cfg, key)
    for key in WRITERS:
        _require_writable(cfg, key)
    _require_seed(cfg)
    load_gold(cfg.gold, load_queries(cfg.queries))
    load_gold(cfg.train_gold, load_queries(cfg.train_queries))
    stats = extract_corpus(cfg.corpus, cfg.hearst_corpus, cfg.isa_corpus, cfg.workers,
                           cfg.header(), normalized_out=cfg.normalized)
    for stage, handler in PIPELINE_STAGES:
        if stage in SCAN_SUMMARIES:
            print(SCAN_SUMMARIES[stage].format(stats))
        else:
            handler(cfg)


COMMANDS = dict(PIPELINE_STAGES) | {"pipeline": cmd_pipeline}


def _build_parser() -> argparse.ArgumentParser:
    flags = argparse.ArgumentParser(add_help=False)  # every command's flags
    flags.add_argument("--config", help="key=value configuration file")
    for name in PipelineConfig._fields:
        flags.add_argument("--" + name.replace("_", "-"), dest=name, default=argparse.SUPPRESS,
                           metavar="V")
    parser = argparse.ArgumentParser(
        prog="hyperdisc",
        description="Hypernym discovery over a POS-tagged corpus.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        row = STAGES.get(name)
        text = f"reads {', '.join(row.reads)}; writes {row.writes}" if row else "run every stage"
        subparsers.add_parser(name, help=text, description=text, parents=[flags])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    raw = vars(args)
    command = raw.pop("command")
    config_path = raw.pop("config", None)
    try:
        overrides = {}
        for key, value in raw.items():
            try:
                overrides[key] = _coerce(key, str(value))
            except ValueError as exc:
                raise CliError(f"--{key.replace('_', '-')}: {exc}") from None
        cfg = load_config(config_path, overrides)
        if command in STAGES:  # `pipeline` checks the directory of every artifact itself
            _require_writable(cfg, STAGES[command].writes)
        COMMANDS[command](cfg)
    except (ValueError, OSError) as exc:  # `CliError` and `FormatError` among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # Ctrl-C; an artifact being written is left as it was
        print("error: interrupted", file=sys.stderr)
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
