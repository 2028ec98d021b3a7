"""Hypernym discovery from POS-tagged corpora.

Four evidence modules (paragraph co-occurrence, Hearst patterns, IS-A
patterns, embedding projection) each rank candidate hypernyms for a query
term; the ranked lists are merged into one top-15 prediction per query and
scored with MRR/MAP/P@k.
"""

from .cooc import (
    CoocIndex,
    PairIndex,
    ScoredCandidate,
    Source,
    build_cooc_index,
    build_pair_index,
    candidates_from_cooc,
    candidates_from_pairs,
    head_word_heuristic,
)
from .corpus_io import (
    GoldSet,
    Query,
    QueryKind,
    TaggedParagraph,
)
from .embedding import (
    EmbeddingConfig,
    EmbeddingModel,
    PhiMode,
    PhiTransform,
    candidates_from_phi,
    cbow_step_loss,
    fit_phi,
    train_cbow,
)
from .metrics import (
    MetricsReport,
    average_precision,
    evaluate,
    precision_at_k,
    reciprocal_rank,
)
from .normalize import normalize_corpus, normalize_paragraph
from .patterns import PatternMatch, extract_corpus, extract_hearst, extract_isa
from .rank import ModuleOrder, RankedPrediction, choose_order, merge, module_reports

__version__ = "0.1.0"
