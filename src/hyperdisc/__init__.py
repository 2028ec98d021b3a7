"""Hypernym discovery from POS-tagged corpora.

Four evidence modules (paragraph co-occurrence, Hearst patterns, IS-A
patterns, embedding projection) each rank candidate hypernyms for a query
term; the ranked lists are merged into one top-15 prediction per query and
scored with MRR/MAP/P@k.
"""
