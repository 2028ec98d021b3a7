"""Answer test queries from pipeline artifacts through the public API.

    python perfbench/answer.py --config CONFIG --out RESULT.json
        [--seconds S] [--min-samples N] [--no-phi] [--probe {mixed,retrieval}]

After an untimed warm-up on the first few queries, one operation loads
every artifact `hyperdisc predict` reads with the public loaders, then
answers each query: per-module candidate lists (``candidates_from_*`` plus
``head_word_heuristic``) merged in the fixed module order. Operations
repeat until ``--seconds`` have passed and at least ``--min-samples`` query
latencies are recorded. ``--no-phi`` leaves the projection module out, for
artifact sets built without an embedding.

A speed probe of the kind ``--probe`` names (perfbench/speed.py) runs
before and after the load and after every 0.2 s of answering, outside the
timed intervals; each time is also given scaled to the reference speed by
the probes on either side.

The JSON result holds, for every operation, the load and answer times,
measured and scaled, and a digest of the merged predictions; every
per-query latency, measured and scaled; the merged
predictions of the first operation and the per-module candidate lists
behind them; and the ``perf_counter_ns`` time at which timing began, so a
trace can leave the warm-up out. Functions are looked up on their modules
at call time, so a tracer that wraps them sees every call.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time

import speed
from hyperdisc import cli, cooc, corpus_io, embedding, rank

WARMUP_QUERIES = 10
CHUNK_NS = 200_000_000  # query time between two speed probes


def load(cfg, with_phi: bool) -> dict:
    artifacts = {
        "vocab": corpus_io.load_vocabulary(cfg.vocab),
        "queries": corpus_io.load_queries(cfg.queries),
        "cooc": cooc.load_cooc_index(cfg.cooc_index),
        "hearst": cooc.build_pair_index(cfg.hearst_corpus, cooc.Source.HEARST),
        "isa": cooc.build_pair_index(cfg.isa_corpus, cooc.Source.ISA),
    }
    if with_phi:
        artifacts["model"] = embedding.load_embedding(cfg.embedding)
        artifacts["phi"] = embedding.load_phi(cfg.phi)
    return artifacts


def source_lists(query, art: dict, cfg) -> dict:
    """The four evidence lists for one query, as `hyperdisc predict` builds them."""
    vocab = art["vocab"]
    isa = cooc.candidates_from_pairs(art["isa"], query.term, vocab, cfg.k)
    head = cooc.head_word_heuristic(query)
    if head is not None and head.term in vocab and head.term not in {c.term for c in isa}:
        isa = (isa + [head])[: cfg.k]
    lists = {
        cooc.Source.ISA: isa,
        cooc.Source.COOC: cooc.candidates_from_cooc(
            art["cooc"], query.term, vocab, cfg.threshold, cfg.k
        ),
        cooc.Source.HEARST: cooc.candidates_from_pairs(
            art["hearst"], query.term, vocab, cfg.k
        ),
        cooc.Source.PHI: [],
    }
    if "model" in art:
        lists[cooc.Source.PHI] = embedding.candidates_from_phi(
            art["phi"], art["model"], query.term, vocab, cfg.k
        )
    return lists


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-samples", type=int, default=0)
    parser.add_argument("--no-phi", action="store_true")
    parser.add_argument("--probe", choices=sorted(speed.PROBES), default="mixed")
    args = parser.parse_args(argv)
    cfg = cli.load_config(args.config)
    order = rank.ModuleOrder()

    # warm-up, untimed: first calls pay for lazy imports and cold caches
    art = load(cfg, with_phi=not args.no_phi)
    for query in art["queries"][:WARMUP_QUERIES]:
        rank.merge(query, source_lists(query, art, cfg), order, cfg.k)
    speed.probe_once(args.probe)

    ops = []
    latencies_ns: list[int] = []
    scaled_ns: list[float] = []
    predictions: list[list[str]] = []
    per_source: dict[str, list[list[str]]] = {s.value: [] for s in cooc.Source}
    timed_from_ns = time.perf_counter_ns()
    start = time.perf_counter()
    while True:
        p0 = speed.probe_once(args.probe)
        t0 = time.perf_counter()
        art = load(cfg, with_phi=not args.no_phi)
        t1 = time.perf_counter()
        probe_s = speed.probe_once(args.probe)
        load_scaled = speed.scale(t1 - t0, args.probe, (p0 + probe_s) / 2)
        first = not ops
        digest = hashlib.sha256()
        answer_s = answer_scaled = 0.0
        chunk: list[int] = []
        queries = art["queries"]
        for i, query in enumerate(queries):
            q0 = time.perf_counter_ns()
            lists = source_lists(query, art, cfg)
            merged = rank.merge(query, lists, order, cfg.k)
            chunk.append(time.perf_counter_ns() - q0)
            digest.update(("\t".join(merged.terms()) + "\n").encode("utf-8"))
            if first:
                predictions.append(merged.terms())
                for source, cands in lists.items():
                    per_source[source.value].append([c.term for c in cands])
            if sum(chunk) >= CHUNK_NS or i == len(queries) - 1:
                # a chunk's latencies are scaled by the probes on either side
                after = speed.probe_once(args.probe)
                factor = speed.scale(1.0, args.probe, (probe_s + after) / 2)
                probe_s = after
                latencies_ns.extend(chunk)
                scaled_ns.extend(ns * factor for ns in chunk)
                answer_s += sum(chunk) / 1e9
                answer_scaled += sum(chunk) * factor / 1e9
                chunk = []
        ops.append({
            "load_s": t1 - t0,
            "answer_s": answer_s,
            "load_scaled_s": load_scaled,
            "answer_scaled_s": answer_scaled,
            "queries": len(queries),
            "digest": digest.hexdigest(),
        })
        if time.perf_counter() - start >= args.seconds and len(latencies_ns) >= args.min_samples:
            break
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "ops": ops,
                "latencies_ns": latencies_ns,
                "scaled_latencies_ns": scaled_ns,
                "predictions": predictions,
                "per_source": per_source,
                "timed_from_ns": timed_from_ns,
            },
            fh,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
