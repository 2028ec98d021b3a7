"""The hyperdisc benchmark.

    python3 perfbench/run.py --workload {build,scan,query} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
Inputs are generated from ``--seed`` under ``.perfbench_work/`` and removed
afterwards. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. The lines before it print every metric by name and unit,
plus the machine, the ``src/`` line count, the input sizes, the fail ratio,
and the throughput, query-latency and unscaled wall-time metrics the result
leaves out. Times in the result are scaled to a reference machine speed
(perfbench/speed.py).

Workloads (see perfbench/README.md for why each exists):

* build  -- ``hyperdisc pipeline`` at workers=1 on a hard planted corpus.
* scan   -- the corpus-side stages (normalize, extract-hearst, extract-isa,
            cooc-index) at workers=2 on a larger hard planted corpus.
* query  -- load the artifacts and answer every test query against a
            candidate vocabulary of ten thousand terms.

Every workload answers its test queries from its own artifacts
(perfbench/answer.py), which gives the query-latency and quality metrics;
``scan`` builds no embedding, so its answers leave the projection out.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Input sizes and CBOW settings per workload.
SIZES = {
    "build": dict(n_hypernyms=10, n_hyponyms=60, noise_lines=600, distractor_vocab=20,
                  dim=32, epochs=2, window=5, min_count=5, workers=1),
    "scan": dict(n_hypernyms=20, n_hyponyms=100, noise_lines=2000, distractor_vocab=20,
                 workers=2),
    "query": dict(n_hypernyms=10, n_hyponyms=50, noise_lines=8000, distractor_vocab=10000,
                  dim=16, epochs=1, window=5, min_count=3, workers=1),
}
# Speed probe of the answering process per workload (speed.py): `query`
# spends its time in projection retrieval, which a slowdown hurts more than
# the mix of work answering does elsewhere.
PROBE = {"build": "mixed", "scan": "mixed", "query": "retrieval"}
SCAN_STAGES = ("normalize", "extract-hearst", "extract-isa", "cooc-index")
ALL_STAGES = (
    "normalize", "extract-hearst", "extract-isa", "train-embedding",
    "cooc-index", "fit-phi", "predict", "evaluate",
)
SETUP_REPEATS = 2          # set-up samples per operation
QUERY_MIN_SAMPLES = 1000   # enough for a p99 with ten samples beyond it
MIN_OPS = 2                # build reruns once at least, for the determinism check
CHILD_TIMEOUT_S = 170

# Times are scaled to the reference speed (speed.py).
E2E_UNITS = {
    "wall_s": "s", "setup_s": "s", "queries_per_s": "1/s", "peak_rss_mb": "MB",
    "mrr": "score", "map": "score", "p_at_1": "score",
}
# Printed by name and unit but left out of the result's metrics (see README.md):
# the latency percentiles spread more from run to run than queries_per_s,
# `query` reads no corpus for tokens_per_s, and wall_raw_s is wall_s as
# measured, before scaling.
PRINTED_UNITS = {
    "tokens_per_s": "1/s", "query_p50_ms": "ms", "query_p99_ms": "ms", "wall_raw_s": "s",
}
STAGE_METRICS = ("wall_s", "self_s", "maxrss_mb")
LAYER_UNITS = {
    "embedding.train_s": "s", "embedding.positions_per_s": "1/s",
    "embedding.train_share": "ratio",
    "normalize.busy_s": "s", "normalize.lines_per_s": "1/s",
    "patterns.busy_s": "s", "patterns.lines_per_s": "1/s", "patterns.calls": "count",
    "patterns.useful_ratio": "ratio", "corpus_io.tagged_passes": "count",
    "cooc.index_s": "s", "cooc.lines_per_s": "1/s",
    "embedding.phi_p50_ms": "ms", "embedding.phi_p99_ms": "ms",
    "embedding.phi_share": "ratio",
    "cooc.lookup_p50_us": "us", "rank.merge_p50_us": "us",
    "embedding.load_s": "s", "cooc.load_s": "s", "cooc.pairs_load_s": "s",
    "corpus_io.load_s": "s",
    "embedding.save_s": "s", "cooc.save_s": "s", "embedding.fit_phi_s": "s",
    "metrics.evaluate_s": "s",
    "parallel.map_calls": "count", "parallel.map_items": "count",
    **{f"cli.{stage}.{m}": ("MB" if m == "maxrss_mb" else "s")
       for stage in ALL_STAGES for m in STAGE_METRICS},
    "patterns.isa_mrr": "score", "patterns.hearst_mrr": "score",
    "cooc.cooc_mrr": "score", "embedding.phi_mrr": "score",
    "trace.overhead_s": "s",
}


class RunError(Exception):
    """A program run failed, so this benchmark run has no metrics."""


# ---------------------------------------------------------------------------
# processes


@dataclass
class Proc:
    wall_s: float
    scaled_s: float  # wall_s at the reference speed (speed.py)
    maxrss_mb: float
    returncode: int


@dataclass
class Bench:
    workdir: Path
    seed: int
    seconds: float
    answer_probe: str = "mixed"
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    info: dict[str, object] = field(default_factory=dict)
    sampler: speed.Sampler = field(default_factory=speed.Sampler)
    sampled_s: list[float] = field(default_factory=list)  # sampler probe times

    def env(self) -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        return env

    def spawn(self, argv: list[str], pinned: bool) -> Proc:
        """Run a child to completion; wall time, scaled wall time and peak
        RSS (with its children).

        A ``pinned`` child runs on one CPU. Single-process operations are
        pinned: where the scheduler places a short process otherwise
        decides its speed on a machine whose CPUs drift apart. The speed
        sampler runs on the CPUs the child may use for as long as it runs,
        and scales its wall time. The child gets a process group of its own
        but stays in this session, which it must share with the sampler.
        """
        log = self.workdir / "children.log"
        cpus = os.sched_getaffinity(0)
        on = {min(cpus)} if pinned else cpus
        self.sampler.start(on)
        with open(log, "ab") as out:
            start = time.perf_counter()
            if pinned:  # the child inherits this thread's affinity
                os.sched_setaffinity(0, {min(cpus)})
            try:
                proc = subprocess.Popen(
                    argv, stdout=out, stderr=subprocess.STDOUT, env=self.env(), cwd=ROOT,
                    process_group=0,
                )
            finally:
                os.sched_setaffinity(0, cpus)
            # on a hang, kill the child and any pool workers it started
            timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        probe_s = self.sampler.stop()
        self.sampled_s.append(probe_s)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(wall, speed.scale(wall, "sampled", probe_s), usage.ru_maxrss / 1024,
                    proc.returncode)

    def operation(self, argv: list[str], what: str, pinned: bool = True) -> Proc:
        """A program run that counts as one attempted operation; a failed one
        ends the benchmark run."""
        proc = self.spawn(argv, pinned)
        self.check(proc.returncode == 0, f"{what} exited with code {proc.returncode}")
        if proc.returncode != 0:
            raise RunError(f"{what} exited with code {proc.returncode}; see children.log")
        return proc

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def cli(self, config: Path, stage: str, traced: Path | None = None,
            pinned: bool = True) -> Proc:
        if traced is None:
            argv = [sys.executable, "-m", "hyperdisc.cli", stage, "--config", str(config)]
        else:
            argv = [sys.executable, str(HERE / "trace.py"), str(traced), "cli",
                    stage, "--config", str(config)]
        return self.operation(argv, f"hyperdisc {stage}", pinned)

    def answer(self, config: Path, out: Path, *, seconds: float = 0.0,
               min_samples: int = 0, phi: bool = True, traced: Path | None = None):
        args = ["--config", str(config), "--out", str(out), "--seconds", str(seconds),
                "--min-samples", str(min_samples), "--probe", self.answer_probe]
        args += [] if phi else ["--no-phi"]
        if traced is None:
            argv = [sys.executable, str(HERE / "answer.py"), *args]
        else:
            argv = [sys.executable, str(HERE / "trace.py"), str(traced), "answer", *args]
        proc = self.operation(argv, "query answering")
        with open(out, encoding="utf-8") as fh:
            return proc, json.load(fh)

    def setup_s(self, config: Path) -> float:
        """Time for a fresh process to import the CLI and read the config."""
        code = "import sys; from hyperdisc.cli import load_config; load_config(sys.argv[1])"
        return self.operation([sys.executable, "-c", code, str(config)], "config load").scaled_s


# ---------------------------------------------------------------------------
# inputs and configuration


def make_inputs(bench: Bench, workload: str, name: str = "data"):
    from hard import generate_hard

    size = SIZES[workload]
    data = generate_hard(
        bench.workdir / name, bench.seed, size["n_hypernyms"], size["n_hyponyms"],
        noise_lines=size["noise_lines"], distractor_vocab=size["distractor_vocab"],
    )
    bench.info["inputs"] = {
        "lines": data.lines, "tokens": data.tokens,
        "vocab_terms": data.vocab_terms, "queries": data.queries,
    }
    return data


def write_config(bench: Bench, data, workload: str, name: str, **overrides) -> Path:
    from hyperdisc.cli import PipelineConfig, write_config as save

    size = SIZES[workload] | overrides
    art = bench.workdir / name
    art.mkdir(parents=True, exist_ok=True)
    p = data.planted
    cfg = PipelineConfig(
        corpus=str(p.corpus), vocab=str(p.vocab), queries=str(p.queries),
        gold=str(p.gold), train_queries=str(p.train_queries), train_gold=str(p.train_gold),
        normalized=str(art / "normalized.txt"), hearst_corpus=str(art / "hearst_corpus.tsv"),
        isa_corpus=str(art / "isa_corpus.tsv"), cooc_index=str(art / "cooc_index.tsv"),
        embedding=str(art / "embedding.txt"), phi=str(art / "phi.txt"),
        predictions=str(art / "predictions.tsv"), metrics=str(art / "metrics.tsv"),
        dim=size.get("dim", 32), window=size.get("window", 5),
        min_count=size.get("min_count", 5), epochs=size.get("epochs", 2), lr=0.05,
        seed=bench.seed, workers=size["workers"],
    )
    path = art / "config.txt"
    save(path, cfg)
    return path


def load_cfg(config: Path):
    from hyperdisc.cli import load_config

    return load_config(str(config))


# ---------------------------------------------------------------------------
# output checks


def digest(path: str | Path, skip_header: bool = False) -> str:
    """sha256 of a file; with ``skip_header`` the leading ``#`` stamp lines are left out."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        in_header = skip_header
        for line in fh:
            if in_header and line.startswith(b"#"):
                continue
            in_header = False
            h.update(line)
    return h.hexdigest()


def artifact_paths(cfg, stages=ALL_STAGES) -> list[str]:
    by_stage = {
        "normalize": cfg.normalized, "extract-hearst": cfg.hearst_corpus,
        "extract-isa": cfg.isa_corpus, "train-embedding": cfg.embedding,
        "cooc-index": cfg.cooc_index, "fit-phi": cfg.phi,
        "predict": cfg.predictions, "evaluate": cfg.metrics,
    }
    return [by_stage[s] for s in stages]


def check_predictions(bench: Bench, result: dict, predictions_file: str) -> None:
    """Every answering operation must reproduce `hyperdisc predict` row for row."""
    from hyperdisc.corpus_io import read_predictions

    expected = read_predictions(predictions_file)
    bench.check(result["predictions"] == expected,
                f"answered predictions differ from {Path(predictions_file).name}")
    first = result["ops"][0]["digest"]
    for op in result["ops"][1:]:
        bench.check(op["digest"] == first, "answering is not repeatable")


def check_reported_scores(bench: Bench, scores: dict, metrics_file: str) -> None:
    """The benchmark's own scores must equal the pipeline's metrics report."""
    from hyperdisc.corpus_io import iter_data_lines

    report = dict(line.split("\t") for line in iter_data_lines(metrics_file) if line)
    for ours, theirs in (("mrr", "mrr"), ("map", "map"), ("p_at_1", "p@1")):
        bench.check(
            f"{scores[ours]:.3f}" == report.get(theirs),
            f"{ours} {scores[ours]:.3f} differs from metrics file {report.get(theirs)}",
        )


# ---------------------------------------------------------------------------
# metrics


def percentile(values: list[float], q: float) -> tuple[float, float]:
    """(value, percentile used), by nearest rank. The percentile is ``q`` when
    at least ten samples lie beyond it, else the highest one that has ten
    beyond it, and never below the median."""
    n = len(values)
    q = min(q, max(0.5, 1.0 - 10.0 / n))
    ordered = sorted(values)
    return ordered[min(n - 1, int(q * n))], q


def scores(rows: list[list[str]], gold_path: str, queries_path: str) -> dict:
    from hyperdisc.corpus_io import load_gold, load_queries
    from hyperdisc.metrics import evaluate

    gold = load_gold(gold_path, load_queries(queries_path))
    report = evaluate(rows, gold)
    return {"mrr": report.mrr, "map": report.map, "p_at_1": report.p_at[1]}


def query_metrics(bench: Bench, results: list[dict]) -> dict:
    ops = [op for result in results for op in result["ops"]]
    answer_s = sum(op["answer_scaled_s"] for op in ops)
    answered = sum(op["queries"] for op in ops)
    ms = [ns / 1e6 for result in results for ns in result["scaled_latencies_ns"]]
    p50, _ = percentile(ms, 0.5)
    p99, used = percentile(ms, 0.99)
    bench.info["query_samples"] = len(ms)
    bench.info["query_tail_percentile"] = round(100 * used, 2)
    return {"queries_per_s": answered / answer_s, "query_p50_ms": p50, "query_p99_ms": p99}


# ---------------------------------------------------------------------------
# workloads (untraced)


def measure(bench: Bench, config: Path, operation, check, *, min_ops: int,
            phi: bool) -> tuple[dict, list[dict]]:
    """Repeat until the run's time is up: set-up samples, one operation, then
    the test queries answered from its artifacts. Interleaving spreads every
    metric's samples over the whole run."""
    setups, walls, raw, rss, results = [], [], [], [], []
    start = time.perf_counter()
    while len(walls) < min_ops or time.perf_counter() - start < bench.seconds:
        setups.extend(bench.setup_s(config) for _ in range(SETUP_REPEATS))
        procs = operation()
        walls.append(sum(p.scaled_s for p in procs))
        raw.append(sum(p.wall_s for p in procs))
        rss.append(max(p.maxrss_mb for p in procs))
        check()
        _, result = bench.answer(config, bench.workdir / "answers.json",
                                 min_samples=QUERY_MIN_SAMPLES // 2, phi=phi)
        results.append(result)
    bench.info["ops"] = len(walls)
    return {
        "wall_s": statistics.median(walls),
        "wall_raw_s": statistics.median(raw),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
        **query_metrics(bench, results),
    }, results


def run_build(bench: Bench) -> dict:
    data = make_inputs(bench, "build")
    config = write_config(bench, data, "build", "art")
    cfg = load_cfg(config)
    first: list[str] = []

    def pipeline() -> list[Proc]:
        return [bench.cli(config, "pipeline")]

    def deterministic() -> None:
        digests = [digest(p) for p in artifact_paths(cfg)]
        if not first:
            first.extend(digests)
            return
        for path, a, b in zip(artifact_paths(cfg), first, digests):
            bench.check(a == b, f"{Path(path).name} differs between two runs")

    values, results = measure(bench, config, pipeline, deterministic,
                              min_ops=MIN_OPS, phi=True)
    for result in results:
        check_predictions(bench, result, cfg.predictions)
    quality = scores(results[0]["predictions"], cfg.gold, cfg.queries)
    check_reported_scores(bench, quality, cfg.metrics)
    return values | quality | {"tokens_per_s": data.tokens / values["wall_s"]}


def scan_reference(bench: Bench, data) -> list[str]:
    """Stage outputs at workers=1, stamp lines left out (the stamp hashes ``workers``)."""
    config = write_config(bench, data, "scan", "ref", workers=1)
    for stage in SCAN_STAGES:
        bench.cli(config, stage, pinned=False)
    return [digest(p, skip_header=True) for p in artifact_paths(load_cfg(config), SCAN_STAGES)]


def check_scan(bench: Bench, cfg, reference: list[str]) -> None:
    for path, ref in zip(artifact_paths(cfg, SCAN_STAGES), reference):
        bench.check(digest(path, skip_header=True) == ref,
                    f"{Path(path).name} at workers=2 differs from workers=1")


def run_scan(bench: Bench) -> dict:
    data = make_inputs(bench, "scan")
    reference = scan_reference(bench, data)
    config = write_config(bench, data, "scan", "art")
    cfg = load_cfg(config)

    def stages() -> list[Proc]:
        return [bench.cli(config, stage, pinned=False) for stage in SCAN_STAGES]

    values, results = measure(bench, config, stages,
                              lambda: check_scan(bench, cfg, reference),
                              min_ops=1, phi=False)
    first = results[0]["ops"][0]["digest"]
    for result in results:
        for op in result["ops"]:
            bench.check(op["digest"] == first, "answering is not repeatable")
    return values | scores(results[0]["predictions"], cfg.gold, cfg.queries) | {
        "tokens_per_s": data.tokens / values["wall_s"]}


def query_artifacts(bench: Bench):
    """Set-up outside the workload: the CLI builds every artifact once."""
    data = make_inputs(bench, "query")
    config = write_config(bench, data, "query", "art")
    bench.cli(config, "pipeline")
    return config, load_cfg(config)


def run_query(bench: Bench) -> dict:
    config, cfg = query_artifacts(bench)
    proc, result = bench.answer(config, bench.workdir / "answers.json",
                                seconds=bench.seconds, min_samples=QUERY_MIN_SAMPLES)
    check_predictions(bench, result, cfg.predictions)
    quality = scores(result["predictions"], cfg.gold, cfg.queries)
    check_reported_scores(bench, quality, cfg.metrics)
    ops = result["ops"]
    bench.info["ops"] = len(ops)
    return {
        "wall_s": statistics.median(op["load_scaled_s"] + op["answer_scaled_s"] for op in ops),
        "wall_raw_s": statistics.median(op["load_s"] + op["answer_s"] for op in ops),
        "setup_s": statistics.median(op["load_scaled_s"] for op in ops),
        "peak_rss_mb": proc.maxrss_mb,
        **query_metrics(bench, [result]), **quality,
    }


# ---------------------------------------------------------------------------
# traced runs


def module_scores(result: dict, cfg) -> dict:
    per = {source: scores(rows, cfg.gold, cfg.queries)["mrr"]
           for source, rows in result["per_source"].items()}
    return {"patterns.isa_mrr": per["IsA"], "patterns.hearst_mrr": per["Hearst"],
            "cooc.cooc_mrr": per["Cooc"], "embedding.phi_mrr": per["Phi"]}


def tracing_overhead(plain, traced) -> tuple[float, float]:
    """(traced minus untraced scaled wall time, untraced wall time as
    measured), each the mean of two operations run untraced, traced,
    traced, untraced so that a linear drift in machine speed cancels out.
    ``plain`` and ``traced`` run one operation and return its processes."""
    plain_ops = [plain()]
    traced_ops = [traced(), traced()]
    plain_ops.append(plain())

    def mean(ops, key) -> float:
        return sum(getattr(p, key) for procs in ops for p in procs) / len(ops)

    return mean(traced_ops, "scaled_s") - mean(plain_ops, "scaled_s"), mean(plain_ops, "wall_s")


def trace_build(bench: Bench) -> dict:
    data = make_inputs(bench, "build")
    config = write_config(bench, data, "build", "art")
    cfg = load_cfg(config)
    spans = bench.workdir / "spans.json"
    first: list[str] = []

    def pipeline(traced: Path | None) -> list[Proc]:
        procs = [bench.cli(config, "pipeline", traced=traced)]
        digests = [digest(p) for p in artifact_paths(cfg)]
        if not first:
            first.extend(digests)
            return procs
        for path, a, b in zip(artifact_paths(cfg), first, digests):
            bench.check(a == b, f"{Path(path).name} differs between runs")
        return procs

    overhead, plain_s = tracing_overhead(lambda: pipeline(None), lambda: pipeline(spans))
    _, result = bench.answer(config, bench.workdir / "answers.json")
    check_predictions(bench, result, cfg.predictions)
    layers = layer_metrics([load_spans(spans)], cfg, result=None)
    layers["embedding.train_share"] = layers["embedding.train_s"] / plain_s
    return layers | module_scores(result, cfg) | {"trace.overhead_s": overhead}


def trace_scan(bench: Bench) -> dict:
    data = make_inputs(bench, "scan")
    reference = scan_reference(bench, data)
    config = write_config(bench, data, "scan", "art")
    cfg = load_cfg(config)

    def stages(traced: bool) -> list[Proc]:
        procs = [
            bench.cli(config, stage, pinned=False,
                      traced=bench.workdir / f"spans-{stage}.json" if traced else None)
            for stage in SCAN_STAGES
        ]
        check_scan(bench, cfg, reference)
        return procs

    overhead, _ = tracing_overhead(lambda: stages(False), lambda: stages(True))
    traces = [load_spans(bench.workdir / f"spans-{stage}.json") for stage in SCAN_STAGES]
    _, result = bench.answer(config, bench.workdir / "answers.json", phi=False)
    return layer_metrics(traces, cfg, result=None) | module_scores(result, cfg) | {
        "trace.overhead_s": overhead}


def trace_query(bench: Bench) -> dict:
    config, cfg = query_artifacts(bench)
    spans = bench.workdir / "spans.json"
    results = {}

    def answer(traced: Path | None) -> list[Proc]:
        name = "answers-traced.json" if traced else "answers.json"
        proc, results[name] = bench.answer(config, bench.workdir / name, traced=traced)
        check_predictions(bench, results[name], cfg.predictions)
        return [proc]

    overhead, _ = tracing_overhead(lambda: answer(None), lambda: answer(spans))
    traced_result = results["answers-traced.json"]
    return layer_metrics([load_spans(spans)], cfg, result=traced_result) | module_scores(
        results["answers.json"], cfg) | {"trace.overhead_s": overhead}


def load_spans(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def count_lines(path: str) -> int:
    from hyperdisc.corpus_io import iter_data_lines

    return sum(1 for line in iter_data_lines(path) if line.strip())


def covered_ns(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of [start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_metrics(traces: list[dict], cfg, result: dict | None) -> dict:
    """Per-layer metrics from span files; zero where a layer did no work."""
    from hyperdisc.corpus_io import iter_data_lines
    from hyperdisc.embedding import load_embedding

    metrics = {name: 0.0 for name in LAYER_UNITS}
    spans = [s for t in traces for s in t["spans"]]
    if result is not None:  # leave the answering warm-up out
        spans = [s for s in spans if s[1] >= result["timed_from_ns"]]

    def durations(*names: str) -> list[float]:
        return [(s[2] - s[1]) / 1e9 for s in spans if s[0] in names]

    def busy(*names: str) -> float:
        return sum(durations(*names))

    def infos(name: str) -> list[dict]:
        return [s[5] for s in spans if s[0] == name]

    train_s = busy("embedding.train_cbow")
    if train_s:
        vocab = set(load_embedding(cfg.embedding).vocab)
        per_epoch = 0
        for line in iter_data_lines(cfg.normalized):
            n = sum(1 for t in line.split() if t in vocab)
            per_epoch += n if n >= 2 else 0
        positions = sum(info["epochs"] for info in infos("embedding.train_cbow")) * per_epoch
        metrics["embedding.train_s"] = train_s
        metrics["embedding.positions_per_s"] = positions / train_s

    norm_s = busy("normalize.normalize_corpus")
    if norm_s:
        metrics["normalize.busy_s"] = norm_s
        metrics["normalize.lines_per_s"] = sum(
            i["paragraphs_in"] for i in infos("normalize.normalize_corpus")) / norm_s

    extract = infos("patterns.extract_corpus")
    if extract:
        pat_s = busy("patterns.extract_corpus")
        scanned = sum(count_lines(i["path"]) for i in extract)
        metrics["patterns.busy_s"] = pat_s
        metrics["patterns.lines_per_s"] = scanned / pat_s
        metrics["patterns.calls"] = len(extract)
        computed = sum(i["computed"] for i in extract)
        metrics["patterns.useful_ratio"] = (
            sum(i["written"] for i in extract) / computed if computed else 1.0)

    tagged = os.path.abspath(cfg.corpus)
    metrics["corpus_io.tagged_passes"] = sum(t["path_reads"].get(tagged, 0) for t in traces)

    index_s = busy("cooc.build_cooc_index")
    if index_s:
        metrics["cooc.index_s"] = index_s
        metrics["cooc.lines_per_s"] = sum(
            count_lines(i["path"]) for i in infos("cooc.build_cooc_index")) / index_s

    phi_ms = [d * 1e3 for d in durations("embedding.candidates_from_phi")]
    if phi_ms:
        metrics["embedding.phi_p50_ms"] = percentile(phi_ms, 0.5)[0]
        metrics["embedding.phi_p99_ms"] = percentile(phi_ms, 0.99)[0]
        if result is not None:
            metrics["embedding.phi_share"] = (
                sum(phi_ms) * 1e6 / sum(result["latencies_ns"]))
    lookups = durations("cooc.candidates_from_cooc", "cooc.candidates_from_pairs")
    if lookups:
        metrics["cooc.lookup_p50_us"] = percentile([d * 1e6 for d in lookups], 0.5)[0]
    merges = durations("rank.merge")
    if merges:
        metrics["rank.merge_p50_us"] = percentile([d * 1e6 for d in merges], 0.5)[0]

    metrics["embedding.load_s"] = busy("embedding.load_embedding", "embedding.load_phi")
    metrics["cooc.load_s"] = busy("cooc.load_cooc_index")
    metrics["cooc.pairs_load_s"] = busy("cooc.build_pair_index")
    metrics["corpus_io.load_s"] = busy(
        "corpus_io.load_vocabulary", "corpus_io.load_queries", "corpus_io.load_gold",
        "corpus_io.read_predictions")
    metrics["embedding.save_s"] = busy("embedding.save_embedding", "embedding.save_phi")
    metrics["cooc.save_s"] = busy("cooc.save_cooc_index")
    metrics["embedding.fit_phi_s"] = busy("embedding.fit_phi")
    metrics["metrics.evaluate_s"] = busy("metrics.evaluate")
    metrics["parallel.map_calls"] = sum(
        t["counters"].get("parallel.map_lines.calls", 0) for t in traces)
    metrics["parallel.map_items"] = sum(
        t["counters"].get("parallel.map_lines.items", 0) for t in traces)

    for trace in traces:
        children: dict[int, list[tuple[int, int]]] = {}
        for s in trace["spans"]:
            children.setdefault(s[3], []).append((s[1], s[2]))
        for index, s in enumerate(trace["spans"]):
            stage = s[0].removeprefix("cli.")
            if not s[0].startswith("cli.") or stage not in ALL_STAGES:
                continue
            wall_ns = s[2] - s[1]
            metrics[f"cli.{stage}.wall_s"] += wall_ns / 1e9
            metrics[f"cli.{stage}.self_s"] += (
                wall_ns - covered_ns(children.get(index, []))) / 1e9
            metrics[f"cli.{stage}.maxrss_mb"] = max(
                metrics[f"cli.{stage}.maxrss_mb"], trace["stage_rss_mb"].get(stage, 0.0))
    return metrics


# ---------------------------------------------------------------------------
# entry point

WORKLOADS = {
    "build": (run_build, trace_build),
    "scan": (run_scan, trace_scan),
    "query": (run_query, trace_query),
}


def src_line_count() -> int:
    return sum(
        path.read_text(encoding="utf-8").count("\n")
        for path in (SRC / "hyperdisc").glob("*.py")
    )


def machine() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="hyperdisc benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hyperdisc" / "cli.py").is_file():
        print(f"error: no hyperdisc sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)

    # a terminated run still stops its children and removes its inputs
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    bench = Bench(workdir, args.seed, args.seconds, PROBE[args.workload])
    untraced, traced = WORKLOADS[args.workload]
    try:
        values = (traced if args.trace else untraced)(bench)
    except RunError as exc:
        log = workdir / "children.log"
        if log.exists():
            print(log.read_text(encoding="utf-8", errors="replace")[-4000:], file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.sampler.close()
        shutil.rmtree(workdir)
        with contextlib.suppress(OSError):  # still holds another run's inputs
            workdir.parent.rmdir()

    units = LAYER_UNITS if args.trace else E2E_UNITS
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"machine {json.dumps(machine())}  src_lines {src_line_count()}")
    if bench.sampled_s:
        bench.info["sampled_probe_ms"] = statistics.median(bench.sampled_s) * 1e3
    for key, value in bench.info.items():
        print(f"{key} {json.dumps(value)}")
    for problem in bench.problems:
        print(f"FAILED CHECK: {problem}")
    print(f"fail_ratio {bench.failed / bench.attempted:.6f} ratio "
          f"({bench.failed} of {bench.attempted})")
    printed = units | ({} if args.trace else PRINTED_UNITS)
    for name, unit in printed.items():
        if name in values:
            print(f"{name} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
