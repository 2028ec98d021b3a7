"""Run a hyperdisc entry point with spans around the package's layers.

    python perfbench/trace.py SPANS.json cli STAGE --config CONFIG
    python perfbench/trace.py SPANS.json answer --config CONFIG --out RESULT.json

The public functions of each layer module are wrapped where their callers
look them up: on the defining module and on every ``hyperdisc`` module
(``hyperdisc.cli`` included) that imported them by name. The CLI stage
handlers are wrapped in ``cli.COMMANDS`` and ``cli.PIPELINE_STAGES`` too,
so ``pipeline`` reports each stage. Nothing under ``src/`` changes.

Each span records its name, start and end (``perf_counter_ns``), the index
of its parent span and the run id; a few wrappers add facts taken from the
arguments or the return value. Spans stay in memory and are written to
SPANS.json when the run ends, with call counters and each stage's peak RSS.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import sys
import threading
import time
import uuid

# layer module -> public functions timed as spans
SPAN_FUNCTIONS = {
    "corpus_io": [
        "load_vocabulary", "load_queries", "load_gold", "read_predictions",
        "write_predictions",
    ],
    "normalize": ["normalize_corpus"],
    "patterns": ["extract_corpus"],
    "cooc": [
        "build_cooc_index", "save_cooc_index", "load_cooc_index",
        "build_pair_index", "candidates_from_cooc", "candidates_from_pairs",
    ],
    "embedding": [
        "train_cbow", "save_embedding", "load_embedding", "fit_phi",
        "save_phi", "load_phi", "candidates_from_phi",
    ],
    "rank": ["merge"],
    "metrics": ["evaluate", "write_report"],
}


def _extract_info(arg: dict, result) -> dict:
    computed = result.hearst_matches + result.isa_matches
    written = (result.hearst_matches if arg.get("hearst_out") else 0) + (
        result.isa_matches if arg.get("isa_out") else 0
    )
    return {"path": str(arg["in_path"]), "computed": computed, "written": written}


# span name -> facts recorded after the call, outside the span's interval,
# from the call's arguments by parameter name and its return value
INFO = {
    "normalize.normalize_corpus": lambda arg, r: {
        "path": str(arg["in_path"]), "paragraphs_in": r.paragraphs_in,
    },
    "patterns.extract_corpus": _extract_info,
    "cooc.build_cooc_index": lambda arg, r: {"path": str(arg["normalized_corpus_path"])},
    "embedding.train_cbow": lambda arg, r: {
        "path": str(arg["normalized_corpus_path"]), "epochs": arg["config"].epochs,
    },
}


class _RssSampler:
    """Peak resident set size of this process, sampled every few ms."""

    def __init__(self, interval: float = 0.01):
        self.interval = interval
        self.page = os.sysconf("SC_PAGE_SIZE")
        self.fd = os.open("/proc/self/statm", os.O_RDONLY)
        self.peak = self.read()
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._loop, daemon=True)
        self.thread.start()

    def read(self) -> int:
        return int(os.pread(self.fd, 128, 0).split()[1]) * self.page

    def _loop(self) -> None:
        while not self.stop.wait(self.interval):
            rss = self.read()
            if rss > self.peak:
                self.peak = rss

    def reset(self) -> None:
        self.peak = self.read()

    def close(self) -> None:
        self.stop.set()
        self.thread.join()
        os.close(self.fd)


class Tracer:
    def __init__(self, sample_rss: bool) -> None:
        self.run_id = uuid.uuid4().hex[:12]
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, run_id, info]
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.path_reads: dict[str, int] = {}
        self.stage_rss_mb: dict[str, float] = {}
        self.sampler = (
            _RssSampler() if sample_rss and os.path.exists("/proc/self/statm") else None
        )

    def span(self, name: str, func, info=None):
        signature = inspect.signature(func)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            record = [name, time.perf_counter_ns(), 0, parent, self.run_id, None]
            self.spans.append(record)
            self.stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                self.stack.pop()
            if info is not None:
                record[5] = info(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def stage(self, name: str, func):
        inner = self.span(f"cli.{name}", func)

        @functools.wraps(func)
        def wrapper(cfg):
            children_before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            if self.sampler is not None:
                self.sampler.reset()
            try:
                return inner(cfg)
            finally:
                peak = self.sampler.peak if self.sampler is not None else (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
                )
                children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                if children > children_before:
                    peak = max(peak, children * 1024)
                self.stage_rss_mb[name] = peak / 2**20

        return wrapper

    def counted_generator(self, name: str, func):
        """Count calls and yielded items; a generator gets no span."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.counters[name + ".calls"] = self.counters.get(name + ".calls", 0) + 1
            for item in func(*args, **kwargs):
                self.counters[name + ".items"] = self.counters.get(name + ".items", 0) + 1
                yield item

        return wrapper

    def counted_reads(self, func):
        """Count reads per file path, without a span."""

        @functools.wraps(func)
        def wrapper(path, *args, **kwargs):
            key = os.path.abspath(path)
            self.path_reads[key] = self.path_reads.get(key, 0) + 1
            return func(path, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        import hyperdisc.cli as cli  # imports every layer module

        def replace(original, wrapped) -> None:
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "hyperdisc" or mod_name.startswith("hyperdisc.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

        for layer, names in SPAN_FUNCTIONS.items():
            module = sys.modules[f"hyperdisc.{layer}"]
            for fname in names:
                name = f"{layer}.{fname}"
                replace(getattr(module, fname), self.span(name, getattr(module, fname), INFO.get(name)))
        parallel = sys.modules["hyperdisc._parallel"]
        replace(parallel.map_lines, self.counted_generator("parallel.map_lines", parallel.map_lines))
        corpus_io = sys.modules["hyperdisc.corpus_io"]
        replace(corpus_io.iter_data_lines, self.counted_reads(corpus_io.iter_data_lines))

        for i, (stage, handler) in enumerate(cli.PIPELINE_STAGES):
            wrapped = self.stage(stage, handler)
            cli.PIPELINE_STAGES[i] = (stage, wrapped)
            cli.COMMANDS[stage] = wrapped
            replace(handler, wrapped)
        cli.COMMANDS["pipeline"] = self.span("cli.pipeline", cli.COMMANDS["pipeline"])

    def dump(self, path: str) -> None:
        if self.sampler is not None:
            self.sampler.close()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "spans": self.spans,
                    "counters": self.counters,
                    "path_reads": self.path_reads,
                    "stage_rss_mb": self.stage_rss_mb,
                },
                fh,
            )


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] not in ("cli", "answer"):
        print(__doc__, file=sys.stderr)
        return 2
    out, target, rest = argv[0], argv[1], argv[2:]
    tracer = Tracer(sample_rss=target == "cli")
    tracer.install()
    try:
        if target == "cli":
            from hyperdisc import cli

            return cli.main(rest)
        import answer

        return answer.main(rest)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
