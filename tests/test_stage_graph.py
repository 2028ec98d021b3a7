"""A model test of the stage graph: a hypothesis state machine runs stage
commands and `pipeline` through `cli.main` in-process, changes one config
key at a time and deletes artifacts. Whatever order that comes in, a
command exits 0 or 2, an exit 2 prints exactly one ``error:`` line, no
temporary file is left, and every artifact a command writes with exit 0
holds, after its header, the bytes a fresh `pipeline` on the current config
writes: the stamps never let a stage build on an artifact of another
config."""

import contextlib
import io
import os

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from hyperdisc import cli, synthetic
from hyperdisc.cli import PipelineConfig, write_config

# the two values of each key a rule changes, the first one at the start;
# `workers` changes no output, so the reference runs leave it at 1
VALUES = {
    "k": (15, 3),
    "threshold": (5, 0),
    "dim": (8, 4),
    "order_mode": ("fixed", "trained"),
    "phi_mode": ("offset", "matrix"),
    "workers": (1, 2),
}


def body(path):
    """The bytes of an artifact after its ``#`` header lines."""
    with open(path, "rb") as fh:
        data = fh.read()
    start = 0
    while data.startswith(b"#", start):
        start = data.index(b"\n", start) + 1
    return data[start:]


def run(command, cfg_path):
    """`cli.main` on ``command``: its exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", str(cfg_path)])
    return code, err.getvalue()


class StageGraph(RuleBasedStateMachine):
    def __init__(self, data, make_dir, references):
        super().__init__()
        self.data, self.make_dir, self.references = data, make_dir, references
        self.workdir = make_dir("run")
        self.values = {key: values[0] for key, values in VALUES.items()}
        self.cfg_path = self.workdir / "config.txt"
        self.save()

    def config(self, workdir, **values):
        inputs = {key: str(getattr(self.data, key)) for key in cli.INPUTS}
        outputs = {key: str(workdir / getattr(PipelineConfig(), key)) for key in cli.WRITERS}
        return PipelineConfig(**inputs, **outputs, **values, window=4, min_count=5, negatives=3,
                              epochs=1, seed=123)

    def save(self):
        self.cfg = self.config(self.workdir, **self.values)
        write_config(self.cfg_path, self.cfg)

    def reference(self, key):
        """The body of artifact ``key`` from a fresh `pipeline` on the
        current config, run once per config."""
        values = self.values | {"workers": 1}
        name = tuple(sorted(values.items()))
        if name not in self.references:
            workdir = self.make_dir("reference")
            cfg = self.config(workdir, **values)
            write_config(workdir / "config.txt", cfg)
            assert run("pipeline", workdir / "config.txt") == (0, "")
            self.references[name] = {k: body(getattr(cfg, k)) for k in cli.WRITERS}
        return self.references[name][key]

    @initialize()
    def start_from_a_pipeline_run(self):
        # so that a stale artifact is there to be consumed from the first rule on
        self.run_command("pipeline")

    @rule(command=st.sampled_from([*cli.COMMANDS]))
    def run_command(self, command):
        code, err = run(command, self.cfg_path)
        assert code in (0, 2), (command, code)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
            return
        assert err == "", (command, err)
        for key in cli.WRITERS if command == "pipeline" else [cli.STAGES[command].writes]:
            assert body(getattr(self.cfg, key)) == self.reference(key), (command, key, self.values)

    @rule(key=st.sampled_from(sorted(VALUES)))
    def change_key(self, key):
        first, second = VALUES[key]
        self.values[key] = second if self.values[key] == first else first
        self.save()

    @rule(key=st.sampled_from(sorted(cli.WRITERS)))
    def delete_artifact(self, key):
        with contextlib.suppress(FileNotFoundError):
            os.remove(getattr(self.cfg, key))

    @invariant()
    def no_temporary_file(self):
        assert not [name for name in os.listdir(self.workdir) if name.endswith(".tmp")]


def test_stage_graph(tmp_path_factory):
    data = synthetic.generate(tmp_path_factory.mktemp("data"), n_hypernyms=3, n_hyponyms=4,
                              seed=13, noise_lines=40)
    references = {}
    run_state_machine_as_test(
        lambda: StageGraph(data, tmp_path_factory.mktemp, references),
        settings=settings(max_examples=100, stateful_step_count=30, deadline=None),
    )
