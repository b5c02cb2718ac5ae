"""Tests of the benchmark itself, on shrunken copies of the workloads.

They check that tracing changes no output, that every metric the
benchmark prints is declared in ``BENCHMARK.json`` with the same unit,
that a doctored failure or a wrong or missing recorded output fails the
output check, that ``reference.json`` holds what the program computes,
and that the command refuses to run without the program under test.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench.harness import (
    END_TO_END,
    PER_LAYER,
    REFERENCE_PATH,
    REFERENCE_SEEDS,
    load_reference,
    record_outputs,
    run_benchmark,
)
from perfbench.run import report_lines
from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS, ServeStream, TraceReplay, TrainWideMLP

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


class SmallWideMLP(TrainWideMLP):
    stream_steps, warmup_steps = 3, 2


class SmallReplay(TraceReplay):
    days, jobs_per_day, warmup_jobs = 2, 150, 40


class SmallServe(ServeStream):
    streams, jobs_per_stream, warmup_ops = 2, 25, 10


SMALL = {
    "train-wide-mlp": SmallWideMLP,
    "trace-replay": SmallReplay,
    "serve-stream": SmallServe,
}

#: A layer each workload must have traced, so the wrappers were live.
TRACED_LAYER = {
    "train-wide-mlp": (
        "models.fwd_bwd", "collectives", "compression.ef", "compression.select",
        "optim.step", "comm.aggregate",
    ),
    "trace-replay": ("sched.rate", "sched.policy"),
    "serve-stream": ("serve.digest", "serve.fsync", "brain.apply_due"),
}


def _prepared(name: str, tmp_path: pathlib.Path, seed: int = 3):
    workload = SMALL[name](seed, tmp_path)
    workload.make_inputs()
    return workload


def _reference(name: str, tmp_path: pathlib.Path) -> dict[str, str]:
    """The small workload's outputs, recorded as make_reference.py would."""
    return record_outputs(_prepared(name, tmp_path / "reference"))


def _failed_checks(result) -> list[str]:
    return [label for label, ok, _ in result.checks if not ok]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_outputs_identical_to_untraced(name, tmp_path):
    workload = _prepared(name, tmp_path)
    try:
        plain_setup = workload.setup()
        plain = workload.window(0.0)
        tracer = Tracer()
        traced_setup = workload.setup(tracer)
        traced = workload.window(0.0, tracer)
        tracer.uninstall()
    finally:
        workload.close()
    assert traced_setup == plain_setup
    assert traced.outputs == plain.outputs
    assert traced.failed == plain.failed == 0
    for layer in TRACED_LAYER[name]:
        assert tracer.calls(layer) > 0, layer


def test_uninstall_restores_the_program(tmp_path):
    import os

    import repro.comm.hitopkcomm as hitopk
    from repro.collectives.reduce_scatter import matrix_reduce_scatter

    fsync = os.fsync
    workload = _prepared("train-wide-mlp", tmp_path)
    tracer = Tracer()
    workload.setup(tracer)
    assert hitopk.matrix_reduce_scatter is not matrix_reduce_scatter
    tracer.uninstall()
    assert hitopk.matrix_reduce_scatter is matrix_reduce_scatter
    assert "train_step" not in vars(workload.trainer)
    assert os.fsync is fsync


def test_self_time_subtracts_children():
    tracer = Tracer()

    class Layer:
        def inner(self):
            return sum(range(1000))

        def outer(self):
            return self.inner() + self.inner()

    layer = Layer()
    tracer.wrap(layer, "inner", "inner")
    tracer.wrap(layer, "outer", "outer")
    tracer.op_id = 7
    assert layer.outer() == 2 * sum(range(1000))
    tracer.uninstall()
    assert tracer.calls("inner") == 2 and tracer.calls("outer") == 1
    outer_self = tracer.seconds("outer") - tracer.seconds("inner")
    assert tracer.self_seconds("outer") == pytest.approx(outer_self)
    outer_id = next(span[0] for span in tracer.spans if span[1] == "outer")
    assert all(s[4] == outer_id and s[5] == 7 for s in tracer.spans if s[1] == "inner")


def _declared(kind: str) -> dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in BENCHMARK[kind]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", ["train-wide-mlp", "serve-stream"])
def test_every_printed_metric_is_declared(name, trace, tmp_path):
    reference = _reference(name, tmp_path)
    workload = _prepared(name, tmp_path)
    result = run_benchmark(name, 3, 0.0, trace, tmp_path, workload=workload, reference=reference)
    assert result.correct, result.checks
    declared = _declared("per_layer" if trace else "end_to_end")
    lines = report_lines(result, 0.0)
    printed = {}
    for line in lines:
        match = re.fullmatch(r"metric (\S+) = (\S+) (\S+)", line)
        if match:
            printed[match.group(1)] = match.group(3)
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert printed == {k: v["unit"] for k, v in last["metrics"].items()}
    assert printed == declared
    assert all(math.isfinite(v["value"]) for v in last["metrics"].values())


def test_benchmark_json_matches_the_harness():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert BENCHMARK["paths"] == ["perfbench"]
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(SMALL)
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
    assert _declared("end_to_end") == END_TO_END
    assert _declared("per_layer") == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_rejected_op_fails_the_check(tmp_path):
    workload = _prepared("serve-stream", tmp_path)
    submits = [op for op in workload.stream_ops[1] if op["op"] == "submit"]
    # Resubmitting an accepted job name is rejected with an error ack.
    submits[-1]["job"]["name"] = submits[0]["job"]["name"]
    reference = _reference("serve-stream", tmp_path)
    result = run_benchmark(
        "serve-stream", 3, 0.0, False, tmp_path, workload=workload, reference=reference
    )
    assert result.failed >= 1
    assert "no failed operation" in _failed_checks(result)


def test_non_finite_loss_fails_the_check(tmp_path):
    workload = _prepared("train-wide-mlp", tmp_path)
    # The last batch set is not used by the warm-up, only by the window.
    bx, by = workload.stream[-1][0]
    workload.stream[-1][0] = (np.full_like(bx, np.nan), by)
    reference = _reference("train-wide-mlp", tmp_path)
    result = run_benchmark(
        "train-wide-mlp", 3, 0.0, False, tmp_path, workload=workload, reference=reference
    )
    assert result.failed >= 1
    assert "no failed operation" in _failed_checks(result)


def test_output_differing_from_the_reference_fails_the_check(tmp_path):
    # A change that is wrong but deterministic computes the same output
    # on every run; only the recorded reference tells it apart.
    reference = _reference("trace-replay", tmp_path)
    reference["day 1"] = "0" * 16
    workload = _prepared("trace-replay", tmp_path)
    result = run_benchmark(
        "trace-replay", 3, 0.0, False, tmp_path, workload=workload, reference=reference
    )
    assert result.failed == 0
    assert _failed_checks(result) == ["day 1: output matches the recorded reference"]


def test_missing_reference_fails_the_check(tmp_path):
    workload = _prepared("serve-stream", tmp_path)
    result = run_benchmark("serve-stream", 3, 0.0, False, tmp_path, workload=workload, reference={})
    assert _failed_checks(result) == [
        "set-up: output matches the recorded reference",
        "stream 0: output matches the recorded reference",
        "stream 1: output matches the recorded reference",
    ]


def test_reference_covers_every_input_seed():
    table = json.loads(REFERENCE_PATH.read_text())
    assert set(table) == set(WORKLOADS)
    for name, seeds in table.items():
        assert set(seeds) == {str(seed) for seed in range(REFERENCE_SEEDS)}, name
        assert all("set-up" in outputs for outputs in seeds.values()), name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-wide-mlp", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_recorded_reference_matches_the_program(name, tmp_path):
    workload = WORKLOADS[name](0, tmp_path)
    workload.make_inputs()
    reference = load_reference(name, 0)
    outputs = record_outputs(workload)
    assert set(outputs) == set(reference)
    if name.startswith("train-"):
        assert math.isclose(float(outputs["set-up"]), float(reference["set-up"]), rel_tol=1e-9)
    else:
        assert outputs == reference
