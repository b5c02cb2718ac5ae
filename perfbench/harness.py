"""Measure one workload and check its outputs.

:func:`run_benchmark` is the whole benchmark for one ``(workload, seed,
seconds, trace)``: generate inputs, run the measured window with
``SETUP_REPEATS`` set-ups spread over it (their median is ``setup_s``),
check outputs, and return the metrics with their units.

With ``trace=False`` the metrics are the end-to-end ones, measured with
no wrapper installed.  With ``trace=True`` the run measures half the
window untraced and half traced, and reports the per-layer metrics of
the traced half plus ``overhead.<metric>`` = traced minus untraced for
the end-to-end metrics in ``OVERHEAD``.  Per-layer metrics of a layer the
workload does not run read 0.

Every output a run computes (the warm-up's and each window unit's) must
match the one recorded in ``reference.json`` for its input seed.  Inputs
are made from ``seed % REFERENCE_SEEDS``, so every seed has a recorded
reference; ``make_reference.py`` records them.
"""

from __future__ import annotations

import json
import math
import pathlib
import resource
import statistics
from dataclasses import dataclass, field

from perfbench.tracer import Tracer, clock
from perfbench.workloads import WORKLOADS, TrainWorkload, Window

SETUP_REPEATS = 9
REFERENCE_PATH = pathlib.Path(__file__).resolve().parent / "reference.json"
#: Input seeds with recorded outputs; ``--seed`` n makes the inputs of
#: seed ``n % REFERENCE_SEEDS``.
REFERENCE_SEEDS = 128

#: End-to-end metrics: name -> unit.  Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

#: End-to-end metrics whose tracing overhead is reported.  Not
#: ``peak_rss_mb``: ``ru_maxrss`` is a process-wide high-water mark and
#: the traced half runs after the untraced one, so their difference
#: would be growth over the run, not the tracer's memory (which
#: ``MAX_SPANS`` bounds).
OVERHEAD = ("setup_s", "throughput_per_s", "latency_ms_p50", "latency_ms_p90")

#: Per-layer metrics (traced run): name -> unit.
PER_LAYER = {
    "models.fwd_bwd_ms": "ms",
    "models.fwd_bwd_share": "share",
    "compression.select_ms": "ms",
    "compression.select_share": "share",
    "compression.selected_per_step": "count",
    "compression.ef_ms": "ms",
    "collectives.ms": "ms",
    "comm.aggregate_self_ms": "ms",
    "comm.aggregate_share": "share",
    "comm.modelled_ms": "ms",
    "comm.inter_bytes_per_step": "bytes",
    "optim.step_ms": "ms",
    "train.step_self_ms": "ms",
    "sched.rate_calls_per_job": "count",
    "sched.rate_ms": "ms",
    "sched.policy_calls": "count",
    "sched.policy_ms": "ms",
    "sched.events": "count",
    "sched.run_self_s": "s",
    "serve.digest_calls_per_op": "count",
    "serve.digest_ms_per_op": "ms",
    "serve.digest_share": "share",
    "serve.journal_append_ms_per_op": "ms",
    "serve.fsync_calls_per_op": "count",
    "serve.fsync_ms_per_op": "ms",
    "serve.snapshot_ms_per_op": "ms",
    "serve.snapshot_bytes": "bytes",
    "serve.journal_bytes": "bytes",
    "serve.apply_ms_per_op": "ms",
    "serve.handle_self_ms_per_op": "ms",
    "brain.apply_due_ms_per_op": "ms",
    **{f"overhead.{name}": END_TO_END[name] for name in OVERHEAD},
}


@dataclass
class Measurement:
    setup_s: list[float]
    setup_outputs: list[str]
    window: Window
    metrics: dict[str, float] = field(default_factory=dict)


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    metrics: dict[str, float]
    units: dict[str, str]
    checks: list[tuple[str, bool, str]]
    attempted: int
    failed: int
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def result_line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": self.units[name]}
                    for name, value in self.metrics.items()
                },
            }
        )


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds: float, tracer: Tracer | None = None) -> Measurement:
    """Run one measured window with ``SETUP_REPEATS`` set-ups spread over it.

    A shared host runs in slower and faster phases lasting tens of
    seconds, so set-ups bunched into the first second would see one
    phase; spread over the window they see what the window sees.  The
    k-th set-up runs before the first round that starts at least
    k/``SETUP_REPEATS`` of the way through the window, and set-ups still
    due when the window ends run after it.  A set-up replaces the program
    the window drives, so the rounds after it start from a freshly
    warmed-up program.  While tracing, the wrappers record nothing
    during set-up.

    A unit's latency is its median over the window's rounds (see
    :mod:`perfbench.workloads`); throughput is one round's work over the
    sum of its units' latencies, and the percentiles are over units.
    """
    setup_s, outputs = [], []

    def set_up() -> None:
        if tracer is not None:
            tracer.uninstall()
            tracer.recording = False
        start = clock()
        outputs.append(workload.setup(tracer))
        setup_s.append(clock() - start)
        if tracer is not None:
            tracer.recording = True

    def before_round(elapsed: float) -> None:
        if len(setup_s) < SETUP_REPEATS and elapsed >= len(setup_s) * seconds / SETUP_REPEATS:
            set_up()

    window = workload.window(seconds, tracer, before_round)
    while len(setup_s) < SETUP_REPEATS:
        set_up()
    if tracer is not None:
        tracer.uninstall()
    unit_s = [statistics.median(seen) for seen in window.latencies.values()]
    unit_ms = [s * 1e3 for s in unit_s]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "throughput_per_s": window.work_per_round / sum(unit_s),
        "latency_ms_p50": percentile(unit_ms, 50),
        "latency_ms_p90": percentile(unit_ms, 90),
        "peak_rss_mb": peak_rss_mb(),
    }
    return Measurement(setup_s, outputs, window, metrics)


def load_reference(workload: str, input_seed: int) -> dict[str, str]:
    """Recorded outputs of one workload's input seed, by output key."""
    if not REFERENCE_PATH.exists():
        return {}
    table = json.loads(REFERENCE_PATH.read_text())
    return table.get(workload, {}).get(str(input_seed), {})


def record_outputs(workload) -> dict[str, str]:
    """Every output one set-up and one round compute, by output key."""
    try:
        outputs = {"set-up": workload.setup()}
        outputs.update(workload.window(0.0).outputs)
    finally:
        workload.close()
    return outputs


def _same(workload, out: str, expected: str) -> bool:
    if isinstance(workload, TrainWorkload):
        return math.isclose(float(out), float(expected), rel_tol=1e-9)
    return out == expected


def check_outputs(
    workload, runs: list[Measurement], reference: dict[str, str]
) -> list[tuple[str, bool, str]]:
    """Output checks over every measurement of one benchmark run."""
    checks = []
    by_input: dict[str, list[str]] = {
        "set-up": [out for run in runs for out in run.setup_outputs]
    }
    for run in runs:
        for key, out in run.window.outputs:
            by_input.setdefault(key, []).append(out)
    for key, outs in by_input.items():
        seen = sorted(set(outs))
        checks.append(
            (
                f"{key}: output identical across {len(outs)} runs",
                len(seen) == 1,
                ", ".join(seen),
            )
        )
        expected = reference.get(key)
        checks.append(
            (
                f"{key}: output matches the recorded reference",
                expected is not None and all(_same(workload, out, expected) for out in seen),
                f"input seed {workload.seed}: reference {expected or 'not recorded'}",
            )
        )
    unseen = sorted(set(reference) - set(by_input))
    checks.append(("every recorded output computed", not unseen, ", ".join(unseen) or "all"))
    if isinstance(workload, TrainWorkload):
        loss = by_input["set-up"][0]
        checks.append(("warm-up loss finite", math.isfinite(float(loss)), loss))
    failed = sum(run.window.failed for run in runs)
    attempted = sum(run.window.attempted for run in runs)
    checks.append(("no failed operation", failed == 0, f"{failed} of {attempted} failed"))
    return checks


def run_benchmark(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: pathlib.Path,
    *,
    trace_path: pathlib.Path | None = None,
    workload=None,
    reference: dict[str, str] | None = None,
) -> Result:
    """The whole benchmark for one workload; see the module docstring.

    ``workload`` and ``reference`` substitute a prepared workload object
    and its recorded outputs (the benchmark's tests pass shrunken or
    doctored ones).
    """
    if workload is None:
        workload = WORKLOADS[name](seed % REFERENCE_SEEDS, work_dir)
        workload.make_inputs()
    if reference is None:
        reference = load_reference(workload.name, workload.seed)
    notes = [f"inputs of seed {workload.seed} (--seed {seed} mod {REFERENCE_SEEDS})"]
    try:
        if not trace:
            run = measure(workload, seconds)
            runs = [run]
            metrics = dict(run.metrics)
            units = dict(END_TO_END)
            notes += describe_window(workload, run)
        else:
            base = measure(workload, seconds / 2)
            tracer = Tracer()
            traced = measure(workload, seconds / 2, tracer)
            runs = [base, traced]
            metrics = {layer: 0.0 for layer in PER_LAYER}
            metrics.update(workload.layer_metrics(tracer, traced.window))
            for metric in OVERHEAD:
                metrics[f"overhead.{metric}"] = traced.metrics[metric] - base.metrics[metric]
            units = dict(PER_LAYER)
            notes += describe_trace(workload, tracer, traced)
            if trace_path is not None:
                tracer.write_chrome_trace(
                    trace_path, meta={"workload": workload.name, "seed": seed}
                )
                notes.append(f"chrome trace: {trace_path}")
    finally:
        workload.close()
    return Result(
        workload=workload.name,
        seed=seed,
        trace=trace,
        metrics=metrics,
        units=units,
        checks=check_outputs(workload, runs, reference),
        attempted=sum(run.window.attempted for run in runs),
        failed=sum(run.window.failed for run in runs),
        notes=notes,
    )


def describe_window(workload, run: Measurement) -> list[str]:
    window = run.window
    return [
        f"window: {window.rounds} rounds of {len(window.latencies)} {workload.latency_of}s "
        f"({window.work_per_round} {workload.unit} a round); each {workload.latency_of}'s "
        "latency is its median over rounds",
        f"throughput_per_s is {workload.unit}/s; latency_ms_* are per {workload.latency_of}",
        f"setup_s is the median of {len(run.setup_s)} set-ups: "
        + ", ".join(f"{s:.4f}" for s in run.setup_s),
    ]


def describe_trace(workload, tracer: Tracer, traced: Measurement) -> list[str]:
    lines = [
        f"traced window: {traced.window.rounds} rounds, "
        f"{traced.window.attempted} operations attempted, "
        f"{len(tracer.spans)} spans kept, {tracer.dropped} dropped past the cap",
        "self time by layer:",
        f"  {'layer':<24s} {'calls':>10s} {'total_s':>10s} {'self_s':>10s}",
    ]
    for row in tracer.self_time_table():
        lines.append(
            f"  {row['layer']:<24s} {row['calls']:>10d} {row['total_s']:>10.4f} {row['self_s']:>10.4f}"
        )
    if isinstance(workload, TrainWorkload):
        lines.append("Fig. 1 split, ms per step (measured wall-clock vs modelled virtual time):")
        for step, measured, modelled in workload.fig1_rows(tracer, traced.window):
            shown = "-" if modelled is None else f"{modelled:.4f}"
            lines.append(f"  {step:<14s} measured {measured:9.4f}  modelled {shown}")
    return lines
