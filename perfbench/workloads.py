"""The three benchmark workloads.

Each workload generates its inputs from the seed (:meth:`make_inputs`,
never timed), builds the program and warms it up (:meth:`setup`, timed
as ``setup_s``), then drives it single-threaded for a measured window
(:meth:`window`).  Set-up returns a canonical output of its warm-up and
the window returns the outputs of every complete unit it ran, so the
harness can check that repeated and traced runs compute the same thing.

* ``train-wide-mlp`` — :class:`DistributedTrainer` on a 2-256-256-4 MLP
  (d=67,588), MSTopK/HiTopKComm on tencent 8x2, rho=0.01, LARS;
  communication-bound.
* ``trace-replay`` — :meth:`MultiTenantScheduler.run` on six seeded
  synthetic 1k-job days, 16x8, bin-pack.
* ``serve-stream`` — one closed-loop client feeding
  :meth:`ServeRuntime.handle` the op streams of two seeded 200-job
  traces, with a fault plan and the health-migrate brain, fsync on the
  real disk.

The synthetic traces keep the generator's diurnal arrivals, heavy-tailed
job lengths and request mixes but turn its random burst windows off:
a Poisson number of 8x arrival bursts makes one day's scheduling work
vary ~30% from seed to seed, against ~7% without them.

**Rounds and unit latency.**  A window runs a fixed list of units — the
train steps over the batch stream, the replay of each day, the ack of
each op of each stream — round after round, and keeps every unit's
latency in each round.  The harness takes a unit's latency as its
median over rounds, and sets the program up again between rounds.  A
shared host runs in slower and faster phases that last tens of seconds;
a minimum over rounds reads whichever fast burst a run happened to
catch, while the median follows the phase the run mostly ran in, and its
ten-seed spread was about half the minimum's on trace-replay and
serve-stream.  Several independent days and streams per round keep the
seed-to-seed spread of one round's work small (six 1k-job days: ~2%).

The execution backend is always the default serial one: a process pool
on a shared 2-core host would time the OS scheduler, not the program.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import pathlib
import shutil
import sys
from dataclasses import dataclass, field

import numpy as np

from perfbench.tracer import Tracer, clock


@dataclass
class Window:
    """What one measured window did."""

    #: Unit key -> its latency (seconds) in each round.
    latencies: dict = field(default_factory=dict)
    #: Work one round does: samples, jobs or ops.
    work_per_round: int = 0
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    #: ``(input, canonical output)`` of each complete check unit; every
    #: run of one input must give one output.
    outputs: list[tuple[str, str]] = field(default_factory=list)
    #: Workload-specific counts used by the per-layer metrics.
    extra: dict = field(default_factory=dict)

    def record(self, key, seconds: float) -> None:
        self.latencies.setdefault(key, []).append(seconds)


def _digest(doc) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _sub_seeds(seed: int, count: int) -> list[int]:
    """``count`` independent generator seeds derived from one seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _synthetic_traces(seed: int, count: int, num_jobs: int) -> list:
    """``count`` independent seeded synthetic days, burst windows off."""
    from repro.sched.traces import SyntheticTraceConfig, generate_trace

    return [
        generate_trace(SyntheticTraceConfig(num_jobs=num_jobs, seed=day_seed, burst_rate=0.0))
        for day_seed in _sub_seeds(seed, count)
    ]


def _run_rounds(out: Window, seconds: float, units: list, run_one, before_round) -> None:
    """Run every unit once per round, at least one round; start another
    round only if it is predicted to end within ``seconds``.
    ``before_round(elapsed seconds)``, when given, runs before each round
    (the harness sets the program up again there)."""
    start = clock()
    while True:
        if before_round is not None:
            before_round(clock() - start)
        round_start = clock()
        for index, unit in enumerate(units):
            run_one(index, unit)
        out.rounds += 1
        now = clock()
        if now - start + (now - round_start) > seconds:
            return


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


class TrainWorkload:
    """Synchronous data-parallel steps over a seeded batch stream."""

    unit = "samples"
    latency_of = "step"
    #: Distinct per-worker batch sets: the units of a round.
    stream_steps = 32
    local_batch = 16
    #: Warm-up steps in set-up; the loss after them is the output check.
    warmup_steps = 8

    def __init__(self, seed: int, work_dir: pathlib.Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.trainer = None

    @property
    def world(self) -> int:
        return self.nodes * self.gpus

    def _model_and_data(self, num_samples: int):
        raise NotImplementedError

    def _optimizer(self):
        raise NotImplementedError

    def make_inputs(self) -> None:
        batch = self.local_batch
        self.model, x, y = self._model_and_data(self.stream_steps * self.world * batch)
        self.stream = []
        for step in range(self.stream_steps):
            first = step * self.world
            self.stream.append(
                [
                    (x[(first + w) * batch : (first + w + 1) * batch],
                     y[(first + w) * batch : (first + w + 1) * batch])
                    for w in range(self.world)
                ]
            )

    def setup(self, tracer: Tracer | None = None) -> str:
        from repro.api.registry import build_cluster, build_scheme
        from repro.train.trainer import DistributedTrainer

        network = build_cluster("tencent", self.nodes, gpus_per_node=self.gpus)
        scheme = build_scheme("mstopk", network, density=self.density)
        self.trainer = DistributedTrainer(
            self.model, scheme, self._optimizer(), seed=self.seed
        )
        if tracer is not None:
            instrument_trainer(self.trainer, tracer)
        loss = math.nan
        for step in range(self.warmup_steps):
            loss, _ = self.trainer.train_step(self.stream[step])
        return repr(float(loss))

    def window(self, seconds: float, tracer: Tracer | None = None, before_round=None) -> Window:
        out = Window(work_per_round=self.stream_steps * self.world * self.local_batch)

        def step(index: int, batches) -> None:
            if tracer is not None:
                tracer.op_id = out.attempted
            t0 = clock()
            loss, _ = self.trainer.train_step(batches)
            out.record(index, clock() - t0)
            out.attempted += 1
            if not math.isfinite(loss):
                out.failed += 1

        _run_rounds(out, seconds, self.stream, step, before_round)
        return out

    def layer_metrics(self, tracer: Tracer, window: Window) -> dict[str, float]:
        steps = window.attempted
        step_s = tracer.seconds("train.step")

        def per_step_ms(seconds: float) -> float:
            return seconds / steps * 1e3

        return {
            "models.fwd_bwd_ms": per_step_ms(tracer.seconds("models.fwd_bwd")),
            "models.fwd_bwd_share": tracer.seconds("models.fwd_bwd") / step_s,
            "compression.select_ms": per_step_ms(tracer.seconds("compression.select")),
            "compression.select_share": tracer.seconds("compression.select") / step_s,
            "compression.selected_per_step": tracer.counts.get("selected", 0) / steps,
            "compression.ef_ms": per_step_ms(tracer.seconds("compression.ef")),
            "collectives.ms": per_step_ms(tracer.seconds("collectives")),
            "comm.aggregate_self_ms": per_step_ms(tracer.self_seconds("comm.aggregate")),
            "comm.aggregate_share": tracer.seconds("comm.aggregate") / step_s,
            "comm.modelled_ms": per_step_ms(tracer.counts.get("modelled_s", 0.0)),
            "comm.inter_bytes_per_step": tracer.counts.get("inter_bytes", 0) / steps,
            "optim.step_ms": per_step_ms(tracer.seconds("optim.step")),
            "train.step_self_ms": per_step_ms(tracer.self_seconds("train.step")),
        }

    def fig1_rows(self, tracer: Tracer, window: Window) -> list[tuple[str, float, float | None]]:
        """Measured ms/step under the paper's Fig. 1 names beside the
        modelled (virtual) ms/step from each AggregationResult."""
        steps = window.attempted
        measured = {
            "FF&BP": tracer.seconds("models.fwd_bwd"),
            "compression": tracer.seconds("compression.select") + tracer.seconds("compression.ef"),
            "communication": tracer.seconds("collectives") + tracer.self_seconds("comm.aggregate"),
            "update": tracer.seconds("optim.step"),
        }
        modelled = {
            "compression": tracer.counts.get("model.mstopk", 0.0),
            "communication": sum(
                value
                for key, value in tracer.counts.items()
                if key.startswith("model.") and key != "model.mstopk"
            ),
        }
        return [
            (
                name,
                seconds / steps * 1e3,
                modelled[name] / steps * 1e3 if name in modelled else None,
            )
            for name, seconds in measured.items()
        ]

    def close(self) -> None:
        if self.trainer is not None:
            self.trainer.close()


class TrainWideMLP(TrainWorkload):
    name = "train-wide-mlp"
    nodes, gpus, density = 8, 2, 0.01

    def _model_and_data(self, num_samples: int):
        from repro.models.nn.mlp import MLPClassifier
        from repro.train.synthetic import make_spiral_classification
        from repro.utils.seeding import new_rng

        x, y = make_spiral_classification(num_samples, num_classes=4, rng=new_rng(self.seed))
        model = MLPClassifier(input_dim=2, hidden=(256, 256), num_classes=4)
        return model, x, y

    def _optimizer(self):
        from repro.optim.lars import LARS

        return LARS()


def instrument_trainer(trainer, tracer: Tracer) -> None:
    """Wrap the public calls a training step makes into each layer."""
    scheme = trainer.scheme
    tracer.wrap(trainer, "train_step", "train.step")
    for attr in ("loss_and_grad", "loss_and_grad_workers"):
        if hasattr(trainer.model, attr):
            tracer.wrap(trainer.model, attr, "models.fwd_bwd")

    def on_aggregate(result) -> None:
        tracer.count("modelled_s", result.breakdown.total)
        tracer.count("inter_bytes", result.inter_bytes)
        for step, seconds in result.breakdown.items():
            tracer.count(f"model.{step}", seconds)

    tracer.wrap(scheme, "aggregate", "comm.aggregate", after=on_aggregate)
    tracer.wrap(
        scheme.compressor,
        "select_batch",
        "compression.select",
        after=lambda sels: tracer.count("selected", sum(s.nnz for s in sels)),
    )
    if getattr(scheme, "ef", None) is not None:
        tracer.wrap(scheme.ef, "apply", "compression.ef")
        tracer.wrap(scheme.ef, "update", "compression.ef")
    # The scheme's module imports its collectives by name; time those.
    module = sys.modules[type(scheme).__module__]
    for attr, value in list(vars(module).items()):
        if (
            callable(value)
            and not isinstance(value, type)
            and getattr(value, "__module__", "").startswith("repro.collectives")
        ):
            tracer.patch(module, attr, "collectives")
    tracer.wrap(trainer.optimizer, "step", "optim.step")


# ---------------------------------------------------------------------------
# Trace replay
# ---------------------------------------------------------------------------


class TraceReplay:
    """The batch scheduler replaying seeded synthetic days."""

    name = "trace-replay"
    unit = "jobs"
    latency_of = "replay"
    days = 6
    jobs_per_day = 1_000
    #: Set-up warms the scheduler on the first day's first jobs.
    warmup_jobs = 200
    nodes, gpus = 16, 8

    def __init__(self, seed: int, work_dir: pathlib.Path) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def make_inputs(self) -> None:
        from repro.sched.traces import trace_to_specs

        self.day_specs = [
            trace_to_specs(trace)
            for trace in _synthetic_traces(self.seed, self.days, self.jobs_per_day)
        ]
        by_arrival = sorted(self.day_specs[0], key=lambda s: (s.arrival_seconds, s.name))
        self.warmup_specs = by_arrival[: self.warmup_jobs]

    def setup(self, tracer: Tracer | None = None) -> str:
        from repro.sched.scheduler import MultiTenantScheduler

        self.scheduler = MultiTenantScheduler(
            num_nodes=self.nodes,
            gpus_per_node=self.gpus,
            policy="bin-pack",
            seed=self.seed,
            name="trace-replay",
        )
        if tracer is not None:
            tracer.wrap(self.scheduler, "run", "sched.run")
            tracer.wrap(self.scheduler, "iteration_seconds", "sched.rate")
            tracer.wrap(self.scheduler, "policy", "sched.policy")
        return _digest(self.scheduler.run(self.warmup_specs).summary())

    def window(self, seconds: float, tracer: Tracer | None = None, before_round=None) -> Window:
        out = Window(work_per_round=self.days * self.jobs_per_day, extra={"events": 0})

        def replay(day: int, specs) -> None:
            if tracer is not None:
                tracer.op_id = day
            t0 = clock()
            report = self.scheduler.run(specs)
            out.record(day, clock() - t0)
            summary = report.summary()
            out.attempted += len(specs)
            out.failed += len(specs) - summary["jobs_done"]
            out.extra["events"] += report.events
            out.outputs.append((f"day {day}", _digest(summary)))

        _run_rounds(out, seconds, self.day_specs, replay, before_round)
        return out

    def layer_metrics(self, tracer: Tracer, window: Window) -> dict[str, float]:
        rounds = window.rounds
        return {
            "sched.rate_calls_per_job": tracer.calls("sched.rate") / window.attempted,
            "sched.rate_ms": tracer.seconds("sched.rate") / rounds * 1e3,
            "sched.policy_calls": tracer.calls("sched.policy") / rounds,
            "sched.policy_ms": tracer.seconds("sched.policy") / rounds * 1e3,
            "sched.events": window.extra["events"] / rounds,
            "sched.run_self_s": tracer.self_seconds("sched.run") / rounds,
        }

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# Serve daemon
# ---------------------------------------------------------------------------

#: The ``serve_smoke`` service (fault plan + health-migrate brain) on the
#: 16x8 testbed, with an admission bound no stream here reaches.
SERVE_CONFIG = {
    "name": "perfbench",
    "cluster": {"instance": "tencent", "num_nodes": 16, "gpus_per_node": 8},
    "policy": "bin-pack",
    "faults": {
        "events": [
            {"kind": "nic-degrade", "at": 900, "duration": 600, "scale": 0.5},
            {"kind": "node-crash", "at": 2400, "duration": 1200},
        ]
    },
    "brain": {"name": "health-migrate", "interval": 600},
    "queue_limit": 1_000_000,
    "snapshot_every": 4,
    "tick_seconds": 600,
}


class ServeStream:
    """A closed loop: one client, next op sent when the last is acked.

    Each pass starts a fresh daemon on an empty state dir and sends one
    whole op stream; a round sends two independent seeded streams.
    """

    name = "serve-stream"
    unit = "ops"
    latency_of = "ack"
    streams = 2
    jobs_per_stream = 200
    #: Set-up warms a throwaway daemon on the first stream's first ops.
    warmup_ops = 60

    def __init__(self, seed: int, work_dir: pathlib.Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.runtime = None

    def make_inputs(self) -> None:
        from repro.api.config import ServeConfig
        from repro.sched.traces import write_trace
        from repro.serve.drill import ops_from_trace

        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.stream_ops = []
        traces = _synthetic_traces(self.seed, self.streams, self.jobs_per_stream)
        for index, trace in enumerate(traces):
            path = write_trace(trace, self.work_dir / f"serve-trace-{index}.jsonl")
            self.stream_ops.append(ops_from_trace(path))
        self.config = ServeConfig.from_dict({**SERVE_CONFIG, "seed": self.seed})

    def _fresh_runtime(self, tag: str, tracer: Tracer | None):
        from repro.serve.daemon import ServeRuntime

        self.close()
        state_dir = self.work_dir / f"state-{tag}"
        shutil.rmtree(state_dir, ignore_errors=True)
        self.runtime = ServeRuntime(self.config, state_dir)
        if tracer is not None:
            tracer.uninstall()
            instrument_runtime(self.runtime, tracer)
        return self.runtime

    def _payload_digest(self) -> str:
        return _digest(self.runtime.engine.payload(bench="serve_perfbench"))

    def setup(self, tracer: Tracer | None = None) -> str:
        runtime = self._fresh_runtime("setup", tracer)
        for op in copy.deepcopy(self.stream_ops[0][: self.warmup_ops]):
            runtime.handle(op)
        return self._payload_digest()

    def window(self, seconds: float, tracer: Tracer | None = None, before_round=None) -> Window:
        out = Window(
            work_per_round=sum(len(ops) for ops in self.stream_ops),
            extra={"journal_bytes": [], "snapshot_bytes": []},
        )

        def serve_pass(index: int, stream) -> None:
            # Daemon start-up and the payload check between passes are
            # not part of the client's loop, so they are not timed.
            ops = copy.deepcopy(stream)
            runtime = self._fresh_runtime("pass", tracer)
            for op in ops:
                if tracer is not None:
                    tracer.op_id = op["id"]
                t0 = clock()
                ack = runtime.handle(op)
                out.record((index, op["id"]), clock() - t0)
                out.attempted += 1
                if ack.get("ok") is not True or ack.get("duplicate"):
                    out.failed += 1
            if tracer is not None:
                tracer.uninstall()
            out.outputs.append((f"stream {index}", self._payload_digest()))
            out.extra["journal_bytes"].append(runtime.journal_path.stat().st_size)
            out.extra["snapshot_bytes"].append(
                max(p.stat().st_size for p in runtime.state_dir.glob("snap-*.bin"))
            )

        _run_rounds(out, seconds, self.stream_ops, serve_pass, before_round)
        return out

    def layer_metrics(self, tracer: Tracer, window: Window) -> dict[str, float]:
        ops = window.attempted
        handle_s = tracer.seconds("serve.handle")

        def per_op_ms(seconds: float) -> float:
            return seconds / ops * 1e3

        return {
            "serve.digest_calls_per_op": tracer.calls("serve.digest") / ops,
            "serve.digest_ms_per_op": per_op_ms(tracer.seconds("serve.digest")),
            "serve.digest_share": tracer.seconds("serve.digest") / handle_s,
            "serve.journal_append_ms_per_op": per_op_ms(tracer.seconds("serve.journal_append")),
            "serve.fsync_calls_per_op": tracer.calls("serve.fsync") / ops,
            "serve.fsync_ms_per_op": per_op_ms(tracer.seconds("serve.fsync")),
            "serve.snapshot_ms_per_op": per_op_ms(tracer.seconds("serve.snapshot")),
            "serve.snapshot_bytes": max(window.extra["snapshot_bytes"]),
            "serve.journal_bytes": max(window.extra["journal_bytes"]),
            "serve.apply_ms_per_op": per_op_ms(tracer.seconds("serve.apply")),
            "serve.handle_self_ms_per_op": per_op_ms(tracer.self_seconds("serve.handle")),
            "brain.apply_due_ms_per_op": per_op_ms(tracer.seconds("brain.apply_due")),
        }

    def close(self) -> None:
        if self.runtime is not None:
            self.runtime.close()
            self.runtime = None


def instrument_runtime(runtime, tracer: Tracer) -> None:
    """Wrap the daemon's write path: journal, fsync, apply, digest, snapshot."""
    import os

    engine = runtime.engine
    tracer.wrap(runtime, "handle", "serve.handle")
    tracer.wrap(runtime, "take_snapshot", "serve.snapshot")
    tracer.wrap(runtime.journal, "append", "serve.journal_append")
    tracer.wrap(engine, "apply_op", "serve.apply")
    tracer.wrap(engine, "state_digest", "serve.digest")
    if engine.brain_driver is not None:
        tracer.wrap(engine.brain_driver, "apply_due", "brain.apply_due")
    tracer.patch(os, "fsync", "serve.fsync")


WORKLOADS = {cls.name: cls for cls in (TrainWideMLP, TraceReplay, ServeStream)}
