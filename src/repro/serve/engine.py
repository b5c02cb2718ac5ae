"""The live scheduler engine behind ``repro serve``.

:class:`ServeEngine` is the existing
:class:`~repro.sched.MultiTenantScheduler` (placement, contention,
preemption, autoscale), :class:`~repro.faults.sched_driver
.SchedFaultDriver` and :class:`~repro.brain.driver.BrainDriver` turned
into an *incremental* service: instead of one pre-declared batch driven
to completion by :meth:`~repro.sched.MultiTenantScheduler.run`, jobs
are **submitted while the clock runs** and virtual time advances in
bounded :meth:`tick`\\ s.  Each tick replays the exact event-loop body
the batch path uses — arrivals, fault/brain boundaries,
``_schedule``, piecewise-constant rate accrual, completion sweep — so a
drained engine fed the same jobs at once is *bit-identical* to a batch
``run()`` (payload rows, makespan, event counts; the test suite pins
this equivalence).

Everything here is deterministic in the op sequence: no wall clock, no
RNG outside the seeded fault plan.  That is what makes the write-ahead
journal (:mod:`repro.serve.journal`) a complete crash-recovery story —
replaying the journaled ops against a fresh (or snapshotted) engine
reconstructs the live state bit for bit, witnessed by
:meth:`state_digest`.

Exactly-once apply: every mutating op carries a client-assigned,
strictly increasing integer ``id``.  An op whose id the engine has
already consumed is acknowledged as a duplicate without applying —
so an at-least-once client (resend everything unacknowledged after a
crash) composes into exactly-once admission.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
from typing import Any

from repro.sched.job import DONE, JobRecord
from repro.sched.policies import ClusterState
from repro.sched.scheduler import (
    MultiTenantScheduler,
    SchedReport,
    _AdmitQueue,
    payload_for_reports,
)
from repro.serve.journal import canonical_json

_EPS = 1e-12


class QueueFullError(ValueError):
    """Structured backpressure: the admission backlog is at its limit.

    The daemon *sheds* the submission — a one-line structured rejection,
    never silent loss and never unbounded queue growth.  ``detail``
    carries the machine-readable shape for acks and logs.
    """

    def __init__(self, job: str, backlog: int, limit: int) -> None:
        self.detail = {"job": job, "backlog": backlog, "queue_limit": limit}
        super().__init__(
            f"queue full: job {job!r} shed ({backlog} jobs already "
            f"waiting, queue_limit={limit})"
        )


def _pending_key(record: JobRecord) -> tuple:
    """Arrival order, matching the batch path's ``pending`` sort."""
    return (record.spec.arrival_seconds, -record.spec.priority, record.spec.name)


class ServeEngine:
    """One live multi-tenant scheduler, advanced op by op."""

    def __init__(self, config) -> None:
        self.config = config
        self.scheduler = MultiTenantScheduler(
            num_nodes=config.cluster.num_nodes,
            instance=config.cluster.instance,
            gpus_per_node=config.cluster.gpus_per_node,
            policy=config.policy,
            seed=config.seed,
            name=config.name,
        )
        self.state = ClusterState(self.scheduler.num_nodes, self.scheduler.gpus_per_node)
        self.driver = None
        if config.faults is not None:
            from repro.faults.plan import FaultPlan
            from repro.faults.sched_driver import SchedFaultDriver

            plan = FaultPlan.from_config(
                config.faults, seed=config.seed, target="sched"
            )
            self.driver = SchedFaultDriver(plan)
            self.state.health = self.driver.health
        self.brain_driver = None
        if config.brain is not None:
            from repro.brain.base import build_brain
            from repro.brain.driver import BrainDriver

            autotuner = build_brain(config.brain)
            if autotuner.active:
                self.brain_driver = BrainDriver(config.brain, autotuner, self.scheduler)
        self.scheduler._brain_driver = self.brain_driver
        #: name -> JobRecord, every job ever accepted.
        self.records: dict[str, JobRecord] = {}
        #: Accepted but not yet arrived, sorted by :func:`_pending_key`.
        self.pending: list[JobRecord] = []
        self.queued = _AdmitQueue()
        self.running: list[JobRecord] = []
        self.done: list[JobRecord] = []
        self.now = 0.0
        self.events = 0
        self.occupied_node_seconds = 0.0
        #: Highest op id consumed (exactly-once apply watermark).
        self.last_op_id = 0
        self.submitted = 0
        self.rejected = 0
        self.ticks = 0
        #: Incremental trajectory: one ``[now, jobs_done, iterations]``
        #: row per tick/drain — the daemon's continuously emitted
        #: goodput curve (virtual clock, so bit-stable across replays).
        self.series: list[list[float]] = []
        #: name -> canonical ``"name":row`` of a DONE job (:meth:`_state_blob`).
        self._done_rows: dict[str, str] = {}

    # -- op dispatch ----------------------------------------------------------
    def apply_op(self, op: dict) -> dict:
        """Apply one journaled op; returns its acknowledgement.

        Deterministic in (current state, op) — including rejections,
        which advance the id watermark and the ``rejected`` counter just
        like successes, so a journal replay reproduces every counter.
        User-level problems come back as ``{"ok": False, "error": ...}``
        acks; anything raising past here is a real bug.
        """
        if not isinstance(op, dict):
            raise ValueError(f"op must be a mapping, got {type(op).__name__}")
        kind = op.get("op")
        op_id = op.get("id")
        if op_id is not None and op_id <= self.last_op_id:
            return {"ok": True, "id": op_id, "duplicate": True}
        try:
            if kind == "submit":
                result = self._submit(op.get("job"))
            elif kind == "tick":
                result = self._tick(op.get("until"))
            elif kind == "drain":
                result = self._drain()
            elif kind == "snapshot":
                # The runtime persists the snapshot; the engine only
                # consumes the op id so replays stay aligned.
                result = {"snapshot": True}
            elif kind == "stop":
                result = {"stopped": True}
            else:
                raise ValueError(
                    f"unknown op {kind!r}; accepted: submit, tick, drain, "
                    "snapshot, status, payload, stop"
                )
        except (ValueError, KeyError) as exc:
            if op_id is not None:
                self.last_op_id = op_id
            self.rejected += 1
            return {"ok": False, "id": op_id, "error": str(exc)}
        if op_id is not None:
            self.last_op_id = op_id
        return {"ok": True, "id": op_id, **result}

    # -- submissions ----------------------------------------------------------
    def _submit(self, job: Any) -> dict:
        from repro.api.config import JobConfig, _from_dict

        if not isinstance(job, dict):
            raise ValueError(
                f"submit needs a 'job' mapping, got {type(job).__name__}"
            )
        spec = _from_dict("job", job, JobConfig).to_spec()
        if spec.name in self.records:
            raise ValueError(f"job name {spec.name!r} was already submitted")
        gpus = self.scheduler._job_gpus(spec)
        if gpus > self.scheduler.gpus_per_node:
            raise ValueError(
                f"job {spec.name!r} wants {gpus} GPUs/node on "
                f"{self.scheduler.gpus_per_node}-GPU nodes"
            )
        if spec.min_nodes > self.scheduler.num_nodes:
            raise ValueError(
                f"job {spec.name!r} needs {spec.min_nodes} nodes, cluster has "
                f"{self.scheduler.num_nodes}"
            )
        backlog = len(self.pending) + len(self.queued)
        if backlog >= self.config.queue_limit:
            raise QueueFullError(spec.name, backlog, self.config.queue_limit)
        if spec.arrival_seconds < self.now - _EPS:
            # The virtual clock never rewinds: late submissions arrive now.
            spec = dataclasses.replace(spec, arrival_seconds=self.now)
        record = JobRecord(spec=spec)
        self.records[spec.name] = record
        bisect.insort(self.pending, record, key=_pending_key)
        self.submitted += 1
        return {
            "job": spec.name,
            "arrival": spec.arrival_seconds,
            "backlog": backlog + 1,
        }

    # -- the event loop, one bounded slice at a time --------------------------
    def _advance(self, until: float | None) -> list[str] | None:
        """One event-loop iteration, never past ``until``.

        The body is the batch :meth:`MultiTenantScheduler.run` loop,
        verbatim in structure and float order, with ``until`` as one
        extra horizon bound.  Returns the jobs completed this iteration;
        returns ``None`` (only possible with ``until=None``) when
        nothing can ever progress again — the batch path's terminal
        ``break``.
        """
        scheduler = self.scheduler
        state = self.state
        driver = self.driver
        brain_driver = self.brain_driver
        self.events += 1
        while (
            self.pending
            and self.pending[0].spec.arrival_seconds <= self.now + _EPS
        ):
            record = self.pending.pop(0)
            self.queued.add(record, scheduler._job_gpus(record.spec))
        if driver is not None:
            from repro.faults.sched_driver import SchedContext

            state.now = self.now
            driver.apply_due(
                SchedContext(
                    scheduler=scheduler, now=self.now, state=state,
                    queued=self.queued, running=self.running,
                )
            )
        if brain_driver is not None:
            state.now = self.now
            brain_driver.apply_due(
                now=self.now, state=state, queued=self.queued,
                running=self.running, faults=driver,
            )
        scheduler._schedule(self.queued, self.running, state, self.now)
        if driver is not None:
            from repro.faults.sched_driver import SchedContext

            driver.note_replacements(
                SchedContext(
                    scheduler=scheduler, now=self.now, state=state,
                    queued=self.queued, running=self.running,
                )
            )
        if not self.running:
            next_arrival = (
                self.pending[0].spec.arrival_seconds if self.pending else None
            )
            boundary = driver.next_boundary(self.now) if driver is not None else None
            waits = [t for t in (next_arrival, boundary) if t is not None]
            if not waits:
                if until is None:
                    return None  # nothing placeable remains, no repair coming
                self.now = until  # the daemon idles; virtual time still passes
                return []
            self.now = min(waits) if until is None else min(min(waits), until)
            return []

        nic_scale = driver.active_nic_scale() if driver is not None else 1.0
        rates: dict[str, tuple[float, float]] = {}
        for record in self.running:
            contention = state.contention_for(record.nodes)
            stretch = driver.stretch_for(record.nodes) if driver is not None else 1.0
            jitter = driver.jitter_for(record.nodes) if driver is not None else 1.0
            busy = scheduler.iteration_seconds(
                record.spec,
                nodes=len(record.nodes),
                contention=contention,
                nic_scale=nic_scale,
                stretch=stretch,
                jitter=jitter,
            )
            solo = (
                busy
                if contention <= 1 and nic_scale >= 1 and stretch <= 1
                and jitter <= 1
                else scheduler.iteration_seconds(
                    record.spec, nodes=len(record.nodes), contention=1.0
                )
            )
            rates[record.spec.name] = (1.0 / busy, 1.0 / solo)

        next_completion = min(
            self.now + record.remaining / rates[record.spec.name][0]
            for record in self.running
        )
        next_arrival = (
            self.pending[0].spec.arrival_seconds if self.pending else None
        )
        horizon = next_completion
        if next_arrival is not None and next_arrival < horizon:
            horizon = next_arrival
        if driver is not None:
            boundary = driver.next_boundary(self.now)
            if boundary is not None and boundary < horizon:
                horizon = boundary
        if brain_driver is not None:
            boundary = brain_driver.next_boundary(self.now)
            if boundary is not None and boundary < horizon:
                horizon = boundary
        if until is not None and until < horizon:
            horizon = until
        dt = max(0.0, horizon - self.now)

        for record in self.running:
            rate, solo_rate = rates[record.spec.name]
            record.progress = min(
                record.spec.iterations, record.progress + rate * dt
            )
            record.solo_equivalent += solo_rate * dt
            record.running_seconds += dt
            record.cost_usd += (
                scheduler._hourly_rate(record.spec, len(record.nodes)) * dt / 3600.0
            )
        self.occupied_node_seconds += state.busy_nodes() * dt
        self.now = horizon

        completed: list[str] = []
        for record in list(self.running):
            if record.remaining <= 1e-9:
                state.release(record.spec.name)
                record.status = DONE
                record.completion = self.now
                self.running.remove(record)
                self.done.append(record)
                completed.append(record.spec.name)
        return completed

    def _tick(self, until: Any = None) -> dict:
        """Advance the virtual clock to ``until`` (default: one tick_seconds)."""
        if until is None:
            until = self.now + self.config.tick_seconds
        if not isinstance(until, (int, float)) or isinstance(until, bool):
            raise ValueError(f"tick 'until' must be a number, got {until!r}")
        until = float(until)
        if until < self.now - 1e-9:
            raise ValueError(
                f"tick until={until} is behind the virtual clock ({self.now})"
            )
        t0 = self.now
        completed: list[str] = []
        for _ in range(self.config.max_events_per_tick):
            completed.extend(self._advance(until) or ())
            if self.now >= until - 1e-9:
                break
        else:  # pragma: no cover - runaway-loop backstop
            raise RuntimeError(
                f"tick exceeded max_events_per_tick={self.config.max_events_per_tick}"
            )
        self.ticks += 1
        self._mark_series()
        return {
            "t0": t0,
            "now": self.now,
            "completed": completed,
            "running": len(self.running),
            "queued": len(self.queued) + len(self.pending),
            "done": len(self.done),
        }

    def _drain(self) -> dict:
        """Run the backlog to completion — the batch path's terminal state."""
        t0 = self.now
        completed: list[str] = []
        cap = max(10_000, 16 * max(1, len(self.records)), self.config.max_events_per_tick)
        for _ in range(cap):
            if not (self.pending or len(self.queued) or self.running):
                break
            out = self._advance(None)
            if out is None:
                break  # unplaceable remainder; identical to the batch break
            completed.extend(out)
        else:  # pragma: no cover - runaway-loop backstop
            raise RuntimeError(f"drain exceeded its event cap ({cap})")
        self.ticks += 1
        self._mark_series()
        return {
            "t0": t0,
            "now": self.now,
            "completed": completed,
            "done": len(self.done),
            "drained": True,
        }

    def _mark_series(self) -> None:
        self.series.append(
            [
                round(self.now, 6),
                len(self.done),
                round(sum(r.progress for r in self.records.values()), 6),
            ]
        )

    # -- reporting ------------------------------------------------------------
    def report(self) -> SchedReport:
        """The live :class:`SchedReport` at the current virtual time."""
        if not self.records:
            # A daemon drained before any submission still reports.
            return SchedReport(
                name=self.scheduler.name,
                policy=self.scheduler.policy_name,
                instance=self.scheduler.instance,
                num_nodes=self.scheduler.num_nodes,
                gpus_per_node=self.scheduler.gpus_per_node,
                seed=self.scheduler.seed,
                makespan_s=self.now,
                events=self.events,
            )
        report = self.scheduler._report(
            self.records, self.now, self.occupied_node_seconds, self.events
        )
        if self.driver is not None:
            report.fault_log = self.driver.summary()
        if self.brain_driver is not None:
            report.brain_log = self.brain_driver.summary()
        return report

    def payload(self, *, bench: str | None = None, replay: bool = True) -> dict:
        """The BENCH payload of the service so far (+ serve trajectory).

        ``replay=True`` trains completed payload jobs' allocation
        histories through the real ElasticTrainer (cached per record, so
        repeated calls never retrain); interim status probes pass
        ``replay=False`` to stay cheap.
        """
        if replay:
            for record in self.records.values():
                if (
                    record.spec.payload is not None
                    and record.waypoints
                    and record.train_summary is None
                ):
                    record.train_summary = self.scheduler._replay_payload(record)
        payload = payload_for_reports(
            [self.report()], bench=bench or f"serve_{self.config.name}"
        )
        payload["meta"]["serve"] = self.stats()
        return payload

    def stats(self) -> dict:
        """Virtual-clock service counters (all journal-replay stable)."""
        return {
            "now": self.now,
            "events": self.events,
            "ticks": self.ticks,
            "submitted": self.submitted,
            "rejected": self.rejected,
            "completed": len(self.done),
            "running": len(self.running),
            "backlog": len(self.pending) + len(self.queued),
            "last_op_id": self.last_op_id,
            "digest": self.state_digest(),
            "series": [list(row) for row in self.series],
        }

    def state_digest(self) -> str:
        """sha256-16 over the canonical JSON of the full mutable state.

        The determinism witness: two engines that applied the same op
        sequence — live, journal-replayed, or snapshot-plus-tail — must
        agree on this digest, and the recovery path verifies it against
        the journaled audit records.
        """
        return hashlib.sha256(self._state_blob()).hexdigest()[:16]

    def _state_blob(self) -> bytes:
        """The bytes :meth:`state_digest` hashes: the state's canonical JSON.

        Built top-level key by key in sorted order, exactly the spelling
        ``canonical_json`` gives the whole document, so the cost of an
        op tracks what it changed: a ``DONE`` job's row is frozen and
        encoded once (``_done_rows``, never snapshotted — a restored
        engine re-encodes it on first use), and the fault and brain logs
        digest only entries appended since their last digest.
        """
        done_rows = self._done_rows
        jobs = []
        for name in sorted(self.records):
            row = done_rows.get(name)
            if row is None:
                record = self.records[name]
                fields = [
                    record.status,
                    record.progress,
                    sorted(record.nodes),
                    record.grows,
                    record.shrinks,
                    record.cost_usd,
                    record.running_seconds,
                    record.solo_equivalent,
                    record.membership.epoch if record.membership is not None else 0,
                    record.waypoints,
                ]
                row = f"{canonical_json(name)}:{canonical_json(fields)}"
                if record.status == DONE:
                    done_rows[name] = row
            jobs.append(row)
        parts = {
            "now": self.now,
            "events": self.events,
            "occupied": self.occupied_node_seconds,
            "last_op_id": self.last_op_id,
            "submitted": self.submitted,
            "rejected": self.rejected,
            "ticks": self.ticks,
            "pending": [r.spec.name for r in self.pending],
            "queued": sorted(
                r.spec.name for rs in self.queued.by_sig.values() for r in rs
            ),
            "running": [r.spec.name for r in self.running],
            "done": [r.spec.name for r in self.done],
            "faults": self.driver.log.digest() if self.driver is not None else None,
            "brain": (
                self.brain_driver.log.digest()
                if self.brain_driver is not None
                else None
            ),
        }
        encoded = {key: canonical_json(value) for key, value in parts.items()}
        encoded["jobs"] = "{" + ",".join(jobs) + "}"
        body = ",".join(f"{canonical_json(key)}:{encoded[key]}" for key in sorted(encoded))
        return ("{" + body + "}").encode("utf-8")

    # -- snapshot state extraction / restore ----------------------------------
    def snapshot_state(self, digest: str | None = None) -> dict:
        """Every mutable piece, as one object graph (shared refs intact).

        ``digest`` is the caller's :meth:`state_digest` of this same
        state, when it already has one; it is computed otherwise.

        The scheduler itself (policy closure, memo caches) and the brain
        driver's back-reference to it are deliberately *excluded*: both
        are rebuilt from config on restore — the caches are pure
        memoization, so an empty cache changes wall-clock only, never a
        result.  Everything else (records, cluster state, fault driver
        with its RNG and health ledger, brain decision state) pickles in
        one ``dumps`` so cross-references survive exactly.
        """
        brain_state = None
        if self.brain_driver is not None:
            bd = self.brain_driver
            brain_state = {
                "autotuner": bd.autotuner,
                "log": bd.log,
                "next_tick": bd._next_tick,
                "job_hold": bd._job_hold,
                "avoid": bd._avoid,
                "ticks": bd.ticks,
                "migrations": bd.migrations,
                "grows": bd.grows,
                "shrinks": bd.shrinks,
                "declined": bd.declined,
            }
        return {
            "records": self.records,
            "pending": self.pending,
            "queued": self.queued,
            "running": self.running,
            "done": self.done,
            "state": self.state,
            "driver": self.driver,
            "brain": brain_state,
            "now": self.now,
            "events": self.events,
            "occupied_node_seconds": self.occupied_node_seconds,
            "last_op_id": self.last_op_id,
            "submitted": self.submitted,
            "rejected": self.rejected,
            "ticks": self.ticks,
            "series": self.series,
            "digest": digest if digest is not None else self.state_digest(),
        }

    @classmethod
    def from_snapshot_state(cls, config, state: dict) -> "ServeEngine":
        """Rebuild a live engine from :meth:`snapshot_state` output."""
        engine = cls(config)
        engine.records = state["records"]
        engine.pending = state["pending"]
        engine.queued = state["queued"]
        engine.running = state["running"]
        engine.done = state["done"]
        engine.state = state["state"]
        engine.driver = state["driver"]
        if engine.driver is not None:
            engine.state.health = engine.driver.health
        brain_state = state["brain"]
        if brain_state is not None:
            from repro.brain.driver import BrainDriver

            bd = BrainDriver(config.brain, brain_state["autotuner"], engine.scheduler)
            bd.log = brain_state["log"]
            bd._next_tick = brain_state["next_tick"]
            bd._job_hold = brain_state["job_hold"]
            bd._avoid = brain_state["avoid"]
            bd.ticks = brain_state["ticks"]
            bd.migrations = brain_state["migrations"]
            bd.grows = brain_state["grows"]
            bd.shrinks = brain_state["shrinks"]
            bd.declined = brain_state["declined"]
            engine.brain_driver = bd
        else:
            engine.brain_driver = None
        engine.scheduler._brain_driver = engine.brain_driver
        engine.now = state["now"]
        engine.events = state["events"]
        engine.occupied_node_seconds = state["occupied_node_seconds"]
        engine.last_op_id = state["last_op_id"]
        engine.submitted = state["submitted"]
        engine.rejected = state["rejected"]
        engine.ticks = state["ticks"]
        engine.series = state["series"]
        restored = engine.state_digest()
        if restored != state["digest"]:
            raise RuntimeError(
                "snapshot state digest mismatch after restore: "
                f"{restored} != {state['digest']}"
            )
        return engine


__all__ = ["ServeEngine", "QueueFullError"]
