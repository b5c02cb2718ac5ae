"""The serve write path: digest oracle and machine-independent cost.

``ServeEngine.state_digest`` no longer re-encodes the whole state per op:
frozen ``DONE`` job rows and the fault/brain log digests are memoised
outside the pickled graph.  These tests keep the full encoding as a
test-only oracle and require the optimised bytes to equal it after every
op — on a live engine, on one restored from a snapshot (cold memos) and
during journal replay.  The cost tests count calls, not seconds: one
state digest per mutating op, and no snapshot re-reads once the store
knows both slots.
"""

import hashlib
import json
import os
import pickle

import pytest

from repro.api.config import ServeConfig
from repro.brain.log import BrainLog
from repro.faults.log import FaultLog
from repro.sched.traces import SyntheticTraceConfig, generate_trace, write_trace
from repro.serve import snapshot as snapshot_module
from repro.serve.daemon import MUTATING_OPS, ServeRuntime
from repro.serve.drill import ops_from_trace
from repro.serve.engine import ServeEngine
from repro.serve.snapshot import SnapshotStore, write_snapshot

#: The ``serve_smoke`` service: fault plan + health-migrate brain.
CONFIG = {
    "name": "oracle",
    "cluster": {"instance": "tencent", "num_nodes": 16, "gpus_per_node": 8},
    "policy": "bin-pack",
    "faults": {
        "events": [
            {"kind": "nic-degrade", "at": 900, "duration": 600, "scale": 0.5},
            {"kind": "node-crash", "at": 2400, "duration": 1200},
        ]
    },
    "brain": {"name": "health-migrate", "interval": 600},
    "queue_limit": 100_000,
    "snapshot_every": 4,
    "tick_seconds": 600,
}


def serve_config(seed: int) -> ServeConfig:
    return ServeConfig.from_dict({**CONFIG, "seed": seed})


def stream(tmp_path, seed: int, num_jobs: int = 60) -> list[dict]:
    """A seeded op stream: ticks to each arrival, submits, final drain."""
    trace = generate_trace(
        SyntheticTraceConfig(
            num_jobs=num_jobs, seed=seed, burst_rate=0.0, duration_seconds=6 * 3600.0
        )
    )
    return ops_from_trace(write_trace(trace, tmp_path / f"trace-{seed}.jsonl"))


def oracle_blob(engine: ServeEngine) -> bytes:
    """The full canonical JSON of the engine state, encoded from scratch."""
    doc = {
        "now": engine.now,
        "events": engine.events,
        "occupied": engine.occupied_node_seconds,
        "last_op_id": engine.last_op_id,
        "submitted": engine.submitted,
        "rejected": engine.rejected,
        "ticks": engine.ticks,
        "pending": [r.spec.name for r in engine.pending],
        "queued": sorted(
            r.spec.name for rs in engine.queued.by_sig.values() for r in rs
        ),
        "running": [r.spec.name for r in engine.running],
        "done": [r.spec.name for r in engine.done],
        "jobs": {
            name: [
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
            for name, record in engine.records.items()
        },
        "faults": fresh_digest(engine.driver.log) if engine.driver else None,
        "brain": fresh_digest(engine.brain_driver.log) if engine.brain_driver else None,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def fresh_digest(log) -> str:
    entries = json.dumps(log._entries, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(entries.encode("utf-8")).hexdigest()[:16]


def assert_matches_oracle(engine: ServeEngine) -> None:
    blob = oracle_blob(engine)
    assert engine._state_blob() == blob
    assert engine.state_digest() == hashlib.sha256(blob).hexdigest()[:16]


@pytest.fixture
def oracle_checked(monkeypatch):
    """Every ``state_digest`` call anywhere is checked against the oracle."""
    calls = []
    digest = ServeEngine.state_digest

    def checked(self):
        assert self._state_blob() == oracle_blob(self)
        calls.append(1)
        return digest(self)

    monkeypatch.setattr(ServeEngine, "state_digest", checked)
    return calls


@pytest.mark.parametrize("seed", [3, 8])
class TestDigestOracle:
    def test_live_engine_after_every_op(self, tmp_path, seed):
        engine = ServeEngine(serve_config(seed))
        assert_matches_oracle(engine)
        for op in stream(tmp_path, seed):
            assert engine.apply_op(op)["ok"]
            assert_matches_oracle(engine)
        # The stream really exercised the memoised parts.
        assert engine.done and len(engine.driver.log) and len(engine.brain_driver.log)

    def test_restored_engine_rebuilds_cold_memos(self, tmp_path, seed):
        config = serve_config(seed)
        ops = stream(tmp_path, seed)
        live = ServeEngine(config)
        cut = 2 * len(ops) // 3
        for op in ops[:cut]:
            live.apply_op(op)
        live.state_digest()  # warm the live memos before the snapshot
        state = pickle.loads(pickle.dumps(live.snapshot_state()))
        # No memo travels in the snapshot: the restore starts cold.
        assert live.done and live._done_rows
        assert "_hash" not in vars(state["driver"].log)
        assert "_hash" not in vars(state["brain"]["log"])
        restored = ServeEngine.from_snapshot_state(config, state)
        assert_matches_oracle(restored)
        for op in ops[cut:]:
            live.apply_op(op)
            restored.apply_op(op)
            assert_matches_oracle(restored)
            assert restored.state_digest() == live.state_digest()

    def test_journal_replay(self, tmp_path, seed, oracle_checked):
        config = serve_config(seed)
        ops = stream(tmp_path, seed)
        runtime = ServeRuntime(config, tmp_path / "state")
        for op in ops:
            assert runtime.handle(op)["ok"]
        live = runtime.engine.state_digest()
        runtime.close()
        checked_live = len(oracle_checked)
        assert checked_live >= len(ops)

        # Newest snapshot + journal tail (a cold restored engine).
        runtime = ServeRuntime(config, tmp_path / "state")
        assert runtime.recovery["snapshot_slot"] is not None
        assert runtime.engine.state_digest() == live
        runtime.close()

        # Replay from genesis: every replayed op's audit digest is checked.
        for path in (tmp_path / "state").glob("snap-*.bin"):
            path.unlink()
        replays_before = len(oracle_checked)
        runtime = ServeRuntime(config, tmp_path / "state")
        assert runtime.recovery["replayed"] == len(ops)
        assert len(oracle_checked) - replays_before >= len(ops)
        assert runtime.engine.state_digest() == live
        runtime.close()


class TestLogDigestMemo:
    def test_digest_equals_fresh_sha256_after_every_append(self, tmp_path, monkeypatch):
        checked = {FaultLog: 0, BrainLog: 0}
        for cls in checked:
            append = cls.append

            def checking(self, *args, _append=append, _cls=cls, **kwargs):
                entry = _append(self, *args, **kwargs)
                assert self.digest() == fresh_digest(self)
                checked[_cls] += 1
                return entry

            monkeypatch.setattr(cls, "append", checking)
        engine = ServeEngine(serve_config(3))
        for op in stream(tmp_path, 3, num_jobs=20):
            engine.apply_op(op)
            assert_matches_oracle(engine)
        assert checked[FaultLog] and checked[BrainLog]

    @pytest.mark.parametrize("cls", [FaultLog, BrainLog])
    def test_memo_stays_out_of_the_pickle(self, cls):
        def fill(log):
            for i in range(3):
                if cls is FaultLog:
                    log.append("inject", t=i, kind="node-crash", fault_id=i, target="n0", at=i)
                else:
                    log.append("tick", t=i, job="-", jobs=i)

        warm, cold = cls(), cls()
        fill(warm)
        fill(cold)
        warm.digest()
        assert pickle.dumps(warm) == pickle.dumps(cold)
        restored = pickle.loads(pickle.dumps(warm))
        assert restored.digest() == warm.digest() == fresh_digest(cold)
        fill(restored)
        assert restored.digest() == fresh_digest(restored)
        assert cls().digest() == fresh_digest(cls())


class TestWritePathCost:
    """Call counts on a seeded stream; independent of machine speed."""

    def test_one_digest_per_op_and_no_slot_rereads(self, tmp_path, monkeypatch):
        config = serve_config(3)
        assert config.snapshot_every == 4
        ops = stream(tmp_path, 3, num_jobs=20)
        # An explicit snapshot op mid-stream, on top of the cadence.
        ops.insert(len(ops) // 2, {"op": "snapshot"})
        for index, op in enumerate(ops):
            op["id"] = index + 1

        digests = []
        digest = ServeEngine.state_digest
        monkeypatch.setattr(
            ServeEngine, "state_digest", lambda self: digests.append(1) or digest(self)
        )
        reads = []
        read = snapshot_module.read_snapshot
        monkeypatch.setattr(
            snapshot_module, "read_snapshot", lambda path: reads.append(path) or read(path)
        )
        runtime = ServeRuntime(config, tmp_path / "state")
        snapshots = 0
        for op in ops:
            assert op["op"] in MUTATING_OPS
            before = len(digests)
            snapshots_before = runtime._snapshot_no
            assert runtime.handle(op)["ok"]
            assert len(digests) - before == 1, op
            snapshots += runtime._snapshot_no - snapshots_before
        runtime.close()
        assert snapshots >= len(ops) // 4
        assert reads == []

    def test_slot_rewritten_behind_the_store_is_reread(self, tmp_path, monkeypatch):
        reads = []
        read = snapshot_module.read_snapshot
        monkeypatch.setattr(
            snapshot_module, "read_snapshot", lambda path: reads.append(path) or read(path)
        )
        store = SnapshotStore(tmp_path)
        first = store.save({"n": 1}, {"applied_seq": 1})
        second = store.save({"n": 2}, {"applied_seq": 2})
        assert store.save({"n": 3}, {"applied_seq": 3}) == first
        assert reads == []

        # New size: another writer put a newer snapshot into the stale
        # slot.  The store re-reads it and now targets the other slot.
        write_snapshot(second, {"n": 4, "pad": "x" * 64}, {"applied_seq": 4})
        assert store.target_slot() == first
        assert reads == [second]

        # Same bytes, new mtime: re-read and verified again, same choice.
        stat = os.stat(first)
        os.utime(first, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000_000))
        assert store.target_slot() == first
        assert reads == [second, first]
        assert store.target_slot() == first
        assert reads == [second, first]  # both stats known again

    def test_store_memo_survives_restart_via_load(self, tmp_path, monkeypatch):
        store = SnapshotStore(tmp_path)
        store.save({"n": 1}, {"applied_seq": 1})
        newest = store.save({"n": 2}, {"applied_seq": 2})
        reopened = SnapshotStore(tmp_path)
        assert reopened.load().meta["applied_seq"] == 2
        reads = []
        monkeypatch.setattr(
            snapshot_module, "read_snapshot", lambda path: reads.append(path)
        )
        assert reopened.save({"n": 3}, {"applied_seq": 3}) != newest
        assert reads == []
