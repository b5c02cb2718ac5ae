"""Structured, wall-clock-free fault event log.

Every injection, detection, and recovery step appends one entry:

``{"seq", "t", "phase", "kind", "fault_id", "target", "detail"?}``

``t`` is *virtual* simulation seconds (never host wall clock), ``seq``
is the append index, and ``detail`` holds JSON scalars only — so the
serialised log is byte-identical across hosts, repeat runs, and any
``--jobs`` width, and :meth:`FaultLog.digest` pins that in benchmark
payloads.

:class:`EventLog` is the append/serialise/digest machinery shared with
the brain's decision log (:class:`~repro.brain.log.BrainLog`).
"""

from __future__ import annotations

import hashlib
import json

#: The lifecycle phases an entry can record.  ``quarantine`` and
#: ``probe`` are the health ledger's transitions (sched runs only).
PHASES = ("inject", "detect", "recover", "repair", "absorb", "quarantine", "probe")


#: Canonical serialisation (sorted keys, no whitespace), one encoder reused.
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class EventLog:
    """Append-only event log with deterministic serialisation.

    Subclasses name their ``PHASES`` and the ``KIND`` used in error
    messages, and build entries through :meth:`_append`.
    """

    PHASES: tuple[str, ...]
    KIND: str
    #: Running sha256 over the canonical prefix ``[e0,e1,...`` and the
    #: number of entries folded into it, so :meth:`digest` encodes only
    #: the entries appended since its last call.  Never pickled (see
    #: :meth:`__getstate__`): a restored log rebuilds it on first use.
    _hash = None
    _hashed = 0

    def __init__(self) -> None:
        self._entries: list[dict] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __getstate__(self) -> dict:
        return {"_entries": self._entries}

    def _append(self, phase: str, t: float, fields: dict, detail: dict) -> dict:
        if phase not in self.PHASES:
            raise ValueError(f"unknown log phase {phase!r}; expected one of {self.PHASES}")
        entry = {"seq": len(self._entries), "t": round(float(t), 9), "phase": phase, **fields}
        if detail:
            entry["detail"] = {k: _jsonable(v, self.KIND) for k, v in sorted(detail.items())}
        self._entries.append(entry)
        return entry

    def to_dicts(self) -> list[dict]:
        """A deep-enough copy safe to embed in payloads."""
        return [
            {**entry, **({"detail": dict(entry["detail"])} if "detail" in entry else {})}
            for entry in self._entries
        ]

    def to_json(self) -> str:
        """Canonical serialisation (sorted keys, no whitespace)."""
        return _canonical(self._entries)

    def digest(self) -> str:
        """Short stable hash of the canonical serialisation."""
        if self._hash is None:
            self._hash, self._hashed = hashlib.sha256(b"["), 0
        for entry in self._entries[self._hashed :]:
            if self._hashed:
                self._hash.update(b",")
            self._hash.update(_canonical(entry).encode("utf-8"))
            self._hashed += 1
        final = self._hash.copy()
        final.update(b"]")
        return final.hexdigest()[:16]

    def phase_counts(self) -> dict[str, int]:
        counts = {phase: 0 for phase in self.PHASES}
        for entry in self._entries:
            counts[entry["phase"]] += 1
        return {phase: n for phase, n in counts.items() if n}


class FaultLog(EventLog):
    """The fault lifecycle log."""

    PHASES = PHASES
    KIND = "fault"

    def append(
        self,
        phase: str,
        *,
        t: float,
        kind: str,
        fault_id: int,
        target: str,
        **detail,
    ) -> dict:
        """Record one lifecycle step; returns the entry."""
        fields = {"kind": str(kind), "fault_id": int(fault_id), "target": str(target)}
        return self._append(phase, t, fields, detail)

    def latencies(self, start: str = "inject", end: str = "recover") -> dict[int, float]:
        """Per-fault virtual latency from first ``start`` to last ``end``."""
        started: dict[int, float] = {}
        finished: dict[int, float] = {}
        for entry in self._entries:
            fid = entry["fault_id"]
            if entry["phase"] == start and fid not in started:
                started[fid] = entry["t"]
            elif entry["phase"] == end and fid in started:
                finished[fid] = entry["t"]
        return {
            fid: round(finished[fid] - started[fid], 9) for fid in sorted(finished)
        }

    def mean_latency(self, start: str = "inject", end: str = "recover") -> float | None:
        values = list(self.latencies(start, end).values())
        if not values:
            return None
        return round(sum(values) / len(values), 9)


def _jsonable(value, kind: str):
    """Coerce a detail value to JSON scalars/lists (fail loudly otherwise)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item, kind) for item in value]
    # numpy scalars and the like
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"{kind} log detail values must be JSON scalars, got {value!r}")


__all__ = ["PHASES", "EventLog", "FaultLog"]
