"""Recovery observation: per-fault detection and recovery metrics.

A :class:`RecoveryMonitor` subscribes to its simulator's event log
(:meth:`~repro.sim.Simulator.log`) and records one :class:`FaultRecord`
per injected fault, from every component on that simulator:

* ``detected_at_us`` — first time the workload *observed* the fault
  (an access hit a dead remote slot and re-faulted from the base file,
  or a circuit breaker opened);
* ``pages_lost`` — parked pages invalidated at injection;
* ``refaults`` — accesses that fell back to the base file afterwards;
* ``txns_doomed`` — in-flight transactions the injection doomed;
* ``restored_at_us`` — when the injected condition was healed;
* ``recovered_at_us`` — when observed throughput climbed back to a
  caller-supplied rate (``watch(..., recovered_at=rate)``).

All times are virtual microseconds; a seeded replay produces an
identical set of records (:meth:`snapshot` returns plain comparable
dicts for exactly that assertion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..harness.report import format_table
from ..sim.kernel import ProcessGenerator, Simulator
from .schedule import FaultSpec

__all__ = ["FaultRecord", "RecoveryMonitor"]


@dataclass
class FaultRecord:
    """Everything observed about one injected fault."""

    spec: FaultSpec
    injected_at_us: float
    detected_at_us: Optional[float] = None
    restored_at_us: Optional[float] = None
    recovered_at_us: Optional[float] = None
    pages_lost: int = 0
    refaults: int = 0
    inject_details: dict[str, Any] = field(default_factory=dict)
    restore_details: dict[str, Any] = field(default_factory=dict)
    #: Circuit-breaker transitions observed while this fault was the
    #: most recent one: ``(at_us, provider, old_state, new_state)``.
    breaker_transitions: list[tuple[float, str, str, str]] = field(default_factory=list)
    #: Hedged reads won by the backup medium during this fault.
    hedge_wins: int = 0
    #: In-flight transactions doomed by this fault's media loss.
    txns_doomed: int = 0

    @property
    def detection_latency_us(self) -> Optional[float]:
        if self.detected_at_us is None:
            return None
        return self.detected_at_us - self.injected_at_us

    @property
    def recovery_latency_us(self) -> Optional[float]:
        """Time from restoration to recovered throughput."""
        if self.recovered_at_us is None or self.restored_at_us is None:
            return None
        return self.recovered_at_us - self.restored_at_us


class RecoveryMonitor:
    """Collects :class:`FaultRecord`s from the simulator's event log.

    Constructing one subscribes it to ``sim.observers``, so it sees every
    component of the topology on that simulator with no further wiring.
    Observations after a fault are attributed to the most recent record,
    so a replayed experiment reproduces the exact same attribution.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.records: list[FaultRecord] = []
        self.series: dict[str, list[tuple[float, float]]] = {}
        #: The record whose injection is under way: media loss dooms
        #: transactions synchronously, between ``fault.injected`` and
        #: ``fault.active``.
        self._injecting: Optional[FaultRecord] = None
        sim.observers.append(self._observe)

    def _observe(self, now: float, kind: str, fields: dict[str, Any]) -> None:
        if kind == "fault.injected":
            self._injecting = FaultRecord(spec=fields["spec"], injected_at_us=now)
            self.records.append(self._injecting)
        elif kind == "fault.active":
            record = self._record_for(fields["spec"])
            if record is not None:
                record.inject_details = dict(fields["details"])
                record.pages_lost = int(record.inject_details.get("pages_lost", 0))
                if self._injecting is record:
                    self._injecting = None
        elif kind == "fault.restored":
            record = self._record_for(fields["spec"])
            if record is not None:
                record.restored_at_us = now
                record.restore_details = dict(fields["details"])
        elif kind == "txn.doomed":
            if self._injecting is not None:
                self._injecting.txns_doomed += 1
        elif self.records:
            record = self.records[-1]
            if kind == "bpext.refault":
                if record.detected_at_us is None:
                    record.detected_at_us = now
                record.refaults += 1
            elif kind == "breaker":
                new = fields["new"].value
                record.breaker_transitions.append(
                    (now, fields["provider"], fields["old"].value, new)
                )
                if record.detected_at_us is None and new == "open":
                    # Tripping a breaker *is* detecting the fault.
                    record.detected_at_us = now
            elif kind == "hedge.backup_win":
                record.hedge_wins += 1

    def _record_for(self, spec: FaultSpec) -> Optional[FaultRecord]:
        for record in reversed(self.records):
            if record.spec is spec:
                return record
        return None

    # -- throughput watching ----------------------------------------------

    def watch(
        self,
        counter: Callable[[], float],
        interval_us: float,
        label: str = "throughput",
        recovered_at: Optional[float] = None,
    ) -> None:
        """Sample a cumulative counter forever; stored as a (t, rate) series.

        The rate is per second of virtual time over the last interval.
        With ``recovered_at`` set, the first sampling interval whose rate
        reaches it after a fault was restored (or after a one-shot fault)
        stamps that fault's ``recovered_at_us``.
        """
        self.series[label] = []
        self.sim.spawn(
            self._watcher(counter, interval_us, label, recovered_at), name=f"watch:{label}"
        )

    def _watcher(
        self,
        counter: Callable[[], float],
        interval_us: float,
        label: str,
        recovered_at: Optional[float],
    ) -> ProcessGenerator:
        previous = float(counter())
        while True:
            yield self.sim.timeout(interval_us)
            current = float(counter())
            rate = (current - previous) / (interval_us / 1e6)
            self.series[label].append((self.sim.now, rate))
            previous = current
            if recovered_at is not None and rate >= recovered_at:
                for record in self.records:
                    if (
                        record.recovered_at_us is None
                        and (record.restored_at_us is not None or record.spec.duration_us == 0)
                    ):
                        record.recovered_at_us = self.sim.now

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> list[dict[str, Any]]:
        """Plain comparable dicts — the determinism-assertion payload.

        Deliberately excludes anything derived from process-global
        counters (lease ids, MR ids survive across runs in one
        interpreter) so two seeded runs compare bit-identical.
        """
        return [
            {
                "kind": record.spec.kind.value,
                "target": record.spec.target,
                "injected_at_us": record.injected_at_us,
                "detected_at_us": record.detected_at_us,
                "restored_at_us": record.restored_at_us,
                "recovered_at_us": record.recovered_at_us,
                "pages_lost": record.pages_lost,
                "refaults": record.refaults,
                "inject_details": dict(record.inject_details),
                "restore_details": dict(record.restore_details),
                "breaker_transitions": list(record.breaker_transitions),
                "hedge_wins": record.hedge_wins,
                "txns_doomed": record.txns_doomed,
            }
            for record in self.records
        ]

    def report(self) -> str:
        def fmt(value: Optional[float]) -> str:
            return "-" if value is None else f"{value / 1e3:.2f}"

        rows = [
            [
                record.spec.kind.value,
                record.spec.target or "-",
                f"{record.injected_at_us / 1e3:.2f}",
                fmt(record.detection_latency_us),
                str(record.pages_lost),
                str(record.refaults),
                fmt(record.restored_at_us),
                fmt(record.recovery_latency_us),
            ]
            for record in self.records
        ]
        return format_table(
            [
                "fault", "target", "t_inject (ms)", "detect lat (ms)",
                "pages lost", "re-faults", "t_restore (ms)", "recover lat (ms)",
            ],
            rows,
            title="fault injection / recovery",
        )
