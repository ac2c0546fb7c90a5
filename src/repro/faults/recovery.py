"""Recovery observation: per-fault detection and recovery metrics.

The :class:`RecoveryMonitor` plugs into the :class:`FaultEngine` (as its
``monitor``) and into the buffer-pool extension's ``fault_listeners``
hook, and records one :class:`FaultRecord` per injected fault:

* ``detected_at_us`` — first time the workload *observed* the fault
  (an access hit a dead remote slot and re-faulted from the base file);
* ``pages_lost`` — parked pages invalidated at injection;
* ``refaults`` — accesses that fell back to the base file afterwards;
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
    #: In-flight transactions doomed by this fault's media loss (see
    #: :meth:`RecoveryMonitor.track_transactions`).
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
    """Collects :class:`FaultRecord`s; the FaultEngine's ``monitor``."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.records: list[FaultRecord] = []
        self.series: dict[str, list[tuple[float, float]]] = {}
        self._txn_managers: list[Any] = []
        self._dooms_at_inject = 0

    # -- FaultEngine callbacks --------------------------------------------

    def fault_injected(self, spec: FaultSpec) -> None:
        self._dooms_at_inject = self._txn_dooms()
        self.records.append(FaultRecord(spec=spec, injected_at_us=self.sim.now))

    def fault_active(self, spec: FaultSpec, details: dict[str, Any]) -> None:
        record = self._record_for(spec)
        if record is not None:
            record.inject_details = dict(details)
            record.pages_lost = int(details.get("pages_lost", 0))
            record.txns_doomed = self._txn_dooms() - self._dooms_at_inject

    def fault_restored(self, spec: FaultSpec, details: dict[str, Any]) -> None:
        record = self._record_for(spec)
        if record is not None:
            record.restored_at_us = self.sim.now
            record.restore_details = dict(details)

    def _record_for(self, spec: FaultSpec) -> Optional[FaultRecord]:
        for record in reversed(self.records):
            if record.spec is spec:
                return record
        return None

    # -- extension hook ----------------------------------------------------

    def track_extension(self, extension: Any) -> None:
        """Subscribe to BPExt failure events for detection/re-fault stats."""
        extension.fault_listeners.append(self._on_page_fault)

    def _on_page_fault(self, page_id: Any) -> None:
        if not self.records:
            return
        record = self.records[-1]
        if record.detected_at_us is None:
            record.detected_at_us = self.sim.now
        record.refaults += 1

    # -- transaction-layer hook --------------------------------------------

    def track_transactions(self, manager: Any) -> None:
        """Attribute transaction dooms to fault records.

        Dooming is synchronous with injection (media loss fires the
        extension's ``loss_listeners`` inline), so the delta in the
        manager's ``dooms`` counter between injection and activation is
        exactly the set of transactions this fault killed.
        """
        self._txn_managers.append(manager)

    def _txn_dooms(self) -> int:
        return sum(int(manager.dooms) for manager in self._txn_managers)

    # -- reliability-layer hook --------------------------------------------

    def track_reliability(self, layer: Any) -> None:
        """Correlate breaker transitions and hedge wins with faults.

        Subscribes to the layer's breaker-transition and hedge-win
        streams; each observation is attributed to the most recent fault
        record, so a replayed experiment reproduces the exact same
        attribution.
        """
        layer.breakers.transition_listeners.append(self._on_breaker_transition)
        layer.hedge.win_listeners.append(self._on_hedge_win)

    def _on_breaker_transition(
        self, provider: str, old: Any, new: Any, at_us: float
    ) -> None:
        if not self.records:
            return
        record = self.records[-1]
        record.breaker_transitions.append((at_us, provider, old.value, new.value))
        if record.detected_at_us is None and new.value == "open":
            # Tripping a breaker *is* detecting the fault.
            record.detected_at_us = self.sim.now

    def _on_hedge_win(self) -> None:
        if self.records:
            self.records[-1].hedge_wins += 1

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
