"""Forward-progress watchdog and invariant checker.

A deadlocked model used to spin until ``max_cycles`` and die with a
one-line ``RuntimeError``.  The :class:`Watchdog` instead piggybacks on
the simulator's monitor hook: every N fired events it verifies the
IOMMU's conservation invariants and checks that instructions are still
retiring.  On a trip it assembles a :class:`DeadlockDiagnosis` — the
pending-walk buffer, per-walker state, per-instruction outstanding walk
counts and the oldest starving request — and raises
:class:`WatchdogError` with the whole story attached.

The same diagnosis is produced when the event queue drains with the GPU
unfinished (a true deadlock: nothing left to fire, work outstanding).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Default monitor cadence: invariants + progress every this many events.
DEFAULT_CHECK_INTERVAL_EVENTS = 20_000

#: How many pending-buffer entries a diagnosis lists verbatim.
_DIAGNOSIS_BUFFER_SAMPLE = 8

#: How many trailing trace events a diagnosis attaches when the traced
#: system carries a tracer (the flight-recorder window).
DIAGNOSIS_TRACE_TAIL = 64


class WatchdogError(RuntimeError):
    """A watchdog trip: forward progress stopped or an invariant broke.

    ``diagnosis`` carries the structured snapshot; the exception message
    is its rendered form.
    """

    def __init__(self, diagnosis: "DeadlockDiagnosis") -> None:
        super().__init__(diagnosis.render())
        self.diagnosis = diagnosis


class InvariantViolation(WatchdogError):
    """A conservation invariant failed — a model bug, not a slow run."""


@dataclass
class DeadlockDiagnosis:
    """Structured snapshot of a stuck (or inconsistent) system."""

    reason: str
    cycle: int
    events_processed: int
    instructions_retired: int
    running_wavefronts: int
    #: ``issued == completed + pending`` style failures; empty when the
    #: trip was purely a progress stall.
    invariant_violations: List[str] = field(default_factory=list)
    #: Sample of pending-walk buffer entries (vpn/instruction/age dicts).
    pending_buffer: List[Dict[str, int]] = field(default_factory=list)
    pending_buffer_total: int = 0
    overflow_queued: int = 0
    #: One dict per walker: busy/stalled state plus the walk it holds.
    walkers: List[Dict[str, object]] = field(default_factory=list)
    #: instruction_id -> walks still outstanding for it (buffered or
    #: being walked).  Names the instructions a hang is gating on.
    outstanding_by_instruction: Dict[int, int] = field(default_factory=dict)
    #: The single longest-waiting pending walk, if any.
    oldest_pending: Optional[Dict[str, int]] = None
    #: Fault-injection stats when a plan was active (perturbed runs
    #: should say so in their crash reports).
    fault_stats: Optional[Dict[str, object]] = None
    #: The last N trace events when the system was traced — a trip ships
    #: its own flight recorder (empty without a tracer).
    trace_tail: List[Dict[str, object]] = field(default_factory=list)

    def render(self) -> str:
        """The diagnosis as a readable multi-line report."""
        lines = [
            f"watchdog: {self.reason}",
            f"  cycle={self.cycle:,d} events={self.events_processed:,d} "
            f"retired={self.instructions_retired:,d} "
            f"running_wavefronts={self.running_wavefronts}",
        ]
        for violation in self.invariant_violations:
            lines.append(f"  INVARIANT VIOLATED: {violation}")
        if self.oldest_pending:
            p = self.oldest_pending
            lines.append(
                f"  oldest starving walk: vpn={p['vpn']:#x} "
                f"instruction={p['instruction_id']} waited {p['age']:,d} cycles"
            )
        if self.outstanding_by_instruction:
            worst = sorted(
                self.outstanding_by_instruction.items(),
                key=lambda item: (-item[1], item[0]),
            )[:_DIAGNOSIS_BUFFER_SAMPLE]
            per_instr = ", ".join(f"#{iid}:{n}" for iid, n in worst)
            lines.append(
                f"  outstanding walks by instruction "
                f"({len(self.outstanding_by_instruction)} stuck): {per_instr}"
            )
        lines.append(
            f"  pending buffer: {self.pending_buffer_total} entries "
            f"(+{self.overflow_queued} overflowed)"
        )
        for entry in self.pending_buffer:
            lines.append(
                f"    vpn={entry['vpn']:#x} instruction={entry['instruction_id']} "
                f"age={entry['age']:,d}"
            )
        busy = [w for w in self.walkers if w["busy"]]
        lines.append(f"  walkers: {len(busy)}/{len(self.walkers)} busy")
        for w in self.walkers:
            if not (w["busy"] or w["stalled"]):
                continue
            state = "stalled" if w["stalled"] else "walking"
            holding = (
                f" vpn={w['vpn']:#x} instruction={w['instruction_id']}"
                if w["vpn"] is not None
                else ""
            )
            lines.append(f"    walker {w['walker_id']}: {state}{holding}")
        if self.fault_stats is not None:
            lines.append(f"  fault injection active: {self.fault_stats}")
        if self.trace_tail:
            first = self.trace_tail[0]
            lines.append(
                f"  flight recorder: last {len(self.trace_tail)} trace "
                f"events attached (from cycle {first.get('ts', 0):,d})"
            )
        return "\n".join(lines)


class Watchdog:
    """Monitors one system for forward progress and model consistency.

    ``stall_cycles`` is the K in "no instruction retired in K cycles":
    pick it comfortably above the worst DRAM round-trip a burst of
    dependent walks can take (tens of thousands of cycles is safe for
    the shipped configurations).
    """

    def __init__(
        self,
        system,
        stall_cycles: int,
        check_interval_events: int = DEFAULT_CHECK_INTERVAL_EVENTS,
    ) -> None:
        if stall_cycles <= 0:
            raise ValueError(f"stall_cycles must be positive, got {stall_cycles}")
        if check_interval_events <= 0:
            raise ValueError(
                f"check_interval_events must be positive, got {check_interval_events}"
            )
        self._system = system
        self.stall_cycles = stall_cycles
        self.check_interval_events = check_interval_events
        self._last_retired = -1
        self._last_progress_cycle = 0
        self.checks = 0

    def install(self) -> None:
        """Attach this watchdog to the system's simulator monitor hook.

        Uses :meth:`~repro.engine.simulator.Simulator.add_monitor`, so the
        watchdog coexists with other periodic observers (e.g. the metrics
        sampler) instead of displacing them.
        """
        self._system.simulator.add_monitor(self.check, self.check_interval_events)

    # ------------------------------------------------------------------
    # Periodic check (runs inside the event loop)
    # ------------------------------------------------------------------

    def check(self) -> None:
        self.checks += 1
        violations = self._system.iommu.check_conservation()
        if violations:
            raise InvariantViolation(
                self.diagnose("conservation invariant violated", violations)
            )
        gpu = self._system.gpu
        now = self._system.simulator.now
        retired = gpu.instructions_retired
        if retired != self._last_retired:
            self._last_retired = retired
            self._last_progress_cycle = now
            return
        if gpu.finished:
            return
        stalled_for = now - self._last_progress_cycle
        if stalled_for > self.stall_cycles:
            raise WatchdogError(
                self.diagnose(
                    f"no instruction retired in {stalled_for:,d} cycles "
                    f"(limit {self.stall_cycles:,d})"
                )
            )

    def final_check(self) -> None:
        """Invariant sweep after a run completes (silent-bug detector)."""
        violations = self._system.iommu.check_conservation()
        if violations:
            raise InvariantViolation(
                self.diagnose("conservation invariant violated at end of run", violations)
            )

    # ------------------------------------------------------------------
    # Diagnosis assembly
    # ------------------------------------------------------------------

    def diagnose(
        self, reason: str, violations: Optional[List[str]] = None
    ) -> DeadlockDiagnosis:
        system = self._system
        iommu = system.iommu
        now = system.simulator.now

        pending = sorted(iommu.buffer, key=lambda e: e.arrival_time)
        pending_sample = [
            {
                "vpn": entry.vpn,
                "instruction_id": entry.instruction_id,
                "age": now - entry.arrival_time,
            }
            for entry in pending[:_DIAGNOSIS_BUFFER_SAMPLE]
        ]

        outstanding: Dict[int, int] = {}
        oldest: Optional[Dict[str, int]] = None
        for entry in list(pending) + iommu.in_flight_entries():
            if entry.is_prefetch:
                continue
            outstanding[entry.instruction_id] = (
                outstanding.get(entry.instruction_id, 0) + 1
            )
            age = now - entry.arrival_time
            if oldest is None or age > oldest["age"]:
                oldest = {
                    "vpn": entry.vpn,
                    "instruction_id": entry.instruction_id,
                    "age": age,
                }

        walkers = []
        for walker in iommu.walkers:
            current = walker.current_entry
            walkers.append(
                {
                    "walker_id": walker.walker_id,
                    "busy": walker.is_busy,
                    "stalled": now < walker.stalled_until,
                    "vpn": current.vpn if current is not None else None,
                    "instruction_id": (
                        current.instruction_id if current is not None else None
                    ),
                }
            )

        injector = getattr(iommu, "injector", None)
        tracer = getattr(system, "tracer", None)
        return DeadlockDiagnosis(
            reason=reason,
            cycle=now,
            events_processed=system.simulator.events_processed,
            instructions_retired=system.gpu.instructions_retired,
            running_wavefronts=system.gpu.running_wavefronts,
            invariant_violations=list(violations or []),
            pending_buffer=pending_sample,
            pending_buffer_total=len(iommu.buffer),
            overflow_queued=iommu.overflow_queued,
            walkers=walkers,
            outstanding_by_instruction=outstanding,
            oldest_pending=oldest,
            fault_stats=injector.stats() if injector is not None else None,
            trace_tail=(
                tracer.tail(DIAGNOSIS_TRACE_TAIL) if tracer is not None else []
            ),
        )
