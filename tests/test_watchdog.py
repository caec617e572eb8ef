"""Watchdog: manufactured deadlocks become structured diagnoses."""

from __future__ import annotations

import pytest

from repro.experiments.runner import MAX_CYCLES, build_system, run_simulation
from repro.resilience.faults import FaultEvent, FaultPlan
from repro.resilience.watchdog import (
    DeadlockDiagnosis,
    InvariantViolation,
    Watchdog,
    WatchdogError,
)
from repro.workloads.registry import get_workload

from tests.conftest import tiny_config


def _drop_plan(count=1):
    """Swallow the first ``count`` walk completions: a guaranteed hang."""
    return FaultPlan(
        events=(FaultEvent("drop_walk_completion", at_cycle=0, count=count),)
    )


def _run_with_drops(**kwargs):
    config = tiny_config().with_faults(_drop_plan())
    return run_simulation(
        "MVT", config=config, num_wavefronts=8, scale=0.05, seed=1, **kwargs
    )


def test_dropped_completion_raises_watchdog_error_with_diagnosis():
    with pytest.raises(WatchdogError) as excinfo:
        _run_with_drops(watchdog_cycles=100_000)
    diagnosis = excinfo.value.diagnosis
    assert isinstance(diagnosis, DeadlockDiagnosis)
    # The hang is diagnosed at the cycle work stopped — nowhere near the
    # 2e9-cycle safety valve the old opaque timeout needed.
    assert diagnosis.cycle < MAX_CYCLES // 1_000
    # The diagnosis names the stuck instruction(s) and their walks.
    assert diagnosis.outstanding_by_instruction
    assert sum(diagnosis.outstanding_by_instruction.values()) >= 1
    # The wedged walker is visible, still holding its walk.
    assert any(w["busy"] and w["vpn"] is not None for w in diagnosis.walkers)
    # The run was perturbed, and the report says so.
    assert diagnosis.fault_stats is not None
    assert diagnosis.fault_stats["dropped_completions"] == 1


def test_diagnosis_render_names_the_stuck_instruction():
    with pytest.raises(WatchdogError) as excinfo:
        _run_with_drops(watchdog_cycles=100_000)
    message = str(excinfo.value)
    stuck = min(excinfo.value.diagnosis.outstanding_by_instruction)
    assert "watchdog:" in message
    assert f"#{stuck}" in message or f"instruction={stuck}" in message
    assert "walker" in message


def test_deadlock_without_watchdog_still_fails_with_context():
    # No watchdog requested: the legacy RuntimeError path, but it now
    # distinguishes a drained-queue deadlock from a max_cycles cutoff.
    with pytest.raises(RuntimeError, match="deadlock"):
        _run_with_drops()


def test_watchdog_monitor_trips_on_live_but_stuck_system():
    # A repeating tick keeps the event queue alive forever, so the
    # drained-queue detector can never fire — only the in-loop monitor
    # can catch this shape of hang.
    config = tiny_config().with_faults(_drop_plan(count=999_999))
    system = build_system(config)
    watchdog = Watchdog(system, stall_cycles=30_000, check_interval_events=200)
    watchdog.install()
    bench = get_workload("MVT", scale=0.05, seed=1)
    system.gpu.dispatch(bench.build_trace(num_wavefronts=8, wavefront_size=64))

    def tick():
        system.simulator.post(100, "tick")

    system.simulator.register("tick", tick)
    tick()
    with pytest.raises(WatchdogError, match="no instruction retired") as excinfo:
        system.simulator.run(until=MAX_CYCLES)
    assert system.simulator.now < 10_000_000
    assert excinfo.value.diagnosis.instructions_retired < 16


def test_invariant_violation_detected():
    system = build_system(tiny_config())
    watchdog = Watchdog(system, stall_cycles=100_000)
    system.iommu.walks_dispatched += 5  # cook the books
    with pytest.raises(InvariantViolation) as excinfo:
        watchdog.check()
    assert excinfo.value.diagnosis.invariant_violations
    with pytest.raises(InvariantViolation):
        watchdog.final_check()


def test_diagnosis_attaches_trace_tail_when_traced():
    from repro.obs.trace import TraceConfig
    from repro.resilience.watchdog import DIAGNOSIS_TRACE_TAIL

    config = tiny_config().with_faults(_drop_plan())
    with pytest.raises(WatchdogError) as excinfo:
        run_simulation(
            "MVT", config=config, num_wavefronts=8, scale=0.05, seed=1,
            watchdog_cycles=100_000, trace=TraceConfig(),
        )
    tail = excinfo.value.diagnosis.trace_tail
    assert tail, "traced trip should carry its flight-recorder window"
    assert len(tail) <= DIAGNOSIS_TRACE_TAIL
    assert all("ts" in event and "name" in event for event in tail)
    # The drop fault itself is on the recorder (it wedged the system
    # early, so it survives in the trailing window of a quiet hang).
    assert "flight recorder" in excinfo.value.diagnosis.render()


def test_diagnosis_trace_tail_empty_without_tracer():
    with pytest.raises(WatchdogError) as excinfo:
        _run_with_drops(watchdog_cycles=100_000)
    assert excinfo.value.diagnosis.trace_tail == []
    assert "flight recorder" not in excinfo.value.diagnosis.render()


def test_healthy_run_passes_watchdog_untouched():
    result = run_simulation(
        "MVT", config=tiny_config(), num_wavefronts=8, scale=0.05, seed=1,
        watchdog_cycles=5_000_000,
    )
    assert result.instructions == 16


def test_watchdog_parameter_validation():
    system = build_system(tiny_config())
    with pytest.raises(ValueError):
        Watchdog(system, stall_cycles=0)
    with pytest.raises(ValueError):
        Watchdog(system, stall_cycles=1_000, check_interval_events=0)
    with pytest.raises(ValueError, match="watchdog_cycles"):
        run_simulation("MVT", config=tiny_config(), watchdog_cycles=-5)
