"""Bit-identity pins for the benchmark's simulations and every trace.

Performance work on the translation path must not move a single
simulated statistic.  Two sets of pins guard that:

1. **Benchmark simulations** — the benchmark's own six runs (NW and HOT
   with reservation DRAM, XSB with the ``frfcfs`` queued controller,
   each under ``fcfs`` and ``simt``), shrunk to tier-1 scale.  Each pin
   holds the headline counts plus a SHA-256 of the complete result
   (every statistic ``collect_result`` reports).
2. **Trace generation** — a SHA-256 of every workload's trace for two
   seeds at a small scale, so faster trace builders must emit exactly
   the same lane addresses.

The pins live in ``tests/golden_identity.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.config import baseline_config
from repro.experiments.runner import build_system, collect_result
from repro.workloads.registry import get_workload, workload_names

GOLDEN_PATH = Path(__file__).parent / "golden_identity.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: The benchmark's workloads: Table II abbreviation -> DRAM front end.
BENCH_WORKLOADS = {"NW": "reservation", "HOT": "reservation", "XSB": "frfcfs"}
BENCH_SCHEDULERS = ("fcfs", "simt")
SIM_SCALE = 0.2
SIM_WAVEFRONTS = 16
SIM_SEED = 1

TRACE_SCALE = 0.05
TRACE_WAVEFRONTS = 8
TRACE_SEEDS = (0, 1)


def _digest(data) -> str:
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def simulation_pin(workload: str, scheduler: str) -> dict:
    config = (
        baseline_config()
        .with_scheduler(scheduler, seed=SIM_SEED)
        .with_dram_controller(BENCH_WORKLOADS[workload])
    )
    bench = get_workload(workload, scale=SIM_SCALE, seed=SIM_SEED)
    system = build_system(config)
    system.gpu.dispatch(
        bench.build_trace(
            num_wavefronts=SIM_WAVEFRONTS, wavefront_size=config.gpu.wavefront_size
        )
    )
    system.simulator.run()
    assert system.gpu.finished
    result = collect_result(system, bench)
    return {
        "total_cycles": result.total_cycles,
        "stall_cycles": result.stall_cycles,
        "walks_dispatched": result.walks_dispatched,
        "walk_memory_accesses": result.walk_memory_accesses,
        "events": system.simulator.events_processed,
        "result_sha256": _digest(dataclasses.asdict(result)),
    }


def trace_pin(workload: str, seed: int) -> str:
    bench = get_workload(workload, scale=TRACE_SCALE, seed=seed)
    return _digest(bench.build_trace(num_wavefronts=TRACE_WAVEFRONTS))


def capture() -> dict:
    """Recompute every pin (how ``golden_identity.json`` was written)."""
    return {
        "simulations": {
            f"{workload}|{scheduler}": simulation_pin(workload, scheduler)
            for workload in BENCH_WORKLOADS
            for scheduler in BENCH_SCHEDULERS
        },
        "traces": {
            f"{workload}|{seed}": trace_pin(workload, seed)
            for workload in workload_names()
            for seed in TRACE_SEEDS
        },
    }


@pytest.mark.parametrize("key", sorted(GOLDEN["simulations"]))
def test_benchmark_simulation_is_bit_identical(key):
    workload, scheduler = key.split("|")
    assert simulation_pin(workload, scheduler) == GOLDEN["simulations"][key]


@pytest.mark.parametrize("key", sorted(GOLDEN["traces"]))
def test_trace_is_bit_identical(key):
    workload, seed = key.split("|")
    assert trace_pin(workload, int(seed)) == GOLDEN["traces"][key]


def test_every_workload_trace_is_pinned():
    want = {f"{w}|{s}" for w in workload_names() for s in TRACE_SEEDS}
    assert set(GOLDEN["traces"]) == want


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=2, sort_keys=True) + "\n")
