"""One benchmark pass, in a process of its own.

A pass simulates one workload under each scheduler in ``SCHEDULERS``,
through the public API (``get_workload(...).build_trace``,
``build_system``, ``gpu.dispatch``, ``Simulator.run``), and prints one
JSON object: per simulation its host times, checks and statistics, and
the pass's peak host memory.  With ``--trace 1`` it first installs the
CPU ledger (ledger.py) and reports the per-layer self times as well.

Usage (``src`` must be on ``PYTHONPATH``; run.py starts it)::

    python3 perfbench/passes.py --workload irregular --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import time
import traceback

from ledger import Ledger
from spec import SCHEDULERS, SETUPS, WAVEFRONTS, WORKLOADS

from repro import baseline_config, build_system, get_workload
from repro.experiments.runner import MAX_CYCLES, collect_result


#: Scale of the untimed set-up that each pass makes first, so that lazy
#: imports and first calls stay out of ``setup_s``.
WARMUP_SCALE_FACTOR = 0.01


def set_up(workload: dict, scheduler: str, seed: int, scale: float) -> tuple:
    """Workload name to dispatched system; returns the system, the trace
    and the CPU time at which trace generation ended."""
    bench = get_workload(workload["abbrev"], scale=scale, seed=seed)
    config = (
        baseline_config()
        .with_scheduler(scheduler, seed=seed)
        .with_dram_controller(workload["dram"])
    )
    trace = bench.build_trace(
        num_wavefronts=WAVEFRONTS, wavefront_size=config.gpu.wavefront_size
    )
    traced = time.process_time()
    system = build_system(config)
    system.gpu.dispatch(trace)
    return system, trace, traced


def simulate(workload: dict, scheduler: str, seed: int, scale: float, ledger):
    """Set up ``SETUPS`` times, run the last system and check it; never
    raises."""
    record = {"scheduler": scheduler, "errors": [], "setup_s": [], "trace_s": []}
    try:
        for _ in range(SETUPS):
            system = trace = None
            gc.collect()  # the previous system's cycles must not be freed in the timed window
            start = time.process_time()
            system, trace, traced = set_up(workload, scheduler, seed, scale)
            ready = time.process_time()
            record["setup_s"].append(ready - start)
            record["trace_s"].append(traced - start)

        def run() -> None:
            system.simulator.run(until=MAX_CYCLES)

        if ledger is None:
            run()
        else:
            ledger.measure(run)
        done = time.process_time()
        record.update(
            run_s=done - ready,
            events=system.simulator.events_processed,
            instructions=system.gpu.instructions_retired,
            expected_instructions=sum(len(stream) for stream in trace),
        )
        if not system.gpu.finished:
            record["errors"].append("gpu did not finish")
            return record
        record["errors"].extend(system.iommu.check_conservation())
        if record["instructions"] != record["expected_instructions"]:
            record["errors"].append(
                f"retired {record['instructions']} of "
                f"{record['expected_instructions']} instructions"
            )
        result = collect_result(system, workload["abbrev"])
        record["digest"] = [
            result.total_cycles,
            result.stall_cycles,
            result.walks_dispatched,
            result.walk_memory_accesses,
        ]
        record["stats"] = {
            key: result.detail[key] for key in ("iommu", "memory", "gpu_l2_tlb")
        }
    except Exception:
        record["errors"].append(traceback.format_exc())
    return record


def run_pass(name: str, seed: int, scale_factor: float, traced: bool) -> dict:
    workload = WORKLOADS[name]
    ledger = None
    if traced:
        ledger = Ledger()
        ledger.install()
    scale = workload["scale"] * scale_factor
    for scheduler in SCHEDULERS:
        set_up(workload, scheduler, seed, scale * WARMUP_SCALE_FACTOR)
    sims = [simulate(workload, s, seed, scale, ledger) for s in SCHEDULERS]
    report = {
        "sims": sims,
        # ru_maxrss is in KiB on Linux; this process ran only this pass.
        "peak_mem_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if ledger is not None:
        report["ledger"] = {
            "run_s": ledger.run_ns / 1e9,
            "layers": ledger.layers(),
            "spans": ledger.spans,
        }
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale-factor", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    report = run_pass(args.workload, args.seed, args.scale_factor, bool(args.trace))
    print(json.dumps(report))


if __name__ == "__main__":
    main()
