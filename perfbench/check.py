"""Run every workload in both modes, print every metric, check the claims.

Usage::

    python3 perfbench/check.py            # full size, default seed
    python3 perfbench/check.py --smoke    # tiny traces, a second seed

Each workload runs once with ``--trace 0`` and once with ``--trace 1``
through run.py.  Every run must emit every metric BENCHMARK.json names
(run.py attaches their units from it) and report no failed simulation
(so fail_frac is 0 and the traced pass reproduced the untraced
digests).  The full-size run also checks the model's claims and the
ledger's traffic split; the smoke run skips those, because tiny traces
do not saturate the walk buffer.  Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from spec import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent

SMOKE_SCALE_FACTOR = 0.05
SMOKE_SEED = DEFAULT_SEED + 1


def run(workload: str, seed: int, trace: int, seconds: int, scale_factor: float) -> dict:
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--scale-factor", str(scale_factor)],
        capture_output=True, text=True,
    )
    if child.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited {child.returncode}:\n"
                         f"{child.stderr}")
    return json.loads(child.stdout.splitlines()[-1])


def share(metrics: dict, *prefixes: str) -> float:
    return sum(
        m["value"] for name, m in metrics.items()
        if name.endswith(".share") and name.startswith(prefixes)
    )


def claims(workload: str, e2e: dict, layers: dict) -> list:
    """Model and traffic checks that hold at full size."""
    problems = []
    speedup = e2e["simt_speedup"]["value"]
    if workload == "irregular" and not speedup > 1:
        problems.append(f"simt_speedup {speedup:.4f} is not > 1")
    if workload == "regular" and not abs(speedup - 1) <= 0.05:
        problems.append(f"simt_speedup {speedup:.4f} is not within 5% of 1")
    translation = share(layers, "core.", "mmu.")
    front_end = share(layers, "gpu.", "memory.cache.")
    if workload == "irregular" and not translation > front_end:
        problems.append(f"core+mmu share {translation:.3f} <= gpu+cache {front_end:.3f}")
    if workload == "regular" and not front_end > translation:
        problems.append(f"gpu+cache share {front_end:.3f} <= core+mmu {translation:.3f}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seed = SMOKE_SEED if args.smoke else DEFAULT_SEED
    scale_factor = SMOKE_SCALE_FACTOR if args.smoke else 1.0
    seconds = 1 if args.smoke else benchmark["run_seconds"]
    declared = {
        0: [m["name"] for m in benchmark["end_to_end"]],
        1: [m["name"] for m in benchmark["per_layer"]],
    }
    problems = []
    for workload in WORKLOADS:
        results = {trace: run(workload, seed, trace, seconds, scale_factor) for trace in (0, 1)}
        for trace, result in results.items():
            metrics = result["metrics"]
            missing = [name for name in declared[trace] if name not in metrics]
            if missing:
                problems.append(f"{workload} --trace {trace}: not emitted: {missing}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} --trace {trace}: {result['failed']} of "
                                f"{result['attempted']} simulations failed")
            print(f"{workload} --trace {trace} (seed {seed}, scale x{scale_factor:g})")
            for name, m in metrics.items():
                print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
        layers = results[1]["metrics"]
        controller = layers["memory.controller.calls"]["value"]
        if (controller > 0) != (WORKLOADS[workload]["dram"] != "reservation"):
            problems.append(f"{workload}: memory.controller.calls = {controller}")
        if not args.smoke:
            problems += [f"{workload}: {p}" for p in
                         claims(workload, results[0]["metrics"], layers)]
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("all checks passed" if not problems else f"{len(problems)} checks failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
