"""The repository's benchmark: simulated instructions per host CPU-second.

Usage::

    python3 perfbench/run.py --workload irregular --seed 1 --trace 0

Each pass (passes.py, one child process per pass) simulates the
workload under FCFS and then under SIMT-aware walk scheduling.  With
``--trace 0`` the benchmark repeats untraced passes for ``--seconds``
seconds (default: BENCHMARK.json's ``run_seconds``) and reports the
end-to-end metrics over all of them.
With ``--trace 1`` it runs one untraced and one traced pass and reports
the per-layer ledger.  The last line of standard output is the result
object; the line before it records the host (calibration score, source
revision, Python version).  A table for people goes to standard error.
README.md in this directory defines every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Digests are compared across passes, so a run makes at least two.
MIN_PASSES = 2

#: A child pass that takes longer than this has hung.
PASS_TIMEOUT_S = 150

#: The metrics, their units and the run length, as BENCHMARK.json
#: declares them: the one place they are written down.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: ``--trace`` -> the BENCHMARK.json list of the metrics it reports.
METRIC_KINDS = ("end_to_end", "per_layer")


class BenchmarkError(Exception):
    """The benchmark could not measure (as opposed to a failed simulation)."""


def run_pass(workload: str, seed: int, scale_factor: float, traced: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    command = [
        sys.executable, str(HERE / "passes.py"), "--workload", workload,
        "--seed", str(seed), "--scale-factor", str(scale_factor),
        "--trace", str(int(traced)),
    ]
    try:
        child = subprocess.run(
            command, env=env, capture_output=True, text=True,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"pass timed out after {exc.timeout}s") from None
    if child.returncode != 0:
        raise BenchmarkError(
            f"pass exited with {child.returncode}:\n{child.stderr.strip()}"
        )
    return json.loads(child.stdout.splitlines()[-1])


def account(passes: list) -> tuple:
    """Count simulations and failures; a simulation fails on any error of
    its own or when its digest differs from an earlier repeat's."""
    first_digest = {}
    attempted = failed = 0
    for report in passes:
        for sim in report["sims"]:
            attempted += 1
            digest = sim.get("digest")
            if sim["errors"] or digest is None:
                failed += 1
            elif first_digest.setdefault(sim["scheduler"], digest) != digest:
                failed += 1
    return attempted, failed


def completed(passes: list) -> list:
    """The passes whose every simulation ran to a digest."""
    done = [p for p in passes if all("digest" in s for s in p["sims"])]
    if not done:
        raise BenchmarkError("no pass completed all its simulations")
    return done


def end_to_end(passes: list) -> dict:
    passes = completed(passes)
    sims = [sim for report in passes for sim in report["sims"]]
    cycles = {sim["scheduler"]: sim["digest"][0] for sim in passes[0]["sims"]}
    return {
        # All of the run's passes as one measurement: on a shared host the
        # ratio of sums spread less across runs than the median of passes.
        "instr_per_s": sum(s["instructions"] for s in sims) / sum(s["run_s"] for s in sims),
        "setup_s": statistics.median(t for s in sims for t in s["setup_s"]),
        "peak_mem_mb": statistics.median(r["peak_mem_mb"] for r in passes),
        "sim_cycles": cycles["simt"],
        "simt_speedup": cycles["fcfs"] / cycles["simt"],
    }


#: Handlers the ledger's wrappers miss count as engine time, so on a
#: traced pass the engine's share of the run must stay below this.  It
#: was 0.15-0.17 on every workload when the ledger was written; with
#: every ``Simulator.register`` handler unwrapped it rose to 0.27.
ENGINE_SHARE_CEILING = 0.22

#: The traced pass's layer self times (wall clock, from the spans) must
#: sum to its run time by the pass's own CPU clock within this share.
CLOCK_TOLERANCE = 0.10


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(untraced: dict, traced: dict) -> dict:
    """Per-layer metrics, name -> value: counts from the untraced pass's
    statistics, host times from the traced pass."""
    [untraced] = completed([untraced])
    [traced] = completed([traced])
    sims = untraced["sims"]

    def total(get) -> float:
        return sum(get(sim) for sim in sims)

    iommu = [s["stats"]["iommu"] for s in sims]
    memory = [s["stats"]["memory"] for s in sims]
    dram = [m["dram"] for m in memory]
    reservation = "accesses" in dram[0]
    walks = sum(i["walks_dispatched"] + i["prefetch_walks"] for i in iommu)
    pt_reads = total(lambda s: s["digest"][3])
    pwc_hits = sum(lv["hits"] for i in iommu for lv in i["pwc"].values())
    pwc_lookups = sum(lv["hits"] + lv["misses"] for i in iommu for lv in i["pwc"].values())
    l2 = [s["stats"]["gpu_l2_tlb"] for s in sims]
    run_cpu = total(lambda s: s["run_s"])
    events = total(lambda s: s["events"])

    ledger = traced["ledger"]
    spans = ledger["spans"]
    run_s = ledger["run_s"]
    traced_cpu = sum(s["run_s"] for s in traced["sims"])

    def span_calls(suffix: str) -> int:
        return sum(calls for name, (calls, _) in spans.items() if name.endswith(suffix))

    metrics = {
        "engine.events": events,
        "engine.events_per_s": events / run_cpu,
        "gpu.stall_cycles": total(lambda s: s["digest"][1]),
        "mmu.tlb.gpu_l2_hit_rate": _ratio(
            sum(t["hits"] for t in l2), sum(t["hits"] + t["misses"] for t in l2)),
        "mmu.tlb.iommu_hit_rate": _ratio(
            sum(i["tlb_hits"] for i in iommu), sum(i["requests"] for i in iommu)),
        "mmu.iommu.walks": walks,
        "mmu.iommu.coalesced": sum(i["coalesced"] for i in iommu),
        "mmu.iommu.queue_wait_cycles": round(
            sum(i["avg_queue_wait"] * i["walks_completed"] for i in iommu)),
        "mmu.iommu.buffer_peak": max(i["buffer_peak"] for i in iommu),
        "mmu.iommu.overflow_peak": max(i["overflow_peak"] for i in iommu),
        "core.sched.select_calls": span_calls("Scheduler.select"),
        "mmu.pwc.hit_rate": _ratio(pwc_hits, pwc_lookups),
        "mmu.pwc.score_calls": span_calls("PageWalkCache.score"),
        "mmu.walker.pt_reads": pt_reads,
        "mmu.walker.reads_per_walk": _ratio(pt_reads, walks),
        "mmu.walker.service_cycles": round(
            sum(i["avg_walk_service"] * i["walks_completed"] for i in iommu)),
        "memory.cache.l1_hit_rate": _ratio(
            sum(m["l1_hit_rate"] * m["data_accesses"] for m in memory),
            sum(m["data_accesses"] for m in memory)),
        "memory.cache.l2_hit_rate": _ratio(
            sum(m["l2"]["hits"] for m in memory),
            sum(m["l2"]["hits"] + m["l2"]["misses"] for m in memory)),
        "memory.dram.accesses": sum(d["accesses"] for d in dram) if reservation else 0,
        "memory.dram.row_hit_rate": _ratio(
            sum(d["row_hits"] for d in dram), sum(d["accesses"] for d in dram))
        if reservation else 0.0,
        "memory.dram.pt_reads": (
            sum(m["page_table_reads"] for m in memory) if reservation else 0),
        "memory.dram.data_reads": (
            sum(d["accesses"] - m["page_table_reads"] for d, m in zip(dram, memory))
            if reservation else 0),
        "memory.controller.reads": 0 if reservation else sum(d["reads"] for d in dram),
        "memory.controller.peak_queue_depth": (
            0 if reservation else max(d["peak_queue_depth"] for d in dram)),
        "workloads.trace_s": statistics.median(
            t for s in sims + traced["sims"] for t in s["trace_s"]),
        "trace.overhead": traced_cpu / run_cpu,
    }
    for layer, row in ledger["layers"].items():
        if layer != "engine":
            metrics[f"{layer}.calls"] = row["calls"]
            metrics[f"{layer}.ns_per_call"] = _ratio(row["self_s"] * 1e9, row["calls"])
        metrics[f"{layer}.share"] = row["self_s"] / run_s
        metrics[f"{layer}.self_s"] = row["self_s"]
    return metrics


def ledger_problems(traced: dict) -> list:
    """Ways in which the traced pass's ledger fails to account for its
    run; empty when it accounts for all of it."""
    ledger = traced["ledger"]
    layers = ledger["layers"]
    self_sum = sum(row["self_s"] for row in layers.values())
    cpu = sum(s["run_s"] for s in traced["sims"])
    engine_share = layers["engine"]["self_s"] / ledger["run_s"]
    print(f"ledger: layer self times sum to {self_sum:.3f} s (wall); run took "
          f"{cpu:.3f} CPU-s; engine share {engine_share:.3f}", file=sys.stderr)
    problems = []
    if any(row["self_s"] < 0 for row in layers.values()):
        problems.append("a layer's self time is negative")
    if abs(self_sum - cpu) > CLOCK_TOLERANCE * cpu:
        problems.append(f"self times sum to {self_sum:.3f} s, not {cpu:.3f} CPU-s "
                        f"within {CLOCK_TOLERANCE:.0%}")
    if engine_share > ENGINE_SHARE_CEILING:
        problems.append(f"engine share {engine_share:.3f} exceeds {ENGINE_SHARE_CEILING}: "
                        "the wrappers miss some layer's handlers")
    return problems


def calibration_score(rounds: int = 3) -> float:
    """Operations per CPU-second of a fixed stdlib kernel (dict updates
    and heap pushes, like the simulator's event loop), median of
    ``rounds``.  Recorded beside results to compare hosts; never used to
    scale a metric."""
    ops = 200_000
    scores = []
    for _ in range(rounds):
        start = time.process_time()
        table, heap = {}, []
        for i in range(ops):
            key = i & 4095
            table[key] = table.get(key, 0) + i
            heapq.heappush(heap, (i * 7919) % 10007)
        while heap:
            heapq.heappop(heap)
        scores.append(ops / (time.process_time() - start))
    return statistics.median(scores)


def git_revision():
    """HEAD of the checkout's own repository, or None outside one."""
    if not (ROOT / ".git").exists():
        return None  # git would search the parent directories
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "git_revision": git_revision(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "calibration_ops_per_s": calibration_score(),
    }


def measure(args) -> tuple:
    """Run the passes; returns the result object and the pass count."""
    passes = []
    if args.trace:
        untraced = run_pass(args.workload, args.seed, args.scale_factor, False)
        traced = run_pass(args.workload, args.seed, args.scale_factor, True)
        passes = [untraced, traced]
    else:
        start = time.monotonic()
        while True:
            passes.append(run_pass(args.workload, args.seed, args.scale_factor, False))
            elapsed = time.monotonic() - start
            mean = elapsed / len(passes)
            if len(passes) >= MIN_PASSES and elapsed + mean > args.seconds:
                break
    attempted, failed = account(passes)
    correct = failed == 0
    if args.trace:
        values = per_layer(untraced, traced)
        values["fail_frac"] = failed / attempted
        problems = ledger_problems(traced)
        for problem in problems:
            print(f"ledger check failed: {problem}", file=sys.stderr)
        correct = correct and not problems
    else:
        values = end_to_end(passes)
    declared = {m["name"]: m["unit"] for m in BENCHMARK[METRIC_KINDS[args.trace]]}
    if set(values) != set(declared):
        raise BenchmarkError(f"metrics differ from BENCHMARK.json: "
                             f"{sorted(set(values) ^ set(declared))}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": declared[name]} for name, value in values.items()
        },
    }
    return result, len(passes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale-factor", type=float, default=1.0,
        help="multiply every trace scale (check.py --smoke runs tiny passes)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no simulator sources at {SRC}", file=sys.stderr)
        return 2
    try:
        result, passes = measure(args)
        env = environment()
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    spec = WORKLOADS[args.workload]
    print(f"{args.workload}: {spec['abbrev']} scale {spec['scale'] * args.scale_factor:g}, "
          f"seed {args.seed}, {passes} passes, {result['failed']}/{result['attempted']} "
          f"simulations failed", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)
    if not args.trace and spec["paper_speedup"] is not None:
        print(f"  (paper's {spec['abbrev']} simt_speedup: {spec['paper_speedup']}; "
              f"the model is unvalidated against hardware)", file=sys.stderr)
    print(json.dumps({"environment": env, "workload": args.workload,
                      "seed": args.seed, "passes": passes}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
