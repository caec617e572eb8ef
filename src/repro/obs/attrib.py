"""Walk-latency attribution and critical-path analysis (the blame layer).

The paper's argument is a latency-attribution claim: irregular
applications stall not because the *average* walk is slow but because
queueing delay and the *last* walk of a SIMD job dominate (Fig. 6's
first-vs-last gap, the Fig. 9–11 stall breakdowns).  The tracer records
the raw lifecycle events; this module turns a trace into an
*explanation*:

* :func:`attribute_walks` — a per-walk **stage breakdown**.  Every
  completed walk's end-to-end latency is decomposed into the stage
  taxonomy below, reconciled so the stages sum *exactly* to the
  end-to-end latency.  This is a hard invariant: any residue lands in
  the explicit ``service_gap`` stage and counts as a reconciliation
  failure instead of being silently absorbed.
* :func:`critical_paths` — a per-job **critical-path analysis**: which
  walk gated each SIMD instruction's retirement, with the first-vs-last
  walk gap itself attributed to the gating walk's stages.
* :func:`blame_run_report` / :func:`blame_sweep_report` — aggregated
  **blame reports** (stacked stage shares, per-level cycles, top-K
  outlier walk digests with their event timelines), deterministic and
  byte-identical across worker counts.

Stage taxonomy (cycles, per walk)::

    enqueue_wait   created -> pending-buffer arrival (FIFO overflow wait;
                   zero unless the pending buffer was full)
    queue_wait     arrival -> walker dispatch (the scheduler's queueing
                   delay, including any scan latency)
    bank_queue     cycles page-table reads waited on a busy DRAM bank
    row_access     cycles of actual DRAM row access (hit or conflict)
    fault_pad      fault-injected DRAM latency padding
    deliver_hold   completion held back by a delayed-completion fault
    service_gap    residue between consecutive reads (always zero for a
                   complete trace; non-zero counts as a reconciliation
                   failure)

Origins: a ``demand`` walk has the full lifecycle; a ``prefetch`` walk
has no ``walk_created`` event, so its breakdown starts at buffer
arrival; a ``coalesced`` request piggybacks on another walk and gets the
host's stage intervals clipped to its own created -> completed window
(the clipping preserves the sum invariant exactly).

Inputs are tracer events — the in-memory ring (``tracer.events()``), an
embedded ``result.detail["trace"]["events"]`` list, a Chrome export, or
a streamed JSONL file — via :func:`iter_trace_events`.  Attribution
needs only the ``walk`` and ``job`` categories (:data:`BLAME_CATEGORIES`),
so the DRAM-heavy ``memory`` category can stay off.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.obs.aggregate import sweep_specs
from repro.obs.trace import PID_WALKERS, TraceConfig

#: Report identity for the blame document.
BLAME_REPORT_FORMAT = "repro-blame"
BLAME_REPORT_VERSION = 1

#: The stage taxonomy, in pipeline order.  ``service_gap`` is the
#: explicit residue slot: zero for every walk of a complete trace.
STAGES: Tuple[str, ...] = (
    "enqueue_wait",
    "queue_wait",
    "bank_queue",
    "row_access",
    "fault_pad",
    "deliver_hold",
    "service_gap",
)

#: Trace categories attribution needs; everything else is noise here.
BLAME_CATEGORIES = frozenset({"walk", "job"})

#: Default ring size for blame runs: per-walk attribution needs the
#: *whole* lifecycle, so the ring must hold every event (the CLI warns
#: loudly when anything was dropped).
BLAME_RING_SIZE = 1 << 20

#: Outlier digests kept per report.
DEFAULT_TOP_K = 5


@dataclass
class WalkAttribution:
    """One walk request's reconciled latency decomposition."""

    vpn: int
    instruction_id: int
    origin: str  # "demand" | "prefetch" | "coalesced"
    created: Optional[int]
    arrival: int
    dispatch: int
    completed: int
    walker_id: int
    wavefront_id: Optional[int] = None
    accesses: int = 0
    stages: Dict[str, int] = field(default_factory=dict)
    level_cycles: Dict[int, int] = field(default_factory=dict)
    reads: List[dict] = field(default_factory=list)
    #: (start, end, stage) intervals tiling the walk's lifetime — used
    #: to clip coalesced children; dropped from digests.
    intervals: List[Tuple[int, int, str]] = field(default_factory=list)
    reconciled: bool = True

    @property
    def span_start(self) -> int:
        """Where this request's latency clock started."""
        return self.created if self.created is not None else self.arrival

    @property
    def end_to_end(self) -> int:
        return self.completed - self.span_start

    def digest(self) -> Dict[str, Any]:
        """The walk as a plain, JSON-stable dict (no intervals)."""
        return {
            "vpn": self.vpn,
            "instruction_id": self.instruction_id,
            "origin": self.origin,
            "created": self.created,
            "arrival": self.arrival,
            "dispatch": self.dispatch,
            "completed": self.completed,
            "walker_id": self.walker_id,
            "wavefront_id": self.wavefront_id,
            "accesses": self.accesses,
            "end_to_end": self.end_to_end,
            "stages": {stage: self.stages.get(stage, 0) for stage in STAGES},
            "reconciled": self.reconciled,
        }


@dataclass
class AttributionResult:
    """Everything :func:`attribute_walks` learned from one trace."""

    walks: List[WalkAttribution] = field(default_factory=list)
    #: Walks whose lifecycle never closed (wedged walkers, truncated
    #: traces) or events that matched nothing, by reason.
    incomplete: Dict[str, int] = field(default_factory=dict)
    reconciliation_failures: int = 0
    #: First few failure descriptions, for debugging.
    failure_details: List[str] = field(default_factory=list)

    @property
    def checked(self) -> int:
        return len(self.walks)


def iter_trace_events(
    source: Union[str, Path, Sequence[Mapping[str, Any]]],
) -> List[dict]:
    """Tracer events from any supported container, in emit order.

    Accepts an in-memory event list, a Chrome ``trace_event`` JSON file
    (metadata events are filtered out), or a JSONL stream (one event per
    line; blank lines tolerated — a shard log may end mid-write).
    """
    if not isinstance(source, (str, Path)):
        return [dict(event) for event in source]
    path = Path(source)
    text = path.read_text()
    if path.suffix == ".jsonl" or "\n{" in text[:4096] or (
        text.startswith("{") and "\n" in text.strip() and
        not text.lstrip().startswith('{"traceEvents"')
        and '"traceEvents"' not in text[:256]
    ):
        events = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # torn final line of a live shard log
        return events
    document = json.loads(text)
    if isinstance(document, dict) and "traceEvents" in document:
        return [
            event for event in document["traceEvents"]
            if event.get("ph") != "M"
        ]
    if isinstance(document, list):
        return [event for event in document if event.get("ph") != "M"]
    raise ValueError(f"{path}: not a Chrome trace or JSONL event stream")


def attribute_walks(
    events: Iterable[Mapping[str, Any]],
) -> AttributionResult:
    """Decompose every completed walk in ``events`` into stages.

    Single forward pass over the (emit-ordered) event stream after a
    cheap counting pre-pass; fully deterministic.  The reconciliation
    invariant — ``sum(stages) == end_to_end`` — holds for every returned
    walk by construction; walks where the tiling left a residue or a
    negative stage keep ``reconciled=False`` and count into
    ``reconciliation_failures``.

    The pre-pass counts ``queued`` (dispatch) events per (vpn, iid).
    The main pass pairs them FIFO with ``walk_created`` records, so the
    first N created records of each key are *reserved* for demand walks
    and must never be resolved as coalesced children.  Without the
    reservation, a buffered request's record could be claimed both by a
    completing same-page host walk and, later, by its own dispatch —
    double-counting the request and breaking the conservation law
    ``created == demand + coalesced``.
    """
    events = list(events)
    out = AttributionResult()
    #: (vpn, iid) -> how many dispatches will consume a created record.
    demand_slots: Dict[Tuple[int, int], int] = {}
    for event in events:
        if event.get("name") == "queued":
            args = event.get("args", {})
            key = (args["vpn"], args["instruction_id"])
            demand_slots[key] = demand_slots.get(key, 0) + 1
    #: (vpn, iid) -> unconsumed walk_created records, oldest first.
    open_created: Dict[Tuple[int, int], Deque[dict]] = {}
    #: vpn -> created records for coalesce resolution (lazily cleaned).
    created_by_vpn: Dict[int, List[dict]] = {}
    #: walker_id -> the walk it is currently servicing.
    active: Dict[int, WalkAttribution] = {}
    #: (vpn, iid) -> walks whose walker span closed, awaiting their
    #: walk_completed instant (adjacent in the stream, same cycle).
    awaiting: Dict[Tuple[int, int], Deque[WalkAttribution]] = {}

    def bump(reason: str) -> None:
        out.incomplete[reason] = out.incomplete.get(reason, 0) + 1

    for event in events:
        name = event.get("name")
        args = event.get("args", {})
        if name == "walk_created":
            record = {
                "ts": event["ts"],
                "vpn": args["vpn"],
                "instruction_id": args["instruction_id"],
                "wavefront_id": args.get("wavefront_id"),
                "taken": False,
            }
            key = (record["vpn"], record["instruction_id"])
            remaining = demand_slots.get(key, 0)
            record["reserved"] = remaining > 0
            if remaining:
                demand_slots[key] = remaining - 1
            open_created.setdefault(key, deque()).append(record)
            created_by_vpn.setdefault(record["vpn"], []).append(record)
        elif name == "queued":
            vpn = args["vpn"]
            iid = args["instruction_id"]
            created: Optional[dict] = None
            queue = open_created.get((vpn, iid))
            if queue:
                created = queue.popleft()
                created["taken"] = True
                if not queue:
                    del open_created[(vpn, iid)]
            walk = WalkAttribution(
                vpn=vpn,
                instruction_id=iid,
                origin="demand" if created is not None else "prefetch",
                created=created["ts"] if created is not None else None,
                arrival=event["ts"],
                dispatch=event["ts"] + event["dur"],
                completed=-1,
                walker_id=args["walker_id"],
                wavefront_id=(
                    created["wavefront_id"] if created is not None else None
                ),
            )
            if walk.walker_id in active:
                bump("walker_reused_before_span")
            active[walk.walker_id] = walk
        elif name == "walk_read":
            walk = active.get(event.get("tid"))
            if walk is None:
                bump("unmatched_walk_read")
                continue
            walk.reads.append({
                "ts": event["ts"],
                "dur": event["dur"],
                "level": args["level"],
                "address": args["address"],
                "bank": args["bank"],
                "bank_queue": args["bank_queue"],
                "row_access": args["row_access"],
                "fault_pad": args["fault_pad"],
                "row_hit": args.get("row_hit", False),
            })
        elif name == "walk" and event.get("pid") == PID_WALKERS:
            walk = active.pop(event.get("tid"), None)
            if walk is None:
                bump("unmatched_walk_span")
                continue
            walk.accesses = args.get("accesses", len(walk.reads))
            awaiting.setdefault(
                (walk.vpn, walk.instruction_id), deque()
            ).append(walk)
        elif name == "walk_completed":
            key = (args["vpn"], args["instruction_id"])
            queue = awaiting.get(key)
            if not queue:
                bump("unmatched_walk_completed")
                continue
            walk = queue.popleft()
            if not queue:
                del awaiting[key]
            walk.completed = event["ts"]
            _finalize(walk, out)
            _resolve_coalesced(walk, created_by_vpn, out)

    for queue in open_created.values():
        for record in queue:
            if not record["taken"]:
                bump("orphan_walk_created")
    for walk in active.values():
        bump("walk_never_completed")
        _ = walk
    for queue in awaiting.values():
        for _walk in queue:
            bump("span_without_completion")
    return out


def _finalize(walk: WalkAttribution, out: AttributionResult) -> None:
    """Compute the walk's stages and interval tiling; verify the sum."""
    base = walk.span_start
    stages = {stage: 0 for stage in STAGES}
    intervals: List[Tuple[int, int, str]] = []

    def add(start: int, end: int, stage: str) -> None:
        if end != start:
            stages[stage] += end - start
            intervals.append((start, end, stage))

    add(base, walk.arrival, "enqueue_wait")
    add(walk.arrival, walk.dispatch, "queue_wait")
    cursor = walk.dispatch
    for read in walk.reads:
        add(cursor, read["ts"], "service_gap")
        edge = read["ts"]
        add(edge, edge + read["bank_queue"], "bank_queue")
        edge += read["bank_queue"]
        add(edge, edge + read["row_access"], "row_access")
        edge += read["row_access"]
        add(edge, edge + read["fault_pad"], "fault_pad")
        cursor = read["ts"] + read["dur"]
        level = read["level"]
        walk.level_cycles[level] = (
            walk.level_cycles.get(level, 0) + read["dur"]
        )
    add(cursor, walk.completed, "deliver_hold")

    walk.stages = stages
    walk.intervals = intervals
    total = sum(stages.values())
    ok = (
        total == walk.end_to_end
        and stages["service_gap"] == 0
        and all(value >= 0 for value in stages.values())
    )
    walk.reconciled = ok
    if not ok:
        out.reconciliation_failures += 1
        if len(out.failure_details) < 8:
            out.failure_details.append(
                f"walk vpn={walk.vpn:#x} iid={walk.instruction_id}: "
                f"stages sum {total} vs end_to_end {walk.end_to_end}, "
                f"service_gap={stages['service_gap']}"
            )
    out.walks.append(walk)


def _resolve_coalesced(
    host: WalkAttribution,
    created_by_vpn: Dict[int, List[dict]],
    out: AttributionResult,
) -> None:
    """Attach orphan same-page requests created during the host's life.

    A request that coalesced onto an in-flight or pending walk left only
    its ``walk_created`` instant; its reply arrived with the host's
    completion.  Its breakdown is the host's stage intervals clipped to
    its own window — exact, because the host's intervals tile its
    lifetime with no residue.
    """
    records = created_by_vpn.get(host.vpn)
    if not records:
        return
    survivors: List[dict] = []
    window_start = host.span_start
    for record in records:
        if record["taken"]:
            continue
        if record["reserved"]:
            # A later dispatch will consume this record as a demand
            # walk; claiming it here would count the request twice.
            survivors.append(record)
            continue
        ts = record["ts"]
        if window_start <= ts <= host.completed:
            record["taken"] = True
            child = WalkAttribution(
                vpn=host.vpn,
                instruction_id=record["instruction_id"],
                origin="coalesced",
                created=ts,
                arrival=max(ts, host.arrival),
                dispatch=max(ts, host.dispatch),
                completed=host.completed,
                walker_id=host.walker_id,
                wavefront_id=record["wavefront_id"],
                accesses=0,
            )
            stages = {stage: 0 for stage in STAGES}
            for start, end, stage in host.intervals:
                clipped = max(start, ts)
                if end > clipped:
                    stages[stage] += end - clipped
            child.stages = stages
            total = sum(stages.values())
            child.reconciled = total == child.end_to_end
            if not child.reconciled:
                out.reconciliation_failures += 1
                if len(out.failure_details) < 8:
                    out.failure_details.append(
                        f"coalesced vpn={child.vpn:#x} "
                        f"iid={child.instruction_id}: clipped sum {total} "
                        f"vs end_to_end {child.end_to_end}"
                    )
            out.walks.append(child)
        else:
            survivors.append(record)
    if survivors:
        created_by_vpn[host.vpn] = survivors
    else:
        del created_by_vpn[host.vpn]


# ----------------------------------------------------------------------
# Critical paths
# ----------------------------------------------------------------------


def critical_paths(
    events: Iterable[Mapping[str, Any]],
    walks: Sequence[WalkAttribution],
) -> Dict[str, Any]:
    """Per-job critical-path analysis: which walk gated retirement.

    For every retired SIMD instruction that needed at least one walk,
    identifies the *gating* walk (latest completion) and decomposes the
    first-vs-last completion gap — the paper's Fig. 6 quantity — into
    ``arrival_skew`` (the gating walk did not exist yet when the first
    walk finished) plus the gating walk's stages clipped to the gap
    window.  The decomposition is exact: the pieces sum to the gap.
    """
    by_instruction: Dict[int, List[WalkAttribution]] = {}
    for walk in walks:
        if walk.origin == "prefetch":
            continue
        by_instruction.setdefault(walk.instruction_id, []).append(walk)

    jobs = []
    gap_stage_cycles = {stage: 0 for stage in STAGES}
    arrival_skew_cycles = 0
    total_gap = 0
    multi = 0
    for event in events:
        if event.get("name") != "job":
            continue
        args = event.get("args", {})
        iid = args.get("instruction_id")
        group = by_instruction.get(iid)
        if not group:
            continue
        completions = [walk.completed for walk in group]
        first = min(completions)
        last = max(completions)
        gating = max(
            group,
            key=lambda walk: (
                walk.completed, -walk.span_start, -walk.vpn,
            ),
        )
        gap = last - first
        total_gap += gap
        stages = {stage: 0 for stage in STAGES}
        skew = 0
        if gap > 0:
            multi += 1
            skew = max(0, gating.span_start - first)
            arrival_skew_cycles += skew
            clip_from = max(gating.span_start, first)
            if gating.intervals:
                for start, end, stage in gating.intervals:
                    clipped = max(start, clip_from)
                    if end > clipped:
                        stages[stage] += end - clipped
            else:  # coalesced gating walk: clip the flat stage totals
                for stage in STAGES:
                    stages[stage] = gating.stages.get(stage, 0)
                overshoot = sum(stages.values()) - (last - clip_from)
                stages["queue_wait"] -= overshoot
            for stage in STAGES:
                gap_stage_cycles[stage] += stages[stage]
        jobs.append({
            "instruction_id": iid,
            "walks": len(group),
            "retire": event["ts"] + event["dur"],
            "first_walk_complete": first,
            "last_walk_complete": last,
            "gap": gap,
            "arrival_skew": skew,
            "gap_stages": stages,
            "gating_walk": {
                "vpn": gating.vpn,
                "origin": gating.origin,
                "end_to_end": gating.end_to_end,
            },
            "reconciled": skew + sum(stages.values()) == gap,
        })

    jobs.sort(key=lambda job: job["instruction_id"])
    gap_total_parts = arrival_skew_cycles + sum(gap_stage_cycles.values())
    return {
        "jobs_analyzed": len(jobs),
        "multi_walk_jobs": multi,
        "total_gap_cycles": total_gap,
        "mean_gap": round(total_gap / len(jobs), 6) if jobs else 0.0,
        "arrival_skew_cycles": arrival_skew_cycles,
        "gap_stage_cycles": gap_stage_cycles,
        "gap_reconciled": gap_total_parts == total_gap,
        "top_gaps": [
            job for job in sorted(
                jobs,
                key=lambda job: (-job["gap"], job["instruction_id"]),
            )[:DEFAULT_TOP_K]
        ],
    }


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------


def _shares(cycles: Mapping[str, int]) -> Dict[str, float]:
    total = sum(cycles.values())
    if total <= 0:
        return {stage: 0.0 for stage in cycles}
    return {
        stage: round(value / total, 6) for stage, value in cycles.items()
    }


def blame_run_report(
    events: Iterable[Mapping[str, Any]],
    top_k: int = DEFAULT_TOP_K,
) -> Dict[str, Any]:
    """One run's full blame document (attribution + critical paths)."""
    events = list(events)
    attribution = attribute_walks(events)
    walks = attribution.walks
    stage_cycles = {stage: 0 for stage in STAGES}
    level_cycles: Dict[int, int] = {}
    origins: Dict[str, int] = {}
    latency_total = 0
    latency_max = 0
    for walk in walks:
        origins[walk.origin] = origins.get(walk.origin, 0) + 1
        latency_total += walk.end_to_end
        latency_max = max(latency_max, walk.end_to_end)
        for stage in STAGES:
            stage_cycles[stage] += walk.stages.get(stage, 0)
        for level, cycles in walk.level_cycles.items():
            level_cycles[level] = level_cycles.get(level, 0) + cycles
    outliers = sorted(
        walks,
        key=lambda walk: (
            -walk.end_to_end, walk.vpn, walk.instruction_id,
            walk.span_start,
        ),
    )[:top_k]
    return {
        "walks": {
            "attributed": len(walks),
            "origins": dict(sorted(origins.items())),
            "incomplete": dict(sorted(attribution.incomplete.items())),
        },
        "reconciliation": {
            "checked": attribution.checked,
            "failures": attribution.reconciliation_failures,
            "details": list(attribution.failure_details),
        },
        "latency": {
            "total_cycles": latency_total,
            "mean": (
                round(latency_total / len(walks), 6) if walks else 0.0
            ),
            "max": latency_max,
        },
        "stage_cycles": stage_cycles,
        "stage_shares": _shares(stage_cycles),
        "level_cycles": {
            f"level{level}": cycles
            for level, cycles in sorted(level_cycles.items())
        },
        "critical_path": critical_paths(events, walks),
        "outliers": [walk.digest() for walk in outliers],
    }


def blame_sweep_report(
    specs: Sequence[Mapping[str, Any]],
    results: Sequence[Any],
    top_k: int = DEFAULT_TOP_K,
) -> Dict[str, Any]:
    """The blame document for a whole sweep, merged deterministically.

    ``results`` must carry embedded trace events
    (``TraceConfig(embed_events=True)``).  Runs are keyed and sorted by
    (workload, scheduler, seed) and per-scheduler aggregates iterate in
    sorted order, so the document is byte-identical however many worker
    processes executed the sweep — the same convention as
    :func:`repro.obs.aggregate.fleet_report`.
    """
    runs: List[Dict[str, Any]] = []
    dropped_events = 0
    for spec, result in zip(specs, results):
        trace_detail = result.detail.get("trace", {})
        events = trace_detail.get("events")
        if events is None:
            raise ValueError(
                "blame_sweep_report needs embedded trace events; run specs "
                "with TraceConfig(embed_events=True)"
            )
        dropped_events += trace_detail.get("events_dropped", 0)
        report = blame_run_report(events, top_k=top_k)
        runs.append({
            "workload": result.workload,
            "scheduler": result.scheduler,
            "seed": int(spec.get("seed", 0)),
            "total_cycles": result.total_cycles,
            **report,
        })
    runs.sort(key=lambda run: (
        run["workload"], run["scheduler"], run["seed"]
    ))

    by_scheduler: Dict[str, Dict[str, Any]] = {}
    for run in runs:
        entry = by_scheduler.setdefault(run["scheduler"], {
            "runs": 0,
            "walks_attributed": 0,
            "reconciliation_failures": 0,
            "stage_cycles": {stage: 0 for stage in STAGES},
            "gap_cycles": 0,
            "multi_walk_jobs": 0,
        })
        entry["runs"] += 1
        entry["walks_attributed"] += run["walks"]["attributed"]
        entry["reconciliation_failures"] += (
            run["reconciliation"]["failures"]
        )
        for stage in STAGES:
            entry["stage_cycles"][stage] += run["stage_cycles"][stage]
        entry["gap_cycles"] += run["critical_path"]["total_gap_cycles"]
        entry["multi_walk_jobs"] += run["critical_path"]["multi_walk_jobs"]
    for entry in by_scheduler.values():
        entry["stage_shares"] = _shares(entry["stage_cycles"])

    return {
        "format": BLAME_REPORT_FORMAT,
        "version": BLAME_REPORT_VERSION,
        "runs": runs,
        "by_scheduler": {
            scheduler: by_scheduler[scheduler]
            for scheduler in sorted(by_scheduler)
        },
        "reconciliation": {
            "checked": sum(r["reconciliation"]["checked"] for r in runs),
            "failures": sum(r["reconciliation"]["failures"] for r in runs),
        },
        "events_dropped": dropped_events,
    }


def render_blame_report(report: Dict[str, Any]) -> str:
    """The blame document as stable, diff-friendly JSON."""
    return json.dumps(report, indent=2, sort_keys=True)


def blame_sweep_specs(
    workloads: Sequence[str],
    schedulers: Sequence[str],
    seeds: Sequence[int],
    config: Optional[Any] = None,
    num_wavefronts: int = 8,
    scale: float = 0.1,
    ring_size: int = BLAME_RING_SIZE,
) -> List[Dict[str, Any]]:
    """``run_many`` specs for a blame sweep: the
    :func:`repro.obs.aggregate.sweep_specs` matrix with metrics on and
    every run traced with the walk+job categories embedded, so
    :func:`blame_sweep_report` can attribute it."""
    trace = TraceConfig(
        categories=BLAME_CATEGORIES,
        ring_size=ring_size,
        embed_events=True,
    )
    return [
        dict(spec, trace=trace)
        for spec in sweep_specs(
            workloads, schedulers, seeds, config=config,
            num_wavefronts=num_wavefronts, scale=scale, metrics=True,
        )
    ]


# ----------------------------------------------------------------------
# Metrics-counter summaries (no tracing required)
# ----------------------------------------------------------------------

#: metrics counter name -> stage label for :func:`stage_summary`.
STAGE_COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("walk.stage.enqueue_wait_cycles", "enqueue_wait"),
    ("walk.stage.queue_wait_cycles", "queue_wait"),
    ("walk.stage.dram_bank_queue_cycles", "bank_queue"),
    ("walk.stage.dram_row_cycles", "row_access"),
    ("walk.stage.fault_pad_cycles", "fault_pad"),
    ("walk.stage.deliver_hold_cycles", "deliver_hold"),
)


def stage_summary(
    metrics_by_scheduler: Mapping[str, Mapping[str, Any]],
) -> Dict[str, Dict[str, Any]]:
    """Per-scheduler stage totals and shares from merged metrics dumps.

    This is the tracing-free path: the engine keeps the
    ``walk.stage.*`` counters always-on, so a metrics-only campaign can
    still answer "where did walk cycles go" — just in aggregate rather
    than per walk.  Returns ``{}`` when no dump carries the counters.
    """
    out: Dict[str, Dict[str, Any]] = {}
    for scheduler in sorted(metrics_by_scheduler):
        counters = metrics_by_scheduler[scheduler].get("counters", {})
        cycles = {
            stage: int(counters[name])
            for name, stage in STAGE_COUNTERS
            if name in counters
        }
        if not cycles or not any(cycles.values()):
            continue
        walks = int(counters.get("iommu.walks_completed", 0))
        entry: Dict[str, Any] = {
            "stage_cycles": cycles,
            "stage_shares": _shares(cycles),
        }
        if walks:
            entry["per_walk"] = {
                stage: round(value / walks, 6)
                for stage, value in cycles.items()
            }
        out[scheduler] = entry
    return out
