"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``run WORKLOAD``
    Simulate one workload under one scheduler and print its metrics.

``compare WORKLOAD``
    Run several schedulers on one workload and print speedups.  With
    ``--timeout``/``--retries`` each scheduler's run is bounded and
    retried in an isolated worker process; failures are summarised and
    the exit code is nonzero if any job ultimately fails.

``trace WORKLOAD``
    Simulate one workload with full lifecycle tracing and write a
    Chrome/Perfetto ``trace_event`` JSON file (open it at
    https://ui.perfetto.dev).  Timestamps are simulation cycles, so the
    trace is deterministic.

``metrics WORKLOAD``
    Simulate one workload with the live metrics registry sampling the
    translation pipeline (pending-walk depth, walker occupancy, PWC hit
    rates, DRAM queue depth) and print — or write — the JSON dump.

``blame``
    Walk-latency attribution: run a traced sweep (or analyze an
    existing trace with ``--trace``) and write the deterministic blame
    report — per-walk stage breakdowns reconciled to end-to-end
    latency, per-job critical paths, per-scheduler stage shares and
    top-K outlier walks.  See ``docs/OBSERVABILITY.md``.

``faults``
    Run a seeded fault-injection campaign (deterministic: the same seed
    prints byte-identical JSON).  ``--trace-dir`` additionally writes a
    per-case Perfetto trace with fault injections annotated;
    ``--fleet-log``/``--progress`` stream per-case fleet telemetry.

``fleet-report``
    Run a workload × scheduler × seed sweep under fleet telemetry and
    write the deterministic aggregated report (per-group distributions,
    geomean speedups vs the baseline scheduler) as JSON and markdown.

``bench-check``
    Compare the current ``BENCH_*.json`` numbers against the committed
    baselines in ``benchmarks/baselines/`` and exit nonzero when a
    watched metric regressed beyond its threshold.

``service SUBCOMMAND``
    The durable work-queue sweep service (:mod:`repro.service`):
    ``init`` shards a campaign into a manifest + filesystem queue,
    ``worker`` drains it from this process, ``run`` supervises a local
    worker pool end-to-end, ``resume`` repairs a campaign after any
    crash or full restart, ``status`` reports progress, ``merge`` folds
    per-shard results into the deterministic fleet report, and
    ``chaos`` runs the SIGKILL gate that proves crash-recovery does not
    change results.

``figure NAME``
    Regenerate one of the paper's figures/tables (fig2, fig3, fig5,
    fig6, fig8, fig9, fig10, fig11, fig12, fig13a/b/c, fig14a/b,
    table1, table2) and print it in the paper's shape.

``list``
    List available workloads and schedulers.
"""

from __future__ import annotations

import argparse
import sys

from repro import available_schedulers, run_simulation
from repro.experiments import figures, report
from repro.workloads.registry import workload_names


def _cmd_list(_args: argparse.Namespace) -> int:
    print("workloads: ", ", ".join(workload_names()))
    print("schedulers:", ", ".join(available_schedulers()))
    return 0


def _print_result(result) -> None:
    print(result.summary())
    print(f"wavefronts/epoch: {result.wavefronts_per_epoch:.2f}")
    print(f"first/last walk latency: {result.first_walk_latency:.0f} / "
          f"{result.last_walk_latency:.0f} cycles")


def _cmd_run(args: argparse.Namespace) -> int:
    result = run_simulation(
        args.workload.upper(),
        config=_load_config(args),
        scheduler=args.scheduler,
        num_wavefronts=args.wavefronts,
        scale=args.scale,
        seed=args.seed,
        checkpoint_every=args.checkpoint_every,
        checkpoint_path=args.checkpoint_path,
    )
    _print_result(result)
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    from repro.experiments.runner import resume_simulation

    result = resume_simulation(
        args.checkpoint,
        max_cycles=args.max_cycles,
        checkpoint_every=args.checkpoint_every,
    )
    _print_result(result)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_many
    from repro.obs.aggregate import sweep_specs

    schedulers = tuple(args.schedulers.split(","))
    specs = sweep_specs(
        [args.workload.upper()],
        schedulers,
        [args.seed],
        config=_load_config(args),
        num_wavefronts=args.wavefronts,
        scale=args.scale,
    )
    with _make_telemetry(args) as telemetry:
        outcomes = run_many(
            specs,
            jobs=args.jobs,
            timeout=args.timeout,
            retries=args.retries,
            return_outcomes=True,
            telemetry=telemetry,
        )
    baseline = outcomes[0].result if outcomes[0].ok else None
    for name, outcome in zip(schedulers, outcomes):
        if outcome.ok:
            result = outcome.result
            line = result.summary()
            if baseline is not None:
                line += f"  speedup={result.speedup_over(baseline):.3f}"
            if not args.quiet:
                print(line)
        elif not args.quiet:
            print(f"{name}: FAILED after {outcome.attempts} attempt(s) — "
                  f"{outcome.error_type}: {outcome.error}")
    failed = [
        name for name, outcome in zip(schedulers, outcomes) if not outcome.ok
    ]
    if failed:
        print(
            f"{len(failed)}/{len(outcomes)} jobs failed: {', '.join(failed)}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs.trace import TraceConfig, validate_chrome_trace

    trace_kwargs = {}
    if args.categories:
        trace_kwargs["categories"] = frozenset(args.categories.split(","))
    if args.ring_size is not None:
        trace_kwargs["ring_size"] = args.ring_size
    trace_config = TraceConfig(**trace_kwargs)
    result = run_simulation(
        args.workload.upper(),
        config=_load_config(args),
        scheduler=args.scheduler,
        num_wavefronts=args.wavefronts,
        scale=args.scale,
        seed=args.seed,
        trace=trace_config,
        trace_path=args.out,
        trace_jsonl_path=args.jsonl,
    )
    with open(args.out, "r", encoding="utf-8") as handle:
        count = validate_chrome_trace(json.load(handle))
    print(result.summary())
    summary = result.detail["trace"]
    print(
        f"trace: {count} events written to {args.out} "
        f"({summary['events_emitted']} emitted, "
        f"{summary['events_dropped']} dropped from the ring)"
    )
    if args.jsonl:
        print(f"jsonl: {args.jsonl}")
    print("open in https://ui.perfetto.dev or chrome://tracing")
    if summary["events_dropped"] > 0:
        # Ring overflow is silent data loss for any per-walk analysis
        # downstream (blame, Fig. 3 histograms) — make it loud.
        print(
            f"warning: ring overflow dropped {summary['events_dropped']} "
            f"event(s); rerun with a larger --ring-size (currently "
            f"{trace_config.ring_size}) or fewer --categories for "
            "complete lifecycles",
            file=sys.stderr,
        )
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    result = run_simulation(
        args.workload.upper(),
        config=_load_config(args),
        scheduler=args.scheduler,
        num_wavefronts=args.wavefronts,
        scale=args.scale,
        seed=args.seed,
        metrics=True,
        metrics_interval_events=args.interval,
    )
    dump = json.dumps(result.detail["metrics"], indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(dump + "\n")
        print(result.summary())
        print(f"wrote {args.out}")
    else:
        print(dump)
    return 0


def _cmd_blame(args: argparse.Namespace) -> int:
    import json

    from repro.obs.attrib import (
        BLAME_REPORT_FORMAT,
        BLAME_REPORT_VERSION,
        blame_run_report,
        blame_sweep_report,
        blame_sweep_specs,
        iter_trace_events,
        render_blame_report,
    )

    if args.trace:
        # Analyze-existing-trace mode: no simulation, just attribution.
        events = iter_trace_events(args.trace)
        run = blame_run_report(events, top_k=args.top)
        document = {
            "format": BLAME_REPORT_FORMAT,
            "version": BLAME_REPORT_VERSION,
            "source": args.trace,
            "runs": [run],
            "reconciliation": dict(run["reconciliation"]),
        }
    else:
        from repro.experiments.runner import run_many

        workloads = [name.upper() for name in args.workloads.split(",")]
        schedulers = args.schedulers.split(",")
        sweep_kwargs = {}
        if args.ring_size is not None:
            sweep_kwargs["ring_size"] = args.ring_size
        specs = blame_sweep_specs(
            workloads,
            schedulers,
            seeds=range(args.seeds),
            config=_load_config(args),
            num_wavefronts=args.wavefronts,
            scale=args.scale,
            **sweep_kwargs,
        )
        results = run_many(specs, jobs=args.jobs)
        document = blame_sweep_report(specs, results, top_k=args.top)

    rendered = render_blame_report(document)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        if not args.quiet:
            print(f"wrote {args.out}")
    else:
        print(rendered)
    if not args.quiet:
        for scheduler, entry in sorted(
            document.get("by_scheduler", {}).items()
        ):
            shares = ", ".join(
                f"{stage}={share:.1%}"
                for stage, share in sorted(
                    entry["stage_shares"].items(),
                    key=lambda kv: -kv[1],
                )
                if share > 0
            )
            print(
                f"{scheduler}: {entry['walks_attributed']} walks — {shares}"
            )
    dropped = document.get("events_dropped", 0)
    if dropped:
        print(
            f"warning: ring overflow dropped {dropped} event(s); "
            "attribution is incomplete — raise --ring-size",
            file=sys.stderr,
        )
    reconciliation = document.get("reconciliation", {})
    if reconciliation.get("failures"):
        print(
            f"{reconciliation['failures']}/{reconciliation['checked']} "
            "walk(s) failed stage reconciliation",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.resilience.campaign import render_campaign, run_campaign

    with _make_telemetry(args) as telemetry:
        report = run_campaign(
            seed=args.seed,
            runs=args.runs,
            jobs=args.jobs,
            timeout=args.timeout,
            retries=args.retries,
            trace_dir=args.trace_dir,
            telemetry=telemetry,
        )
    rendered = render_campaign(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        if not args.quiet:
            print(f"wrote {args.output}")
    else:
        print(rendered)
    # Retries and timeouts are audit events even on a "green" campaign:
    # a silently re-run case must never look like a clean first pass.
    if report["retried"] or report["timed_out"]:
        print(
            f"campaign needed {report['retried']} retry attempt(s); "
            f"{report['timed_out']} case(s) timed out",
            file=sys.stderr,
        )
    if report["completed"] != report["runs"]:
        print(
            f"{report['runs'] - report['completed']}/{report['runs']} "
            "campaign cases failed",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_fleet_report(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_many_resilient
    from repro.obs.aggregate import (
        fleet_markdown,
        fleet_report,
        render_fleet_report,
        sweep_specs,
    )

    workloads = [name.upper() for name in args.workloads.split(",")]
    schedulers = args.schedulers.split(",")
    specs = sweep_specs(
        workloads,
        schedulers,
        seeds=range(args.seeds),
        config=_load_config(args),
        num_wavefronts=args.wavefronts,
        scale=args.scale,
        metrics=args.metrics,
    )
    with _make_telemetry(args) as telemetry:
        outcomes = run_many_resilient(
            specs,
            jobs=args.jobs,
            timeout=args.timeout,
            retries=args.retries,
            telemetry=telemetry,
        )
        summary = telemetry.summary() if telemetry is not None else None
    report = fleet_report(
        specs, outcomes,
        baseline_scheduler=args.baseline,
        telemetry_summary=summary,
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(render_fleet_report(report) + "\n")
    rendered = fleet_markdown(report)
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    if not args.quiet:
        print(rendered)
        print(f"wrote {args.out}")
        if args.markdown:
            print(f"wrote {args.markdown}")
    failed = report["failed"] + report["timeout"]
    if failed:
        print(
            f"{failed}/{report['specs']} fleet spec(s) failed",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_bench_check(args: argparse.Namespace) -> int:
    import json

    from repro.obs.regress import (
        EXIT_OK,
        EXIT_REGRESSION,
        check_benches,
        render_check,
    )

    report = check_benches(
        baseline_dir=args.baseline_dir, current_dir=args.current_dir
    )
    # The exit-code contract (see repro.obs.regress): 0 = gate passed
    # (missing benches included), 1 = at least one regression.
    # --warn-only forces 0 but the JSON keeps the honest verdict.
    exit_code = EXIT_OK if report["ok"] else EXIT_REGRESSION
    report["exit_code"] = exit_code
    report["warn_only"] = bool(args.warn_only)
    if args.json:
        rendered_json = json.dumps(report, indent=2, sort_keys=True) + "\n"
        if args.json == "-":
            print(rendered_json, end="")
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(rendered_json)
    rendered = render_check(report)
    if not args.quiet and args.json != "-":
        print(rendered)
    if not report["ok"]:
        if args.quiet:
            print(rendered, file=sys.stderr)
        if args.warn_only:
            print("bench-check: regressions found (warn-only)", file=sys.stderr)
            return EXIT_OK
        return exit_code
    return EXIT_OK


def _gather_campaign_inputs(paths):
    """Resolve CLI inputs into labelled reports + manifests (unique labels)."""
    from repro.obs.figures import load_campaign_input

    reports = []
    manifests = {}
    seen = {}
    for raw in paths:
        label, report, manifest = load_campaign_input(raw)
        seen[label] = seen.get(label, 0) + 1
        if seen[label] > 1:
            label = f"{label}-{seen[label]}"
        reports.append((label, report))
        manifests[label] = manifest
    return reports, manifests


def _cmd_figures(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs.figures import (
        FIGURES,
        CampaignData,
        build_figures,
        emit_figures,
        figure_names,
    )
    from repro.obs.report import build_report_html

    if args.list:
        for name in figure_names():
            print(f"{name:24s}  {FIGURES[name].title}")
        return 0
    if not args.inputs:
        print(
            "figures: at least one campaign dir or fleet_report.json "
            "is required (or --list)",
            file=sys.stderr,
        )
        return 2
    reports, manifests = _gather_campaign_inputs(args.inputs)
    data = CampaignData.from_reports(reports, baseline=args.baseline)
    if args.out:
        out_dir = Path(args.out)
    else:
        first = Path(args.inputs[0])
        out_dir = (
            first / "report" / "figures" if first.is_dir() else Path("figures")
        )
    names = args.only.split(",") if args.only else None
    manifest = emit_figures(data, out_dir, names=names)
    gate = None
    if not args.no_gate:
        from repro.obs.regress import check_benches

        gate = check_benches(
            baseline_dir=args.baseline_dir, current_dir=args.current_dir
        )
    html_path = None
    if not args.no_html:
        figures, skipped = build_figures(data, names)
        html_path = (
            Path(args.html) if args.html else out_dir / "campaign_report.html"
        )
        html_path.write_text(
            build_report_html(
                reports, figures, skipped, gate=gate, manifests=manifests
            )
        )
    if not args.quiet:
        written = manifest["figures"]
        print(
            f"wrote {len(written)} figure(s) to {out_dir} "
            f"({len(manifest['skipped'])} skipped)"
        )
        for entry in written:
            print(f"  {entry['spec']}  [{entry['rows']} rows]")
        for name, reason in sorted(manifest["skipped"].items()):
            print(f"  skipped {name}: {reason}")
        if html_path is not None:
            print(f"wrote {html_path}")
        if gate is not None and not gate["ok"]:
            print(
                f"bench gate FAILED inside the report "
                f"({gate['regressions']} regression(s))",
                file=sys.stderr,
            )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    if args.serve:
        if len(args.inputs) != 1:
            print(
                "report --serve watches exactly one campaign dir or "
                "fleet log",
                file=sys.stderr,
            )
            return 2
        from repro.obs.live import serve_dashboard

        server = serve_dashboard(
            args.inputs[0], host=args.host, port=args.port
        )
        host, port = server.server_address[:2]
        print(
            f"live dashboard: http://{host}:{port}/ "
            f"(watching {args.inputs[0]}, ctrl-c to stop)"
        )
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
        return 0

    if not args.inputs:
        print(
            "report: at least one campaign dir or fleet_report.json "
            "is required",
            file=sys.stderr,
        )
        return 2
    from repro.obs.report import render_campaign_report

    reports, manifests = _gather_campaign_inputs(args.inputs)
    gate = None
    if not args.no_gate:
        from repro.obs.regress import check_benches

        gate = check_benches(
            baseline_dir=args.baseline_dir, current_dir=args.current_dir
        )
    html = render_campaign_report(
        reports, gate=gate, manifests=manifests, baseline=args.baseline
    )
    out_path = Path(args.out)
    out_path.write_text(html)
    if not args.quiet:
        print(f"wrote {out_path}")
    return 0


def _cmd_service_init(args: argparse.Namespace) -> int:
    from repro.service import init_campaign

    manifest = init_campaign(
        args.campaign_dir,
        workloads=[name.upper() for name in args.workloads.split(",")],
        schedulers=args.schedulers.split(","),
        seeds=args.seeds,
        scale=args.scale,
        num_wavefronts=args.wavefronts,
        metrics=args.metrics,
        baseline=args.baseline,
        config=_load_config(args),
        batch_size=args.batch_size,
    )
    if not args.quiet:
        print(
            f"campaign initialised in {args.campaign_dir}: "
            f"{len(manifest.spec_keys)} spec(s) in "
            f"{len(manifest.batches)} shard task(s)"
        )
    return 0


def _cmd_service_worker(args: argparse.Namespace) -> int:
    from repro.service import run_worker

    summary = run_worker(
        args.campaign_dir,
        worker_id=args.worker_id,
        lease_ttl=args.lease_ttl,
        max_attempts=args.max_attempts,
        max_tasks=args.max_tasks,
        inrun_checkpoint_every=args.checkpoint_every,
        progress=args.progress,
    )
    if not args.quiet:
        print(
            f"worker {summary['worker']} executed "
            f"{len(summary['tasks_executed'])} shard(s); "
            f"queue now {summary['queue']}"
        )
    return 0


def _cmd_service_run(args: argparse.Namespace) -> int:
    from repro.service import run_service

    summary = run_service(
        args.campaign_dir,
        workers=args.workers,
        lease_ttl=args.lease_ttl,
        max_attempts=args.max_attempts,
        worker_options={
            "inrun_checkpoint_every": args.checkpoint_every,
            "progress": args.progress,
        },
        allow_incomplete=args.allow_incomplete,
    )
    report = summary["merge"]["report"]
    if not args.quiet:
        print(
            f"campaign drained with {summary['spawned']} worker "
            f"spawn(s): {report['ok']} ok, {report['failed']} failed, "
            f"{report['timeout']} timed out"
        )
        print(f"report: {summary['merge']['paths']['full']}")
    return 0 if report["failed"] + report["timeout"] == 0 else 1


def _cmd_service_resume(args: argparse.Namespace) -> int:
    from repro.service import resume_campaign

    summary = resume_campaign(
        args.campaign_dir,
        lease_ttl=args.lease_ttl,
        max_attempts=args.max_attempts,
        force=args.force,
    )
    if not args.quiet:
        print(
            f"resume: re-queued {len(summary['requeued'])}, restored "
            f"{len(summary['restored'])}, abandoned "
            f"{len(summary['abandoned'])}; queue now {summary['queue']}"
        )
    if args.workers > 0:
        args.allow_incomplete = False
        return _cmd_service_run(args)
    return 0


def _cmd_service_status(args: argparse.Namespace) -> int:
    import json

    from repro.service import campaign_status

    status = campaign_status(args.campaign_dir)
    print(json.dumps(status, indent=2, sort_keys=True))
    return 0 if status["drained"] and not status["abandoned"] else 1


def _cmd_service_merge(args: argparse.Namespace) -> int:
    from repro.service import merge_campaign

    merged = merge_campaign(
        args.campaign_dir, allow_incomplete=args.allow_incomplete
    )
    report = merged["report"]
    if not args.quiet:
        print(
            f"merged {report['specs']} spec(s): {report['ok']} ok, "
            f"{report['failed']} failed, {report['timeout']} timed out"
        )
        for name, path in sorted(merged["paths"].items()):
            print(f"{name}: {path}")
    return 0 if report["failed"] + report["timeout"] == 0 else 1


def _cmd_service_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.service import ChaosGateError, run_chaos

    try:
        summary = run_chaos(
            args.campaign_dir,
            seed=args.seed,
            workers=args.workers,
            workloads=[name.upper() for name in args.workloads.split(",")],
            schedulers=args.schedulers.split(","),
            seeds=args.seeds,
            scale=args.scale,
            num_wavefronts=args.wavefronts,
            max_kills=args.max_kills,
            restart_drill=not args.no_restart_drill,
            max_seconds=args.max_seconds,
            quiet=args.quiet,
        )
    except ChaosGateError as exc:
        print(f"chaos gate FAILED: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


_FIGURES = {
    "fig2": lambda a: report.render_grouped(
        "Fig 2: speedup over random",
        figures.fig2_scheduler_impact(a.scale, a.wavefronts),
    ),
    "fig3": lambda a: report.render_grouped(
        "Fig 3: walk-work distribution",
        figures.fig3_walk_work_distribution(a.scale, a.wavefronts),
    ),
    "fig5": lambda a: report.render_series(
        "Fig 5: interleaved fraction (FCFS)",
        figures.fig5_interleaving(a.scale, a.wavefronts),
    ),
    "fig6": lambda a: report.render_grouped(
        "Fig 6: first/last walk latency",
        figures.fig6_first_last_latency(a.scale, a.wavefronts),
    ),
    "fig8": lambda a: report.render_series(
        "Fig 8: SIMT-aware speedup over FCFS",
        figures.fig8_speedup(a.scale, a.wavefronts),
    ),
    "fig9": lambda a: report.render_series(
        "Fig 9: normalised CU stall cycles",
        figures.fig9_stall_cycles(a.scale, a.wavefronts),
    ),
    "fig10": lambda a: report.render_series(
        "Fig 10: normalised latency gap",
        figures.fig10_latency_gap(a.scale, a.wavefronts),
    ),
    "fig11": lambda a: report.render_series(
        "Fig 11: normalised page-walk count",
        figures.fig11_walk_count(a.scale, a.wavefronts),
    ),
    "fig12": lambda a: report.render_series(
        "Fig 12: normalised wavefronts per L2-TLB epoch",
        figures.fig12_active_wavefronts(a.scale, a.wavefronts),
    ),
    "fig13a": lambda a: report.render_series(
        "Fig 13a (1024 TLB, 8 walkers)",
        figures.fig13_sensitivity("a_1024tlb_8walkers", a.scale, a.wavefronts),
    ),
    "fig13b": lambda a: report.render_series(
        "Fig 13b (512 TLB, 16 walkers)",
        figures.fig13_sensitivity("b_512tlb_16walkers", a.scale, a.wavefronts),
    ),
    "fig13c": lambda a: report.render_series(
        "Fig 13c (1024 TLB, 16 walkers)",
        figures.fig13_sensitivity("c_1024tlb_16walkers", a.scale, a.wavefronts),
    ),
    "fig14a": lambda a: report.render_series(
        "Fig 14a (128-entry buffer)",
        figures.fig14_buffer_size(128, a.scale, a.wavefronts),
    ),
    "fig14b": lambda a: report.render_series(
        "Fig 14b (512-entry buffer)",
        figures.fig14_buffer_size(512, a.scale, a.wavefronts),
    ),
    "overhead": lambda a: report.render_series(
        "Translation overhead (FCFS vs oracle MMU)",
        figures.translation_overhead(a.scale, a.wavefronts),
    ),
    "table1": lambda a: report.render_table1(figures.table1_configuration()),
    "table2": lambda a: report.render_table2(figures.table2_workloads()),
}


def _cmd_qos(args: argparse.Namespace) -> int:
    from repro.experiments.multitenancy import qos_comparison

    results = qos_comparison(
        (args.workload_a.upper(), args.workload_b.upper()),
        schedulers=tuple(args.schedulers.split(",")),
        wavefronts_per_app=args.wavefronts_per_app,
        scale=args.scale,
        seed=args.seed,
    )
    for result in results.values():
        print(result.summary())
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    try:
        renderer = _FIGURES[args.name]
    except KeyError:
        print(
            f"unknown figure {args.name!r}; one of: {', '.join(sorted(_FIGURES))}",
            file=sys.stderr,
        )
        return 2
    print(renderer(args))
    return 0


def _add_verbosity_args(parser: argparse.ArgumentParser) -> None:
    """The shared ``--progress`` / ``--quiet`` / ``--fleet-log`` trio.

    ``--progress`` streams live per-spec fleet telemetry to stderr;
    ``--quiet`` suppresses informational stdout.  They compose —
    ``--progress --quiet`` is the "just show me the live ticker" mode —
    and either way failures are summarised on stderr and the exit code
    is nonzero.
    """
    parser.add_argument(
        "--progress",
        action="store_true",
        help="stream live per-spec fleet progress to stderr",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress informational stdout (failures still reach stderr "
        "and the exit code)",
    )
    parser.add_argument(
        "--fleet-log",
        default=None,
        help="append one JSON line per fleet event to this file",
    )


class _TelemetryScope:
    """Context manager yielding a FleetTelemetry (or None) per the args."""

    def __init__(self, args: argparse.Namespace) -> None:
        self._progress = getattr(args, "progress", False)
        self._log = getattr(args, "fleet_log", None)
        self._telemetry = None

    def __enter__(self):
        if not (self._progress or self._log):
            return None
        from repro.obs.fleet import FleetTelemetry

        self._telemetry = FleetTelemetry(
            log_path=self._log, progress=self._progress
        )
        return self._telemetry

    def __exit__(self, *_exc) -> None:
        if self._telemetry is not None:
            self._telemetry.close()


def _make_telemetry(args: argparse.Namespace) -> _TelemetryScope:
    return _TelemetryScope(args)


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--wavefronts", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--config",
        default=None,
        help="JSON machine description (possibly partial); see repro.config_io",
    )
    parser.add_argument(
        "--dram-controller",
        default=None,
        choices=("reservation", "fcfs", "frfcfs", "sms"),
        help="DRAM front end (default: the config's, reservation); "
        "'sms' is the staged batch-former/QoS policy",
    )


def _load_config(args: argparse.Namespace):
    config = None
    if getattr(args, "config", None) is not None:
        from repro.config_io import load_config

        config = load_config(args.config)
    controller = getattr(args, "dram_controller", None)
    if controller is not None:
        from repro.config import SystemConfig

        config = (config or SystemConfig()).with_dram_controller(controller)
    return config


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of 'Scheduling Page Table Walks for "
        "Irregular GPU Applications' (ISCA 2018)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and schedulers").set_defaults(
        func=_cmd_list
    )

    run = sub.add_parser("run", help="simulate one workload")
    run.add_argument("workload")
    run.add_argument(
        "--scheduler",
        default=None,
        choices=available_schedulers(),
        help="walk scheduler (default: the config's policy, fcfs)",
    )
    run.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        help="write an in-run checkpoint every N simulator events "
        "(requires --checkpoint-path)",
    )
    run.add_argument(
        "--checkpoint-path",
        default=None,
        help="where the in-run checkpoint file is (over)written",
    )
    _add_run_args(run)
    run.set_defaults(func=_cmd_run)

    resume = sub.add_parser(
        "resume",
        help="resume an interrupted simulation from an in-run checkpoint",
    )
    resume.add_argument("checkpoint", help="checkpoint file written by run")
    resume.add_argument(
        "--max-cycles",
        type=int,
        default=None,
        help="override the original run's cycle budget",
    )
    resume.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        help="keep checkpointing every N events (rewrites the same file)",
    )
    resume.set_defaults(func=_cmd_resume)

    compare = sub.add_parser("compare", help="compare schedulers on a workload")
    compare.add_argument("workload")
    compare.add_argument(
        "--schedulers", default="fcfs,simt", help="comma-separated policy names"
    )
    compare.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the scheduler sweep (1 = serial; "
        "results are identical either way)",
    )
    compare.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="wall-clock seconds allowed per job (runs in an isolated "
        "worker process; overdue workers are terminated)",
    )
    compare.add_argument(
        "--retries",
        type=int,
        default=0,
        help="extra attempts for a crashed/failed/timed-out job",
    )
    _add_run_args(compare)
    _add_verbosity_args(compare)
    compare.set_defaults(func=_cmd_compare)

    faults = sub.add_parser(
        "faults", help="run a seeded, deterministic fault-injection campaign"
    )
    faults.add_argument("--seed", type=int, default=0)
    faults.add_argument("--runs", type=int, default=6)
    faults.add_argument("--jobs", type=int, default=1)
    faults.add_argument("--timeout", type=float, default=None)
    faults.add_argument("--retries", type=int, default=0)
    faults.add_argument(
        "--output", default=None, help="write the JSON report here instead of stdout"
    )
    faults.add_argument(
        "--trace-dir",
        default=None,
        help="also write one Perfetto trace per case into this directory",
    )
    _add_verbosity_args(faults)
    faults.set_defaults(func=_cmd_faults)

    fleet = sub.add_parser(
        "fleet-report",
        help="run a workload×scheduler×seed sweep and aggregate a fleet report",
    )
    fleet.add_argument(
        "--workloads", default="MVT,XSB",
        help="comma-separated Table II abbreviations",
    )
    fleet.add_argument(
        "--schedulers", default="fcfs,simt",
        help="comma-separated policy names",
    )
    fleet.add_argument(
        "--seeds", type=int, default=2,
        help="seeds per (workload, scheduler) cell: 0..N-1",
    )
    fleet.add_argument(
        "--baseline", default="fcfs",
        help="scheduler every speedup is measured against",
    )
    fleet.add_argument("--scale", type=float, default=0.1)
    fleet.add_argument("--wavefronts", type=int, default=8)
    fleet.add_argument("--jobs", type=int, default=1)
    fleet.add_argument("--timeout", type=float, default=None)
    fleet.add_argument("--retries", type=int, default=0)
    fleet.add_argument(
        "--metrics", action="store_true",
        help="sample per-run MetricsRegistry dumps and merge them per scheduler",
    )
    fleet.add_argument(
        "--config",
        default=None,
        help="JSON machine description (possibly partial); see repro.config_io",
    )
    fleet.add_argument(
        "--out", default="fleet_report.json",
        help="where to write the aggregated JSON report",
    )
    fleet.add_argument(
        "--markdown", default=None,
        help="also write the markdown rendering here",
    )
    _add_verbosity_args(fleet)
    fleet.set_defaults(func=_cmd_fleet_report)

    bench_check = sub.add_parser(
        "bench-check",
        help="gate current BENCH_*.json numbers against committed baselines",
    )
    bench_check.add_argument(
        "--baseline-dir", default="benchmarks/baselines",
        help="directory holding the committed baseline BENCH_*.json files",
    )
    bench_check.add_argument(
        "--current-dir", default=".",
        help="directory holding the current BENCH_*.json files",
    )
    bench_check.add_argument(
        "--json", default=None,
        help="also write the gate report as JSON here ('-' for stdout); "
        "the report carries the exit_code the process returns",
    )
    bench_check.add_argument(
        "--warn-only", action="store_true",
        help="report regressions but exit 0 (for gate tuning)",
    )
    bench_check.add_argument(
        "--quiet", action="store_true",
        help="print nothing unless the gate fails",
    )
    bench_check.set_defaults(func=_cmd_bench_check)

    trace = sub.add_parser(
        "trace", help="simulate with lifecycle tracing; write a Perfetto trace"
    )
    trace.add_argument("workload")
    trace.add_argument(
        "--scheduler",
        default=None,
        choices=available_schedulers(),
        help="walk scheduler (default: the config's policy, fcfs)",
    )
    trace.add_argument(
        "--out", default="trace.json",
        help="Chrome/Perfetto trace_event JSON output path",
    )
    trace.add_argument(
        "--jsonl", default=None, help="also write raw events as JSON lines"
    )
    trace.add_argument(
        "--categories",
        default=None,
        help="comma-separated event categories to record "
        "(default: all; see repro.obs.trace.TRACE_CATEGORIES)",
    )
    trace.add_argument(
        "--ring-size", type=int, default=None,
        help="trace ring-buffer capacity in events",
    )
    _add_run_args(trace)
    trace.set_defaults(func=_cmd_trace)

    metrics = sub.add_parser(
        "metrics", help="simulate with the live metrics registry sampling"
    )
    metrics.add_argument("workload")
    metrics.add_argument(
        "--scheduler",
        default=None,
        choices=available_schedulers(),
        help="walk scheduler (default: the config's policy, fcfs)",
    )
    metrics.add_argument(
        "--interval", type=int, default=10_000,
        help="sample the registry every this many fired events",
    )
    metrics.add_argument(
        "--out", default=None, help="write the metrics JSON here instead of stdout"
    )
    _add_run_args(metrics)
    metrics.set_defaults(func=_cmd_metrics)

    blame = sub.add_parser(
        "blame",
        help="walk-latency attribution: stage breakdowns, critical "
        "paths, per-scheduler blame shares",
    )
    blame.add_argument(
        "--trace",
        default=None,
        help="analyze an existing Chrome-trace JSON or JSONL event "
        "stream instead of running a sweep",
    )
    blame.add_argument(
        "--workloads", default="MVT", help="comma-separated workload names"
    )
    blame.add_argument(
        "--schedulers",
        default="fcfs,simt",
        help="comma-separated policy names",
    )
    blame.add_argument(
        "--seeds", type=int, default=1, help="seeds 0..N-1 per case"
    )
    blame.add_argument("--scale", type=float, default=0.1)
    blame.add_argument("--wavefronts", type=int, default=8)
    blame.add_argument("--jobs", type=int, default=1)
    blame.add_argument(
        "--ring-size",
        type=int,
        default=None,
        help="tracer ring size for sweep runs (default: the blame "
        "default, large enough for complete lifecycles)",
    )
    blame.add_argument(
        "--top", type=int, default=5, help="outlier walk digests to keep"
    )
    blame.add_argument(
        "--config",
        default=None,
        help="JSON machine description (possibly partial)",
    )
    blame.add_argument(
        "--out",
        default=None,
        help="write the blame report JSON here instead of stdout",
    )
    blame.add_argument("--quiet", action="store_true")
    blame.set_defaults(func=_cmd_blame)

    figure = sub.add_parser("figure", help="regenerate a paper figure/table")
    figure.add_argument("name", help="e.g. fig8, fig13a, table2")
    _add_run_args(figure)
    figure.set_defaults(func=_cmd_figure)

    figures = sub.add_parser(
        "figures",
        help="render the figure registry (Vega-Lite + CSV) from fleet reports",
    )
    figures.add_argument(
        "inputs", nargs="*",
        help="campaign dir(s) (merged with `service merge`) and/or "
        "fleet_report.json file(s); several inputs plot side by side",
    )
    figures.add_argument(
        "--out", default=None,
        help="output directory (default: <campaign>/report/figures)",
    )
    figures.add_argument(
        "--only", default=None,
        help="comma-separated figure names (default: every registered figure)",
    )
    figures.add_argument(
        "--list", action="store_true", help="list registered figures and exit"
    )
    figures.add_argument(
        "--html", default=None,
        help="HTML campaign report path (default: <out>/campaign_report.html)",
    )
    figures.add_argument(
        "--no-html", action="store_true",
        help="emit only the specs/CSVs, skip the HTML report",
    )
    figures.add_argument(
        "--no-gate", action="store_true",
        help="skip the bench-check verdict section in the HTML report",
    )
    figures.add_argument(
        "--baseline", default=None,
        help="override the baseline scheduler (default: the report's)",
    )
    figures.add_argument("--baseline-dir", default="benchmarks/baselines")
    figures.add_argument("--current-dir", default=".")
    figures.add_argument("--quiet", action="store_true")
    figures.set_defaults(func=_cmd_figures)

    report = sub.add_parser(
        "report",
        help="HTML campaign report, or --serve for the live sweep dashboard",
    )
    report.add_argument(
        "inputs", nargs="*",
        help="campaign dir(s) / fleet_report.json file(s); with --serve, "
        "one campaign dir or fleet telemetry JSONL to watch",
    )
    report.add_argument(
        "--out", default="campaign_report.html",
        help="HTML output path (static mode)",
    )
    report.add_argument(
        "--serve", action="store_true",
        help="serve a live dashboard tailing the campaign's telemetry logs",
    )
    report.add_argument("--host", default="127.0.0.1")
    report.add_argument(
        "--port", type=int, default=8377, help="dashboard port (0 = ephemeral)"
    )
    report.add_argument("--no-gate", action="store_true")
    report.add_argument(
        "--baseline", default=None,
        help="override the baseline scheduler (default: the report's)",
    )
    report.add_argument("--baseline-dir", default="benchmarks/baselines")
    report.add_argument("--current-dir", default=".")
    report.add_argument("--quiet", action="store_true")
    report.set_defaults(func=_cmd_report)

    qos = sub.add_parser(
        "qos", help="co-run two workloads and compare QoS across schedulers"
    )
    qos.add_argument("workload_a")
    qos.add_argument("workload_b")
    qos.add_argument(
        "--schedulers", default="fcfs,simt,fairshare",
        help="comma-separated policy names",
    )
    qos.add_argument("--wavefronts-per-app", type=int, default=24)
    qos.add_argument("--scale", type=float, default=0.3)
    qos.add_argument("--seed", type=int, default=0)
    qos.set_defaults(func=_cmd_qos)

    service = sub.add_parser(
        "service",
        help="durable work-queue sweep service (broker/worker campaigns)",
    )
    service_sub = service.add_subparsers(dest="service_command", required=True)

    def _campaign_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("campaign_dir", help="campaign directory (the durable state)")
        p.add_argument("--quiet", action="store_true")

    def _lease_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--lease-ttl", type=float, default=30.0,
            help="seconds of missed heartbeats before a lease is reaped",
        )
        p.add_argument(
            "--max-attempts", type=int, default=5,
            help="claims per shard before it is abandoned as a poison task",
        )

    def _sweep_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workloads", default="MVT,XSB")
        p.add_argument("--schedulers", default="fcfs,simt")
        p.add_argument("--seeds", type=int, default=2)
        p.add_argument("--scale", type=float, default=0.1)
        p.add_argument("--wavefronts", type=int, default=8)

    svc_init = service_sub.add_parser(
        "init", help="shard a sweep into a campaign manifest + queue"
    )
    _campaign_arg(svc_init)
    _sweep_args(svc_init)
    svc_init.add_argument("--baseline", default="fcfs")
    svc_init.add_argument(
        "--batch-size", type=int, default=2, help="specs per shard task"
    )
    svc_init.add_argument("--metrics", action="store_true")
    svc_init.add_argument(
        "--config", default=None,
        help="JSON machine description (possibly partial); see repro.config_io",
    )
    svc_init.set_defaults(func=_cmd_service_init)

    svc_worker = service_sub.add_parser(
        "worker", help="drain the campaign queue from this process"
    )
    _campaign_arg(svc_worker)
    _lease_args(svc_worker)
    svc_worker.add_argument(
        "--worker-id", default=None, help="default: hostname-pid"
    )
    svc_worker.add_argument(
        "--max-tasks", type=int, default=None,
        help="exit after claiming this many shards (default: until drained)",
    )
    svc_worker.add_argument(
        "--checkpoint-every", type=int, default=2000,
        help="in-run checkpoint cadence in simulator events",
    )
    svc_worker.add_argument("--progress", action="store_true")
    svc_worker.set_defaults(func=_cmd_service_worker)

    def _run_pool_args(p: argparse.ArgumentParser) -> None:
        _lease_args(p)
        p.add_argument(
            "--workers", type=int, default=2,
            help="local worker processes to supervise",
        )
        p.add_argument(
            "--checkpoint-every", type=int, default=2000,
            help="in-run checkpoint cadence in simulator events",
        )
        p.add_argument("--progress", action="store_true")
        p.add_argument(
            "--allow-incomplete", action="store_true",
            help="merge reports un-run specs as failures instead of erroring",
        )

    svc_run = service_sub.add_parser(
        "run", help="supervise local workers until the queue drains, then merge"
    )
    _campaign_arg(svc_run)
    _run_pool_args(svc_run)
    svc_run.set_defaults(func=_cmd_service_run)

    svc_resume = service_sub.add_parser(
        "resume", help="repair a campaign after crashes or a full restart"
    )
    _campaign_arg(svc_resume)
    _run_pool_args(svc_resume)
    svc_resume.add_argument(
        "--force", action="store_true",
        help="treat every lease as stale (use after a full cluster restart)",
    )
    svc_resume.set_defaults(func=_cmd_service_resume)

    svc_status = service_sub.add_parser(
        "status", help="print campaign progress (exit 1 until drained clean)"
    )
    _campaign_arg(svc_status)
    svc_status.set_defaults(func=_cmd_service_status)

    svc_merge = service_sub.add_parser(
        "merge", help="fold shard results into the deterministic fleet report"
    )
    _campaign_arg(svc_merge)
    svc_merge.add_argument(
        "--allow-incomplete", action="store_true",
        help="report un-run specs as failures instead of erroring",
    )
    svc_merge.set_defaults(func=_cmd_service_merge)

    svc_chaos = service_sub.add_parser(
        "chaos",
        help="SIGKILL workers mid-spec; gate on a byte-identical merged report",
    )
    _campaign_arg(svc_chaos)
    svc_chaos.add_argument("--seed", type=int, default=0)
    svc_chaos.add_argument("--workers", type=int, default=2)
    svc_chaos.add_argument("--workloads", default="MVT")
    svc_chaos.add_argument("--schedulers", default="fcfs,simt")
    svc_chaos.add_argument("--seeds", type=int, default=3)
    svc_chaos.add_argument("--scale", type=float, default=0.3)
    svc_chaos.add_argument("--wavefronts", type=int, default=24)
    svc_chaos.add_argument(
        "--max-kills", type=int, default=None,
        help="individual worker kills before the restart drill (default: workers+2)",
    )
    svc_chaos.add_argument(
        "--no-restart-drill", action="store_true",
        help="skip the kill-everything-and-resume drill",
    )
    svc_chaos.add_argument("--max-seconds", type=float, default=240.0)
    svc_chaos.set_defaults(func=_cmd_service_chaos)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
