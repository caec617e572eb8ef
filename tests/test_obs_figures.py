"""Figure registry, HTML campaign report, and live dashboard tests.

The determinism tests are the load-bearing ones: the figure pipeline's
contract is that ``jobs=1`` and ``jobs=2`` sweeps of the same specs
produce byte-identical Vega-Lite specs, CSVs and HTML.  The golden
tests pin the emitted bytes of one representative figure so accidental
format drift (key order, float rendering, palette edits) fails loudly
instead of silently rewriting every downstream artifact.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tests.conftest import tiny_config
from repro.experiments.runner import run_many_resilient
from repro.obs.aggregate import fleet_report, sweep_specs
from repro.obs.figures import (
    CATEGORICAL_PALETTE,
    FIGURES,
    CampaignData,
    FigureSkipped,
    build_figures,
    emit_figures,
    figure_names,
    load_campaign_input,
    scheduler_color,
    validate_figure,
)
from repro.obs.live import (
    discover_logs,
    progress_snapshot,
    read_fleet_events,
    serve_dashboard,
)
from repro.obs.report import audit_from_manifest, build_report_html, render_campaign_report

GOLDEN_DIR = Path(__file__).parent / "golden_figures"


def _sweep_report(jobs=1, metrics=True):
    specs = sweep_specs(
        ["MVT"], ["fcfs", "simt"], range(2),
        config=tiny_config(), num_wavefronts=4, scale=0.05, metrics=metrics,
    )
    outcomes = run_many_resilient(specs, jobs=jobs)
    return fleet_report(specs, outcomes)


@pytest.fixture(scope="module")
def report():
    return _sweep_report()


@pytest.fixture(scope="module")
def campaign(report):
    return CampaignData.from_reports([("tiny", report)])


# ----------------------------------------------------------------------
# Registry + builders
# ----------------------------------------------------------------------


def test_registry_covers_the_paper_charts():
    # The acceptance floor: at least 8 registered figures, including
    # every headline chart the ISSUE names.
    names = figure_names()
    assert len(names) >= 8
    for required in (
        "fig2_scheduler_impact", "fig6_first_last_latency", "fig8_speedup",
        "fig9_stalls", "fig10_latency_gap", "fig11_walk_count",
        "wavefront_sensitivity", "scale_sensitivity",
        "scheduler_comparison", "latency_cdf",
    ):
        assert required in names


def test_every_figure_builds_and_validates(campaign):
    figures, skipped = build_figures(campaign)
    assert not skipped
    assert len(figures) == len(FIGURES)
    for figure in figures:
        assert validate_figure(figure) == []
        assert figure.rows, figure.name


def test_fig8_has_geomean_row(campaign):
    figures, _ = build_figures(campaign, ["fig8_speedup"])
    rows = figures[0].rows
    assert any(row["workload"] == "GEOMEAN" for row in rows)
    # The baseline never gets a speedup bar of its own.
    assert all(row["scheduler"] != "fcfs" for row in rows)


def test_latency_cdf_requires_metrics():
    report = _sweep_report(metrics=False)
    data = CampaignData.from_reports([("plain", report)])
    figures, skipped = build_figures(data)
    assert "latency_cdf" in skipped
    assert "metrics" in skipped["latency_cdf"]
    # Even without metrics the acceptance floor of 8 figures holds.
    assert len(figures) >= 8


def test_latency_cdf_is_monotone(campaign):
    figures, _ = build_figures(campaign, ["latency_cdf"])
    by_scheduler = {}
    for row in figures[0].rows:
        by_scheduler.setdefault(row["scheduler"], []).append(row["cdf"])
    assert set(by_scheduler) == {"fcfs", "simt"}
    for fractions in by_scheduler.values():
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)


def test_scheduler_color_is_fixed_assignment():
    encoding = scheduler_color(["simt", "fcfs"])
    assert encoding["scale"]["domain"] == ["fcfs", "simt"]
    assert encoding["scale"]["range"] == list(CATEGORICAL_PALETTE[:2])
    # Same schedulers, different arrival order: identical assignment.
    assert scheduler_color(["fcfs", "simt"]) == encoding


def test_scheduler_color_never_cycles_the_palette():
    too_many = [f"sched{i}" for i in range(len(CATEGORICAL_PALETTE) + 1)]
    with pytest.raises(FigureSkipped):
        scheduler_color(too_many)


def test_build_figures_rejects_unknown_names(campaign):
    with pytest.raises(ValueError, match="unknown figure"):
        build_figures(campaign, ["no_such_figure"])


def test_campaign_data_rejects_non_reports():
    with pytest.raises(ValueError, match="not a fleet report"):
        CampaignData.from_reports([("bad", {"format": "something-else"})])


def test_normalised_figures_null_out_zero_baselines(report):
    doctored = json.loads(json.dumps(report))
    for run in doctored["runs"]:
        if run["scheduler"] == "fcfs":
            run["stall_cycles"] = 0
    data = CampaignData.from_reports([("tiny", doctored)])
    with pytest.raises(FigureSkipped, match="zero"):
        FIGURES["fig9_stalls"].build(data)


# ----------------------------------------------------------------------
# Blame (walk-stage attribution) figures
# ----------------------------------------------------------------------


def test_blame_stage_share_rows_sum_to_one(campaign):
    from repro.obs.attrib import STAGES

    figures, _ = build_figures(campaign, ["blame_stage_share"])
    rows = figures[0].rows
    by_scheduler = {}
    for row in rows:
        by_scheduler.setdefault(row["scheduler"], []).append(row)
    assert set(by_scheduler) == {"fcfs", "simt"}
    for scheduler_rows in by_scheduler.values():
        assert sum(row["share"] for row in scheduler_rows) == pytest.approx(
            1.0, abs=1e-4
        )
        # Stacked in pipeline order, one row per counter-backed stage
        # (service_gap is a trace-only residue slot — no counter).
        expected = [stage for stage in STAGES if stage != "service_gap"]
        assert [row["stage"] for row in scheduler_rows] == expected
        orders = [row["order"] for row in scheduler_rows]
        assert orders == sorted(orders)


def test_blame_waterfall_segments_tile_without_gaps(campaign):
    figures, _ = build_figures(campaign, ["blame_waterfall"])
    by_scheduler = {}
    for row in figures[0].rows:
        by_scheduler.setdefault(row["scheduler"], []).append(row)
    for scheduler_rows in by_scheduler.values():
        cursor = 0.0
        for row in scheduler_rows:
            assert row["start"] == pytest.approx(cursor)
            assert row["end"] >= row["start"]
            cursor = row["end"]
        assert cursor > 0


def test_blame_figures_skip_without_metrics():
    report = _sweep_report(metrics=False)
    data = CampaignData.from_reports([("plain", report)])
    _, skipped = build_figures(data)
    assert "blame_stage_share" in skipped
    assert "blame_waterfall" in skipped
    assert "metrics" in skipped["blame_stage_share"]


def test_blame_stage_colors_are_stable(campaign):
    figures, _ = build_figures(campaign, ["blame_stage_share"])
    color = figures[0].spec["encoding"]["color"]
    # The color scale is keyed by stage in pipeline order with a fixed
    # slot per stage, so adding a scheduler (or a report without some
    # stage) never reshuffles stage colors between reports.
    from repro.obs.attrib import STAGES

    present = [stage for stage in STAGES if stage != "service_gap"]
    assert color["scale"]["domain"] == present
    assert color["scale"]["range"] == [
        CATEGORICAL_PALETTE[STAGES.index(stage) % len(CATEGORICAL_PALETTE)]
        for stage in present
    ]


# ----------------------------------------------------------------------
# Emission + golden pins
# ----------------------------------------------------------------------


def test_emit_figures_writes_specs_csvs_and_manifest(campaign, tmp_path):
    manifest = emit_figures(campaign, tmp_path)
    assert manifest["format"] == "repro-figures"
    assert len(manifest["figures"]) == len(FIGURES)
    for entry in manifest["figures"]:
        spec_path = tmp_path / entry["spec"]
        csv_path = tmp_path / entry["csv"]
        spec = json.loads(spec_path.read_text())
        assert spec["$schema"].endswith("vega-lite/v5.json")
        assert spec["data"]["url"] == csv_path.name
        header = csv_path.read_text().splitlines()[0]
        for field in {
            channel.get("field")
            for unit in spec.get("layer", [spec])
            for channel in unit.get("encoding", {}).values()
            if isinstance(channel, dict) and channel.get("field")
        }:
            assert field in header.split(",")
    listed = json.loads((tmp_path / "figures.json").read_text())
    assert listed == manifest


def test_fig8_matches_golden(campaign):
    figures, _ = build_figures(campaign, ["fig8_speedup"])
    figure = figures[0]
    golden_spec = (GOLDEN_DIR / "fig8_speedup.vl.json").read_text()
    golden_csv = (GOLDEN_DIR / "fig8_speedup.csv").read_text()
    assert figure.spec_json() == golden_spec
    assert figure.csv() == golden_csv


def test_latency_cdf_spec_matches_golden(campaign):
    figures, _ = build_figures(campaign, ["latency_cdf"])
    golden_spec = (GOLDEN_DIR / "latency_cdf.vl.json").read_text()
    assert figures[0].spec_json() == golden_spec


def test_blame_stage_share_spec_matches_golden(campaign):
    figures, _ = build_figures(campaign, ["blame_stage_share"])
    golden_spec = (GOLDEN_DIR / "blame_stage_share.vl.json").read_text()
    assert figures[0].spec_json() == golden_spec


# ----------------------------------------------------------------------
# Determinism across worker counts
# ----------------------------------------------------------------------


def test_pipeline_byte_identical_across_jobs(tmp_path):
    outputs = {}
    for jobs in (1, 2):
        report = _sweep_report(jobs=jobs)
        data = CampaignData.from_reports([("tiny", report)])
        out_dir = tmp_path / f"jobs{jobs}"
        emit_figures(data, out_dir)
        figures, skipped = build_figures(data)
        html = build_report_html([("tiny", report)], figures, skipped)
        outputs[jobs] = (
            {
                path.name: path.read_bytes()
                for path in sorted(out_dir.iterdir())
            },
            html,
        )
    assert outputs[1][0] == outputs[2][0]
    assert outputs[1][1] == outputs[2][1]


# ----------------------------------------------------------------------
# HTML campaign report
# ----------------------------------------------------------------------


def test_report_html_is_self_contained(report, campaign):
    figures, skipped = build_figures(campaign)
    html = build_report_html([("tiny", report)], figures, skipped)
    assert html.startswith("<!DOCTYPE html>")
    for figure in figures:
        assert figure.title in html
        # Data values ride inline: the page never needs the CSV files.
        assert f'id="vis-{figure.name}"' in html
    assert '"values"' in html and '"url"' not in html.split("</head>")[1]
    assert "Bench gate" in html
    assert "Failures" in html


def test_report_html_gate_verdicts(report, campaign):
    figures, skipped = build_figures(campaign)
    gate = {
        "ok": False,
        "regressions": 1,
        "missing": 2,
        "rows": [
            {
                "metric": "fleet:overhead.slowdown_with_telemetry",
                "baseline": 1.01,
                "current": 1.5,
                "relative_change": 0.485,
                "status": "regression",
            }
        ],
    }
    html = build_report_html(
        [("tiny", report)], figures, skipped, gate=gate
    )
    assert "FAIL" in html
    assert "fleet:overhead.slowdown_with_telemetry" in html
    assert "status-bad" in html


def test_report_audit_section_flags_reclaimed_shards(report, campaign):
    manifest = {
        "attempts": {
            "batch-00000": {"claims": 1, "abandoned": False},
            "batch-00001": {"claims": 3, "abandoned": False},
            "batch-00002": {"claims": 2, "abandoned": True},
        }
    }
    audit = audit_from_manifest(manifest)
    assert audit["tasks_total"] == 3
    flagged = {row["task"]: row["status"] for row in audit["tasks_flagged"]}
    assert flagged == {
        "batch-00001": "reclaimed", "batch-00002": "abandoned",
    }
    figures, skipped = build_figures(campaign)
    html = build_report_html(
        [("tiny", report)], figures, skipped,
        manifests={"tiny": manifest},
    )
    assert "batch-00001" in html and "abandoned" in html


def test_render_campaign_report_one_call(report):
    html = render_campaign_report([("tiny", report)])
    assert "<h1>" in html and "fig8_speedup" in html


def test_load_campaign_input_file_and_dir(report, tmp_path):
    report_path = tmp_path / "fleet_report.json"
    report_path.write_text(json.dumps(report))
    label, loaded, manifest = load_campaign_input(report_path)
    assert label == "fleet_report"
    assert loaded["specs"] == report["specs"]
    assert manifest is None

    campaign_dir = tmp_path / "camp"
    (campaign_dir / "report").mkdir(parents=True)
    (campaign_dir / "report" / "fleet_report.json").write_text(
        json.dumps(report)
    )
    (campaign_dir / "manifest.json").write_text(json.dumps({"attempts": {}}))
    label, loaded, manifest = load_campaign_input(campaign_dir)
    assert label == "camp"
    assert manifest == {"attempts": {}}

    unmerged = tmp_path / "empty"
    unmerged.mkdir()
    with pytest.raises(FileNotFoundError, match="service merge"):
        load_campaign_input(unmerged)


# ----------------------------------------------------------------------
# Live dashboard
# ----------------------------------------------------------------------


def _event(kind, t, source="shard-a", **fields):
    return {"event": kind, "t": t, "source": source, **fields}


def test_progress_snapshot_counts_and_eta():
    events = [
        _event("sweep_started", 0.0, total=4, jobs=2),
        _event("spec_started", 1.0, index=0, spec="a", attempt=1),
        _event("spec_started", 1.0, index=1, spec="b", attempt=1),
        _event("spec_finished", 11.0, index=0, spec="a", status="ok",
               attempts=1, elapsed_seconds=10.0),
        _event("spec_started", 11.0, index=2, spec="c", attempt=1),
        _event("heartbeat", 12.0, index=1, attempt=1, pid=42,
               elapsed_seconds=11.0),
    ]
    snap = progress_snapshot(events, now=15.0)
    assert snap["total_specs"] == 4
    assert snap["done"] == 1
    assert snap["status_counts"] == {"ok": 1}
    assert {row["index"] for row in snap["running"]} == {1, 2}
    beat = {row["index"]: row for row in snap["running"]}
    assert beat[1]["pid"] == 42
    assert beat[1]["heartbeat_age_seconds"] == 3.0
    assert beat[1]["stale"] is False
    assert snap["eta_seconds"] is not None and snap["eta_seconds"] > 0
    assert snap["complete"] is False


def test_progress_snapshot_flags_stale_heartbeats():
    events = [
        _event("spec_started", 0.0, index=0, spec="a", attempt=1),
        _event("heartbeat", 5.0, index=0, attempt=1, pid=7,
               elapsed_seconds=5.0),
    ]
    snap = progress_snapshot(events, now=500.0)
    assert snap["running"][0]["stale"] is True
    assert snap["stale_workers"] == 1


def test_progress_snapshot_counts_retries_and_timeouts():
    events = [
        _event("spec_started", 0.0, index=0, spec="a", attempt=1),
        _event("spec_timeout", 10.0, index=0, spec="a", attempt=1,
               timeout_seconds=10.0),
        _event("spec_retry", 10.5, index=0, spec="a", attempt=1,
               status="timeout", error_type=None, error=None,
               backoff_seconds=0.1),
        _event("spec_finished", 20.0, index=0, spec="a", status="ok",
               attempts=2, elapsed_seconds=9.0),
        _event("sweep_finished", 21.0),
    ]
    snap = progress_snapshot(events, total_specs=1)
    assert snap["retries"] == 1
    assert snap["timeouts"] == 1
    assert snap["complete"] is True
    assert snap["running"] == []


def test_progress_snapshot_keeps_shard_indices_separate():
    events = [
        _event("spec_finished", 1.0, source="shard-a", index=0, spec="a",
               status="ok", attempts=1, elapsed_seconds=1.0),
        _event("spec_finished", 2.0, source="shard-b", index=0, spec="b",
               status="ok", attempts=1, elapsed_seconds=1.0),
    ]
    snap = progress_snapshot(events, total_specs=2)
    assert snap["done"] == 2  # same index, different shards: both count


def test_progress_snapshot_empty_fleet_is_calm():
    snap = progress_snapshot([])
    assert snap["total_specs"] is None
    assert snap["done"] == 0
    assert snap["running"] == []
    assert snap["eta_seconds"] is None
    assert snap["complete"] is False
    assert snap["stale_workers"] == 0


def test_progress_snapshot_zero_completed_has_no_eta():
    # Specs running but none finished: ETA must stay None, not divide
    # by a zero completion rate.
    events = [
        _event("sweep_started", 0.0, total=8, jobs=2),
        _event("spec_started", 1.0, index=0, spec="a", attempt=1),
        _event("spec_started", 1.0, index=1, spec="b", attempt=1),
    ]
    snap = progress_snapshot(events, now=100.0)
    assert snap["done"] == 0
    assert snap["eta_seconds"] is None
    assert snap["total_specs"] == 8


def test_progress_snapshot_tolerates_garbage_fields():
    # A shard log that died mid-write can leave null/string fields in
    # otherwise-parseable records; the snapshot must coerce, not crash.
    events = [
        _event("sweep_started", "0.5", total="4", jobs=None),
        _event("spec_started", "12.5", index="0", spec="a", attempt=1),
        _event("spec_finished", None, index=0, spec="a", status="ok",
               attempts=1, elapsed_seconds="bogus"),
        {"event": "heartbeat", "t": float("nan"), "index": 1},
    ]
    snap = progress_snapshot(events, now=20.0)
    assert snap["total_specs"] == 4
    assert snap["done"] == 1


def test_progress_snapshot_stale_falls_back_to_start_time():
    # The shard log ended mid-line, so the worker's last heartbeat was
    # torn away: staleness must fall back to the spec_started time
    # instead of treating the worker as forever fresh.
    events = [
        _event("spec_started", 12.5, index=0, spec="a", attempt=1),
    ]
    snap = progress_snapshot(events, now=500.0)
    (row,) = snap["running"]
    assert row["heartbeat_age_seconds"] is None
    assert row["stale"] is True
    assert snap["stale_workers"] == 1
    # A torn heartbeat with an unusable timestamp behaves the same way.
    events.append({"event": "heartbeat", "t": None, "index": 0,
                   "source": "shard-a"})
    snap = progress_snapshot(events, now=500.0)
    assert snap["running"][0]["stale"] is True


def test_read_fleet_events_tolerates_partial_lines(tmp_path):
    log = tmp_path / "fleet.jsonl"
    log.write_text(
        json.dumps({"event": "sweep_started", "total": 2, "t": 1.0}) + "\n"
        + '{"event": "spec_started", "ind'  # torn mid-write
    )
    events = read_fleet_events([log])
    assert len(events) == 1
    assert events[0]["source"] == "fleet"


def test_discover_logs_prefers_shards_dir(tmp_path):
    (tmp_path / "shards").mkdir()
    (tmp_path / "shards" / "b.jsonl").write_text("")
    (tmp_path / "shards" / "a.jsonl").write_text("")
    (tmp_path / "stray.jsonl").write_text("")
    logs = discover_logs(tmp_path)
    assert [path.name for path in logs] == ["a.jsonl", "b.jsonl"]


def test_dashboard_server_round_trip(tmp_path):
    import threading
    import urllib.request

    log = tmp_path / "fleet.jsonl"
    log.write_text(
        json.dumps({"event": "sweep_started", "total": 1, "jobs": 1,
                    "t": 1.0}) + "\n"
        + json.dumps({"event": "spec_finished", "index": 0, "spec": "a",
                      "status": "ok", "attempts": 1,
                      "elapsed_seconds": 2.0, "t": 3.0}) + "\n"
    )
    server = serve_dashboard(log, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        page = urllib.request.urlopen(
            f"http://{host}:{port}/"
        ).read().decode()
        assert "Live sweep progress" in page
        data = json.loads(
            urllib.request.urlopen(f"http://{host}:{port}/data.json").read()
        )
        assert data["done"] == 1
        assert data["total_specs"] == 1
        assert data["complete"] is True
    finally:
        server.shutdown()
        server.server_close()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_cli_figures_list(capsys):
    from repro.__main__ import main

    assert main(["figures", "--list"]) == 0
    out = capsys.readouterr().out
    for name in figure_names():
        assert name in out


def test_cli_figures_emits_specs_csvs_and_html(report, tmp_path, capsys):
    from repro.__main__ import main

    report_path = tmp_path / "fleet_report.json"
    report_path.write_text(json.dumps(report))
    out_dir = tmp_path / "figs"
    code = main([
        "figures", str(report_path), "--out", str(out_dir), "--no-gate",
    ])
    assert code == 0
    out = capsys.readouterr().out
    manifest = json.loads((out_dir / "figures.json").read_text())
    assert len(manifest["figures"]) >= 8
    html = (out_dir / "campaign_report.html").read_text()
    assert html.startswith("<!DOCTYPE html>")
    assert "wrote" in out


def test_cli_figures_requires_input(capsys):
    from repro.__main__ import main

    assert main(["figures"]) == 2
    assert "required" in capsys.readouterr().err


def test_cli_figures_only_subset(report, tmp_path, capsys):
    from repro.__main__ import main

    report_path = tmp_path / "fleet_report.json"
    report_path.write_text(json.dumps(report))
    out_dir = tmp_path / "figs"
    code = main([
        "figures", str(report_path), "--out", str(out_dir),
        "--only", "fig8_speedup,latency_cdf", "--no-gate", "--no-html",
        "--quiet",
    ])
    assert code == 0
    capsys.readouterr()
    names = sorted(
        path.name for path in out_dir.iterdir() if path.suffix == ".json"
    )
    assert names == [
        "fig8_speedup.vl.json", "figures.json", "latency_cdf.vl.json",
    ]


def test_cli_report_static(report, tmp_path, capsys):
    from repro.__main__ import main

    report_path = tmp_path / "fleet_report.json"
    report_path.write_text(json.dumps(report))
    out_path = tmp_path / "page.html"
    code = main([
        "report", str(report_path), "--out", str(out_path), "--no-gate",
        "--quiet",
    ])
    assert code == 0
    capsys.readouterr()
    assert "fig8_speedup" in out_path.read_text()
