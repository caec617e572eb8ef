"""The figure registry: fleet reports in, Vega-Lite specs + CSVs out.

A merged sweep report (:func:`repro.obs.aggregate.fleet_report`) holds
everything the paper's evaluation charts need — per-run cycles, stalls,
walk counts, latency shape, geomean speedups, merged metric histograms
— but as JSON nobody can *see*.  This module is the registry pattern
from ProjectScylla's ``generate_figures.py``: figure names map to
generator functions over tidy rows, and each figure is emitted as

* ``<name>.vl.json`` — a Vega-Lite v5 spec (open it in any Vega
  editor, embed it in the HTML campaign report, or hand it to CI);
* ``<name>.csv`` — the companion tidy data the spec references.

No display stack is imported — matplotlib-free by design, the specs
*are* the figures — and the output is deterministic: rows derive only
from the report's deterministic view, every reduction iterates in
sorted order, numbers render through
:mod:`repro.stats.formatting`, and specs serialise with sorted keys.
``jobs=1`` and ``jobs=16`` sweeps of the same specs produce
byte-identical figures, which the figure pipeline bench and
``tests/test_obs_figures.py`` both pin.

Registered figures (``python -m repro figures --list``):

======================  ================================================
``fig2_scheduler_impact``  speedup vs baseline per workload × scheduler
``fig6_first_last_latency``  first/last walk-latency dumbbells (Fig 6)
``fig8_speedup``        per-workload + GEOMEAN speedup bars (Fig 8)
``fig9_stalls``         CU stall cycles normalised to baseline (Fig 9)
``fig10_latency_gap``   last-first walk latency gap, normalised (Fig 10)
``fig11_walk_count``    page walks dispatched, normalised (Fig 11)
``wavefront_sensitivity``  geomean speedup vs wavefront count
``scale_sensitivity``   geomean speedup vs footprint scale
``scheduler_comparison``  normalised-runtime heatmap, any scheduler set
``latency_cdf``         walk-latency CDF per scheduler (needs --metrics)
``blame_stage_share``   stacked walk-stage shares per scheduler (--metrics)
``blame_waterfall``     cumulative per-walk stage waterfall (--metrics)
======================  ================================================

Multiple campaign reports can be loaded side by side (each tagged with
a campaign label), which turns the sensitivity figures into true
multi-point series; a single report still emits every figure with one
point per axis value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.obs.aggregate import deterministic_view
from repro.obs.metrics import MetricsRegistry
from repro.stats.counters import BucketHistogram
from repro.stats.formatting import format_number
from repro.stats.metrics import geometric_mean

VEGA_LITE_SCHEMA = "https://vega.github.io/schema/vega-lite/v5.json"

#: Categorical series palette (validated reference palette, light-mode
#: steps; see docs/OBSERVABILITY.md).  Slots are assigned to scheduler
#: names in sorted order — fixed assignment, never cycled — so the same
#: scheduler wears the same hue in every figure of a campaign.
CATEGORICAL_PALETTE: Tuple[str, ...] = (
    "#2a78d6",  # blue
    "#eb6834",  # orange
    "#1baf7a",  # aqua
    "#eda100",  # yellow
    "#e87ba4",  # magenta
    "#008300",  # green
    "#4a3aa7",  # violet
    "#e34948",  # red
)

#: Single-hue sequential ramp (light→dark blue) for magnitude encodings.
SEQUENTIAL_RANGE: Tuple[str, ...] = ("#cde2fb", "#86b6ef", "#3987e5", "#1c5cab", "#0d366b")

#: Shared Vega-Lite theme: recessive grid and axes, thin rounded bars.
_VEGA_CONFIG: Dict[str, Any] = {
    "axis": {
        "domainColor": "#d6d5d0",
        "gridColor": "#e8e7e3",
        "labelColor": "#52514e",
        "tickColor": "#d6d5d0",
        "titleColor": "#0b0b0b",
    },
    "background": "#fcfcfb",
    "bar": {"cornerRadiusEnd": 2},
    "legend": {"labelColor": "#52514e", "titleColor": "#0b0b0b"},
    "view": {"stroke": None},
}

#: Synthetic workload label for the cross-workload geomean bar (Fig 8).
GEOMEAN_LABEL = "GEOMEAN"


class FigureSkipped(Exception):
    """A figure generator declining its input (missing columns/metrics).

    Skipping is an expected outcome, not an error: a campaign without
    ``--metrics`` has no latency histograms, so ``latency_cdf`` reports
    *why* it was skipped instead of emitting an empty chart.
    """


@dataclass
class Figure:
    """One generated figure: tidy rows plus the Vega-Lite spec."""

    name: str
    title: str
    description: str
    columns: List[str]
    rows: List[Dict[str, Any]]
    spec: Dict[str, Any]

    def csv(self) -> str:
        """The companion CSV, rendered through the stable formatter."""
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(
                ",".join(_csv_cell(row.get(column)) for column in self.columns)
            )
        return "\n".join(lines) + "\n"

    def spec_json(self) -> str:
        return json.dumps(self.spec, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class FigureDef:
    """A registry entry: the name, what it shows, and its generator."""

    name: str
    title: str
    description: str
    build: Callable[["CampaignData"], Figure]


#: The registry.  Ordered dict in registration order; ``--list`` and
#: the HTML report iterate it in this order.
FIGURES: Dict[str, FigureDef] = {}


def register_figure(name: str, title: str, description: str):
    """Class ProjectScylla-style registration decorator."""

    def wrap(builder: Callable[["CampaignData"], Figure]):
        if name in FIGURES:
            raise ValueError(f"figure {name!r} registered twice")
        FIGURES[name] = FigureDef(name, title, description, builder)
        return builder

    return wrap


def figure_names() -> List[str]:
    return list(FIGURES)


# ----------------------------------------------------------------------
# Campaign data: tidy rows from one or more fleet reports
# ----------------------------------------------------------------------


@dataclass
class CampaignData:
    """Tidy per-run rows (plus merged metrics) from ≥1 fleet reports.

    Rows are built from each report's *deterministic view* — wall-clock
    and delivery-layer fields never reach a figure — and tagged with a
    ``campaign`` label column so several campaigns (say, a
    wavefront-count sensitivity series) plot side by side.
    """

    rows: List[Dict[str, Any]]
    baseline: str
    labels: List[str]
    #: scheduler -> merged MetricsRegistry dump, across all campaigns.
    metrics_by_scheduler: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @classmethod
    def from_reports(
        cls,
        reports: Sequence[Tuple[str, Mapping[str, Any]]],
        baseline: Optional[str] = None,
    ) -> "CampaignData":
        if not reports:
            raise ValueError("at least one fleet report is required")
        rows: List[Dict[str, Any]] = []
        labels: List[str] = []
        merged_metrics: Dict[str, MetricsRegistry] = {}
        for label, report in reports:
            if report.get("format") != "repro-fleet-report":
                raise ValueError(
                    f"campaign {label!r} is not a fleet report "
                    f"(format={report.get('format')!r})"
                )
            labels.append(label)
            view = deterministic_view(dict(report))
            for run in view.get("runs", []):
                row = dict(run)
                row["campaign"] = label
                rows.append(row)
            for scheduler, dump in sorted(
                view.get("metrics_by_scheduler", {}).items()
            ):
                registry = merged_metrics.setdefault(scheduler, MetricsRegistry())
                registry.merge(MetricsRegistry.from_dict(dump))
        if baseline is None:
            baseline = str(reports[0][1].get("baseline_scheduler", "fcfs"))
        metrics = {
            scheduler: registry.as_dict()
            for scheduler, registry in sorted(merged_metrics.items())
        }
        return cls(
            rows=rows, baseline=baseline, labels=labels,
            metrics_by_scheduler=metrics,
        )

    # -- derived views --------------------------------------------------

    def schedulers(self) -> List[str]:
        return sorted({row["scheduler"] for row in self.rows})

    def workloads(self) -> List[str]:
        return sorted({row["workload"] for row in self.rows})

    def require_columns(self, columns: Sequence[str], figure: str) -> None:
        if not self.rows:
            raise FigureSkipped("the report has no successful runs")
        missing = [c for c in columns if c not in self.rows[0]]
        if missing:
            raise FigureSkipped(
                f"report rows lack column(s) {', '.join(missing)} "
                f"(regenerate the report with this repo version)"
            )

    def speedup_samples(
        self, axis: Optional[str] = None
    ) -> List[Tuple[Tuple[Any, ...], str, str, float]]:
        """Paired per-(campaign, workload, seed) speedups vs baseline.

        Returns ``(axis_key, workload, scheduler, speedup)`` samples in
        deterministic order; ``axis`` names an extra row column (e.g.
        ``wavefronts``) carried through for sensitivity figures.
        """
        cases: Dict[Tuple[Any, ...], Dict[str, Dict[str, Any]]] = {}
        for row in self.rows:
            key = (row["campaign"], row["workload"], row["seed"])
            cases.setdefault(key, {})[row["scheduler"]] = row
        samples: List[Tuple[Tuple[Any, ...], str, str, float]] = []
        for key in sorted(cases, key=lambda k: tuple(map(str, k))):
            by_scheduler = cases[key]
            base = by_scheduler.get(self.baseline)
            if base is None or base["total_cycles"] <= 0:
                continue
            for scheduler in sorted(by_scheduler):
                if scheduler == self.baseline:
                    continue
                row = by_scheduler[scheduler]
                if row["total_cycles"] <= 0:
                    continue
                axis_key = (row.get(axis),) if axis else ()
                samples.append(
                    (
                        axis_key,
                        row["workload"],
                        scheduler,
                        base["total_cycles"] / row["total_cycles"],
                    )
                )
        return samples

    def mean_by(
        self, value: str, keys: Sequence[str]
    ) -> Dict[Tuple[Any, ...], float]:
        """Mean of a row column, grouped by ``keys``, in sorted order."""
        groups: Dict[Tuple[Any, ...], List[float]] = {}
        for row in self.rows:
            groups.setdefault(
                tuple(row[k] for k in keys), []
            ).append(float(row[value]))
        return {
            key: sum(values) / len(values)
            for key, values in sorted(
                groups.items(), key=lambda kv: tuple(map(str, kv[0]))
            )
        }

    def scheduler_histogram(self, name: str) -> Dict[str, BucketHistogram]:
        """Per-scheduler merged :class:`BucketHistogram` by metric name."""
        out: Dict[str, BucketHistogram] = {}
        for scheduler, dump in sorted(self.metrics_by_scheduler.items()):
            histogram = dump.get("histograms", {}).get(name)
            if histogram is None:
                continue
            out[scheduler] = BucketHistogram.from_counts(
                [tuple(bucket) for bucket in histogram["buckets"]],
                histogram["counts"],
                histogram.get("out_of_range", 0),
            )
        return out


# ----------------------------------------------------------------------
# Spec construction helpers
# ----------------------------------------------------------------------


def scheduler_color(schedulers: Sequence[str]) -> Dict[str, Any]:
    """Fixed-order categorical color: sorted schedulers → palette slots."""
    domain = sorted(schedulers)
    if len(domain) > len(CATEGORICAL_PALETTE):
        raise FigureSkipped(
            f"{len(domain)} schedulers exceed the {len(CATEGORICAL_PALETTE)}"
            f"-slot categorical palette; split the campaign"
        )
    return {
        "field": "scheduler",
        "type": "nominal",
        "title": "scheduler",
        "scale": {"domain": domain, "range": list(CATEGORICAL_PALETTE[: len(domain)])},
    }


def base_spec(
    name: str,
    title: str,
    width: int = 420,
    height: int = 260,
) -> Dict[str, Any]:
    """The envelope every figure spec shares (CSV url, theme, size)."""
    return {
        "$schema": VEGA_LITE_SCHEMA,
        "config": dict(_VEGA_CONFIG),
        "data": {"format": {"type": "csv"}, "url": f"{name}.csv"},
        "description": title,
        "height": height,
        "title": title,
        "width": width,
    }


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        if any(ch in value for ch in ',"\n'):
            return '"' + value.replace('"', '""') + '"'
        return value
    return format_number(value)


def _round(value: float) -> float:
    return round(float(value), 6)


# ----------------------------------------------------------------------
# Registered figures
# ----------------------------------------------------------------------


@register_figure(
    "fig2_scheduler_impact",
    "Scheduler impact: speedup vs baseline per workload",
    "Paper Fig. 2 — how much the walk scheduler alone moves end-to-end "
    "runtime; every scheduler's per-workload geomean speedup over the "
    "baseline, baseline shown at 1.0.",
)
def fig2_scheduler_impact(data: CampaignData) -> Figure:
    data.require_columns(["total_cycles"], "fig2_scheduler_impact")
    samples = data.speedup_samples()
    if not samples:
        raise FigureSkipped("no (workload, seed) pair has a healthy baseline run")
    grouped: Dict[Tuple[str, str], List[float]] = {}
    for _axis, workload, scheduler, speedup in samples:
        grouped.setdefault((workload, scheduler), []).append(speedup)
    rows = [
        {"workload": workload, "scheduler": data.baseline, "speedup": 1.0}
        for workload in data.workloads()
    ]
    for (workload, scheduler), values in sorted(grouped.items()):
        rows.append(
            {
                "workload": workload,
                "scheduler": scheduler,
                "speedup": _round(geometric_mean(values)),
            }
        )
    rows.sort(key=lambda r: (r["workload"], r["scheduler"]))
    spec = base_spec("fig2_scheduler_impact", "Fig 2 — scheduler impact")
    spec["mark"] = {"type": "bar"}
    spec["encoding"] = {
        "color": scheduler_color(data.schedulers()),
        "x": {"field": "workload", "type": "nominal", "title": "workload"},
        "xOffset": {"field": "scheduler", "sort": sorted(data.schedulers())},
        "y": {
            "field": "speedup",
            "type": "quantitative",
            "title": f"speedup vs {data.baseline}",
        },
    }
    definition = FIGURES["fig2_scheduler_impact"]
    return Figure(
        name=definition.name,
        title=definition.title,
        description=definition.description,
        columns=["workload", "scheduler", "speedup"],
        rows=rows,
        spec=spec,
    )


@register_figure(
    "fig6_first_last_latency",
    "First vs last walk latency per instruction",
    "Paper Fig. 6 — mean latency of the first- and last-completing walk "
    "of multi-walk instructions; the vertical span is the window an "
    "instruction stays blocked after its first translation returned.",
)
def fig6_first_last_latency(data: CampaignData) -> Figure:
    data.require_columns(
        ["first_walk_latency", "last_walk_latency"], "fig6_first_last_latency"
    )
    first = data.mean_by("first_walk_latency", ("workload", "scheduler"))
    last = data.mean_by("last_walk_latency", ("workload", "scheduler"))
    rows = [
        {
            "workload": workload,
            "scheduler": scheduler,
            "first_walk_latency": _round(first_value),
            "last_walk_latency": _round(last[(workload, scheduler)]),
        }
        for (workload, scheduler), first_value in first.items()
    ]
    spec = base_spec("fig6_first_last_latency", "Fig 6 — first vs last walk latency")
    color = scheduler_color(data.schedulers())
    shared_x = {"field": "workload", "type": "nominal", "title": "workload"}
    offset = {"field": "scheduler", "sort": sorted(data.schedulers())}
    spec["layer"] = [
        {
            "mark": {"type": "rule", "strokeWidth": 2},
            "encoding": {
                "color": color,
                "x": shared_x,
                "xOffset": offset,
                "y": {
                    "field": "first_walk_latency",
                    "type": "quantitative",
                    "title": "walk latency (cycles)",
                },
                "y2": {"field": "last_walk_latency"},
            },
        },
        {
            "mark": {"type": "point", "filled": True, "size": 60},
            "encoding": {
                "color": color,
                "x": shared_x,
                "xOffset": offset,
                "y": {"field": "first_walk_latency", "type": "quantitative"},
            },
        },
        {
            "mark": {"type": "point", "filled": True, "size": 60},
            "encoding": {
                "color": color,
                "x": shared_x,
                "xOffset": offset,
                "y": {"field": "last_walk_latency", "type": "quantitative"},
            },
        },
    ]
    definition = FIGURES["fig6_first_last_latency"]
    return Figure(
        name=definition.name,
        title=definition.title,
        description=definition.description,
        columns=[
            "workload", "scheduler", "first_walk_latency", "last_walk_latency",
        ],
        rows=rows,
        spec=spec,
    )


@register_figure(
    "fig8_speedup",
    "Speedup over baseline, per workload plus GEOMEAN",
    "Paper Fig. 8 — the headline chart: per-workload geomean speedup of "
    "every non-baseline scheduler, with the cross-workload GEOMEAN bar "
    "the paper quotes (+30% for SIMT-aware over FCFS).",
)
def fig8_speedup(data: CampaignData) -> Figure:
    data.require_columns(["total_cycles"], "fig8_speedup")
    samples = data.speedup_samples()
    if not samples:
        raise FigureSkipped("no (workload, seed) pair has a healthy baseline run")
    per_workload: Dict[Tuple[str, str], List[float]] = {}
    per_scheduler: Dict[str, List[float]] = {}
    for _axis, workload, scheduler, speedup in samples:
        per_workload.setdefault((workload, scheduler), []).append(speedup)
        per_scheduler.setdefault(scheduler, []).append(speedup)
    rows = [
        {
            "workload": workload,
            "scheduler": scheduler,
            "speedup": _round(geometric_mean(values)),
        }
        for (workload, scheduler), values in sorted(per_workload.items())
    ]
    for scheduler, values in sorted(per_scheduler.items()):
        rows.append(
            {
                "workload": GEOMEAN_LABEL,
                "scheduler": scheduler,
                "speedup": _round(geometric_mean(values)),
            }
        )
    workload_order = data.workloads() + [GEOMEAN_LABEL]
    schedulers = sorted(per_scheduler)
    spec = base_spec("fig8_speedup", "Fig 8 — speedup over baseline")
    spec["mark"] = {"type": "bar"}
    spec["encoding"] = {
        "color": scheduler_color(schedulers),
        "x": {
            "field": "workload",
            "type": "nominal",
            "sort": workload_order,
            "title": "workload",
        },
        "xOffset": {"field": "scheduler", "sort": schedulers},
        "y": {
            "field": "speedup",
            "type": "quantitative",
            "title": f"speedup vs {data.baseline}",
        },
    }
    definition = FIGURES["fig8_speedup"]
    return Figure(
        name=definition.name,
        title=definition.title,
        description=definition.description,
        columns=["workload", "scheduler", "speedup"],
        rows=rows,
        spec=spec,
    )


def _normalised_figure(
    name: str, value_column: str, axis_title: str, data: CampaignData
) -> Figure:
    """Shared shape of Figs 9/10/11: per-group mean normalised to baseline.

    Workloads whose baseline mean is zero get a null value (the spec
    drops nulls) — a tiny sweep with no stalls must not divide by zero
    or silently change the chart's meaning.
    """
    data.require_columns([value_column], name)
    means = data.mean_by(value_column, ("workload", "scheduler"))
    rows: List[Dict[str, Any]] = []
    for workload in data.workloads():
        base = means.get((workload, data.baseline))
        for scheduler in data.schedulers():
            if scheduler == data.baseline:
                continue
            value = means.get((workload, scheduler))
            if value is None:
                continue
            normalised = (
                _round(value / base) if base else None
            )
            rows.append(
                {
                    "workload": workload,
                    "scheduler": scheduler,
                    value_column: _round(value),
                    "normalised": normalised,
                }
            )
    if not any(row["normalised"] is not None for row in rows):
        raise FigureSkipped(
            f"every workload's baseline {value_column} is zero — nothing to normalise"
        )
    definition = FIGURES[name]
    spec = base_spec(name, definition.title)
    spec["mark"] = {"type": "bar"}
    spec["encoding"] = {
        "color": scheduler_color(
            [s for s in data.schedulers() if s != data.baseline]
        ),
        "x": {"field": "workload", "type": "nominal", "title": "workload"},
        "xOffset": {
            "field": "scheduler",
            "sort": [s for s in data.schedulers() if s != data.baseline],
        },
        "y": {
            "field": "normalised",
            "type": "quantitative",
            "title": axis_title,
        },
    }
    return Figure(
        name=definition.name,
        title=definition.title,
        description=definition.description,
        columns=["workload", "scheduler", value_column, "normalised"],
        rows=rows,
        spec=spec,
    )


@register_figure(
    "fig9_stalls",
    "CU stall cycles, normalised to baseline",
    "Paper Fig. 9 — execution-stage stall cycles under each scheduler "
    "relative to the baseline scheduler (lower is better).",
)
def fig9_stalls(data: CampaignData) -> Figure:
    return _normalised_figure(
        "fig9_stalls", "stall_cycles",
        "stall cycles (baseline = 1)", data,
    )


@register_figure(
    "fig10_latency_gap",
    "Walk-latency gap, normalised to baseline",
    "Paper Figs. 6/10 — the last-minus-first walk latency gap per "
    "multi-walk instruction, normalised to the baseline scheduler; the "
    "quantity SIMT-aware scheduling exists to shrink.",
)
def fig10_latency_gap(data: CampaignData) -> Figure:
    return _normalised_figure(
        "fig10_latency_gap", "latency_gap",
        "latency gap (baseline = 1)", data,
    )


@register_figure(
    "fig11_walk_count",
    "Page walks dispatched, normalised to baseline",
    "Paper Fig. 11 — page-table walks dispatched under each scheduler "
    "relative to baseline; scheduling changes TLB-miss interleaving and "
    "therefore the walk count itself.",
)
def fig11_walk_count(data: CampaignData) -> Figure:
    return _normalised_figure(
        "fig11_walk_count", "walks_dispatched",
        "walks dispatched (baseline = 1)", data,
    )


def _sensitivity_figure(name: str, axis: str, axis_title: str, data: CampaignData) -> Figure:
    data.require_columns([axis, "total_cycles"], name)
    samples = data.speedup_samples(axis=axis)
    if not samples:
        raise FigureSkipped("no (workload, seed) pair has a healthy baseline run")
    grouped: Dict[Tuple[Any, str], List[float]] = {}
    for axis_key, _workload, scheduler, speedup in samples:
        grouped.setdefault((axis_key[0], scheduler), []).append(speedup)
    rows = [
        {
            axis: axis_value,
            "scheduler": scheduler,
            "speedup": _round(geometric_mean(values)),
        }
        for (axis_value, scheduler), values in sorted(
            grouped.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])
        )
    ]
    schedulers = sorted({row["scheduler"] for row in rows})
    definition = FIGURES[name]
    spec = base_spec(name, definition.title)
    spec["mark"] = {"type": "line", "point": {"filled": True, "size": 70}, "strokeWidth": 2}
    spec["encoding"] = {
        "color": scheduler_color(schedulers),
        "x": {"field": axis, "type": "ordinal", "title": axis_title},
        "y": {
            "field": "speedup",
            "type": "quantitative",
            "title": f"geomean speedup vs {data.baseline}",
        },
    }
    return Figure(
        name=definition.name,
        title=definition.title,
        description=definition.description,
        columns=[axis, "scheduler", "speedup"],
        rows=rows,
        spec=spec,
    )


@register_figure(
    "wavefront_sensitivity",
    "Sensitivity: geomean speedup vs wavefront count",
    "Geomean speedup per scheduler as concurrency (wavefronts) grows "
    "across the campaign's swept axis; feed several campaign reports "
    "to widen the axis.",
)
def wavefront_sensitivity(data: CampaignData) -> Figure:
    return _sensitivity_figure(
        "wavefront_sensitivity", "wavefronts", "wavefronts per run", data
    )


@register_figure(
    "scale_sensitivity",
    "Sensitivity: geomean speedup vs footprint scale",
    "Geomean speedup per scheduler as the workload footprint scale "
    "grows across the campaign's swept axis; feed several campaign "
    "reports to widen the axis.",
)
def scale_sensitivity(data: CampaignData) -> Figure:
    return _sensitivity_figure(
        "scale_sensitivity", "scale", "workload scale", data
    )


@register_figure(
    "scheduler_comparison",
    "Normalised runtime heatmap, workload × scheduler",
    "Generic scheduler-comparison chart for any policy zoo: mean total "
    "cycles normalised to the baseline scheduler per workload (lower / "
    "lighter is better), one cell per workload × scheduler.",
)
def scheduler_comparison(data: CampaignData) -> Figure:
    data.require_columns(["total_cycles"], "scheduler_comparison")
    means = data.mean_by("total_cycles", ("workload", "scheduler"))
    rows: List[Dict[str, Any]] = []
    for workload in data.workloads():
        base = means.get((workload, data.baseline))
        if not base:
            continue
        for scheduler in data.schedulers():
            value = means.get((workload, scheduler))
            if value is None:
                continue
            rows.append(
                {
                    "workload": workload,
                    "scheduler": scheduler,
                    "mean_total_cycles": _round(value),
                    "normalised_runtime": _round(value / base),
                }
            )
    if not rows:
        raise FigureSkipped("no workload has a baseline run to normalise against")
    spec = base_spec("scheduler_comparison", "Scheduler comparison — normalised runtime")
    spec["mark"] = {"type": "rect"}
    spec["encoding"] = {
        "color": {
            "field": "normalised_runtime",
            "type": "quantitative",
            "title": "runtime vs baseline",
            "scale": {"range": list(SEQUENTIAL_RANGE)},
        },
        "x": {"field": "scheduler", "type": "nominal", "sort": data.schedulers()},
        "y": {"field": "workload", "type": "nominal", "sort": data.workloads()},
    }
    definition = FIGURES["scheduler_comparison"]
    return Figure(
        name=definition.name,
        title=definition.title,
        description=definition.description,
        columns=["workload", "scheduler", "mean_total_cycles", "normalised_runtime"],
        rows=rows,
        spec=spec,
    )


@register_figure(
    "zoo_walk_traffic",
    "Walk traffic vs baseline, per scheduler family",
    "Scheduler-zoo comparison chart: page-walk memory accesses per "
    "workload normalised to the baseline scheduler.  The zoo families "
    "move this in opposite directions — WaSP's distance-ahead prefetch "
    "adds speculative walks, IRU's pending-buffer reordering merges "
    "divergent same-page walks away, and Mosaic's region TLB bypasses "
    "the walk machinery entirely — so traffic, not runtime, is where "
    "the families are told apart.",
)
def zoo_walk_traffic(data: CampaignData) -> Figure:
    data.require_columns(["walk_memory_accesses"], "zoo_walk_traffic")
    means = data.mean_by("walk_memory_accesses", ("workload", "scheduler"))
    rows: List[Dict[str, Any]] = []
    for workload in data.workloads():
        base = means.get((workload, data.baseline))
        if not base:
            continue
        for scheduler in data.schedulers():
            value = means.get((workload, scheduler))
            if value is None:
                continue
            rows.append(
                {
                    "workload": workload,
                    "scheduler": scheduler,
                    "mean_walk_accesses": _round(value),
                    "normalised_traffic": _round(value / base),
                }
            )
    if not rows:
        raise FigureSkipped(
            "no workload has a baseline run to normalise walk traffic against"
        )
    schedulers = data.schedulers()
    spec = base_spec("zoo_walk_traffic", "Zoo — walk traffic vs baseline")
    spec["mark"] = {"type": "bar"}
    spec["encoding"] = {
        "color": scheduler_color(schedulers),
        "x": {
            "field": "workload",
            "type": "nominal",
            "sort": data.workloads(),
            "title": "workload",
        },
        "xOffset": {"field": "scheduler", "sort": schedulers},
        "y": {
            "field": "normalised_traffic",
            "type": "quantitative",
            "title": f"walk accesses vs {data.baseline}",
        },
    }
    definition = FIGURES["zoo_walk_traffic"]
    return Figure(
        name=definition.name,
        title=definition.title,
        description=definition.description,
        columns=[
            "workload", "scheduler", "mean_walk_accesses",
            "normalised_traffic",
        ],
        rows=rows,
        spec=spec,
    )


@register_figure(
    "latency_cdf",
    "Walk-latency CDF per scheduler",
    "Cumulative distribution of per-walk completion latency from the "
    "merged metrics histograms (campaigns run with --metrics); the "
    "bucketed CDF exported by BucketHistogram.cdf_points.",
)
def latency_cdf(data: CampaignData) -> Figure:
    histograms = data.scheduler_histogram("walk.latency_cycles")
    if not histograms:
        raise FigureSkipped(
            "no walk.latency_cycles histograms in the report — rerun the "
            "campaign with --metrics"
        )
    rows: List[Dict[str, Any]] = []
    for scheduler, histogram in sorted(histograms.items()):
        for upper, fraction in histogram.cdf_points():
            rows.append(
                {
                    "scheduler": scheduler,
                    "latency_cycles": upper,
                    "cdf": _round(fraction),
                }
            )
    spec = base_spec("latency_cdf", "Walk-latency CDF")
    spec["mark"] = {"type": "line", "interpolate": "monotone", "strokeWidth": 2}
    spec["encoding"] = {
        "color": scheduler_color(sorted(histograms)),
        "x": {
            "field": "latency_cycles",
            "type": "quantitative",
            "title": "walk latency (cycles)",
        },
        "y": {
            "field": "cdf",
            "type": "quantitative",
            "title": "fraction of walks",
            "scale": {"domain": [0, 1]},
        },
    }
    definition = FIGURES["latency_cdf"]
    return Figure(
        name=definition.name,
        title=definition.title,
        description=definition.description,
        columns=["scheduler", "latency_cycles", "cdf"],
        rows=rows,
        spec=spec,
    )


def _stage_color(stages: Sequence[str]) -> Dict[str, Any]:
    """Fixed stage → palette-slot assignment, in pipeline order.

    Unlike :func:`scheduler_color` the domain is the attribution stage
    taxonomy (``repro.obs.attrib.STAGES``), ordered as the walk pipeline
    runs, so 'queue_wait' wears the same hue in every blame chart.
    """
    from repro.obs.attrib import STAGES

    domain = [stage for stage in STAGES if stage in set(stages)]
    return {
        "field": "stage",
        "type": "nominal",
        "title": "stage",
        "scale": {
            "domain": domain,
            "range": [
                CATEGORICAL_PALETTE[STAGES.index(stage) % len(CATEGORICAL_PALETTE)]
                for stage in domain
            ],
        },
    }


def _blame_summary(data: CampaignData, figure: str) -> Dict[str, Dict[str, Any]]:
    from repro.obs.attrib import stage_summary

    summary = stage_summary(data.metrics_by_scheduler)
    if not summary:
        raise FigureSkipped(
            f"no walk.stage.* counters in the report — rerun the campaign "
            f"with --metrics (figure {figure})"
        )
    return summary


@register_figure(
    "blame_stage_share",
    "Walk-latency blame: stage share per scheduler",
    "Where walk cycles went under each scheduler — the always-on "
    "walk.stage.* counters stacked as shares of total attributed cycles "
    "(paper Figs. 9-11 territory: queueing delay vs DRAM service vs "
    "overflow wait). Tracing-free; any --metrics campaign has it.",
)
def blame_stage_share(data: CampaignData) -> Figure:
    from repro.obs.attrib import STAGES

    summary = _blame_summary(data, "blame_stage_share")
    rows: List[Dict[str, Any]] = []
    for scheduler in sorted(summary):
        entry = summary[scheduler]
        for order, stage in enumerate(STAGES):
            if stage not in entry["stage_cycles"]:
                continue
            rows.append(
                {
                    "scheduler": scheduler,
                    "stage": stage,
                    "order": order,
                    "cycles": entry["stage_cycles"][stage],
                    "share": _round(entry["stage_shares"][stage]),
                }
            )
    spec = base_spec("blame_stage_share", "Blame — walk-stage shares")
    spec["mark"] = {"type": "bar"}
    spec["encoding"] = {
        "color": _stage_color([row["stage"] for row in rows]),
        "order": {"field": "order", "type": "quantitative"},
        "x": {
            "field": "scheduler",
            "type": "nominal",
            "sort": sorted(summary),
            "title": "scheduler",
        },
        "y": {
            "field": "share",
            "type": "quantitative",
            "title": "share of attributed walk cycles",
            "scale": {"domain": [0, 1]},
        },
    }
    definition = FIGURES["blame_stage_share"]
    return Figure(
        name=definition.name,
        title=definition.title,
        description=definition.description,
        columns=["scheduler", "stage", "order", "cycles", "share"],
        rows=rows,
        spec=spec,
    )


@register_figure(
    "blame_waterfall",
    "Walk-latency blame: per-walk critical-path waterfall",
    "The mean walk's life as a waterfall: cumulative cycles per stage in "
    "pipeline order (created -> overflow wait -> scheduler queue -> DRAM "
    "bank queue -> row access -> fault pad -> delivery hold), one track "
    "per scheduler. Stage widths are walk.stage.* cycles divided by "
    "completed walks.",
)
def blame_waterfall(data: CampaignData) -> Figure:
    from repro.obs.attrib import STAGES

    summary = _blame_summary(data, "blame_waterfall")
    rows: List[Dict[str, Any]] = []
    for scheduler in sorted(summary):
        entry = summary[scheduler]
        per_walk = entry.get("per_walk")
        if not per_walk:
            continue
        cursor = 0.0
        for order, stage in enumerate(STAGES):
            width = per_walk.get(stage)
            if width is None:
                continue
            rows.append(
                {
                    "scheduler": scheduler,
                    "stage": stage,
                    "order": order,
                    "start": _round(cursor),
                    "end": _round(cursor + width),
                    "cycles": _round(width),
                }
            )
            cursor += width
    if not rows:
        raise FigureSkipped(
            "no iommu.walks_completed counter to normalise per walk — "
            "rerun the campaign with --metrics"
        )
    spec = base_spec("blame_waterfall", "Blame — mean-walk stage waterfall")
    spec["mark"] = {"type": "bar"}
    spec["encoding"] = {
        "color": _stage_color([row["stage"] for row in rows]),
        "x": {
            "field": "start",
            "type": "quantitative",
            "title": "cycles into the mean walk",
        },
        "x2": {"field": "end"},
        "y": {
            "field": "scheduler",
            "type": "nominal",
            "sort": sorted(summary),
            "title": "scheduler",
        },
    }
    definition = FIGURES["blame_waterfall"]
    return Figure(
        name=definition.name,
        title=definition.title,
        description=definition.description,
        columns=["scheduler", "stage", "order", "start", "end", "cycles"],
        rows=rows,
        spec=spec,
    )


# ----------------------------------------------------------------------
# Validation, generation, emission
# ----------------------------------------------------------------------


def _encoding_fields(spec_or_layer: Mapping[str, Any]) -> List[str]:
    fields = []
    for channel in spec_or_layer.get("encoding", {}).values():
        field_name = channel.get("field") if isinstance(channel, Mapping) else None
        if field_name:
            fields.append(field_name)
    return fields


def validate_figure(figure: Figure) -> List[str]:
    """Structural validity of one figure; returns problems (empty = ok).

    Not a full Vega-Lite schema check (that needs the JS toolchain) but
    everything the pipeline can get wrong: envelope fields, the CSV
    url/spec name agreement, marks present, and every encoded field
    actually existing in the emitted columns.
    """
    problems: List[str] = []
    spec = figure.spec
    if spec.get("$schema") != VEGA_LITE_SCHEMA:
        problems.append("spec $schema is not Vega-Lite v5")
    data = spec.get("data", {})
    if data.get("url") != f"{figure.name}.csv":
        problems.append(f"spec data.url must be {figure.name}.csv")
    units = spec.get("layer", [spec])
    for unit in units:
        if "mark" not in unit:
            problems.append("spec unit has no mark")
        for field_name in _encoding_fields(unit):
            if field_name not in figure.columns:
                problems.append(
                    f"encoded field {field_name!r} missing from CSV columns"
                )
    if not figure.rows:
        problems.append("figure has no data rows")
    for row in figure.rows:
        for column in row:
            if column not in figure.columns:
                problems.append(f"row key {column!r} missing from columns")
                break
    return problems


def build_figures(
    data: CampaignData, names: Optional[Sequence[str]] = None
) -> Tuple[List[Figure], Dict[str, str]]:
    """Run the registry; returns (built figures, skipped name → reason)."""
    selected = list(names) if names else figure_names()
    unknown = [name for name in selected if name not in FIGURES]
    if unknown:
        raise ValueError(
            f"unknown figure(s) {', '.join(unknown)}; "
            f"known: {', '.join(figure_names())}"
        )
    figures: List[Figure] = []
    skipped: Dict[str, str] = {}
    for name in selected:
        try:
            figures.append(FIGURES[name].build(data))
        except FigureSkipped as why:
            skipped[name] = str(why)
    return figures, skipped


def emit_figures(
    data: CampaignData,
    out_dir: Union[str, Path],
    names: Optional[Sequence[str]] = None,
    strict: bool = True,
) -> Dict[str, Any]:
    """Build, validate and write every figure; returns the manifest.

    Writes ``<name>.vl.json`` + ``<name>.csv`` per figure and one
    ``figures.json`` manifest listing what was written, what was
    skipped and why — the HTML report and the CI job both read it.
    ``strict`` turns any structural validation problem into a
    :class:`ValueError` (CI wants loud), otherwise problems are
    recorded in the manifest.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    figures, skipped = build_figures(data, names)
    written: List[Dict[str, Any]] = []
    for figure in figures:
        problems = validate_figure(figure)
        if problems and strict:
            raise ValueError(
                f"figure {figure.name} failed validation: {'; '.join(problems)}"
            )
        spec_path = out_dir / f"{figure.name}.vl.json"
        csv_path = out_dir / f"{figure.name}.csv"
        spec_path.write_text(figure.spec_json())
        csv_path.write_text(figure.csv())
        written.append(
            {
                "name": figure.name,
                "title": figure.title,
                "rows": len(figure.rows),
                "spec": spec_path.name,
                "csv": csv_path.name,
                "problems": problems,
            }
        )
    manifest = {
        "format": "repro-figures",
        "version": 1,
        "baseline": data.baseline,
        "campaigns": list(data.labels),
        "figures": written,
        "skipped": dict(sorted(skipped.items())),
    }
    (out_dir / "figures.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return manifest


# ----------------------------------------------------------------------
# Input loading (CLI + service merge)
# ----------------------------------------------------------------------


def load_campaign_input(path: Union[str, Path]) -> Tuple[str, Dict[str, Any], Optional[Dict[str, Any]]]:
    """Resolve one CLI input into ``(label, report, manifest-or-None)``.

    Accepts either a campaign directory (reads
    ``report/fleet_report.json`` as written by ``repro service merge``,
    plus ``manifest.json`` for the attempt audit) or a bare fleet
    report JSON file (as written by ``repro fleet-report``).
    """
    path = Path(path)
    if path.is_dir():
        report_path = path / "report" / "fleet_report.json"
        if not report_path.exists():
            raise FileNotFoundError(
                f"{report_path} not found — run `python -m repro service "
                f"merge {path}` first (or pass a fleet_report.json file)"
            )
        report = json.loads(report_path.read_text())
        manifest_path = path / "manifest.json"
        manifest = (
            json.loads(manifest_path.read_text())
            if manifest_path.exists() else None
        )
        return path.name, report, manifest
    report = json.loads(path.read_text())
    return path.stem, report, None
