"""repro — a reproduction of "Scheduling Page Table Walks for Irregular
GPU Applications" (Shin et al., ISCA 2018).

The package provides:

* a discrete-event simulator of a GPU's address-translation path
  (TLB hierarchy → IOMMU → page-table walkers → DRAM);
* the paper's contribution — a SIMT-aware page-table walk scheduler —
  plus the FCFS/random baselines and single-idea ablations;
* synthetic models of the paper's twelve benchmarks (Table II);
* an experiment harness that regenerates every figure and table.

Quickstart::

    from repro import compare_schedulers

    results = compare_schedulers("MVT", schedulers=("fcfs", "simt"))
    print(results["simt"].speedup_over(results["fcfs"]))
"""

from repro.config import (
    DRAMConfig,
    GPUConfig,
    IOMMUConfig,
    PWCConfig,
    SystemConfig,
    TLBConfig,
    baseline_config,
)
from repro.core import (
    FCFSScheduler,
    RandomScheduler,
    SIMTAwareScheduler,
    available_schedulers,
    make_scheduler,
)
from repro.config_io import (
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from repro.engine.checkpoint import CheckpointError
from repro.experiments.runner import (
    build_system,
    compare_schedulers,
    resume_simulation,
    run_many,
    run_many_resilient,
    run_simulation,
)
from repro.obs import (
    MetricsRegistry,
    TraceConfig,
    Tracer,
    build_tracer,
    validate_chrome_trace,
)
from repro.resilience import (
    DeadlockDiagnosis,
    FaultEvent,
    FaultPlan,
    RunOutcome,
    SpecExecutionError,
    Watchdog,
    WatchdogError,
    run_campaign,
)
from repro.stats.metrics import SimulationResult, geometric_mean
from repro.workloads import (
    IRREGULAR_WORKLOADS,
    REGULAR_WORKLOADS,
    all_workloads,
    get_workload,
    workload_names,
)

__version__ = "1.0.0"

__all__ = [
    "CheckpointError",
    "DRAMConfig",
    "DeadlockDiagnosis",
    "FCFSScheduler",
    "FaultEvent",
    "FaultPlan",
    "GPUConfig",
    "IOMMUConfig",
    "IRREGULAR_WORKLOADS",
    "MetricsRegistry",
    "PWCConfig",
    "RandomScheduler",
    "REGULAR_WORKLOADS",
    "RunOutcome",
    "SIMTAwareScheduler",
    "SimulationResult",
    "SpecExecutionError",
    "SystemConfig",
    "TLBConfig",
    "TraceConfig",
    "Tracer",
    "Watchdog",
    "WatchdogError",
    "all_workloads",
    "available_schedulers",
    "baseline_config",
    "build_system",
    "build_tracer",
    "compare_schedulers",
    "config_from_dict",
    "config_to_dict",
    "geometric_mean",
    "load_config",
    "save_config",
    "get_workload",
    "make_scheduler",
    "resume_simulation",
    "run_campaign",
    "run_many",
    "run_many_resilient",
    "run_simulation",
    "validate_chrome_trace",
    "workload_names",
    "__version__",
]
