"""Analysis utilities: control metrics, message traces, schedulability.

* :mod:`repro.analysis.metrics` — step-response and trajectory-comparison
  metrics used throughout EXPERIMENTS.md;
* :mod:`repro.analysis.trace` — message-dispatch traces of the discrete
  world (who received what, when, with what latency from send);
* :mod:`repro.analysis.schedulability` — fixed-priority real-time
  analysis (Liu–Layland bound, exact RTA with blocking/jitter/
  self-suspension, first-fit partitioning, sensitivity searches)
  applied to the thread sets the paper's architecture produces;
* :mod:`repro.analysis.schedvalidate` — the empirical harness that
  traces a live :class:`~repro.core.hybrid.HybridScheduler` run and
  checks the static response-time bound dominates what was observed.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.analysis.metrics": (
        "StepMetrics", "compare_trajectories", "iae", "ise", "itae",
        "percentiles", "step_metrics",
    ),
    "repro.analysis.coverage": (
        "CoverageReport", "coverage_of", "render_coverage",
    ),
    "repro.analysis.experiments": (
        "SweepRun", "best_run", "grid_points", "render_sweep", "sweep",
    ),
    "repro.analysis.trace": ("DispatchRecord", "MessageTrace"),
    "repro.analysis.schedulability": (
        "CriticalSection", "PartitionResult", "RTAResult",
        "SensitivityResult", "Task", "TaskResponse", "TaskSet",
        "UtilisationResult", "first_fit_partition", "liu_layland_bound",
        "min_feasible_sync_interval", "response_time_analysis",
        "sched_report", "sensitivity", "shared_state_facts",
        "taskset_from_model", "utilisation_test",
    ),
    "repro.analysis.schedvalidate": (
        "ValidationReport", "validate_schedulability",
    ),
})

if TYPE_CHECKING:
    from repro.analysis.metrics import (
        StepMetrics,
        compare_trajectories,
        iae,
        ise,
        itae,
        percentiles,
        step_metrics,
    )
    from repro.analysis.coverage import (
        CoverageReport,
        coverage_of,
        render_coverage,
    )
    from repro.analysis.experiments import (
        SweepRun,
        best_run,
        grid_points,
        render_sweep,
        sweep,
    )
    from repro.analysis.trace import DispatchRecord, MessageTrace
    from repro.analysis.schedulability import (
        CriticalSection,
        PartitionResult,
        RTAResult,
        SensitivityResult,
        Task,
        TaskResponse,
        TaskSet,
        UtilisationResult,
        first_fit_partition,
        liu_layland_bound,
        min_feasible_sync_interval,
        response_time_analysis,
        sched_report,
        sensitivity,
        shared_state_facts,
        taskset_from_model,
        utilisation_test,
    )
    from repro.analysis.schedvalidate import (
        ValidationReport,
        validate_schedulability,
    )
