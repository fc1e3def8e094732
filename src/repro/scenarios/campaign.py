"""The campaign driver: thousands of scenarios, one coverage ledger.

:class:`CampaignRunner` walks a deterministic seed stream, turns each
seed into a :class:`~repro.scenarios.spec.ScenarioSpec`, and runs each
round's scenarios on the calling thread plus at most ``workers - 1``
helper threads (:func:`repro._fanout.fan_out`).  Each family's executor
is a *differential oracle*: the scenario passes only when two
independent computations of the same workload agree bitwise
(interpreter vs compiled backends at O0/O1/O2, batch vs sequential,
crashed-and-recovered vs uninterrupted, first run vs second run) — or,
for the ``defect`` family, when the static checker fires exactly the
codes the builder plants.  The one
sanctioned relaxation: comparisons *across* opt levels tolerate
last-ulp drift when the O2 fuser reassociated arithmetic; backend-vs-
interpreter comparisons at the same level stay exact always.

Coverage steering selects *which seeds run*, never what a seed means:
every round draws ``round_size * lookahead`` candidate specs off the
stream and keeps the ``round_size`` whose predicted contributions hit
the most still-unexercised coverage keys.  Replay of a failing seed is
therefore exact by construction (`ScenarioSpec.from_seed` is pure).

The mutation self-test (``mutate_seeds``) corrupts the *candidate* side
of a scenario's comparison just before the differential check — the
standing proof that the oracle actually looks at the data, the
campaign's analogue of a mutation-testing kill.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Any, Dict, FrozenSet, List, Optional, Set, Tuple,
)

import numpy as np

from repro._fanout import fan_out
from repro.scenarios.coverage import CampaignCoverage, DIMENSIONS
from repro.scenarios.spec import DEMOTING_SOLVERS, ScenarioSpec

#: 2^-9 step: every generated time grid is binary-exact, so equality
#: failures are real divergences, never accumulation-order noise
DEFAULT_H = 1.0 / 512.0


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
@dataclass
class CampaignConfig:
    """Everything a campaign run (or a single replay) depends on."""

    count: int = 200
    seed: int = 0
    #: scenarios in flight, the calling thread included
    workers: int = 4
    #: compiled backends to differentially compare against the
    #: interpreter (None: compiled-python, plus native-c when usable)
    backends: Optional[List[str]] = None
    steer: bool = True
    round_size: int = 32
    #: candidate pool multiplier per steering round
    lookahead: int = 4
    t_end: float = 0.25
    h: float = DEFAULT_H
    #: spool directory for fault-family checkpoints (None: a tempdir)
    work_dir: Optional[str] = None
    #: scenario seeds whose comparisons are deliberately corrupted
    mutate_seeds: FrozenSet[int] = frozenset()
    #: optimizer levels the differential families sweep; every backend
    #: is compared against the interpreter at each of these
    opt_levels: Tuple[int, ...] = (0, 1, 2)
    #: relative tolerance for cross-level comparisons whose O2 plan
    #: reassociated arithmetic (fused ops); exact equality elsewhere
    reassoc_rtol: float = 1e-9

    def resolved_backends(self) -> List[str]:
        if self.backends is not None:
            return list(self.backends)
        from repro.core.backend import has_c_compiler

        names = ["compiled-python"]
        if has_c_compiler():
            names.append("native-c")
        return names


# ----------------------------------------------------------------------
# outcomes
# ----------------------------------------------------------------------
@dataclass
class ScenarioOutcome:
    """What one executed scenario reports back to the runner."""

    seed: int
    family: str
    ok: bool
    detail: str = ""
    coverage: Dict[str, List[str]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "family": self.family,
            "ok": self.ok,
            "detail": self.detail,
            "coverage": {
                dim: sorted(values)
                for dim, values in self.coverage.items()
            },
        }


class _Recorder:
    """Per-scenario coverage scratchpad (merged by the runner)."""

    def __init__(self) -> None:
        self.sets: Dict[str, Set[str]] = {dim: set() for dim in DIMENSIONS}

    def rules(self, codes) -> None:
        self.sets["rules"].update(codes)

    def solver(self, name: str) -> None:
        self.sets["solvers"].add(name)

    def backend(self, name: str) -> None:
        self.sets["backends"].add(name)

    def plan(self, plan) -> None:
        self.sets["opcodes"].update(
            type(node.leaf).__name__ for node in plan.nodes
        )

    def opt_report(self, plan) -> None:
        report = getattr(plan, "opt_report", None)
        if report is None:
            return
        for key, value in report.counts().items():
            if value:
                self.sets["passes"].add(key.split(".", 1)[0])

    def as_outcome(self) -> Dict[str, List[str]]:
        return {
            dim: sorted(values)
            for dim, values in self.sets.items() if values
        }


# ----------------------------------------------------------------------
# comparison helpers
# ----------------------------------------------------------------------
def _diff_series(
    reference, candidate, label: str, rtol: Optional[float] = None,
) -> Optional[str]:
    """A divergence message comparing two run results, or None.

    Both are scalar-backend results (a ``final_state`` vector) or both
    batch results (an ``(n, n_state)`` ``final_states`` matrix).
    Values compare bitwise, or within ``rtol`` when given: only across
    optimizer levels whose plan *reassociated* arithmetic (O2 fusion),
    where ``(a + b) + c`` and ``a + (b + c)`` differ in the last ulps —
    a property of float addition, not a miscompile.  Time grids and
    record keys always compare exactly: reassociation never changes the
    schedule.
    """
    if not np.array_equal(reference.t, candidate.t):
        return f"{label}: time grids differ"
    if set(reference.series) != set(candidate.series):
        return (
            f"{label}: record keys differ "
            f"({sorted(reference.series)} vs {sorted(candidate.series)})"
        )
    if rtol is None:
        same, beyond = np.array_equal, ""
    else:
        def same(a, b) -> bool:
            return np.allclose(a, b, rtol=rtol, atol=rtol, equal_nan=True)

        beyond = f" beyond rtol={rtol:g}"
    for key in sorted(reference.series):
        if not same(reference.series[key], candidate.series[key]):
            return f"{label}: series {key!r} diverges{beyond}"
    finals = (
        "final_states" if hasattr(reference, "final_states")
        else "final_state"
    )
    if not same(getattr(reference, finals), getattr(candidate, finals)):
        return f"{label}: final states differ{beyond}"
    return None


def _trajectory_matrix(trajectory) -> np.ndarray:
    """A probe's trajectory as one array: a row per sample, its time
    and then its flattened state."""
    return np.column_stack([
        np.asarray(trajectory.times, dtype=float),
        np.asarray(trajectory.states, dtype=float).reshape(
            len(trajectory), -1
        ),
    ])


def _plan_reassociates(plan, level: int) -> bool:
    """Did this plan's optimizer actually reorder arithmetic?

    Only levels that allow reassociation (O2+) *and* whose report shows
    fused ops get the tolerance comparison; an O2 plan the fuser left
    untouched must still match bitwise.
    """
    if level < 2:
        return False
    report = getattr(plan, "opt_report", None)
    if report is None:
        return False
    return any(
        value for key, value in report.counts().items()
        if key.startswith("fuse.")
    )


def _mutate_result(result) -> None:
    """Corrupt one sample in-place (the self-test's injected bug)."""
    for key in sorted(result.series):
        series = result.series[key]
        if series.size:
            series[-1] = series[-1] + 1.0 if series[-1] == series[-1] else 1.0
            return


# ----------------------------------------------------------------------
# family executors
# ----------------------------------------------------------------------
def _diff_failure(
    reference, candidate, label: str, head: str,
) -> Optional[str]:
    """The divergence between two run outcomes of which at least one is
    a :class:`~repro.solvers.base.SolverError`, or None: both must have
    raised, the candidate with the message ``head``."""
    from repro.solvers.base import SolverError

    if not isinstance(reference, SolverError):
        return f"{label}: raised {candidate} where the interpreter ran"
    if not isinstance(candidate, SolverError):
        return f"{label}: ran where the interpreter raised {reference}"
    if not str(candidate).startswith(head):
        return f"{label}: raised {candidate}, not {head!r}"
    return None


def _run_differential(
    spec: ScenarioSpec, config: CampaignConfig, rec: _Recorder
) -> Optional[str]:
    """dag / dag_sampled / feedback / plant: backends across opt levels.

    The interpreter anchors every comparison: each level's interpreter
    run is compared against the base level (bitwise up to O1; within
    ``reassoc_rtol`` at O2 *when the plan actually fused/reassociated*,
    bitwise otherwise), and every compiled backend must match the
    interpreter *at its own level* bitwise — backend and interpreter
    execute the same optimized plan, so even a reassociated O2 plan
    leaves them no excuse to differ in a single ulp.

    A diverging plant is an outcome, not a crash.  Where the interpreter
    raises :class:`~repro.solvers.base.SolverError` at a level, every
    compiled backend at that level must raise one whose message starts
    with ``"<solver>: non-finite state"``
    (:func:`~repro.solvers.base.non_finite`); where it does not, no
    backend may.

    Every compiled backend's request is prefetched first, so the native
    kernels build in the background while the interpreter runs.
    ``dag_sampled`` scenarios also check the generated programs
    (:func:`_check_generated`).
    """
    from repro.core.backend import CompileRequest, compile_program, prefetch
    from repro.solvers.base import SolverError, non_finite

    solver = spec.params.get("solver", "rk4")
    mutate = spec.seed in config.mutate_seeds
    levels = tuple(config.opt_levels) or (0,)
    head = non_finite(solver, 0.0).partition(" at ")[0]

    def request_at(level: int) -> CompileRequest:
        return CompileRequest(
            diagram=spec.build(), solver=solver, h=config.h,
            opt_level=level,
        )

    def outcome(program):
        """The program's run, or the :class:`SolverError` it raised."""
        try:
            return program.run(config.t_end)
        except SolverError as exc:
            return exc

    compiled = {
        (backend, level): request_at(level)
        for backend in config.resolved_backends() for level in levels
    }
    for (backend, __), request in compiled.items():
        prefetch(request, backend)
    interp: Dict[int, Any] = {}
    reassociated: Dict[int, bool] = {}
    for level in levels:
        program = compile_program(request_at(level), "interpreter")
        rec.plan(program.plan)
        if level:
            rec.opt_report(program.plan)
        rec.backend(program.backend)
        rec.solver(solver)
        interp[level] = outcome(program)
        reassociated[level] = _plan_reassociates(program.plan, level)
    base = levels[0]
    for level in levels[1:]:
        label = f"interpreter O{level} vs O{base}"
        if isinstance(interp[base], SolverError) or isinstance(
            interp[level], SolverError,
        ):
            detail = _diff_failure(interp[base], interp[level], label, head)
        else:
            detail = _diff_series(
                interp[base], interp[level], label,
                config.reassoc_rtol if reassociated[level] else None,
            )
        if detail:
            return detail
    for (backend, level), request in compiled.items():
        program = compile_program(request, backend)
        rec.backend(program.backend)
        result = outcome(program)
        label = f"{backend} (ran {program.backend}) O{level} vs interpreter"
        if isinstance(interp[level], SolverError) or isinstance(
            result, SolverError,
        ):
            detail = _diff_failure(interp[level], result, label, head)
        else:
            if mutate:
                _mutate_result(result)
            detail = _diff_series(interp[level], result, label)
        if detail:
            return detail
    if spec.family == "dag_sampled":
        reference = interp.get(0) if solver == "rk4" else None
        return _check_generated(spec, config, reference)
    return None


def _check_generated(
    spec: ScenarioSpec, config: CampaignConfig, reference=None,
) -> Optional[str]:
    """The generated programs of a scenario against the interpreter.

    ``generate_python`` and ``generate_c`` integrate with RK4 at O0, so
    the reference is the interpreter's RK4 run at O0 (``reference``, when
    the caller already has it).  The Python module must match bitwise;
    the C program, built with ``-ffp-contract=off`` when a compiler
    exists, must print the interpreter's records at its ``%.9g``.  A
    reference that diverged has nothing to compare: the generated
    programs do not check their state.
    """
    import subprocess

    from repro.codegen import generate_c, generate_python
    from repro.core.backend import CompileRequest, compile_program
    from repro.core.backend.native import find_c_compiler
    from repro.solvers.base import SolverError

    if reference is None:
        try:
            reference = compile_program(CompileRequest(
                diagram=spec.build(), solver="rk4", h=config.h,
            ), "interpreter").run(config.t_end)
        except SolverError:
            return None
    if isinstance(reference, SolverError):
        return None
    namespace: Dict[str, Any] = {}
    exec(compile(
        generate_python(spec.build(), default_h=config.h),
        "<generate_python>", "exec",
    ), namespace)
    out = namespace["simulate"](config.t_end)
    labels = namespace["LABELS"][1:]  # the records, as the C header
    if sorted(labels) != sorted(reference.series):
        return "generate_python vs interpreter: record keys differ"
    for label in ("t", *labels):
        want = reference.t if label == "t" else reference.series[label]
        if not np.array_equal(want, out[label]):
            return (
                f"generate_python vs interpreter: series {label!r} "
                "diverges"
            )
    compiler = find_c_compiler()
    if compiler is None:
        return None
    with tempfile.TemporaryDirectory(prefix="campaign-c-") as tmp:
        source = os.path.join(tmp, "model.c")
        binary = os.path.join(tmp, "model")
        with open(source, "w") as handle:
            handle.write(generate_c(
                spec.build(), default_h=config.h, t_end=config.t_end,
            ))
        subprocess.run(
            [compiler, "-O2", "-ffp-contract=off", "-o", binary, source,
             "-lm"],
            check=True, capture_output=True, timeout=120,
        )
        printed = subprocess.run(
            [binary], check=True, capture_output=True, text=True,
            timeout=120,
        ).stdout.splitlines()
    header, *lines = printed
    if header != ",".join(["t", *labels]):
        return f"generate_c vs interpreter: header {header!r}"
    columns = [reference.t, *(reference.series[label] for label in labels)]
    if len(lines) != len(columns[0]):
        return "generate_c vs interpreter: record counts differ"
    # by value, as np.array_equal compares every other executor: a Sum
    # emitted as ``- a - b`` gives -0.0 where the block's 0.0 - a - b
    # gives 0.0, and the program prints the sign
    for index, (row, line) in enumerate(zip(zip(*columns), lines)):
        want = [float("%.9g" % value) for value in row]
        if not np.array_equal(want, [float(v) for v in line.split(",")]):
            return (
                f"generate_c vs interpreter: record {index} prints "
                f"{line!r}, not {want}"
            )
    return None


def _run_batch(
    spec: ScenarioSpec, config: CampaignConfig, rec: _Recorder
) -> Optional[str]:
    """batch: the vectorised backend — and, with a toolchain, the
    N-instance C kernel — against N sequential runs.

    The native-batch leg runs the differential matrix across the
    campaign's opt levels: bitwise against ``simulate_sequential`` up to
    O1 (and at O2 when the fuser left the plan alone), within
    ``reassoc_rtol`` when the O2 plan actually reassociated arithmetic
    (``_plan_reassociates``).  Without a compiler the leg is skipped —
    the NumPy comparison above already covered the semantics.  Its
    kernels are prefetched before the NumPy and sequential runs, so gcc
    works while they do.
    """
    from repro.core.backend import CompileRequest, prefetch
    from repro.core.backend.base import KERNEL_SOLVERS
    from repro.core.backend.native import has_c_compiler
    from repro.core.batch import BatchSimulator, simulate_sequential

    params = spec.params
    n = params["n"]
    solver = params["solver"]
    diagram = spec.build()
    sweeps = None
    if params.get("sweep"):
        gains = sorted(
            name for name, sub in diagram.subs.items()
            if type(sub).__name__ == "Gain"
        )
        if gains:
            base = float(diagram.subs[gains[0]].params["k"])
            sweeps = {
                f"{gains[0]}.k": [
                    round(base * (0.8 + 0.1 * i), 6) for i in range(n)
                ],
            }
    levels = tuple(config.opt_levels) or (0,)
    native = has_c_compiler() and solver in KERNEL_SOLVERS
    if native:
        for level in levels:
            prefetch(CompileRequest(
                diagram=spec.build(), solver=solver, h=config.h, n=n,
                sweeps=sweeps, opt_level=level,
            ), "native-batch")
    simulator = BatchSimulator(
        diagram=diagram, n=n, solver=solver, h=config.h, sweeps=sweeps,
    )
    rec.plan(simulator.program.plan)
    batch = simulator.run(config.t_end)
    if spec.seed in config.mutate_seeds:
        for key in sorted(batch.series):
            if batch.series[key].size:
                batch.series[key][-1, -1] += 1.0
                break
    sequential = simulate_sequential(
        spec.build, n, config.t_end, solver=solver, h=config.h,
        sweeps=sweeps,
    )
    rec.solver(solver)
    rec.backend("batch")
    rec.backend("interpreter")
    detail = _diff_series(sequential, batch, "batch vs sequential")
    if detail:
        return detail
    if not native:
        return None
    for level in levels:
        native_sim = BatchSimulator(
            diagram=spec.build(), n=n, solver=solver, h=config.h,
            sweeps=sweeps, opt_level=level, backend="native-batch",
        )
        if native_sim.backend_name != "native-batch":
            # an unlowerable model demoted to the NumPy program, which
            # the comparison above already vetted at this level
            continue
        rec.backend("native-batch")
        if level:
            rec.opt_report(native_sim.plan)
        native = native_sim.run(config.t_end)
        detail = _diff_series(
            sequential, native, f"native-batch O{level} vs sequential",
            config.reassoc_rtol
            if _plan_reassociates(native_sim.plan, level) else None,
        )
        if detail:
            return detail
    return None


def _run_solver(
    spec: ScenarioSpec, config: CampaignConfig, rec: _Recorder
) -> Optional[str]:
    """solver: adaptive/implicit kinds — rerun determinism + demotion."""
    from repro.core.backend import CompileRequest, compile_program

    solver = spec.params["solver"]
    assert solver in DEMOTING_SOLVERS
    results = []
    for attempt in range(2):
        request = CompileRequest(
            diagram=spec.build(), solver=solver, h=config.h, opt_level=0,
        )
        program = compile_program(request, "interpreter")
        if attempt == 0:
            rec.plan(program.plan)
        results.append(program.run(config.t_end))
    rec.solver(solver)
    rec.backend("interpreter")
    if spec.seed in config.mutate_seeds:
        _mutate_result(results[1])
    detail = _diff_series(results[0], results[1], f"{solver} rerun")
    if detail:
        return detail
    # a compiled-backend request must demote, not silently miscompile
    request = CompileRequest(
        diagram=spec.build(), solver=solver, h=config.h, opt_level=0,
    )
    program = compile_program(request, "compiled-python")
    if program.backend != "interpreter":
        return (
            f"solver {solver!r} unexpectedly compiled on "
            f"{program.backend}"
        )
    return None


def _run_fault(
    spec: ScenarioSpec, config: CampaignConfig, rec: _Recorder
) -> Optional[str]:
    """fault: crash + checkpoint resume must land on the same finals.

    Both jobs run on the calling thread through the service's attempt
    loop, as a cluster worker runs its envelopes: the faulted job's
    retried attempt resumes from its spool's newest checkpoint.  The
    spool is ``<work_dir>/fault-<seed>``, or without a ``work_dir`` a
    temporary directory removed once the job is done.
    """
    from repro.resilience import FaultInjector
    from repro.service.jobs import (
        JobContext, JobHandle, SingleRunJob, run_attempts,
    )
    from repro.service.telemetry import MetricsRegistry

    def run(job: SingleRunJob):
        handle = JobHandle(job.name, job)
        handle._finish(*run_attempts(
            job, JobContext(handle), MetricsRegistry(),
        ))
        return handle.result()

    t_end = 0.4
    crash_step = spec.params["crash_step"]
    baseline = run(SingleRunJob(
        name=f"baseline-{spec.seed}", model_factory=spec.build,
        t_end=t_end, validate=False,
    ))
    if config.work_dir:
        spool_dir = contextlib.nullcontext(
            os.path.join(config.work_dir, f"fault-{spec.seed}")
        )
    else:
        spool_dir = tempfile.TemporaryDirectory(
            prefix=f"scenario-fault-{spec.seed}-"
        )
    with spool_dir as spool:
        os.makedirs(spool, exist_ok=True)
        injector = FaultInjector(seed=spec.seed).crash_at_step(crash_step)
        recovered = run(SingleRunJob(
            name=f"faulted-{spec.seed}", model_factory=spec.build,
            t_end=t_end, validate=False, retries=2, backoff=0.0,
            checkpoint_dir=spool, checkpoint_every_steps=10,
            fault_injector=injector,
        ))
    rec.backend("interpreter")
    rec.solver("rk4")
    probes = {
        name: _trajectory_matrix(t) for name, t in recovered.probes.items()
    }
    reference = {
        name: _trajectory_matrix(t) for name, t in baseline.probes.items()
    }
    if spec.seed in config.mutate_seeds and probes:
        probes[sorted(probes)[0]][-1, -1] += 1.0
    if set(probes) != set(reference):
        return "fault recovery: probe sets differ"
    for name in sorted(probes):
        if probes[name].shape != reference[name].shape:
            return f"fault recovery: probe {name!r} lengths differ"
        if not np.array_equal(probes[name], reference[name]):
            return f"fault recovery: probe {name!r} diverges"
    return None


def _run_multirate(
    spec: ScenarioSpec, config: CampaignConfig, rec: _Recorder
) -> Optional[str]:
    """multirate: two-rate threads — rerun determinism + lint harvest."""
    from repro.check import run_checks

    names = ["fast_y", "slow_y"]
    if spec.params["feedthrough"]:
        names.append("tap_y")
    runs = []
    for __ in range(2):
        model = spec.build()
        model.run(0.2, validate=False)
        runs.append({
            name: _trajectory_matrix(model.probe(name)) for name in names
        })
    result = run_checks(spec.build())
    rec.rules(d.code for d in result.diagnostics)
    rec.solver("rk4")
    if spec.seed in config.mutate_seeds:
        runs[1][names[0]][-1, -1] += 1.0
    for name in names:
        if runs[0][name].shape != runs[1][name].shape:
            return f"multirate rerun: probe {name!r} lengths differ"
        if not np.array_equal(runs[0][name], runs[1][name]):
            return f"multirate rerun: probe {name!r} diverges"
    return None


def _run_defect(
    spec: ScenarioSpec, config: CampaignConfig, rec: _Recorder
) -> Optional[str]:
    """defect: the planted flaw's codes must actually fire."""
    from repro.check import CheckConfig, run_checks
    from repro.scenarios.defects import DEFECTS

    defect = DEFECTS[spec.params["defect"]]
    result = run_checks(
        defect.builder(), config=CheckConfig(**defect.config),
    )
    fired = {d.code for d in result.diagnostics}
    rec.rules(fired)
    expected = set(defect.expected)
    if spec.seed in config.mutate_seeds:
        expected.add("FAKE999")  # an impossible code: must be missed
    missing = expected - fired
    if missing:
        return (
            f"defect {spec.params['defect']!r}: expected codes not "
            f"fired: {sorted(missing)} (fired: {sorted(fired)})"
        )
    return None


_EXECUTORS = {
    "dag": _run_differential,
    "dag_sampled": _run_differential,
    "feedback": _run_differential,
    "plant": _run_differential,
    "batch": _run_batch,
    "solver": _run_solver,
    "fault": _run_fault,
    "multirate": _run_multirate,
    "defect": _run_defect,
}


def execute_scenario(
    spec: ScenarioSpec, config: CampaignConfig
) -> ScenarioOutcome:
    """Run one scenario through its family oracle."""
    recorder = _Recorder()
    executor = _EXECUTORS.get(spec.family)
    if executor is None:
        return ScenarioOutcome(
            seed=spec.seed, family=spec.family, ok=False,
            detail=f"unknown family {spec.family!r}",
        )
    try:
        detail = executor(spec, config, recorder)
    except Exception as exc:  # an oracle crash is a divergence too
        detail = f"executor raised {type(exc).__name__}: {exc}"
    return ScenarioOutcome(
        seed=spec.seed, family=spec.family, ok=detail is None,
        detail=detail or "", coverage=recorder.as_outcome(),
    )


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------
@dataclass
class CampaignReport:
    """The JSON-serialisable result of one campaign."""

    master_seed: int
    count: int
    families: Dict[str, int]
    divergences: List[Dict[str, Any]]
    coverage: Dict[str, Dict[str, Any]]
    steered: bool
    backends: List[str]

    @property
    def ok(self) -> bool:
        return not self.divergences

    def failing_seeds(self) -> List[int]:
        return [entry["seed"] for entry in self.divergences]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "master_seed": self.master_seed,
            "count": self.count,
            "ok": self.ok,
            "families": dict(sorted(self.families.items())),
            "divergences": self.divergences,
            "failing_seeds": self.failing_seeds(),
            "coverage": self.coverage,
            "steered": self.steered,
            "backends": self.backends,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")

    @staticmethod
    def load(path: str) -> "CampaignReport":
        with open(path) as handle:
            data = json.load(handle)
        return CampaignReport(
            master_seed=data["master_seed"],
            count=data["count"],
            families=dict(data["families"]),
            divergences=list(data["divergences"]),
            coverage=dict(data["coverage"]),
            steered=bool(data["steered"]),
            backends=list(data["backends"]),
        )

    def render(self) -> str:
        lines = [
            f"campaign: {self.count} scenarios, master seed "
            f"{self.master_seed}, backends {', '.join(self.backends)}"
            + (" (steered)" if self.steered else ""),
            "families: " + ", ".join(
                f"{name}={count}"
                for name, count in sorted(self.families.items())
            ),
        ]
        for dim, entry in self.coverage.items():
            missing = entry["missing"]
            lines.append(
                f"coverage {dim:<9} {len(entry['hit']):3d}"
                f"/{len(entry['universe']):<3d} ({entry['fraction']:6.1%})"
                + (f"  missing: {', '.join(missing)}" if missing else "")
            )
        if self.divergences:
            lines.append(f"DIVERGENCES: {len(self.divergences)}")
            for entry in self.divergences:
                lines.append(
                    f"  seed {entry['seed']} ({entry['family']}): "
                    f"{entry['detail']}"
                )
            lines.append(
                "replay any failure: python -m repro.scenarios replay "
                f"--seed {self.divergences[0]['seed']}"
            )
        else:
            lines.append("no divergences")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
class CampaignRunner:
    """Drives one campaign: seed stream -> steering -> jobs -> ledger."""

    def __init__(self, config: Optional[CampaignConfig] = None) -> None:
        self.config = config or CampaignConfig()
        self.ledger = CampaignCoverage()
        self.outcomes: List[ScenarioOutcome] = []

    # -- the deterministic seed stream ---------------------------------
    def seed_for(self, index: int) -> int:
        """Scenario seed ``index`` of the master stream (stable across
        processes: pure integer arithmetic, no hashing)."""
        value = (
            self.config.seed * 1_000_003 + index * 2_654_435_761 + 12_345
        )
        return value % (2 ** 31)

    # -- steering ------------------------------------------------------
    def _score(self, spec: ScenarioSpec) -> int:
        score = 0
        for dim, predicted in spec.targets().items():
            score += len(predicted & self.ledger.unexercised(dim))
        return score

    def _select_round(
        self, start_index: int, want: int
    ) -> Tuple[List[ScenarioSpec], int]:
        """The specs to run this round and the next stream index."""
        if not self.config.steer:
            specs = [
                ScenarioSpec.from_seed(self.seed_for(i))
                for i in range(start_index, start_index + want)
            ]
            return specs, start_index + want
        pool_size = max(want, want * max(1, self.config.lookahead))
        candidates = [
            ScenarioSpec.from_seed(self.seed_for(i))
            for i in range(start_index, start_index + pool_size)
        ]
        # self-test seeds always run: scoring them to the front keeps
        # ``--mutate-seed`` meaningful under steering
        mutated = self.config.mutate_seeds
        scored = sorted(
            enumerate(candidates),
            key=lambda pair: (
                pair[1].seed not in mutated,
                -self._score(pair[1]),
                pair[0],
            ),
        )
        chosen = sorted(index for index, __ in scored[:want])
        return [candidates[i] for i in chosen], start_index + pool_size

    # -- execution -----------------------------------------------------
    def run(self) -> CampaignReport:
        config = self.config
        index = 0
        while len(self.outcomes) < config.count:
            want = min(
                config.round_size, config.count - len(self.outcomes),
            )
            specs, index = self._select_round(index, want)
            round_outcomes = fan_out(
                lambda spec: execute_scenario(spec, config), specs,
                config.workers,
            )
            # merge in seed-stream order: the ledger (and therefore
            # next round's steering) is independent of worker timing
            for outcome in round_outcomes:
                self.outcomes.append(outcome)
                self.ledger.merge_outcome(outcome.coverage)
        return self.report()

    def run_over_cluster(
        self, url: str, timeout: float = 600.0
    ) -> CampaignReport:
        """Drive the campaign against a running ``repro.cluster`` HTTP
        endpoint instead of in-process threads.

        Steering stays coordinator-side (the ledger merges in seed-
        stream order, exactly as :meth:`run`); only scenario execution
        is remote — each selected seed becomes one ``kind="scenario"``
        cluster job, and the outcome is rebuilt from the JSON result
        summary.  ``mutate_seeds`` does not travel: the cluster executes
        the honest oracle, so run self-tests with the local runner.
        """
        from repro.cluster.client import ClusterClient
        from repro.cluster.requests import ClusterJobRequest

        client = ClusterClient(url)
        config = self.config
        params: Dict[str, Any] = {"t_end": config.t_end, "h": config.h}
        if config.backends is not None:
            params["backends"] = list(config.backends)
        index = 0
        while len(self.outcomes) < config.count:
            want = min(
                config.round_size, config.count - len(self.outcomes),
            )
            specs, index = self._select_round(index, want)
            job_ids = [
                client.submit(ClusterJobRequest(
                    kind="scenario",
                    params={"seed": spec.seed, **params},
                    client="campaign", checkpoint=False,
                    name=f"scenario-{spec.seed}",
                ))
                for spec in specs
            ]
            for spec, job_id in zip(specs, job_ids):
                summary = client.result(job_id, timeout=timeout)["result"]
                outcome = ScenarioOutcome(
                    seed=int(summary.get("seed", spec.seed)),
                    family=str(summary.get("family", spec.family)),
                    ok=bool(summary.get("ok", False)),
                    detail=str(summary.get("detail", "")),
                    coverage={
                        dim: list(values)
                        for dim, values in (
                            summary.get("coverage") or {}
                        ).items()
                    },
                )
                self.outcomes.append(outcome)
                self.ledger.merge_outcome(outcome.coverage)
        return self.report()

    def report(self) -> CampaignReport:
        config = self.config
        return CampaignReport(
            master_seed=config.seed,
            count=len(self.outcomes),
            families=dict(Counter(o.family for o in self.outcomes)),
            divergences=[
                o.to_dict() for o in self.outcomes if not o.ok
            ],
            coverage=self.ledger.as_dict(),
            steered=config.steer,
            backends=config.resolved_backends(),
        )


def replay(
    seed: int, config: Optional[CampaignConfig] = None
) -> ScenarioOutcome:
    """Re-execute exactly the scenario a campaign ran for ``seed``."""
    return execute_scenario(
        ScenarioSpec.from_seed(seed), config or CampaignConfig(),
    )
