"""Vectorised batch simulation: N instances of one plan, one state matrix.

The ROADMAP's scaling target for simulation workloads is running *many
model instances at once* — parameter sweeps, Monte-Carlo studies,
per-user scenario fan-out.  Looping N interpreters is O(N) Python
dispatch per solver stage; this backend instead compiles the shared
:class:`~repro.core.plan.ExecutionPlan` (via the codegen emitters with
:class:`~repro.codegen.common.NumpyLang`) into ONE vectorised program
over a stacked ``(n, n_state)`` NumPy matrix, so each solver stage is a
single sweep of array expressions regardless of N.

Determinism: fixed-step solvers (``supports_batch = True``) perform only
element-wise state arithmetic, and every emitted NumPy expression applies
the same IEEE-754 double operations per row that the scalar interpreter
applies per instance — so batched trajectories are *bitwise identical* to
N sequential runs (for blocks whose interpreter and emitter share the
expression structure; transcendental-heavy blocks may differ in the last
ulp due to SIMD libm variants).

Swept parameters become per-instance vectors: ``sweeps={"pid.kp":
values}`` replaces the block parameter with a :class:`SweepVar` whose
``symbol`` survives lowering (``NumpyLang.num`` emits the symbol instead
of folding a literal), ending up as one row of the parameter matrix
``P``.  If an emitter does arithmetic on the parameter *before* calling
``num`` (e.g. a Sine's ``2*pi*f``), the symbol is folded away — the
backend detects this and raises :class:`BatchError` rather than silently
running every instance with the base value.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence,
    Tuple,
)

import numpy as np

from repro.core.network import FlatNetwork
from repro.core.solverbinding import SolverBinding
from repro.core.streamer import Streamer

if TYPE_CHECKING:  # pragma: no cover
    from repro.dataflow.diagram import Diagram


class BatchError(Exception):
    """Raised on unbatchable models or bad sweep specifications."""


class SweepVar(float):
    """A float parameter that lowers to a per-instance symbol.

    Behaves as its base value everywhere (it *is* a float), but carries
    the swept ``values`` and the ``symbol`` the NumPy backend emits, so
    the generated program reads ``P[j]`` — a row of per-instance values —
    where a literal would otherwise be folded.
    """

    def __new__(cls, base: float, values: np.ndarray, symbol: str):
        obj = super().__new__(cls, base)
        obj.values = np.asarray(values, dtype=float)
        obj.symbol = symbol
        return obj


@dataclass(frozen=True)
class BatchProgram:
    """The reusable compile artefact of the batch backend.

    Everything derived from the *diagram structure* alone — the lowered
    model (plan + per-block code), the rendered vectorised source and
    the sorted sweep-path order that fixes the parameter-matrix row
    layout.  Instance count, sweep *values*, solver and step size are
    all run-time inputs, so one program serves any number of
    :class:`BatchSimulator` instantiations; the service layer's
    :class:`~repro.service.cache.PlanCache` stores these keyed by
    :meth:`ExecutionPlan.fingerprint` to make re-submission skip the
    whole lower/render/exec pipeline.
    """

    model: Any  # LoweredModel (kept Any to avoid a codegen import cycle)
    source: str
    sweep_paths: Tuple[str, ...]
    #: optional second lowering with :class:`~repro.codegen.common.
    #: CBatchLang` (``compile_batch_program(..., native=True)``) — the
    #: native-batch backend renders its N-instance C kernel from this;
    #: None means the program can only run on the NumPy path
    native_model: Any = None

    @property
    def plan(self):
        return self.model.plan

    @property
    def code(self):
        """Compiled code object for :attr:`source`, cached so repeated
        instantiations (the warm-cache path) skip Python compilation."""
        cached = self.__dict__.get("_code")
        if cached is None:
            cached = compile(self.source, "<batch-program>", "exec")
            object.__setattr__(self, "_code", cached)
        return cached

    def fingerprint(self, extra: Optional[Mapping[str, Any]] = None) -> str:
        """Content hash delegating to the underlying plan (plus sweep
        paths and record labels, which also shaped the source)."""
        merged: Dict[str, Any] = {
            "batch.sweep_paths": self.sweep_paths,
            "batch.records": tuple(
                label for label, __ in self.model.records
            ),
        }
        merged.update(extra or {})
        return self.plan.fingerprint(extra=merged)


@dataclass
class BatchChunk:
    """One streamed slice of a chunked batch run."""

    #: recorded times in this chunk, shape ``(T_chunk,)``
    t: np.ndarray
    #: label -> ``(T_chunk, n)`` series
    series: Dict[str, np.ndarray]
    #: simulation time reached at the end of the chunk
    t_now: float
    #: cumulative minor steps taken so far
    steps: int
    #: True for the last chunk of the run
    final: bool
    #: final ``(n, n_state)`` state matrix (last chunk only, else None)
    final_states: Optional[np.ndarray] = None
    stats: Dict[str, Any] = field(default_factory=dict)
    #: :meth:`BatchSimulator.resume_point` cut at this chunk's boundary
    #: (non-final chunks only) — feed back as ``run_chunked(resume=...)``
    #: to continue the run bitwise from here (resilience layer)
    resume: Optional[Dict[str, Any]] = None


@dataclass
class BatchResult:
    """Recorded trajectories of one batch run."""

    #: recorded times, shape ``(T,)``
    t: np.ndarray
    #: label -> ``(T, n)`` series (row = record instant, column = instance)
    series: Dict[str, np.ndarray]
    #: final state matrix, shape ``(n, n_state)``
    final_states: np.ndarray
    n: int
    stats: Dict[str, Any] = field(default_factory=dict)

    def instance(self, i: int) -> Dict[str, np.ndarray]:
        """The per-instance view: label -> ``(T,)`` trajectory."""
        out = {"t": self.t}
        for label, matrix in self.series.items():
            out[label] = matrix[:, i]
        return out


_STATE_REF = re.compile(r"\bx\[(\d+)\]")


def _vectorise(expr: str) -> str:
    """Rewrite scalar state refs ``x[i]`` to column refs ``x[:, i]``."""
    return _STATE_REF.sub(r"x[:, \1]", expr)


def _render_program(model: Any) -> str:
    """Render the vectorised program source (a ``_build`` factory)."""
    output_lines: List[str] = []
    deriv_lines: List[str] = []
    held_inits: List[Tuple[str, float]] = []
    held_names: List[str] = []
    sync_lines: List[str] = []
    deriv_index = 0
    for node in model.plan.nodes:
        block_code = model.code[node.index]
        output_lines.extend(
            _vectorise(line) for line in block_code.output_lines
        )
        for name, value in block_code.held_vars:
            held_inits.append((name, float(value)))
            held_names.append(name)
        sync_lines.extend(
            _vectorise(line) for line in block_code.sync_lines
        )
        for expr in block_code.deriv_exprs:
            deriv_lines.append(
                f"dx[:, {deriv_index}] = {_vectorise(expr)}"
            )
            deriv_index += 1

    signals = sorted({line.split(" = ")[0] for line in output_lines})
    sig_dict = ", ".join(f"{s!r}: {s}" for s in signals)
    unpack = [f"{s} = sig[{s!r}]" for s in signals]

    lines: List[str] = [
        '"""Auto-generated by repro.core.batch -- do not edit."""',
        "",
        "",
        "def _build(n, P):",
    ]
    for name, value in held_inits:
        lines.append(f"    {name} = np.full(n, {value!r})")
    lines.append("")
    lines.append("    def outputs(t, x):")
    for line in output_lines:
        lines.append(f"        {line}")
    lines.append(f"        return {{{sig_dict}}}")
    lines.append("")
    lines.append("    def rhs(t, x):")
    lines.append("        sig = outputs(t, x)")
    for line in unpack:
        lines.append(f"        {line}")
    lines.append("        dx = np.zeros_like(x)")
    for line in deriv_lines:
        lines.append(f"        {line}")
    lines.append("        return dx")
    lines.append("")
    lines.append("    def sync(t, x):")
    if held_names:
        lines.append(f"        nonlocal {', '.join(held_names)}")
    if sync_lines:
        lines.append("        sig = outputs(t, x)")
        for line in unpack:
            lines.append(f"        {line}")
        for line in sync_lines:
            lines.append(f"        {line}")
    if not held_names and not sync_lines:
        lines.append("        pass")
    lines.append("")
    # held-state accessors: the sample-and-hold registers live in this
    # closure, so checkpoint/resume (repro.resilience) needs explicit
    # get/set hooks to carry them across a process boundary
    lines.append("    def get_held():")
    if held_names:
        lines.append(
            "        return {"
            + ", ".join(f"{n!r}: np.array({n})" for n in held_names)
            + "}"
        )
    else:
        lines.append("        return {}")
    lines.append("")
    lines.append("    def set_held(values):")
    if held_names:
        lines.append(f"        nonlocal {', '.join(held_names)}")
        for name in held_names:
            lines.append(
                f"        {name} = np.asarray("
                f"values[{name!r}], dtype=float).copy()"
            )
    else:
        lines.append("        pass")
    lines.append("")
    lines.append("    return outputs, rhs, sync, get_held, set_held")
    return "\n".join(lines) + "\n"


_shared_program_cache = None
_batch_cache_metrics = None

#: default LRU capacity of :func:`shared_program_cache`
#: (``$REPRO_BATCH_CACHE_CAP`` overrides)
DEFAULT_PROGRAM_CACHE_CAP = 64


def batch_cache_metrics():
    """The metrics registry the shared program cache reports into
    (``batch.cache_evicted`` plus the standard ``cache.*`` counters)."""
    global _batch_cache_metrics
    if _batch_cache_metrics is None:
        from repro.service.telemetry import MetricsRegistry

        _batch_cache_metrics = MetricsRegistry()
    return _batch_cache_metrics


def shared_program_cache():
    """The process-wide cache of compiled :class:`BatchProgram` artefacts.

    Keyed by the O0 plan fingerprint plus records/sweeps/opt extras (see
    :func:`batch_program_cache_key`), so two :class:`BatchSimulator`
    instances over the same plan — even over independently built but
    structurally identical diagrams — compile once and share the
    program.  Lazily imports the service-layer cache to keep
    ``repro.core`` importable without ``repro.service``.

    LRU-bounded: long campaigns churn through thousands of distinct
    scenario plans, so residency is capped
    (``$REPRO_BATCH_CACHE_CAP``, default
    :data:`DEFAULT_PROGRAM_CACHE_CAP`) and every eviction increments
    the ``batch.cache_evicted`` counter on :func:`batch_cache_metrics`.
    """
    global _shared_program_cache
    if _shared_program_cache is None:
        from repro.service.cache import PlanCache

        raw = os.environ.get("REPRO_BATCH_CACHE_CAP", "").strip()
        try:
            capacity = int(raw) if raw else DEFAULT_PROGRAM_CACHE_CAP
        except ValueError:
            capacity = DEFAULT_PROGRAM_CACHE_CAP
        registry = batch_cache_metrics()
        _shared_program_cache = PlanCache(
            capacity=max(1, capacity),
            metrics=registry,
            on_evict=lambda key: registry.counter(
                "batch.cache_evicted"
            ).inc(),
        )
    return _shared_program_cache


def reset_shared_program_cache() -> None:
    """Drop the process-wide program cache (tests / cap reconfig)."""
    global _shared_program_cache
    _shared_program_cache = None


def batch_program_cache_key(
    diagram: Diagram,
    records: Optional[List[str]] = None,
    sweep_paths: Sequence[str] = (),
    opt_config=None,
    native: bool = False,
) -> str:
    """Content key identifying one compiled batch program.

    Hashes the *unoptimized* plan (parameter values included — folded
    constants bake them into the source) plus everything else that
    shaped the emitted program: record labels, sweep-path order and the
    optimizer configuration.  Distinct opt levels therefore never serve
    each other's artefacts.
    """
    diagram.finalise()
    network = FlatNetwork([diagram])
    extra: Dict[str, Any] = {
        "backend": "batch-program",
        "batch.records": tuple(records) if records else "<default>",
        "batch.sweep_paths": tuple(sorted(sweep_paths)),
    }
    # native-lowered programs carry an extra LoweredModel; they must
    # never serve (or be served by) NumPy-only compilations
    if native:
        extra["batch.native"] = True
    if opt_config is not None and opt_config.is_active:
        extra["opt"] = opt_config.cache_token()
    return network.plan().fingerprint(extra=extra)


def compile_batch_program(
    diagram: Diagram,
    records: Optional[List[str]] = None,
    sweep_paths: Sequence[str] = (),
    opt_level: int = 0,
    opt_config=None,
    native: bool = False,
) -> BatchProgram:
    """Lower ``diagram`` into a reusable :class:`BatchProgram`.

    This is the expensive half of :class:`BatchSimulator` — flatten,
    plan, emit NumPy expressions, render the vectorised source — pulled
    out so callers (notably the service layer's plan cache) can compile
    once and instantiate many simulators.  ``sweep_paths`` fixes which
    block parameters become per-instance matrix rows; their *values*
    arrive later, at simulator construction.

    ``opt_level`` / ``opt_config`` run the :mod:`repro.core.opt` pass
    pipeline before emission.  Swept parameters are automatically
    protected from rewriting (their ``SweepVar`` symbols must survive to
    the emitted source).

    ``native=True`` additionally lowers the diagram with
    :class:`~repro.codegen.common.CBatchLang` and attaches the result as
    :attr:`BatchProgram.native_model`, which is what the native-batch
    backend renders its C kernel from.  An unlowerable model (no C
    emitter path) leaves ``native_model`` None and the simulator falls
    back to the NumPy program.
    """
    ordered = tuple(sorted(sweep_paths))
    items: List[Tuple[Streamer, str, float, SweepVar]] = []
    for j, path in enumerate(ordered):
        block, key = _resolve_param(diagram, path)
        base = float(block.params[key])
        var = SweepVar(base, np.asarray([base]), f"P[{j}]")
        items.append((block, key, base, var))
        block.params[key] = var
    native_model = None
    try:
        from repro.codegen.common import (
            CBatchLang, CodegenError, NumpyLang, lower,
        )

        model = lower(
            diagram, NumpyLang(), records,
            opt_level=opt_level, opt_config=opt_config,
        )
        if native:
            try:
                native_model = lower(
                    diagram, CBatchLang(), records,
                    opt_level=opt_level, opt_config=opt_config,
                )
            except CodegenError:
                native_model = None  # NumPy-only program; backend demotes
    finally:
        for block, key, base, __ in items:
            block.params[key] = base
    source = _render_program(model)
    for (block, key, __, var), path in zip(items, ordered):
        if var.symbol not in source:
            raise BatchError(
                f"sweep {path!r}: the emitter for "
                f"{type(block).__name__} folds {key!r} into a "
                "derived literal, so the sweep would be silently "
                "ignored; sweep a parameter the emitter passes "
                "through verbatim"
            )
    return BatchProgram(
        model=model, source=source, sweep_paths=ordered,
        native_model=native_model,
    )


def merge_chunks(chunks: Sequence[BatchChunk], n: int) -> BatchResult:
    """Stitch streamed :class:`BatchChunk` slices back into one
    :class:`BatchResult` (the last chunk must be the final one)."""
    if not chunks or not chunks[-1].final:
        raise BatchError("chunk stream ended without a final chunk")
    last = chunks[-1]
    labels = list(last.series)
    times = np.concatenate([c.t for c in chunks]) if chunks else np.zeros(0)
    series = {
        label: (
            np.concatenate([c.series[label] for c in chunks])
            if any(len(c.t) for c in chunks) else np.zeros((0, n))
        )
        for label in labels
    }
    return BatchResult(
        t=times,
        series=series,
        final_states=last.final_states,
        n=n,
        stats=dict(last.stats),
    )


def _resolve_param(diagram: Diagram, path: str) -> Tuple[Streamer, str]:
    parts = path.split(".")
    if len(parts) < 2:
        raise BatchError(
            f"sweep path needs at least 'block.param': {path!r}"
        )
    node: Streamer = diagram
    for name in parts[:-1]:
        try:
            node = node.sub(name)
        except Exception:
            raise BatchError(
                f"sweep {path!r}: no block {name!r} under {node.path()}"
            ) from None
    key = parts[-1]
    if key not in node.params:
        raise BatchError(
            f"sweep {path!r}: block {node.path()} has no parameter "
            f"{key!r} (has: {sorted(node.params)})"
        )
    return node, key


def batch_program(
    diagram: Diagram,
    records: Optional[List[str]] = None,
    sweep_paths: Sequence[str] = (),
    opt_level: int = 0,
    opt_config=None,
    native: bool = False,
    cache: Any = None,
) -> BatchProgram:
    """:func:`compile_batch_program` through a program cache: the
    process-wide :func:`shared_program_cache` (``cache=None``), a
    caller's cache, or none (``cache=False``)."""
    from repro.core.opt import resolve_config

    config = resolve_config(opt_level, opt_config)
    sweep_paths = tuple(sorted(sweep_paths))

    def compile_program() -> BatchProgram:
        return compile_batch_program(
            diagram, records=records, sweep_paths=sweep_paths,
            opt_config=config, native=native,
        )

    if cache is False:
        return compile_program()
    store = shared_program_cache() if cache is None else cache
    key = batch_program_cache_key(
        diagram, records=records, sweep_paths=sweep_paths,
        opt_config=config, native=native,
    )
    return store.get_or_compile(key, compile_program)


class BatchSimulator:
    """Integrate N instances of one diagram as a single state matrix.

    Parameters
    ----------
    diagram:
        The dataflow diagram (codegen-supported blocks only).
    n:
        Number of instances.
    solver:
        A fixed-step solver name/instance (``supports_batch`` required).
    h:
        Default minor step.
    records:
        ``"block.port"`` paths to record (default: Scope inputs).
    sweeps:
        ``{"block.param": values}`` — per-instance parameter vectors,
        each of length ``n``.
    x0:
        Optional ``(n, n_state)`` initial-state override (for sweeping
        initial conditions, which live outside the RHS expressions).
    program:
        Optional precompiled :class:`BatchProgram` (e.g. from a warm
        :class:`~repro.service.cache.PlanCache` entry).  When given, the
        whole lower/render pipeline is skipped — only the cheap
        per-instantiation ``exec`` of the rendered ``_build`` factory
        runs — and ``diagram``/``records`` are ignored.  The ``sweeps``
        keys must match the paths the program was compiled for.
    opt_level / opt_config:
        Plan-optimizer configuration (:mod:`repro.core.opt`) applied
        while compiling the program.  Ignored when ``program`` is given.
    cache:
        Where to look up/share the compiled program when ``program`` is
        not given: ``None`` (default) uses the process-wide
        :func:`shared_program_cache`; a
        :class:`~repro.service.cache.PlanCache` uses that instance;
        ``False`` compiles privately (the pre-cache behaviour).
    backend:
        ``"batch"`` (default) runs the vectorised NumPy program;
        ``"native-batch"`` builds/loads the N-instance C kernel
        (:mod:`repro.core.backend.nativebatch`) and runs every chunk
        through it.  When the kernel cannot be built (no compiler,
        non-kernel solver, unlowerable model) the simulator *falls
        back* to the NumPy program — check :attr:`backend_name` /
        :attr:`backend_fallback_reason`; ``metrics`` (when given)
        counts the demotion under ``backend.fallback``.
    shards:
        Instance-axis shard count for the native kernel (None: one per
        core, capped).  Sharding never changes results — shards are
        contiguous row ranges of independent instances.
    native_cache_dir:
        Native artifact directory override (None: the process default).
    metrics:
        Optional :class:`~repro.service.telemetry.MetricsRegistry`
        receiving ``backend.fallback`` counters on native demotion.
    """

    def __init__(
        self,
        diagram: Optional[Diagram] = None,
        n: int = 1,
        solver: Any = "rk4",
        h: float = 1e-3,
        records: Optional[List[str]] = None,
        sweeps: Optional[Mapping[str, Sequence[float]]] = None,
        x0: Optional[np.ndarray] = None,
        program: Optional[BatchProgram] = None,
        opt_level: int = 0,
        opt_config=None,
        cache: Any = None,
        backend: Optional[str] = None,
        shards: Optional[int] = None,
        native_cache_dir: Any = None,
        metrics: Any = None,
    ) -> None:
        if n < 1:
            raise BatchError(f"need at least one instance, got {n}")
        if h <= 0:
            raise BatchError(f"non-positive step {h}")
        self.backend_requested = backend or "batch"
        if self.backend_requested not in ("batch", "native-batch"):
            raise BatchError(
                f"unknown batch backend {backend!r}; "
                "use 'batch' or 'native-batch'"
            )
        self.n = int(n)
        self.h = float(h)
        self.binding = SolverBinding(solver)
        if not self.binding.solver.supports_batch:
            raise BatchError(
                f"solver {self.binding.strategy_name!r} does not support "
                "batched state matrices (adaptive/implicit solvers make "
                "scalar accept/reject decisions that would couple "
                "instances); use a fixed-step solver"
            )

        sweep_values: Dict[str, np.ndarray] = {}
        for path, values in sorted((sweeps or {}).items()):
            values = np.asarray(values, dtype=float)
            if values.shape != (self.n,):
                raise BatchError(
                    f"sweep {path!r}: expected {self.n} values, got "
                    f"shape {values.shape}"
                )
            sweep_values[path] = values

        native_wanted = self.backend_requested == "native-batch"
        if program is None:
            if diagram is None:
                raise BatchError(
                    "need either a diagram or a precompiled program"
                )
            program = batch_program(
                diagram, records=records, sweep_paths=tuple(sweep_values),
                opt_level=opt_level, opt_config=opt_config,
                native=native_wanted, cache=cache,
            )
        elif tuple(sorted(sweep_values)) != program.sweep_paths:
            raise BatchError(
                f"sweep paths {tuple(sorted(sweep_values))} do not match "
                f"the precompiled program's {program.sweep_paths}"
            )

        self.program = program
        self.model = program.model
        self.plan = program.model.plan
        self.source = program.source
        self.sweep_paths = list(program.sweep_paths)
        self._P = (
            np.stack([sweep_values[path] for path in program.sweep_paths])
            if program.sweep_paths else np.zeros((0, self.n))
        )
        namespace: Dict[str, Any] = {"np": np}
        exec(program.code, namespace)
        (
            self._outputs, self._rhs, self._sync,
            self._get_held, self._set_held,
        ) = namespace["_build"](self.n, self._P)

        n_state = len(self.model.initial_state)
        if x0 is None:
            row = np.asarray(self.model.initial_state, dtype=float)
            self.x0 = np.tile(row, (self.n, 1))
        else:
            self.x0 = np.ascontiguousarray(x0, dtype=float)
            if self.x0.shape != (self.n, n_state):
                raise BatchError(
                    f"x0 must have shape ({self.n}, {n_state}), got "
                    f"{self.x0.shape}"
                )

        self._native = None
        self.backend_fallback_reason: Optional[str] = None
        if native_wanted:
            from repro.core.backend.base import (
                KERNEL_SOLVERS, BackendUnavailable,
            )
            from repro.core.backend.nativebatch import NativeBatchKernel

            solver_name = self.binding.strategy_name
            try:
                if solver_name not in KERNEL_SOLVERS:
                    raise BackendUnavailable(
                        f"solver {solver_name!r} has no native batch "
                        f"stages (kernel backends support "
                        f"{KERNEL_SOLVERS})"
                    )
                self._native = NativeBatchKernel(
                    program, solver_name, self.n, self._P,
                    shards=shards, cache_dir=native_cache_dir,
                )
            except BackendUnavailable as exc:
                self.backend_fallback_reason = str(exc)
                if metrics is not None:
                    metrics.counter("backend.fallback").inc()
                    metrics.counter("backend.fallback.native-batch").inc()
        self.backend_name = (
            "native-batch" if self._native is not None else "batch"
        )
        self.shards = (
            self._native.shards if self._native is not None else None
        )

    # ------------------------------------------------------------------
    # execution-backend adapter
    # ------------------------------------------------------------------
    def as_program(self):
        """This simulator behind the uniform
        :class:`~repro.core.backend.base.BackendProgram` surface (the
        same adapter the ``batch`` registry entry returns)."""
        from repro.core.backend.batchentry import BatchProgramAdapter

        return BatchProgramAdapter(self)

    # ------------------------------------------------------------------
    # checkpointing hooks (resilience layer)
    # ------------------------------------------------------------------
    def held_state(self) -> Dict[str, np.ndarray]:
        """The generated program's sample-and-hold registers, by name."""
        if self._native is not None:
            return self._native.held_state()
        return self._get_held()

    def restore_held_state(self, values: Mapping[str, Any]) -> None:
        """Re-inject registers captured by :meth:`held_state`."""
        if self._native is not None:
            self._native.restore_held(values)
            return
        self._set_held(values)

    def resume_point(
        self, t: float, x: np.ndarray, step: int, minor_steps: int
    ) -> Dict[str, Any]:
        """Package a chunk boundary as a :meth:`run_chunked` ``resume``
        argument (plain data: safe for the snapshot codec)."""
        return {
            "t": float(t),
            "x": np.asarray(x, dtype=float).copy(),
            "step": int(step),
            "minor_steps": int(minor_steps),
            "held": self.held_state(),
        }

    def run_chunked(
        self,
        t_end: float,
        h: Optional[float] = None,
        record_every: int = 1,
        chunk_steps: Optional[int] = None,
        resume: Optional[Mapping[str, Any]] = None,
    ):
        """Integrate to ``t_end``, yielding a :class:`BatchChunk` every
        ``chunk_steps`` minor steps (one final chunk when omitted).

        The step/record/sync sequence is exactly :meth:`run`'s — chunking
        only decides when accumulated records are handed out — so the
        concatenation of the chunks is bitwise identical to an unchunked
        run.  Between chunks a caller may abort, stream partials, or
        check deadlines; this is the cooperative cancellation point the
        service layer's job engine relies on.

        ``resume`` (from :meth:`resume_point`, captured at a chunk
        boundary) continues a previous run mid-stream: the state matrix,
        clock, step counters and held registers are re-injected and the
        already-run ``sync`` is *not* repeated, so the chunks yielded
        after a resume are bitwise the chunks the uninterrupted run
        would have yielded.
        """
        h = self.h if h is None else float(h)
        if h <= 0:
            raise BatchError(f"non-positive step {h}")
        if chunk_steps is not None and chunk_steps < 1:
            raise BatchError(f"chunk_steps must be >= 1: {chunk_steps}")
        if self._native is not None:
            yield from self._run_chunked_native(
                t_end, h, record_every, chunk_steps, resume
            )
            return
        if resume is not None:
            x = np.asarray(resume["x"], dtype=float).copy()
            if x.shape != self.x0.shape:
                raise BatchError(
                    f"resume state shape {x.shape} != {self.x0.shape}"
                )
            t = float(resume["t"])
            if resume.get("held") is not None:
                self.restore_held_state(resume["held"])
        else:
            x = self.x0.copy()
            t = 0.0
        times: List[float] = []
        recorded: Dict[str, List[np.ndarray]] = {
            label: [] for label, __ in self.model.records
        }

        def snapshot(t: float, x: np.ndarray) -> None:
            sig = self._outputs(t, x)
            times.append(t)
            for label, signal in self.model.records:
                value = np.asarray(sig[signal], dtype=float)
                if value.ndim == 0:
                    value = np.full(self.n, float(value))
                recorded[label].append(value.copy())

        def flush(t_now: float, steps: int, final: bool) -> BatchChunk:
            chunk = BatchChunk(
                t=np.asarray(times, dtype=float),
                series={
                    label: np.stack(values) if values
                    else np.zeros((0, self.n))
                    for label, values in recorded.items()
                },
                t_now=t_now,
                steps=steps,
                final=final,
            )
            times.clear()
            for values in recorded.values():
                values.clear()
            return chunk

        if resume is not None:
            step = int(resume["step"])
            minor_steps = int(resume["minor_steps"])
            # the sync at this point in time already ran before the
            # resume point was cut; repeating it would double-advance
            # sample-and-hold registers
        else:
            step = 0
            minor_steps = 0
            self._sync(t, x)
        while t < t_end - 1e-12:
            hh = min(h, t_end - t)
            if step % record_every == 0:
                snapshot(t, x)
            result = self.binding.step(self._rhs, t, x, hh)
            x = result.y
            t = result.t
            minor_steps += 1
            step += 1
            self._sync(t, x)
            if (
                chunk_steps is not None
                and minor_steps % chunk_steps == 0
                and t < t_end - 1e-12
            ):
                partial = flush(t, minor_steps, final=False)
                partial.resume = self.resume_point(t, x, step, minor_steps)
                yield partial
        snapshot(t, x)

        chunk = flush(t, minor_steps, final=True)
        chunk.final_states = x
        chunk.stats = {
            "instances": self.n,
            "minor_steps": minor_steps,
            "states_per_instance": x.shape[1],
            "solver": self.binding.strategy_name,
            "sweeps": list(self.sweep_paths),
        }
        yield chunk

    def _run_chunked_native(
        self,
        t_end: float,
        h: float,
        record_every: int,
        chunk_steps: Optional[int],
        resume: Optional[Mapping[str, Any]],
    ):
        """:meth:`run_chunked` on the C kernel.  The whole step/record/
        sync loop — including the chunk-cut and resume arithmetic — runs
        inside :func:`batch_run`; Python only sizes record buffers and
        packages chunks, so per-chunk overhead is O(records), not
        O(steps)."""
        kernel = self._native
        if resume is not None:
            x = np.array(resume["x"], dtype=float, order="C")
            if x.shape != self.x0.shape:
                raise BatchError(
                    f"resume state shape {x.shape} != {self.x0.shape}"
                )
            t = float(resume["t"])
            if resume.get("held") is not None:
                kernel.restore_held(resume["held"])
            step = int(resume["step"])
            minor_steps = int(resume["minor_steps"])
            # the pre-resume sync already ran inside the kernel before
            # the resume point was cut; cold=False skips repeating it
            cold = False
        else:
            x = np.ascontiguousarray(self.x0, dtype=float).copy()
            t = 0.0
            step = 0
            minor_steps = 0
            cold = True
        labels = [label for label, __ in self.model.records]
        done = False
        while not done:
            if chunk_steps is not None:
                max_steps = chunk_steps - (minor_steps % chunk_steps)
            else:
                max_steps = 0
            t, step, done, rec_t, rec_vals, taken = kernel.run_segment(
                t, t_end, h, record_every, step, max_steps, cold, x
            )
            cold = False
            minor_steps += taken
            chunk = BatchChunk(
                t=rec_t.copy(),
                series={
                    label: np.ascontiguousarray(rec_vals[:, :, i])
                    for i, label in enumerate(labels)
                },
                t_now=t,
                steps=minor_steps,
                final=done,
            )
            if done:
                chunk.final_states = x
                chunk.stats = {
                    "instances": self.n,
                    "minor_steps": minor_steps,
                    "states_per_instance": x.shape[1],
                    "solver": self.binding.strategy_name,
                    "sweeps": list(self.sweep_paths),
                    "backend": "native-batch",
                    "shards": kernel.shards,
                    "artifact": str(kernel.so_path),
                    "artifact_cache_hit": kernel.cache_hit,
                }
            else:
                chunk.resume = self.resume_point(t, x, step, minor_steps)
            yield chunk

    def run(
        self,
        t_end: float,
        h: Optional[float] = None,
        record_every: int = 1,
    ) -> BatchResult:
        """Integrate all instances to ``t_end`` with fixed step ``h``."""
        chunks = list(
            self.run_chunked(t_end, h=h, record_every=record_every)
        )
        return merge_chunks(chunks, self.n)


def simulate_sequential(
    diagram_factory: Callable[[], Diagram],
    n: int,
    t_end: float,
    solver: Any = "rk4",
    h: float = 1e-3,
    records: Optional[List[str]] = None,
    sweeps: Optional[Mapping[str, Sequence[float]]] = None,
    record_every: int = 1,
) -> BatchResult:
    """Reference implementation: N independent interpreter runs.

    Each instance gets a fresh diagram from ``diagram_factory`` (with its
    swept parameter values applied as plain floats), its own
    :class:`FlatNetwork`, and the same fixed-step loop the batch backend
    uses — the bitwise baseline the batched backend is checked against,
    and the N-Python-loops baseline bench S4 measures against.
    """
    if n < 1:
        raise BatchError(f"need at least one instance, got {n}")
    sweep_arrays = {
        path: np.asarray(values, dtype=float)
        for path, values in (sweeps or {}).items()
    }
    for path, values in sweep_arrays.items():
        if values.shape != (n,):
            raise BatchError(
                f"sweep {path!r}: expected {n} values, got shape "
                f"{values.shape}"
            )

    times: List[float] = []
    series: Dict[str, List[List[float]]] = {}
    finals: List[np.ndarray] = []
    minor_steps = 0
    for i in range(n):
        diagram = diagram_factory()
        for path, values in sweep_arrays.items():
            block, key = _resolve_param(diagram, path)
            block.params[key] = float(values[i])
        diagram.finalise()
        network = FlatNetwork([diagram])
        record_paths = list(records or [])
        if not record_paths:
            for leaf in network.order:
                if type(leaf).__name__ == "Scope":
                    for port in leaf.dports.values():
                        record_paths.append(f"{leaf.name}.{port.name}")
        ports = {
            path: diagram.port_at(path) for path in record_paths
        }
        if i == 0:
            series = {path: [] for path in record_paths}
        binding = SolverBinding(solver)
        if not binding.solver.supports_batch:
            raise BatchError(
                f"solver {binding.strategy_name!r} is not a fixed-step "
                "solver; the sequential reference mirrors the batch loop"
            )
        x = network.initial_state()
        t = 0.0
        rows: Dict[str, List[float]] = {path: [] for path in record_paths}
        instance_times: List[float] = []

        def snapshot(t: float, x: np.ndarray) -> None:
            network.evaluate(t, x)
            instance_times.append(t)
            for path, port in ports.items():
                rows[path].append(port.read_scalar())

        step = 0
        for leaf in network.order:
            leaf.on_sync(t)
        while t < t_end - 1e-12:
            hh = min(h, t_end - t)
            if step % record_every == 0:
                snapshot(t, x)
            result = binding.step(network.rhs, t, x, hh)
            x = result.y
            t = result.t
            minor_steps += 1
            step += 1
            for leaf in network.order:
                leaf.on_sync(t)
        snapshot(t, x)

        if i == 0:
            times = instance_times
        for path in record_paths:
            series[path].append(rows[path])
        finals.append(x)

    return BatchResult(
        t=np.asarray(times, dtype=float),
        series={
            path: np.asarray(columns, dtype=float).T
            for path, columns in series.items()
        },
        final_states=np.stack(finals) if finals else np.zeros((0, 0)),
        n=n,
        stats={
            "instances": n,
            "minor_steps": minor_steps,
            "solver": str(solver),
            "sweeps": sorted(sweep_arrays),
        },
    )
