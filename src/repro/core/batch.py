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
ulp due to SIMD libm variants).  Sampled blocks are no exception: their
sync is the one statement form every target renders
(:attr:`~repro.codegen.common.BlockCode.sync_stmts`), here a masked
walk in which each instance takes the scalar ``SampledBlock.on_sync``
comparisons and clock additions.

Swept parameters become per-instance vectors: ``sweeps={"pid.kp":
values}`` replaces the block parameter with a :class:`SweepVar` whose
``symbol`` survives lowering (``NumpyLang.num`` emits the symbol instead
of folding a literal), ending up as one row of the parameter matrix
``P``.  If an emitter does arithmetic on the parameter *before* calling
``num`` (e.g. a Sine's ``2*pi*f``), the symbol is folded away — the
backend detects this and raises :class:`BatchError` rather than silently
running every instance with the base value.

The ``native-batch`` backend runs the same plan as an N-instance C
kernel (:mod:`repro.core.backend.nativebatch`).  Its program holds the
C lowering alone; the NumPy program of the same diagram is compiled only
when a native simulator is about to run it (a demotion, or ``rhs``).
Either way one run writes its records once, into one buffer sized for
the whole run, and its chunks are views of that buffer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence,
    Tuple,
)

import numpy as np

from repro.core import loop
from repro.core.network import FlatNetwork
from repro.core.plan import default_records
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
    """The reusable compile artefact of the batch backends.

    Everything derived from the *diagram structure* alone — one lowered
    model (plan + per-block code) and the sorted sweep-path order that
    fixes the parameter-matrix row layout.  A NumPy program
    (:class:`~repro.codegen.common.NumpyLang`) also carries its rendered
    vectorised :attr:`source`; a :attr:`native` one is lowered with
    :class:`~repro.codegen.common.CBatchLang`, and the native-batch
    backend renders its N-instance C kernel from it.  Instance count,
    sweep *values*, solver and step size are all run-time inputs, so one
    program serves any number of :class:`BatchSimulator`
    instantiations; the service layer's
    :class:`~repro.service.cache.PlanCache` stores these keyed by
    :meth:`ExecutionPlan.fingerprint` to make re-submission skip the
    whole lower/render/exec pipeline.
    """

    model: Any  # LoweredModel (kept Any to avoid a codegen import cycle)
    sweep_paths: Tuple[str, ...]
    #: the rendered ``_build`` factory of a NumPy program (None for a
    #: native program, which has no NumPy source)
    source: Optional[str] = None

    @property
    def native(self) -> bool:
        """True for the C lowering of the native-batch kernel."""
        return self.source is None

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
    """One streamed slice of a chunked batch run; its ``t`` and
    ``series`` are views of the run's one record buffer."""

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
    from repro.codegen.common import NumpyLang, kernel_tables

    tables = kernel_tables(model)
    held_names = [name for name, __ in tables["held"]]
    output_lines = [_vectorise(line) for line in tables["output_lines"]]
    signals = ", ".join(
        sorted({line.split(" = ")[0] for line in output_lines})
    )
    unpack = [f"{signals}, = signals(t, x)"] if signals else []
    row = ", ".join(_vectorise(expr) for expr in tables["record_exprs"])

    lines: List[str] = [
        '"""Auto-generated by repro.core.batch -- do not edit."""',
        "",
        "",
        "def _build(n, P):",
    ]
    lang = NumpyLang()
    for name, value in tables["held"]:
        lines.append(f"    {name} = np.full(n, {lang.literal(value)})")
    lines.append("")
    lines.append("    def signals(t, x):")
    for line in output_lines:
        lines.append(f"        {line}")
    lines.append(f"        return ({signals}{',' if signals else ''})")
    lines.append("")
    lines.append("    def outvals(t, x):")
    for line in unpack:
        lines.append(f"        {line}")
    lines.append(f"        return ({row}{',' if row else ''})")
    lines.append("")
    lines.append("    def rhs(t, x):")
    for line in unpack:
        lines.append(f"        {line}")
    lines.append("        dx = np.zeros_like(x)")
    for index, expr in tables["derivs"]:
        lines.append(f"        dx[:, {index}] = {_vectorise(expr)}")
    lines.append("        return dx")
    lines.append("")
    lines.append("    def sync(t, x):")
    if tables["sync_rows"]:
        lines.append(f"        nonlocal {', '.join(held_names)}")
        for line in unpack:
            lines.append(f"        {line}")
        for indent, line in tables["sync_rows"]:
            lines.append(f"        {'    ' * indent}{_vectorise(line)}")
    else:
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
    lines.append("    return outvals, rhs, sync, get_held, set_held")
    return "\n".join(lines) + "\n"


_shared_program_cache = None

#: LRU capacity of :func:`shared_program_cache`
PROGRAM_CACHE_CAP = 64


def shared_program_cache():
    """The process-wide cache of compiled :class:`BatchProgram` artefacts.

    Keyed by the O0 plan fingerprint plus records/sweeps/opt extras (see
    :func:`batch_program_cache_key`), so two :class:`BatchSimulator`
    instances over the same plan — even over independently built but
    structurally identical diagrams — compile once and share the
    program.  Lazily imports the service-layer cache to keep
    ``repro.core`` importable without ``repro.service``.

    LRU-bounded: long campaigns churn through thousands of distinct
    scenario plans, so residency is capped at
    :data:`PROGRAM_CACHE_CAP` programs; the cache counts its own
    ``evictions``.
    """
    global _shared_program_cache
    if _shared_program_cache is None:
        from repro.service.cache import PlanCache

        _shared_program_cache = PlanCache(capacity=PROGRAM_CACHE_CAP)
    return _shared_program_cache


def reset_shared_program_cache() -> None:
    """Drop the process-wide program cache (tests)."""
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
    # native programs hold the C lowering instead of the NumPy one;
    # they must never serve (or be served by) NumPy compilations
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

    ``native=True`` lowers the diagram once, with
    :class:`~repro.codegen.common.CBatchLang`, into a
    :attr:`~BatchProgram.native` program the native-batch backend
    renders its C kernel from; nothing is rendered for NumPy.  Only when
    the C lowering raises :class:`~repro.codegen.common.CodegenError`
    is the NumPy program compiled instead (the simulator then demotes).
    """
    ordered = tuple(sorted(sweep_paths))
    items: List[Tuple[Streamer, str, float, SweepVar]] = []
    for j, path in enumerate(ordered):
        block, key = _resolve_param(diagram, path)
        base = float(block.params[key])
        var = SweepVar(base, np.asarray([base]), f"P[{j}]")
        items.append((block, key, base, var))
        block.params[key] = var
    model = None
    try:
        from repro.codegen.common import (
            CBatchLang, CodegenError, NumpyLang, lower,
        )

        if native:
            try:
                model = lower(
                    diagram, CBatchLang(), records,
                    opt_level=opt_level, opt_config=opt_config,
                )
            except CodegenError:
                native = False
        if model is None:
            model = lower(
                diagram, NumpyLang(), records,
                opt_level=opt_level, opt_config=opt_config,
            )
    finally:
        for block, key, base, __ in items:
            block.params[key] = base
    emitted = "\n".join(
        line
        for code in model.code.values()
        for line in (
            *code.output_lines, *code.deriv_exprs,
            *(stmt for __, stmt in code.sync_stmts),
        )
    )
    for (block, key, __, var), path in zip(items, ordered):
        if var.symbol not in emitted:
            raise BatchError(
                f"sweep {path!r}: the emitter for "
                f"{type(block).__name__} folds {key!r} into a "
                "derived literal, so the sweep would be silently "
                "ignored; sweep a parameter the emitter passes "
                "through verbatim"
            )
    return BatchProgram(
        model=model, sweep_paths=ordered,
        source=None if native else _render_program(model),
    )


def _joined(parts: Sequence[np.ndarray]) -> np.ndarray:
    """``np.concatenate(parts)`` without the copy when the parts are
    consecutive row ranges of one C-contiguous buffer, as the chunks of
    one run are: then the view spanning them."""
    # an empty slice adds no rows, and its data pointer is not its offset
    parts = [part for part in parts if len(part)] or parts[-1:]
    first = parts[0]
    base = first.base
    if len(parts) == 1:
        return first
    if base is None or not base.flags.c_contiguous:
        return np.concatenate(parts)
    end = first.ctypes.data
    for part in parts:
        if (
            part.base is not base
            or part.dtype != first.dtype
            or part.shape[1:] != first.shape[1:]
            or not part.flags.c_contiguous
            or part.ctypes.data != end
        ):
            return np.concatenate(parts)
        end += part.nbytes
    return np.ndarray(
        (sum(len(part) for part in parts), *first.shape[1:]),
        dtype=first.dtype, buffer=base,
        offset=first.ctypes.data - base.ctypes.data,
    )


def merge_chunks(chunks: Sequence[BatchChunk], n: int) -> BatchResult:
    """Stitch streamed :class:`BatchChunk` slices back into one
    :class:`BatchResult` (the last chunk must be the final one).

    The chunks of one uninterrupted run are consecutive views of its
    record buffer, so their result is that buffer, not a copy; chunks
    restored from a checkpoint are concatenated."""
    if not chunks or not chunks[-1].final:
        raise BatchError("chunk stream ended without a final chunk")
    last = chunks[-1]
    return BatchResult(
        t=_joined([c.t for c in chunks]),
        series={
            label: _joined([c.series[label] for c in chunks])
            for label in last.series
        },
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
    programs = shared_program_cache() if cache is None else cache
    key = batch_program_cache_key(
        diagram, records=records, sweep_paths=sweep_paths,
        opt_config=config, native=native,
    )
    return programs.get_or_compile(key, compile_program)


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
        (or the native kernel's load) runs.  The ``sweeps`` keys must
        match the paths the program was compiled for.  ``diagram``,
        ``records`` and the optimizer settings serve a
        :attr:`~BatchProgram.native` program only: they compile its
        NumPy program if the simulator needs one.
    opt_level / opt_config:
        Plan-optimizer configuration (:mod:`repro.core.opt`) applied
        while compiling the program.
    cache:
        Where to look up/share the compiled program: ``None`` (default)
        uses the process-wide :func:`shared_program_cache`; a
        :class:`~repro.service.cache.PlanCache` uses that instance;
        ``False`` compiles privately (the pre-cache behaviour).
    backend:
        ``"batch"`` (default) runs the vectorised NumPy program;
        ``"native-batch"`` builds/loads the N-instance C kernel
        (:mod:`repro.core.backend.nativebatch`) and runs every chunk
        through it.  When the kernel cannot be built (no compiler,
        non-kernel solver, unlowerable model, an artifact that will not
        load) the simulator *falls back* to the NumPy program, compiled
        then — check :attr:`backend_name` /
        :attr:`backend_fallback_reason`.
    shards:
        Instance-axis shard count for the native kernel (None: one per
        core, capped).  Sharding never changes results — shards are
        contiguous row ranges of independent instances.
    native_cache_dir:
        Native artifact directory override (None: the process default).
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
        self.sweep_paths = list(program.sweep_paths)
        self._P = (
            np.stack([sweep_values[path] for path in program.sweep_paths])
            if program.sweep_paths else np.zeros((0, self.n))
        )

        def numpy_program() -> BatchProgram:
            if not program.native:
                return program
            if diagram is None:
                raise BatchError(
                    "a native program runs on the NumPy backend only "
                    "with the diagram it was compiled from"
                )
            return batch_program(
                diagram, records=records, sweep_paths=program.sweep_paths,
                opt_level=opt_level, opt_config=opt_config, cache=cache,
            )

        self._numpy_program = numpy_program
        #: the NumPy program's closures, once bound (:meth:`_bind_numpy`)
        self._rhs = None

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
        if self._native is None:
            self._bind_numpy()
        self.backend_name = (
            "native-batch" if self._native is not None else "batch"
        )
        self.shards = (
            self._native.shards if self._native is not None else None
        )

    def _bind_numpy(self) -> None:
        """Exec the NumPy program (fetched through the program cache for
        a native program) and bind its closures."""
        namespace: Dict[str, Any] = {"np": np}
        exec(self._numpy_program().code, namespace)
        (
            self._outvals, self._rhs, self._sync,
            self._get_held, self._set_held,
        ) = namespace["_build"](self.n, self._P)

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

    def rhs(self, t: float, x: np.ndarray) -> np.ndarray:
        """Every instance's derivative at ``(t, x)`` under the current
        held registers, from the NumPy program (a native simulator binds
        it on first use)."""
        if self._native is not None:
            if self._rhs is None:
                self._bind_numpy()
            self._set_held(self._native.held_state())
        return self._rhs(t, x)

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

        Each chunk is one segment of the fixed-step loop
        (:mod:`repro.core.loop`) cut after the steps left to the next
        multiple of ``chunk_steps``, on the NumPy program or the native
        kernel alike; chunking only decides when records are handed
        out, so the concatenation of the chunks is bitwise identical to
        an unchunked run.  Between chunks a caller may abort, stream
        partials, or check deadlines; this is the cooperative
        cancellation point the service layer's job engine relies on.

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
        if resume is not None:
            x = np.array(resume["x"], dtype=float, order="C")
            if x.shape != self.x0.shape:
                raise BatchError(
                    f"resume state shape {x.shape} != {self.x0.shape}"
                )
            t = float(resume["t"])
            if resume.get("held") is not None:
                self.restore_held_state(resume["held"])
            step = int(resume["step"])
            minor_steps = int(resume["minor_steps"])
            # the sync at this point in time already ran before the
            # resume point was cut; repeating it would double-advance
            # sample-and-hold registers
            cold = False
        else:
            x = np.array(self.x0, dtype=float, order="C")
            t, step, minor_steps, cold = 0.0, 0, 0, True
        kernel = self._native
        segment = self._run_segment if kernel is None else kernel.run_segment
        labels = [label for label, __ in self.model.records]
        # one record buffer for the whole run, label-major so that each
        # label's rows are one C-contiguous (rows, n) block; a segment
        # writes the rows after the last one, and its chunk views them
        cap = loop.record_capacity(t, float(t_end), h, int(record_every))
        rec_t = np.empty(cap)
        rec = np.empty((len(labels), cap, self.n))
        row = 0
        done = False
        while not done:
            max_steps = (
                chunk_steps - minor_steps % chunk_steps if chunk_steps else 0
            )
            t, x, reached, done, rows = segment(
                t, float(t_end), h, int(record_every), step, max_steps,
                cold, x, rec_t, rec, row,
            )
            minor_steps += reached - step
            step, cold = reached, False
            chunk = BatchChunk(
                t=rec_t[row:row + rows],
                series={
                    label: rec[i, row:row + rows]
                    for i, label in enumerate(labels)
                },
                t_now=t, steps=minor_steps, final=done,
            )
            row += rows
            if not done:
                chunk.resume = self.resume_point(t, x, step, minor_steps)
                yield chunk
                continue
            chunk.final_states = x
            chunk.stats = {
                "instances": self.n,
                "minor_steps": minor_steps,
                "states_per_instance": x.shape[1],
                "solver": self.binding.strategy_name,
                "sweeps": list(self.sweep_paths),
            }
            if kernel is not None:
                chunk.stats.update({
                    "backend": "native-batch",
                    "shards": kernel.shards,
                    "artifact": str(kernel.so_path),
                    "artifact_cache_hit": kernel.cache_hit,
                })
            yield chunk

    def _run_segment(
        self,
        t: float,
        t_end: float,
        h: float,
        record_every: int,
        step: int,
        max_steps: int,
        cold: bool,
        x: np.ndarray,
        rec_t: np.ndarray,
        rec: np.ndarray,
        row: int,
    ) -> Tuple[float, np.ndarray, int, bool, int]:
        """One chunk on the NumPy program, with the arguments and
        returns of :meth:`~repro.core.backend.nativebatch.
        NativeBatchKernel.run_segment`."""
        first = row

        def record(t: float, x: np.ndarray) -> None:
            # a signal that does not vary across instances broadcasts
            nonlocal row
            rec_t[row] = t
            for i, value in enumerate(self._outvals(t, x)):
                rec[i, row] = value
            row += 1

        t, x, step, done, __, __ = loop.run(
            t, x, step, cold, t_end, h, record_every,
            self._sync, self._advance, record, max_steps,
        )
        return t, x, step, done, row - first

    def _advance(
        self, t: float, x: np.ndarray, h: float,
    ) -> Tuple[float, np.ndarray]:
        result = self.binding.step(self._rhs, t, x, h)
        return result.t, result.y

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
        ports = (
            [(path, diagram.port_at(path)) for path in records]
            if records else default_records(network.order)
        )
        if i == 0:
            series = {label: [] for label, __ in ports}
        binding = SolverBinding(solver)
        if not binding.solver.supports_batch:
            raise BatchError(
                f"solver {binding.strategy_name!r} is not a fixed-step "
                "solver; the sequential reference mirrors the batch loop"
            )

        def sync(t: float, x: np.ndarray) -> None:
            # pads first, as the interpreter's sync: each on_sync reads
            # its input at (t, x), not what the last solver stage left
            network.evaluate(t, x)
            for leaf in network.order:
                leaf.on_sync(t)

        def advance(
            t: float, x: np.ndarray, hh: float,
        ) -> Tuple[float, np.ndarray]:
            result = binding.step(network.rhs, t, x, hh)
            return result.t, result.y

        def outvals(t: float, x: np.ndarray) -> List[float]:
            network.evaluate(t, x)
            return [port.read_scalar() for __, port in ports]

        __, x, steps, __, instance_times, rows = loop.run(
            0.0, network.initial_state(), 0, True, float(t_end), h,
            record_every, sync, advance, outvals,
        )
        minor_steps += steps
        if i == 0:
            times = instance_times
        for j, (label, __) in enumerate(ports):
            series[label].append([row[j] for row in rows])
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
