"""The ExecutionBackend abstraction: one registry, one program surface.

The repo grew four ways of executing a model — the plan interpreter, the
hybrid scheduler's threads, the vectorised batch program and the codegen
artifacts.  This package unifies them behind a single contract:

* an :class:`ExecutionBackend` consumes a :class:`CompileRequest`
  (diagram or prebuilt network/plan, records, solver, optimizer config)
  and produces a :class:`BackendProgram`;
* every program exposes the same ``step`` / ``run`` / ``snapshot_state``
  surface and tracks its own ``(t, x, held, step)`` cursor, so resuming,
  checkpointing and differential testing look identical across backends.

Registered backends:

``interpreter``
    The reference: :meth:`ExecutionPlan.evaluate`/``rhs`` plus live-block
    ``on_sync`` — the same semantics the hybrid scheduler and
    ``simulate_sequential`` use.
``compiled-python``
    The :mod:`repro.codegen` Python emitters promoted to an in-process
    exec'd kernel.  Works everywhere (no toolchain), bitwise identical
    to the interpreter on fixed-step runs.
``native-c``
    The C emitters compiled to a shared object and loaded via ctypes,
    with on-disk artifacts keyed by a hash of the rendered source,
    flags and compiler.  Requires a C compiler; without one it degrades to
    ``compiled-python`` through the fallback ladder.
``batch``
    The vectorised NumPy program (:mod:`repro.core.batch`) wrapped in
    the uniform surface (n instances, one state matrix).
``native-batch``
    The N-instance C kernel (:mod:`repro.core.backend.nativebatch`):
    one row per instance, the instance loop inside the compiled step,
    the instance axis sharded across a thread pool.  Demotes to the
    NumPy ``batch`` program without a toolchain.

Prefetch: :func:`prefetch` lets a caller start a backend's slow
artifact build (gcc, for the native backends) before it needs the
program; the later :func:`compile_program` joins that build.

Fallback ladder: :func:`compile_program` walks :data:`FALLBACKS` until a
backend compiles.  Every demotion emits a ``backend.fallback`` metric
and a :data:`~repro.service.telemetry.BACKEND` telemetry event (when the
caller passes hooks) and never raises for a missing toolchain — the
acceptance contract is that no job hard-fails because the host lacks a
compiler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence,
    Tuple,
)

import numpy as np

from repro.codegen.common import KERNEL_VERSION, kernel_tables
from repro.core import loop

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.network import FlatNetwork
    from repro.core.plan import ExecutionPlan


class BackendError(Exception):
    """Raised on unrunnable programs or bad backend requests."""


class BackendUnavailable(BackendError):
    """Raised when a backend cannot serve on this host/request (missing
    compiler, unsupported solver, unsupported block).  The resolver
    treats it as a demotion signal, not a failure."""


#: scalar kernels inline the fixed-step solver loop; anything else
#: (adaptive, implicit) demotes to the interpreter
KERNEL_SOLVERS = ("euler", "heun", "rk4")


@dataclass
class CompileRequest:
    """Everything a backend needs to produce a program.

    Either ``diagram`` (the common case: flattened internally) or a
    prebuilt ``network``/``plan`` pair (the hybrid scheduler's kernel
    bridge) must be provided.  ``records`` lists ``"block.port"`` paths
    (default: every Scope input).  ``n``/``sweeps``/``x0`` only apply to
    the batch backend.
    """

    diagram: Any = None
    network: Optional["FlatNetwork"] = None
    plan: Optional["ExecutionPlan"] = None
    records: Optional[List[str]] = None
    solver: Any = "rk4"
    h: float = 1e-3
    opt_level: int = 0
    opt_config: Any = None
    n: int = 1
    sweeps: Optional[Mapping[str, Sequence[float]]] = None
    x0: Optional[np.ndarray] = None
    #: native-c artifact directory (None: the process default cache)
    cache_dir: Any = None
    #: instance-axis shard count for the native-batch backend (None:
    #: one shard per core, capped; ignored by every other backend)
    shards: Optional[int] = None

    def resolved_network(self) -> "FlatNetwork":
        """The flat network (built from the diagram when not supplied)."""
        if self.network is not None:
            return self.network
        if self.diagram is None:
            raise BackendError(
                "CompileRequest needs a diagram or a prebuilt network"
            )
        from repro.core.network import FlatNetwork

        self.diagram.finalise()
        self.network = FlatNetwork([self.diagram])
        return self.network

    def port_at(self) -> Optional[Callable[[str], Any]]:
        """Record-path resolver, when a diagram is available."""
        if self.diagram is not None:
            return self.diagram.port_at
        return None

    def solver_name(self) -> str:
        from repro.core.solverbinding import SolverBinding

        if isinstance(self.solver, str):
            return self.solver
        return SolverBinding(self.solver).strategy_name


@dataclass
class ProgramResult:
    """Recorded trajectories of one :meth:`BackendProgram.run` call."""

    #: recorded times, shape ``(T,)``
    t: np.ndarray
    #: label -> recorded series; ``(T,)`` scalar backends, ``(T, n)``
    #: for the batch backend
    series: Dict[str, np.ndarray]
    #: state vector (or ``(n, n_state)`` matrix) at the end of the run
    final_state: np.ndarray
    stats: Dict[str, Any] = field(default_factory=dict)


class BackendProgram:
    """The uniform runnable produced by every backend.

    A program owns its execution cursor — current time, state vector,
    held registers and step counter — so consecutive :meth:`run` calls
    continue the same trajectory and :meth:`snapshot_state` /
    :meth:`restore_state` give the resilience layer a backend-agnostic
    checkpoint payload (plain data only).

    This class is that cursor, written once: ``_t``, ``_x``, ``_step``,
    ``_cold``, ``h``, the solver's name, the plan and the record labels.
    A backend adds its loop bodies (``_sync(t, x)``, ``_advance(t, x,
    h)`` and ``_outvals(t, x)``, which :meth:`step` and :meth:`_run_loop`
    run through :mod:`repro.core.loop`), :meth:`run`, :meth:`rhs` and
    four hooks: :meth:`_rewind` to the cold state, :meth:`_install` a
    restored state, its :meth:`_registers` as plain data (snapshotted
    under :attr:`registers_key`) and its :meth:`_fingerprint_extras`.
    """

    #: registry name of the producing backend
    backend: str = "abstract"
    #: the effective backend when the ladder demoted the request (equal
    #: to :attr:`backend` when no fallback happened)
    requested: str = "abstract"
    #: the snapshot key of :meth:`_registers`
    registers_key: str = "held"

    def __init__(
        self, plan: "ExecutionPlan", solver_name: str, h: float,
        labels: List[str],
    ) -> None:
        self._plan = plan
        self._solver_name = solver_name
        self.h = float(h)
        self._labels = labels
        self._t = 0.0
        self._step = 0
        self._cold = True

    @property
    def plan(self) -> "ExecutionPlan":
        return self._plan

    @property
    def t(self) -> float:
        return self._t

    @property
    def x(self) -> np.ndarray:
        return np.asarray(self._x, dtype=float)

    def record_labels(self) -> List[str]:
        return list(self._labels)

    def reset(self) -> None:
        """Return to the cold initial state (t=0, initial x, held)."""
        self._t = 0.0
        self._step = 0
        self._cold = True
        self._rewind()

    def step(self, h: Optional[float] = None) -> float:
        """One minor step + sync; returns the new time."""
        hh = self.h if h is None else float(h)
        self._t, self._x = loop.step(
            self._t, self._x, self._cold, hh, self._sync, self._advance,
        )
        self._step += 1
        self._cold = False
        loop.check_finite(self._solver_name, self._t, self._x)
        return self._t

    def run(
        self,
        t_end: float,
        h: Optional[float] = None,
        record_every: int = 1,
    ) -> ProgramResult:
        """Advance to ``t_end`` recording every ``record_every`` steps."""
        raise NotImplementedError

    def _run_loop(
        self, t_end: float, h: Optional[float], record_every: int,
    ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Advance the cursor to ``t_end`` through
        :func:`repro.core.loop.run`; returns the record times and each
        record label's series."""
        t, x, step, __, times, rows = loop.run(
            self._t, self._x, self._step, self._cold, float(t_end),
            self.h if h is None else float(h), int(record_every),
            self._sync, self._advance, self._outvals,
        )
        self._t, self._x, self._step, self._cold = t, x, step, False
        return np.asarray(times, dtype=float), {
            label: np.asarray([row[i] for row in rows], dtype=float)
            for i, label in enumerate(self._labels)
        }

    def rhs(self, t: float, x: np.ndarray) -> np.ndarray:
        """The derivative kernel at ``(t, x)`` under current held state."""
        raise NotImplementedError

    def snapshot_state(self) -> Dict[str, Any]:
        """The cursor as plain data (codec-safe)."""
        return {
            "t": self._t,
            "step": self._step,
            "cold": self._cold,
            "x": self.x.tolist(),
            self.registers_key: self._registers(),
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        self._t = float(state["t"])
        self._step = int(state["step"])
        self._cold = bool(state.get("cold", False))
        self._install(
            np.asarray(state["x"], dtype=float),
            state.get(self.registers_key),
        )

    def fingerprint(self) -> str:
        """Content identity: the plan's fingerprint (parameter values
        included) plus backend, solver, records and the backend's
        :meth:`_fingerprint_extras`."""
        return self._plan.fingerprint(extra={
            "backend": self.backend,
            "solver": self._solver_name,
            "records": tuple(self._labels),
            **self._fingerprint_extras(),
        })

    # -- the backend's hooks -------------------------------------------
    def _rewind(self) -> None:
        """Put the initial state and registers back (``reset``)."""
        raise NotImplementedError

    def _install(self, x: np.ndarray, registers: Any) -> None:
        """Install a snapshot's state ``x`` and its registers (None when
        the snapshot has none)."""
        raise NotImplementedError

    def _registers(self) -> Any:
        """The registers as plain data (codec-safe)."""
        raise NotImplementedError

    def _fingerprint_extras(self) -> Dict[str, Any]:
        return {}


class KernelProgram(BackendProgram):
    """A program over a lowered kernel: compiled-python and native-c.

    Owns the kernel's held-register table (:func:`~repro.codegen.common.
    kernel_tables`): the register names and their initial values, the
    ``held`` snapshot and the hybrid scheduler's bridge from the live
    blocks.  A subclass keeps how it runs and how it binds a state and
    a held row (:meth:`_install`) into its kernel; ``_held`` is the
    bound row, indexable by register slot.
    """

    def __init__(self, model, solver_name: str, h: float) -> None:
        super().__init__(
            model.plan, solver_name, h,
            [label for label, __ in model.records],
        )
        tables = kernel_tables(model)
        self._held_names: List[str] = [n for n, __ in tables["held"]]
        self._held0: List[float] = [v for __, v in tables["held"]]
        index_of = {name: i for i, name in enumerate(self._held_names)}
        #: ``(held slot, live leaf, attribute)`` rows for the hybrid
        #: scheduler's rhs bridge
        self._held_bindings = [
            (index_of[name], leaf, attr)
            for name, leaf, attr in tables["held_attrs"]
        ]
        self._x0: List[float] = [float(v) for v in model.initial_state]

    def refresh_held_from_blocks(self) -> None:
        """Copy the live blocks' sample-and-hold registers into the
        kernel, so a derivative evaluated between syncs sees exactly what
        the interpreter would see."""
        held = self._held
        for slot, leaf, attr in self._held_bindings:
            held[slot] = float(getattr(leaf, attr))

    def _held_row(self, held: Optional[Mapping[str, Any]]) -> List[float]:
        """The held row of a snapshot's ``held`` dict (a missing
        register keeps its initial value)."""
        held = held or {}
        return [
            float(held.get(name, value))
            for name, value in zip(self._held_names, self._held0)
        ]

    def _rewind(self) -> None:
        self._install(np.asarray(self._x0, dtype=float), None)

    def _registers(self) -> Dict[str, float]:
        return {
            name: float(self._held[i])
            for i, name in enumerate(self._held_names)
        }

    def _fingerprint_extras(self) -> Dict[str, Any]:
        return {"kernel": KERNEL_VERSION}


class ExecutionBackend:
    """One registry entry: knows how to compile a request."""

    name: str = "abstract"

    def compile(self, request: CompileRequest) -> BackendProgram:
        raise NotImplementedError

    def prefetch(self, request: CompileRequest) -> None:
        """Start the slow part of :meth:`compile` in the background
        (the native backends launch gcc); nothing by default."""


_BACKENDS: Dict[str, ExecutionBackend] = {}

#: demotion order per requested backend; the last rung may raise
FALLBACKS: Dict[str, Tuple[str, ...]] = {
    "interpreter": ("interpreter",),
    "compiled-python": ("compiled-python", "interpreter"),
    "native-c": ("native-c", "compiled-python", "interpreter"),
    "batch": ("batch",),
    "native-batch": ("native-batch", "batch"),
}


def register_backend(backend: ExecutionBackend) -> ExecutionBackend:
    _BACKENDS[backend.name] = backend
    return backend


def get_backend(name: str) -> ExecutionBackend:
    try:
        return _BACKENDS[name]
    except KeyError:
        raise BackendError(
            f"unknown execution backend {name!r}; registered: "
            f"{sorted(_BACKENDS)}"
        ) from None


def available_backends() -> List[str]:
    """Registered backend names (registration order is import order)."""
    return sorted(_BACKENDS)


def fallback_chain(name: str) -> Tuple[str, ...]:
    chain = FALLBACKS.get(name)
    if chain is None:
        get_backend(name)  # raises with the helpful message if unknown
        chain = (name,)
    return chain


def compile_program(
    request: CompileRequest,
    backend: str = "interpreter",
    metrics: Any = None,
    emit: Optional[Callable[..., Any]] = None,
) -> BackendProgram:
    """Compile ``request`` on ``backend``, walking the fallback ladder.

    Each demotion increments the ``backend.fallback`` counter on
    ``metrics`` (a :class:`~repro.service.telemetry.MetricsRegistry`)
    and calls ``emit(requested=..., attempted=..., fell_back_to=...,
    reason=...)`` — the service layer binds this to a
    :data:`~repro.service.telemetry.BACKEND` telemetry event.  Only the
    last rung of the ladder may raise.
    """
    chain = fallback_chain(backend)
    last_error: Optional[Exception] = None
    for index, name in enumerate(chain):
        try:
            program = get_backend(name).compile(request)
        except BackendUnavailable as exc:
            last_error = exc
            if index + 1 < len(chain):
                _note_fallback(
                    metrics, emit, backend, name, chain[index + 1], exc
                )
                continue
            raise
        except Exception as exc:
            # an UnsupportedBlockError (or any compile failure) on a
            # kernel backend demotes exactly like a missing toolchain
            from repro.codegen.common import CodegenError

            if isinstance(exc, CodegenError) and index + 1 < len(chain):
                last_error = exc
                _note_fallback(
                    metrics, emit, backend, name, chain[index + 1], exc
                )
                continue
            raise
        program.requested = backend
        return program
    raise BackendError(
        f"no backend in {chain} could compile the request"
    ) from last_error


def prefetch(request: CompileRequest, backend: str) -> None:
    """Start building ``backend``'s artifact for ``request`` in the
    background, so a later :func:`compile_program` of the same request
    only waits for what is left of it.

    Silent whatever happens: a backend without artifacts, a host
    without a compiler, an unsupported solver or a lowering error all
    make this a no-op, and :func:`compile_program` reports them exactly
    as it would without the prefetch.
    """
    try:
        get_backend(backend).prefetch(request)
    except Exception:  # compile_program raises or demotes on its own
        pass


def _note_fallback(
    metrics: Any,
    emit: Optional[Callable[..., Any]],
    requested: str,
    attempted: str,
    fell_back_to: str,
    exc: Exception,
) -> None:
    if metrics is not None:
        metrics.counter("backend.fallback").inc()
        metrics.counter(f"backend.fallback.{attempted}").inc()
    if emit is not None:
        emit(
            requested=requested,
            attempted=attempted,
            fell_back_to=fell_back_to,
            reason=str(exc),
        )


# ----------------------------------------------------------------------
# shared helpers for the scalar backends
# ----------------------------------------------------------------------
def lower_request(request: CompileRequest, lang: Any):
    """Lower a request to a :class:`~repro.codegen.common.LoweredModel`.

    A prebuilt plan (hybrid bridge) is lowered as-is; otherwise the
    network is planned under the request's optimizer config with the
    recorded pads protected.
    """
    from repro.codegen.common import lower_network, lower_plan

    network = request.resolved_network()
    if request.plan is not None:
        return lower_plan(
            request.plan, lang,
            initial_state=[float(v) for v in network.initial_state()],
            records=request.records,
            name=getattr(request.diagram, "name", "plan"),
            port_at=request.port_at(),
        )
    return lower_network(
        network, lang,
        records=request.records,
        opt_level=request.opt_level,
        opt_config=request.opt_config,
        name=getattr(request.diagram, "name", "network"),
        port_at=request.port_at(),
    )


def kernel_solver_name(request: CompileRequest) -> str:
    """The solver name, or :class:`BackendUnavailable` for non-fixed-step
    solvers the inline kernels cannot replicate."""
    name = request.solver_name()
    if name not in KERNEL_SOLVERS:
        raise BackendUnavailable(
            f"solver {name!r} is not an inlineable fixed-step method "
            f"(kernel backends support {KERNEL_SOLVERS}); "
            "use the interpreter backend"
        )
    return name
