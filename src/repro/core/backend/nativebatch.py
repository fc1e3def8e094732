"""The ``native-batch`` backend: N-instance C kernels with sharding.

Takes the same optimized ExecutionPlan the scalar ``native-c`` path
lowers, but rendered by :func:`repro.codegen.cgen.render_batch_kernel`
into an N-instance translation unit: one contiguous row per instance
(``X[n][nx]``, ``P[n][np]``, ``H[n][nh]``), the instance loop inside the
compiled step/sync/record drivers, batch size a runtime argument.  One
artifact therefore serves any N: artifacts are named by a hash of the
rendered source, flags and compiler (the ``native-c`` build path,
:func:`repro.core.backend.native.build_artifact`), and neither the
instance count nor the initial state is baked into the source.
:meth:`NativeBatchBackend.prefetch` renders the kernel and starts its
gcc run in the background; the simulator's build later joins it.

Bitwise parity: per instance the kernel applies exactly the scalar
native kernel's arithmetic — same emitters, same solver-stage grouping,
same ``-ffp-contract=off`` build — and swept parameters load the same
double values from the ``P`` row that ``simulate_sequential`` folds into
its per-instance diagrams.  Sharding splits the instance axis into
contiguous row ranges: rows never interact (the whole point of a batch),
so any shard count produces identical bits.

Sharding: the ctypes call releases the GIL, so K shards submitted to a
thread pool run concurrently on K cores, each on a zero-copy row slice
(pointer offset into the shared matrices).  Every shard returns its
``(nrec, t, step, done)`` cursor and they must agree exactly — a cheap
invariant check that the shard decomposition stayed pure.

No compiler / unsupported solver / unlowerable model raises
:class:`BackendUnavailable`; the ladder demotes ``native-batch`` to the
NumPy ``batch`` program (metric + telemetry), never failing the run.
"""

from __future__ import annotations

import ctypes
import math
import os
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.backend.base import (
    BackendError, BackendUnavailable, CompileRequest, ExecutionBackend,
    kernel_solver_name, register_backend,
)
from repro.core.backend.batchentry import BatchProgramAdapter
from repro.core.backend.native import (
    NO_COMPILER, build_artifact, default_cache_dir, has_c_compiler,
    request_cache_dir, start_build,
)

_DP = ctypes.POINTER(ctypes.c_double)

#: ceiling on the one-shard-per-core default (a 128-core box should not
#: spawn 128 Python threads for a 4-row batch)
MAX_DEFAULT_SHARDS = 8


def default_shards() -> int:
    """Shard count when the caller does not pin one:
    ``$REPRO_NATIVE_BATCH_SHARDS`` or one per core (capped)."""
    raw = os.environ.get("REPRO_NATIVE_BATCH_SHARDS", "").strip()
    if raw:
        try:
            value = int(raw)
        except ValueError:
            value = 0
        if value > 0:
            return value
    return max(1, min(os.cpu_count() or 1, MAX_DEFAULT_SHARDS))


def shard_bounds(n: int, shards: int) -> List[Tuple[int, int]]:
    """Split ``n`` rows into ``shards`` contiguous ``[lo, hi)`` ranges
    (the first ``n % shards`` ranges take the extra row)."""
    shards = max(1, min(int(shards), int(n)))
    base, extra = divmod(n, shards)
    bounds = []
    lo = 0
    for i in range(shards):
        hi = lo + base + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def batch_kernel_source(program, solver_name: str) -> str:
    """The N-instance C source of a native-lowered batch program;
    :class:`BackendUnavailable` when it has no C lowering or a swept
    parameter did not survive into the source."""
    model = program.native_model
    if model is None:
        raise BackendUnavailable(
            "batch program was compiled without the native lowering "
            "(compile_batch_program(..., native=True))"
        )
    from repro.codegen.cgen import render_batch_kernel
    from repro.codegen.common import CodegenError

    try:
        source = render_batch_kernel(
            model, solver_name, len(program.sweep_paths),
        )
    except CodegenError as exc:
        raise BackendUnavailable(str(exc)) from exc
    for var, path in enumerate(program.sweep_paths):
        if f"P[{var}]" not in source:
            raise BackendUnavailable(
                f"sweep {path!r}: symbol folded out of the C lowering"
            )
    return source


def _load_batch(so_path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(so_path))
    lib.batch_sync.argtypes = [
        ctypes.c_double, ctypes.c_long, _DP, _DP, _DP,
    ]
    lib.batch_sync.restype = None
    lib.batch_step.argtypes = [
        ctypes.c_double, ctypes.c_double, ctypes.c_long, _DP, _DP, _DP,
    ]
    lib.batch_step.restype = None
    lib.batch_outvals.argtypes = [
        ctypes.c_double, ctypes.c_long, _DP, _DP, _DP, _DP,
    ]
    lib.batch_outvals.restype = None
    lib.batch_run.argtypes = [
        ctypes.c_double, ctypes.c_double, ctypes.c_double,
        ctypes.c_long, ctypes.c_long, ctypes.c_long, ctypes.c_int,
        ctypes.c_long, _DP, _DP, _DP,
        _DP, ctypes.c_int, _DP, ctypes.c_long, ctypes.c_long,
        ctypes.POINTER(ctypes.c_double), ctypes.POINTER(ctypes.c_long),
        ctypes.POINTER(ctypes.c_int),
    ]
    lib.batch_run.restype = ctypes.c_long
    return lib


def _ptr_at(array: np.ndarray, offset: int):
    """A double* into ``array`` at element ``offset`` (row slicing
    without copies — the shard contract)."""
    return ctypes.cast(
        array.ctypes.data + offset * array.itemsize, _DP
    )


class NativeBatchKernel:
    """One loaded batch artifact bound to one simulator's matrices.

    Owns the per-instance parameter matrix (``(n, NPS)`` row-major, the
    transpose of the simulator's param-major ``P``) and the held-register
    matrix ``(n, NHS)``; the state matrix stays caller-owned and is
    mutated in place by :meth:`run_segment`.
    """

    def __init__(
        self,
        program,
        solver_name: str,
        n: int,
        P: np.ndarray,
        shards: Optional[int] = None,
        cache_dir: Optional[Path] = None,
    ) -> None:
        if not has_c_compiler():
            raise BackendUnavailable(NO_COMPILER)
        source = batch_kernel_source(program, solver_name)
        from repro.core.backend.pykernel import kernel_tables

        n_params = len(program.sweep_paths)
        tables = kernel_tables(program.native_model)
        so_path, cache_hit = build_artifact(
            source, Path(cache_dir) if cache_dir else default_cache_dir(),
        )
        try:
            self._lib = _load_batch(so_path)
        except OSError as exc:
            raise BackendUnavailable(
                f"could not load batch artifact {so_path}: {exc}"
            ) from exc

        self.solver_name = solver_name
        self.source = source
        self.so_path = so_path
        self.cache_hit = cache_hit
        self.n = int(n)
        self.n_states = tables["n_states"]
        self.nxs = max(1, self.n_states)
        self.n_rec = len(tables["record_exprs"])
        self.recn = max(1, self.n_rec)
        self.held_names: List[str] = [name for name, __ in tables["held"]]
        self.nhs = max(1, len(self.held_names))
        nps = max(1, n_params)
        if n_params:
            if P.shape != (n_params, self.n):
                raise BackendError(
                    f"P must be ({n_params}, {self.n}), got {P.shape}"
                )
            self._P = np.ascontiguousarray(P.T, dtype=float)
        else:
            self._P = np.zeros((self.n, nps), dtype=float)
        self.nps = nps
        held_row = np.asarray(
            [value for __, value in tables["held"]] or [0.0], dtype=float
        )
        self._H = np.tile(held_row, (self.n, 1))
        self._x_dummy = (
            np.zeros((self.n, 1), dtype=float)
            if self.n_states == 0 else None
        )
        self.shards = max(
            1, min(int(shards) if shards else default_shards(), self.n)
        )

    # ------------------------------------------------------------------
    # held registers (checkpoint/resume interop with the numpy program)
    # ------------------------------------------------------------------
    def held_state(self) -> Dict[str, np.ndarray]:
        return {
            name: self._H[:, i].copy()
            for i, name in enumerate(self.held_names)
        }

    def restore_held(self, values: Mapping[str, Any]) -> None:
        for i, name in enumerate(self.held_names):
            self._H[:, i] = np.asarray(values[name], dtype=float)

    # ------------------------------------------------------------------
    def _state_buffer(self, x: np.ndarray) -> np.ndarray:
        if self._x_dummy is not None:
            return self._x_dummy
        if (
            x.dtype != np.float64
            or not x.flags.c_contiguous
            or x.shape != (self.n, self.n_states)
        ):
            raise BackendError(
                f"state matrix must be C-contiguous float64 "
                f"({self.n}, {self.n_states}); got {x.dtype} {x.shape}"
            )
        return x

    def run_segment(
        self,
        t: float,
        t_end: float,
        h: float,
        record_every: int,
        step: int,
        max_steps: int,
        cold: bool,
        x: np.ndarray,
    ) -> Tuple[float, int, bool, np.ndarray, np.ndarray, int]:
        """Advance every instance until ``t_end`` or ``max_steps`` minor
        steps (0: unlimited), mutating ``x``/``H`` in place.

        Returns ``(t, step, done, rec_t, rec_vals, taken)`` with
        ``rec_t`` shape ``(nrec,)`` and ``rec_vals`` shape
        ``(nrec, n, RECN)``.
        """
        xb = self._state_buffer(x)
        if max_steps > 0:
            cap = max_steps // max(1, record_every) + 2
        else:
            iters = (
                int(math.floor(max(0.0, t_end - t) / h)) + 2
                if h > 0 else 2
            )
            cap = iters // max(1, record_every) + 3
        rec_t = np.empty(cap, dtype=float)
        rec = np.empty((cap, self.n, self.recn), dtype=float)
        rec_stride = self.n * self.recn
        bounds = shard_bounds(self.n, self.shards)

        def run_rows(lo: int, hi: int, write_t: bool):
            t_out = ctypes.c_double()
            step_out = ctypes.c_long()
            done_out = ctypes.c_int()
            nrec = self._lib.batch_run(
                float(t), float(t_end), float(h),
                int(record_every), int(step), int(max_steps),
                1 if cold else 0, hi - lo,
                _ptr_at(xb, lo * xb.shape[1]),
                _ptr_at(self._P, lo * self.nps),
                _ptr_at(self._H, lo * self.nhs),
                _ptr_at(rec_t, 0), 1 if write_t else 0,
                _ptr_at(rec, lo * self.recn), rec_stride, cap,
                ctypes.byref(t_out), ctypes.byref(step_out),
                ctypes.byref(done_out),
            )
            return (
                int(nrec), t_out.value, int(step_out.value),
                int(done_out.value),
            )

        if len(bounds) == 1:
            lo, hi = bounds[0]
            cursors = [run_rows(lo, hi, True)]
        else:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=len(bounds)) as pool:
                futures = [
                    pool.submit(run_rows, lo, hi, index == 0)
                    for index, (lo, hi) in enumerate(bounds)
                ]
                cursors = [future.result() for future in futures]
        first = cursors[0]
        if any(cursor != first for cursor in cursors[1:]):
            raise BackendError(
                f"shards diverged on the shared cursor: {cursors}"
            )
        nrec, t_new, step_new, done = first
        if nrec < 0:
            raise BackendError(
                f"native batch record buffer overflow (cap={cap})"
            )
        return (
            t_new, step_new, bool(done),
            rec_t[:nrec], rec[:nrec], step_new - int(step),
        )


class NativeBatchAdapter(BatchProgramAdapter):
    """The uniform program surface over a native-backed simulator —
    cursor/snapshot semantics are inherited verbatim, only the registry
    name differs (the simulator routes execution to the kernel)."""

    backend = "native-batch"


class NativeBatchBackend(ExecutionBackend):
    name = "native-batch"

    def compile(self, request: CompileRequest) -> NativeBatchAdapter:
        from repro.core.batch import BatchError, BatchSimulator

        if request.diagram is None:
            raise BackendError(
                "the native-batch backend compiles from a diagram (sweep "
                "paths and record labels resolve against it)"
            )
        solver_name = kernel_solver_name(request)
        if not has_c_compiler():
            raise BackendUnavailable(NO_COMPILER)
        try:
            simulator = BatchSimulator(
                diagram=request.diagram,
                n=request.n,
                solver=solver_name,
                h=request.h,
                records=request.records,
                sweeps=request.sweeps,
                x0=request.x0,
                opt_level=request.opt_level,
                opt_config=request.opt_config,
                backend="native-batch",
                shards=request.shards,
                native_cache_dir=request.cache_dir,
            )
        except BatchError as exc:
            raise BackendUnavailable(str(exc)) from exc
        if simulator.backend_name != "native-batch":
            raise BackendUnavailable(
                simulator.backend_fallback_reason
                or "native batch kernel unavailable"
            )
        return NativeBatchAdapter(simulator)

    def prefetch(self, request: CompileRequest) -> None:
        from repro.core.batch import batch_program

        solver_name = kernel_solver_name(request)
        if not has_c_compiler():
            return
        # the program lands in the shared program cache, so the
        # simulator compile() builds later finds it lowered already
        program = batch_program(
            request.diagram, records=request.records,
            sweep_paths=tuple(request.sweeps or ()),
            opt_level=request.opt_level, opt_config=request.opt_config,
            native=True,
        )
        start_build(
            batch_kernel_source(program, solver_name),
            request_cache_dir(request),
        )


register_backend(NativeBatchBackend())
