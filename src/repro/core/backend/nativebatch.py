"""The ``native-batch`` backend: N-instance C kernels with sharding.

Takes the same optimized ExecutionPlan the scalar ``native-c`` path
lowers, but rendered by :func:`repro.codegen.cgen.render_batch_kernel`
into an N-instance translation unit: one contiguous row per instance
(``X[n][nx]``, ``P[n][np]``, ``H[n][nh]``), the instance loop inside the
compiled ``batch_run`` (the fixed-step loop contract of
:mod:`repro.core.loop` with a chunk cut), batch size a runtime argument.
One artifact therefore serves any N: artifacts are named by a hash of
the rendered source, flags and compiler (the ``native-c`` build path,
:func:`repro.core.backend.native.load_artifact`), and neither the
instance count nor the initial state is baked into the source.
The kernel renders from a native :class:`~repro.core.batch.BatchProgram`
(the diagram lowered once, with ``CBatchLang``); no NumPy program is
built unless the simulator demotes.
:meth:`NativeBatchKernel.run_segment` takes the arguments and gives the
returns of the NumPy program's segment, writing its records into the
run's one label-major buffer, so ``BatchSimulator.run_chunked`` cuts,
packages and resumes chunks the same way on both.  A segment that
leaves an instance's state non-finite raises the solvers'
:class:`~repro.solvers.base.SolverError`, as the NumPy program does.
:meth:`NativeBatchBackend.prefetch` renders the kernel and starts its
gcc run in the background; the simulator's build later joins it.

Bitwise parity: per instance the kernel applies exactly the scalar
native kernel's arithmetic — same emitters, same solver-stage grouping,
same ``-ffp-contract=off`` build — and swept parameters load the same
double values from the ``P`` row that ``simulate_sequential`` folds into
its per-instance diagrams.  Sharding splits the instance axis into
contiguous row ranges: rows never interact (the whole point of a batch),
so any shard count produces identical bits.

Sharding: the ctypes call releases the GIL, so K shards run
concurrently on K cores through :func:`repro._fanout.fan_out` (shard 0
on the calling thread, the others on K - 1 helper threads), each on a
zero-copy row slice (pointer offset into the shared matrices).  Every
shard returns its ``(nrec, t, step, done)`` cursor and they must agree
exactly — a cheap invariant check that the shard decomposition stayed
pure.

No compiler / unsupported solver / unlowerable model raises
:class:`BackendUnavailable`; the ladder demotes ``native-batch`` to the
NumPy ``batch`` program (metric + telemetry), never failing the run.
"""

from __future__ import annotations

import ctypes
import os
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro._fanout import fan_out
from repro.core.backend.base import (
    BackendError, BackendUnavailable, CompileRequest, kernel_solver_name,
    register_backend,
)
from repro.core.backend.batchentry import BatchBackend
from repro.core.backend.native import (
    NO_COMPILER, default_cache_dir, has_c_compiler, load_artifact,
    request_cache_dir, start_build,
)
from repro.solvers.base import SolverError, non_finite

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
    """The N-instance C source of a native batch program;
    :class:`BackendUnavailable` when it is a NumPy program."""
    if not program.native:
        raise BackendUnavailable(
            "batch program has no C lowering "
            "(compile_batch_program(..., native=True))"
        )
    from repro.codegen.cgen import render_batch_kernel
    from repro.codegen.common import CodegenError

    try:
        return render_batch_kernel(
            program.model, solver_name, len(program.sweep_paths),
        )
    except CodegenError as exc:
        raise BackendUnavailable(str(exc)) from exc


def _load_batch(so_path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(so_path))
    lib.batch_run.argtypes = [
        ctypes.c_double, ctypes.c_double, ctypes.c_double,
        ctypes.c_long, ctypes.c_long, ctypes.c_long, ctypes.c_int,
        ctypes.c_long, _DP, _DP, _DP,
        _DP, ctypes.c_int, _DP, ctypes.c_long, ctypes.c_long,
        ctypes.c_long,
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
        from repro.codegen.common import kernel_tables

        n_params = len(program.sweep_paths)
        tables = kernel_tables(program.model)
        self._lib, so_path, cache_hit = load_artifact(
            source, Path(cache_dir) if cache_dir else default_cache_dir(),
            _load_batch,
        )

        self.solver_name = solver_name
        self.source = source
        self.so_path = so_path
        self.cache_hit = cache_hit
        self.n = int(n)
        self.n_states = tables["n_states"]
        self.nxs = max(1, self.n_states)
        self.labels = [label for label, __ in program.model.records]
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
        rec_t: np.ndarray,
        rec: np.ndarray,
        row: int,
    ) -> Tuple[float, np.ndarray, int, bool, int]:
        """Advance every instance until ``t_end`` or ``max_steps`` minor
        steps (0: unlimited), mutating ``x``/``H`` in place.

        Records go to the rows from ``row`` on of the run's buffers:
        the times ``rec_t`` ``(cap,)`` and the label-major series
        ``rec`` ``(labels, cap, n)``.  Returns ``(t, x, step, done,
        rows)``: the cursor reached, whether it is at ``t_end`` and the
        rows written.  Raises :class:`~repro.solvers.base.SolverError`
        when an instance's state is non-finite at the segment's end.
        """
        xb = self._state_buffer(x)
        rows_total = len(rec_t)
        if not (
            rec.shape == (len(self.labels), rows_total, self.n)
            and rec.dtype == rec_t.dtype == np.float64
            and rec.flags.c_contiguous and rec_t.flags.c_contiguous
            and 0 <= row <= rows_total
        ):
            raise BackendError(
                f"record buffers must be C-contiguous float64 (cap,) and "
                f"({len(self.labels)}, cap, {self.n}) with row {row} in "
                f"[0, cap]; got {rec_t.dtype} {rec_t.shape}, {rec.dtype} "
                f"{rec.shape}"
            )
        cap = rows_total - row
        bounds = shard_bounds(self.n, self.shards)

        def run_rows(shard: int):
            lo, hi = bounds[shard]
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
                _ptr_at(rec_t, row), 1 if shard == 0 else 0,
                _ptr_at(rec, row * self.n + lo), self.n,
                rows_total * self.n, cap,
                ctypes.byref(t_out), ctypes.byref(step_out),
                ctypes.byref(done_out),
            )
            return (
                int(nrec), t_out.value, int(step_out.value),
                int(done_out.value),
            )

        # shard 0 (the one that writes rec_t) runs on this thread
        cursors = fan_out(run_rows, range(len(bounds)), len(bounds))
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
        finite = np.isfinite(x).all(axis=1)
        if not finite.all():
            raise SolverError(
                f"{non_finite(self.solver_name, t_new)} in instances "
                f"{np.flatnonzero(~finite).tolist()}"
            )
        return t_new, x, step_new, bool(done), nrec


class NativeBatchBackend(BatchBackend):
    name = "native-batch"

    def _check(self, request: CompileRequest) -> None:
        kernel_solver_name(request)
        if not has_c_compiler():
            raise BackendUnavailable(NO_COMPILER)

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
