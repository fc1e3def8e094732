"""The ``native-c`` backend: cgen wrapped in a ctypes build-and-load path.

Renders a shared-object flavour of the C kernel (exported ``kernel_*``
functions instead of a ``main``), compiles it with the host toolchain and
loads it via :mod:`ctypes` (stdlib — no cffi dependency).  Artifacts are
cached on disk keyed by the opt-aware plan fingerprint, so recompiling
the same plan is a file-existence check.

Bitwise parity: every expression is emitted by the same
:mod:`repro.codegen.common` emitters; ``repr`` float literals round-trip
exactly through ``strtod``; the solver stages replicate
:mod:`repro.solvers.fixed` with the same grouping; and the build uses
``-ffp-contract=off`` so the compiler cannot fuse multiply-adds into FMA
(which would change results in the last ulp).  IEEE-754 double +,-,*,/
are exactly rounded, so C and Python agree bit for bit.

No compiler, or a failed build, raises :class:`BackendUnavailable` — the
resolver then demotes to ``compiled-python`` (metric + telemetry event),
never failing the run.
"""

from __future__ import annotations

import ctypes
import math
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.codegen.common import CLang
from repro.core.backend.base import (
    BackendError, BackendProgram, BackendUnavailable, CompileRequest,
    ExecutionBackend, KERNEL_VERSION, ProgramResult, kernel_solver_name,
    lower_request, register_backend,
)
from repro.core.backend.pykernel import kernel_tables

#: flags shared by every artifact build; ``-ffp-contract=off`` is load-
#: bearing for bitwise parity (no FMA), ``-shared -fPIC`` for dlopen
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


def find_c_compiler() -> Optional[str]:
    """Path of the host C compiler (``$CC``, then cc/gcc/clang), or None.

    ``REPRO_NATIVE_DISABLE=1`` reports no compiler even when one exists —
    CI's compiler-free lanes use it to pin the fallback path
    deterministically on hosts that happen to ship a toolchain.
    """
    if os.environ.get("REPRO_NATIVE_DISABLE"):
        return None
    cc = os.environ.get("CC")
    if cc:
        found = shutil.which(cc)
        if found:
            return found
    for candidate in ("cc", "gcc", "clang"):
        found = shutil.which(candidate)
        if found:
            return found
    return None


def has_c_compiler() -> bool:
    """True when the native-c backend can build on this host."""
    return find_c_compiler() is not None


def default_cache_dir() -> Path:
    """The artifact cache directory (``$REPRO_NATIVE_CACHE`` overrides)."""
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    return Path(tempfile.gettempdir()) / "repro-native-cache"


def cache_limit_bytes() -> Optional[int]:
    """The artifact-cache size cap (``$REPRO_NATIVE_CACHE_MAX_MB``), or
    None when unbounded (the default)."""
    raw = os.environ.get("REPRO_NATIVE_CACHE_MAX_MB", "").strip()
    if not raw:
        return None
    try:
        limit = float(raw)
    except ValueError:
        return None
    if limit < 0:
        return None
    return int(limit * 1024 * 1024)


def sweep_cache(
    cache_dir: Path,
    limit_bytes: Optional[int] = None,
    protect: Optional[str] = None,
) -> List[Path]:
    """Evict least-recently-used artifacts until the cache fits.

    Artifacts are grouped by fingerprint key (``<key>.so`` + ``<key>.c``
    evict together) and ranked by the ``.so``'s mtime — loads touch it
    (:func:`build_artifact`), so mtime order is LRU order.  ``protect``
    exempts the key just built/loaded.  Returns the removed paths.
    Errors (racing processes, read-only dirs) are swallowed: the sweep
    is best-effort hygiene, never a build failure.
    """
    if limit_bytes is None:
        limit_bytes = cache_limit_bytes()
    if limit_bytes is None:
        return []
    groups: Dict[str, List[Path]] = {}
    try:
        entries = list(cache_dir.iterdir())
    except OSError:
        return []
    for path in entries:
        if path.suffix not in (".so", ".c"):
            continue
        groups.setdefault(path.stem, []).append(path)
    ranked = []
    total = 0
    for key, paths in groups.items():
        size = 0
        mtime = 0.0
        for path in paths:
            try:
                stat = path.stat()
            except OSError:
                continue
            size += stat.st_size
            if path.suffix == ".so":
                mtime = stat.st_mtime
        total += size
        ranked.append((mtime, key, size, paths))
    removed: List[Path] = []
    ranked.sort()  # oldest .so first
    for mtime, key, size, paths in ranked:
        if total <= limit_bytes:
            break
        if protect is not None and key == protect:
            continue
        for path in paths:
            try:
                path.unlink()
                removed.append(path)
            except OSError:
                pass
        total -= size
    return removed


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
_C_STAGES: Dict[str, Tuple[str, ...]] = {
    "euler": (
        "kernel_deriv(t, x, held, k1);",
        "for (i = 0; i < NS; i++) x[i] = x[i] + hh * k1[i];",
    ),
    "heun": (
        "kernel_deriv(t, x, held, k1);",
        "for (i = 0; i < NS; i++) xs[i] = x[i] + hh * k1[i];",
        "kernel_deriv(t + hh, xs, held, k2);",
        "for (i = 0; i < NS; i++)"
        " x[i] = x[i] + (hh / 2.0) * (k1[i] + k2[i]);",
    ),
    "rk4": (
        "kernel_deriv(t, x, held, k1);",
        "for (i = 0; i < NS; i++) xs[i] = x[i] + (hh / 2.0) * k1[i];",
        "kernel_deriv(t + hh / 2.0, xs, held, k2);",
        "for (i = 0; i < NS; i++) xs[i] = x[i] + (hh / 2.0) * k2[i];",
        "kernel_deriv(t + hh / 2.0, xs, held, k3);",
        "for (i = 0; i < NS; i++) xs[i] = x[i] + hh * k3[i];",
        "kernel_deriv(t + hh, xs, held, k4);",
        "for (i = 0; i < NS; i++)",
        "    x[i] = x[i] + (hh / 6.0)"
        " * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);",
    ),
}


def render_c_kernel(model, solver_name: str) -> str:
    """A shared-object C translation unit for ``model``.

    Unlike :mod:`repro.codegen.cgen`'s standalone program, signals are
    plain ``const double`` locals (declared in plan order, which is a
    valid declaration order because only non-feedthrough consumers sit
    before their producers and those never read the signal in their
    output expression) — no signal array, no textual substitution.
    """
    tables = kernel_tables(model)
    held_names = [name for name, __ in tables["held"]]
    n_states = tables["n_states"]
    n_rec = len(tables["record_exprs"])
    out: List[str] = [
        "/* Auto-generated by repro.core.backend.native -- do not edit.",
        f" * Source model: {model.name}",
        f" * Solver: {solver_name}",
        " */",
        "#include <math.h>",
        "",
        f"#define NS {n_states}",
        f"#define NSAFE {max(1, n_states)}",
        f"#define NREC {n_rec}",
        f"#define RECN {max(1, n_rec)}",
        "",
    ]
    init = ", ".join(repr(float(v)) for v in model.initial_state) or "0.0"
    out.append(f"static const double X0[NSAFE] = {{{init}}};")
    held_init = ", ".join(
        repr(float(v)) for __, v in tables["held"]
    ) or "0.0"
    out.append(
        f"static const double H0[{max(1, len(held_names))}]"
        f" = {{{held_init}}};"
    )
    out.append("")

    def emit_signals(mutable_held: bool) -> None:
        qualifier = "double" if mutable_held else "const double"
        for i, name in enumerate(held_names):
            out.append(f"    {qualifier} {name} = held[{i}];")
        for line in tables["output_lines"]:
            var, __, expr = line.partition(" = ")
            out.append(f"    const double {var} = {expr};")

    out.append("void kernel_deriv(double t, const double* x,")
    out.append("                  const double* held, double* dx)")
    out.append("{")
    out.append("    int i;")
    out.append("    (void)t; (void)x; (void)held;")
    emit_signals(mutable_held=False)
    out.append("    for (i = 0; i < NS; i++) dx[i] = 0.0;")
    for index, expr in tables["derivs"]:
        out.append(f"    dx[{index}] = {expr};")
    out.append("}")
    out.append("")

    out.append("void kernel_outvals(double t, const double* x,")
    out.append("                    const double* held, double* rec)")
    out.append("{")
    out.append("    (void)t; (void)x; (void)held; (void)rec;")
    emit_signals(mutable_held=False)
    for i, expr in enumerate(tables["record_exprs"]):
        out.append(f"    rec[{i}] = {expr};")
    out.append("}")
    out.append("")

    out.append("void kernel_sync(double t, const double* x, double* held)")
    out.append("{")
    out.append("    (void)t; (void)x; (void)held;")
    if tables["sync_rows"]:
        emit_signals(mutable_held=True)
        for indent, line in tables["sync_rows"]:
            out.append(f"    {'    ' * indent}{line}")
        for i, name in enumerate(held_names):
            out.append(f"    held[{i}] = {name};")
    out.append("}")
    out.append("")

    out.append("double kernel_step(double t, double hh,")
    out.append("                   double* x, double* held)")
    out.append("{")
    out.append("    double k1[NSAFE], k2[NSAFE], k3[NSAFE],")
    out.append("           k4[NSAFE], xs[NSAFE];")
    out.append("    int i;")
    out.append("    (void)k2; (void)k3; (void)k4; (void)xs; (void)held;")
    for line in _C_STAGES[solver_name]:
        out.append(f"    {line}")
    out.append("    return t + hh;")
    out.append("}")
    out.append("")

    out.append("long kernel_run(double t, double t_end, double h,")
    out.append("                long record_every, long step, int cold,")
    out.append("                double* x, double* held,")
    out.append("                double* rec_t, double* rec_vals, long cap,")
    out.append("                double* t_out, long* step_out)")
    out.append("{")
    out.append("    long nrec = 0;")
    out.append("    if (cold) kernel_sync(t, x, held);")
    out.append("    while (t < t_end - 1e-12) {")
    out.append("        double hh = (h < t_end - t) ? h : (t_end - t);")
    out.append("        if (step % record_every == 0) {")
    out.append("            if (nrec >= cap) return -1;")
    out.append("            rec_t[nrec] = t;")
    out.append("            kernel_outvals(t, x, held,"
               " rec_vals + nrec * RECN);")
    out.append("            nrec += 1;")
    out.append("        }")
    out.append("        t = kernel_step(t, hh, x, held);")
    out.append("        step += 1;")
    out.append("        kernel_sync(t, x, held);")
    out.append("    }")
    out.append("    if (nrec >= cap) return -1;")
    out.append("    rec_t[nrec] = t;")
    out.append("    kernel_outvals(t, x, held, rec_vals + nrec * RECN);")
    out.append("    nrec += 1;")
    out.append("    *t_out = t;")
    out.append("    *step_out = step;")
    out.append("    return nrec;")
    out.append("}")
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# artifact cache
# ----------------------------------------------------------------------
def _temp_path(cache_dir: Path, key: str, suffix: str) -> Path:
    """A fresh, uniquely named empty file in ``cache_dir``."""
    fd, name = tempfile.mkstemp(
        suffix=suffix, prefix=f"{key}.", dir=cache_dir,
    )
    os.close(fd)
    return Path(name)


def build_artifact(
    source: str, key: str, cache_dir: Path
) -> Tuple[Path, bool]:
    """Ensure ``<key>.so`` exists in ``cache_dir``; returns
    ``(so_path, cache_hit)``.  Raises :class:`BackendUnavailable` when no
    compiler is found or the build fails."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    c_path = cache_dir / f"{key}.c"
    so_path = cache_dir / f"{key}.so"
    if so_path.exists():
        try:
            os.utime(so_path)  # touch: mtime is the LRU rank
        except OSError:
            pass
        return so_path, True
    compiler = find_c_compiler()
    if compiler is None:
        raise BackendUnavailable(
            "no C compiler on this host (checked $CC, cc, gcc, clang)"
        )
    # every temp name is unique per call, so threads or processes
    # building the same key never share one; each lands by atomic rename
    c_tmp = _temp_path(cache_dir, key, ".c.tmp")
    c_tmp.write_text(source)
    os.replace(c_tmp, c_path)
    tmp_path = _temp_path(cache_dir, key, ".so.tmp")
    cmd = [compiler, *CFLAGS, "-o", str(tmp_path), str(c_path), "-lm"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        tmp_path.unlink(missing_ok=True)
        raise BackendUnavailable(
            f"C build failed ({' '.join(cmd[:2])}...): "
            f"{proc.stderr.strip()[-500:]}"
        )
    os.replace(tmp_path, so_path)
    sweep_cache(cache_dir, protect=key)
    return so_path, False


_DP = ctypes.POINTER(ctypes.c_double)


def _load(so_path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(so_path))
    lib.kernel_deriv.argtypes = [ctypes.c_double, _DP, _DP, _DP]
    lib.kernel_deriv.restype = None
    lib.kernel_outvals.argtypes = [ctypes.c_double, _DP, _DP, _DP]
    lib.kernel_outvals.restype = None
    lib.kernel_sync.argtypes = [ctypes.c_double, _DP, _DP]
    lib.kernel_sync.restype = None
    lib.kernel_step.argtypes = [ctypes.c_double, ctypes.c_double, _DP, _DP]
    lib.kernel_step.restype = ctypes.c_double
    lib.kernel_run.argtypes = [
        ctypes.c_double, ctypes.c_double, ctypes.c_double,
        ctypes.c_long, ctypes.c_long, ctypes.c_int,
        _DP, _DP, _DP, _DP, ctypes.c_long,
        ctypes.POINTER(ctypes.c_double), ctypes.POINTER(ctypes.c_long),
    ]
    lib.kernel_run.restype = ctypes.c_long
    return lib


def _ptr(array: np.ndarray):
    return array.ctypes.data_as(_DP)


class NativeProgram(BackendProgram):
    backend = "native-c"

    def __init__(
        self,
        model,
        solver_name: str,
        h: float,
        so_path: Path,
        cache_hit: bool,
        source: str,
    ) -> None:
        self._model = model
        self._plan = model.plan
        self._solver_name = solver_name
        self.h = float(h)
        self.so_path = so_path
        self.cache_hit = cache_hit
        self.source = source
        self._lib = _load(so_path)

        tables = kernel_tables(model)
        self._held_names: List[str] = [n for n, __ in tables["held"]]
        self._held0 = np.asarray(
            [v for __, v in tables["held"]] or [0.0], dtype=float
        )
        index_of = {name: i for i, name in enumerate(self._held_names)}
        self._held_bindings = [
            (index_of[name], leaf, attr)
            for name, leaf, attr in tables["held_attrs"]
        ]
        self._n_states = tables["n_states"]
        self._n_rec = len(tables["record_exprs"])
        self._x0 = np.asarray(
            list(model.initial_state) or [0.0], dtype=float
        )
        self._t = 0.0
        self._x = self._x0.copy()
        self._held = self._held0.copy()
        self._step = 0
        self._cold = True

    # ------------------------------------------------------------------
    @property
    def plan(self):
        return self._plan

    @property
    def t(self) -> float:
        return self._t

    @property
    def x(self) -> np.ndarray:
        return self._x[: self._n_states]

    def record_labels(self) -> List[str]:
        return [label for label, __ in self._model.records]

    def fingerprint(self) -> str:
        return artifact_key(self._plan, self._model, self._solver_name)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        self._t = 0.0
        self._x = self._x0.copy()
        self._held = self._held0.copy()
        self._step = 0
        self._cold = True

    def step(self, h: Optional[float] = None) -> float:
        hh = self.h if h is None else float(h)
        if self._cold:
            self._lib.kernel_sync(self._t, _ptr(self._x), _ptr(self._held))
            self._cold = False
        self._t = self._lib.kernel_step(
            self._t, hh, _ptr(self._x), _ptr(self._held)
        )
        self._step += 1
        self._lib.kernel_sync(self._t, _ptr(self._x), _ptr(self._held))
        return self._t

    def run(
        self,
        t_end: float,
        h: Optional[float] = None,
        record_every: int = 1,
    ) -> ProgramResult:
        hh = self.h if h is None else float(h)
        remaining = max(0.0, float(t_end) - self._t)
        iters = int(math.floor(remaining / hh)) + 2 if hh > 0 else 2
        cap = iters // max(1, int(record_every)) + 3
        rec_t = np.empty(cap, dtype=float)
        rec_vals = np.empty((cap, max(1, self._n_rec)), dtype=float)
        t_out = ctypes.c_double()
        step_out = ctypes.c_long()
        nrec = self._lib.kernel_run(
            self._t, float(t_end), hh,
            int(record_every), self._step, int(self._cold),
            _ptr(self._x), _ptr(self._held),
            _ptr(rec_t), _ptr(rec_vals), cap,
            ctypes.byref(t_out), ctypes.byref(step_out),
        )
        if nrec < 0:
            raise BackendError(
                f"native record buffer overflow (cap={cap})"
            )
        self._t = t_out.value
        self._step = step_out.value
        self._cold = False
        labels = self.record_labels()
        return ProgramResult(
            t=rec_t[:nrec].copy(),
            series={
                label: rec_vals[:nrec, i].copy()
                for i, label in enumerate(labels)
            },
            final_state=self.x.copy(),
            stats={
                "backend": self.backend,
                "steps": self._step,
                "solver": self._solver_name,
                "artifact": str(self.so_path),
                "artifact_cache_hit": self.cache_hit,
            },
        )

    def rhs(self, t: float, x: np.ndarray) -> np.ndarray:
        buf = np.ascontiguousarray(x, dtype=float)
        if buf is x:
            buf = buf.copy()  # the kernel must not alias solver stages
        if buf.size == 0:
            buf = np.zeros(1)
        dx = np.zeros(max(1, self._n_states), dtype=float)
        self._lib.kernel_deriv(
            float(t), _ptr(buf), _ptr(self._held), _ptr(dx)
        )
        return dx[: self._n_states]

    def sync_now(self, t: float) -> None:
        self._lib.kernel_sync(float(t), _ptr(self._x), _ptr(self._held))

    def refresh_held_from_blocks(self) -> None:
        held = self._held
        for slot, leaf, attr in self._held_bindings:
            held[slot] = float(getattr(leaf, attr))

    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        return {
            "t": self._t,
            "step": self._step,
            "cold": self._cold,
            "x": [float(v) for v in self._x[: self._n_states]],
            "held": {
                name: float(self._held[i])
                for i, name in enumerate(self._held_names)
            },
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        self._t = float(state["t"])
        self._step = int(state["step"])
        self._cold = bool(state.get("cold", False))
        x = np.asarray(state["x"], dtype=float)
        self._x = x.copy() if x.size else np.zeros(1)
        held = state.get("held", {})
        self._held = np.asarray(
            [
                float(held.get(name, self._held0[i]))
                for i, name in enumerate(self._held_names)
            ] or [0.0],
            dtype=float,
        )


def artifact_key(plan, model, solver_name: str) -> str:
    """The on-disk artifact identity: opt-aware plan fingerprint plus
    everything else baked into the rendered source."""
    return plan.fingerprint(extra={
        "backend": "native-c",
        "solver": solver_name,
        "records": tuple(label for label, __ in model.records),
        "x0": tuple(repr(float(v)) for v in model.initial_state),
        "kernel": KERNEL_VERSION,
    })


class NativeBackend(ExecutionBackend):
    name = "native-c"

    def compile(self, request: CompileRequest) -> NativeProgram:
        solver_name = kernel_solver_name(request)
        if not has_c_compiler():
            raise BackendUnavailable(
                "no C compiler on this host (checked $CC, cc, gcc, clang)"
            )
        model = lower_request(request, CLang())
        source = render_c_kernel(model, solver_name)
        key = artifact_key(model.plan, model, solver_name)
        cache_dir = (
            Path(request.cache_dir) if request.cache_dir is not None
            else default_cache_dir()
        )
        so_path, cache_hit = build_artifact(source, key, cache_dir)
        return NativeProgram(
            model, solver_name, request.h, so_path, cache_hit, source
        )


register_backend(NativeBackend())
