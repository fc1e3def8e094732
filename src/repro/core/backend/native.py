"""The ``native-c`` backend: cgen wrapped in a ctypes build-and-load path.

Renders a shared-object flavour of the C kernel (exported ``kernel_*``
functions instead of a ``main``), compiles it with the host toolchain and
loads it via :mod:`ctypes` (stdlib — no cffi dependency).

Artifacts are content-addressed: ``<key>.so``, where the key hashes what
gcc actually sees — the rendered source, :data:`CFLAGS` and the compiler
path (:func:`content_key`).  Two requests that render the same C (one
plan at O0 and O1, say) therefore share one build, and any change to the
renderer misses by construction.  A build has two halves.
:func:`start_build` writes the ``.c`` and launches gcc in the background
(:class:`subprocess.Popen`, no Python threads).
:func:`build_artifact` waits for it, joining a build of the same source
already in flight in this process instead of starting a second one.
Across processes an ``O_CREAT|O_EXCL`` ``<key>.lock`` beside the
artifact elects one builder (:mod:`repro._lockfile`); the others poll
for the ``.so``.  :meth:`NativeBackend.prefetch` renders a request's
kernel and starts its build, so gcc runs while the caller does other
work.  A build nobody joins is finished by the next build call or
killed at interpreter exit, leaving no temp file, lock or zombie.

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

import atexit
import ctypes
import hashlib
import math
import os
import shutil
import signal
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro._lockfile import ElectionTimeout, elect, release
from repro.codegen.common import C_LIBM_DECLARATIONS, CLang
from repro.core.backend.base import (
    BackendError, BackendProgram, BackendUnavailable, CompileRequest,
    ExecutionBackend, KERNEL_VERSION, ProgramResult, kernel_solver_name,
    lower_request, register_backend,
)
from repro.core.backend.pykernel import kernel_tables

#: flags shared by every artifact build; ``-ffp-contract=off`` is load-
#: bearing for bitwise parity (no FMA), ``-shared -fPIC`` for dlopen, and
#: the kernels declare their libm functions themselves instead of
#: including ``<math.h>``, so an undeclared one must fail the build
CFLAGS = (
    "-O2", "-fPIC", "-shared", "-ffp-contract=off",
    "-Werror=implicit-function-declaration",
)

#: libraries linked after the source (part of every artifact key too)
LIBS = ("-lm",)

#: seconds a build waits for another process's ``<key>.lock``
BUILD_TIMEOUT_S = 120.0

#: a ``<key>.lock`` older than this is an orphan of a killed process
LOCK_STALE_S = 60.0

#: the demotion reason every native path gives when no compiler is found
NO_COMPILER = "no C compiler on this host (checked $CC, cc, gcc, clang)"


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


def request_cache_dir(request: CompileRequest) -> Path:
    """The artifact directory of a request (None: the process default)."""
    if request.cache_dir is not None:
        return Path(request.cache_dir)
    return default_cache_dir()


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

    Artifacts are grouped by content key (``<key>.so`` + ``<key>.c``
    evict together) and ranked by the ``.so``'s mtime — loads touch it
    (:func:`build_artifact`), so mtime order is LRU order.  ``protect``
    exempts the key just built/loaded, and so does a ``<key>.lock``: a
    build here or in another process is still reading its ``.c``.
    Returns the removed paths.  Errors (racing processes, read-only
    dirs) are swallowed: the sweep is best-effort hygiene, never a build
    failure.
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
    busy = set()
    for path in entries:
        if path.suffix == ".lock":
            busy.add(path.stem)
        elif path.suffix in (".so", ".c"):
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
        if key == protect or key in busy:
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
        *C_LIBM_DECLARATIONS,
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
def content_key(source: str, compiler: str) -> str:
    """The artifact name: a hash of everything gcc sees — the compiler
    path, :data:`CFLAGS`, :data:`LIBS` and the rendered source."""
    digest = hashlib.sha256()
    for part in (compiler, *CFLAGS, *LIBS, source):
        digest.update(part.encode())
        digest.update(b"\0")
    return digest.hexdigest()[:40]


def _temp_path(cache_dir: Path, key: str, suffix: str) -> Path:
    """A fresh, uniquely named empty file in ``cache_dir``."""
    fd, name = tempfile.mkstemp(
        suffix=suffix, prefix=f"{key}.", dir=cache_dir,
    )
    os.close(fd)
    return Path(name)


class _Build:
    """One gcc run this process launched, from start to finish."""

    def __init__(self, source: str, compiler: str, so_path: Path) -> None:
        key = so_path.stem
        self.so_path = so_path
        self.lock = so_path.with_suffix(".lock")
        # temp names are unique per call and each lands by atomic
        # rename, so a build racing a broken stale lock never shares one
        c_path = so_path.with_suffix(".c")
        c_tmp = _temp_path(so_path.parent, key, ".c.tmp")
        c_tmp.write_text(source)
        os.replace(c_tmp, c_path)
        self.tmp_path = _temp_path(so_path.parent, key, ".so.tmp")
        self.cmd = [
            compiler, *CFLAGS, "-o", str(self.tmp_path), str(c_path), *LIBS,
        ]
        # a session of its own, so killing an abandoned build takes its
        # cc1/as/ld children along
        self.proc = subprocess.Popen(
            self.cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        self.guard = threading.Lock()
        self.done = False
        self.error: Optional[str] = "C build abandoned"


#: builds this process launched and nobody has joined yet, by artifact
#: path; a finished build stays listed until it is joined, so the call
#: it was started for still reports its gcc run as a cache miss
_IN_FLIGHT: Dict[Path, _Build] = {}
_TABLE_LOCK = threading.Lock()


def _finish(build: _Build) -> Path:
    """Wait for ``build``'s gcc and publish its ``.so`` (once, by
    whoever asks first); raises :class:`BackendUnavailable` when gcc
    failed.  Leaves no temp file, lock or zombie behind."""
    with build.guard:
        if not build.done:
            try:
                __, stderr = build.proc.communicate()
                if build.proc.returncode == 0:
                    os.replace(build.tmp_path, build.so_path)
                    build.error = None
                else:
                    build.error = (
                        f"C build failed ({' '.join(build.cmd[:2])}...): "
                        f"{stderr.strip()[-500:]}"
                    )
            finally:
                if build.proc.poll() is None:  # interrupted mid-wait
                    _kill(build.proc)
                build.tmp_path.unlink(missing_ok=True)
                release(build.lock)
                build.done = True
            if build.error is None:
                sweep_cache(build.so_path.parent, protect=build.so_path.stem)
    if build.error is not None:
        raise BackendUnavailable(build.error)
    return build.so_path


def _kill(proc: subprocess.Popen) -> None:
    """Stop a build's whole process group and reap its gcc."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(proc.pid, sig)
        except OSError:
            pass
        try:
            proc.communicate(timeout=5)
            return
        except subprocess.TimeoutExpired:
            pass


def _reap(kill: bool = False) -> None:
    """Finish every listed build whose gcc has exited.  A prefetched
    build may never be joined (a scenario returns on its first
    divergence), so each build call collects those: the artifact lands
    and the child, its temp file and its lock go.  At interpreter exit
    (``kill``) the builds still running are killed first, so no gcc
    outlives the process."""
    with _TABLE_LOCK:
        builds = [build for build in _IN_FLIGHT.values() if not build.done]
    for build in builds:
        if build.proc.poll() is None:
            if not kill:
                continue
            _kill(build.proc)
        try:
            _finish(build)
        except BackendUnavailable:
            pass  # kept listed: the call that joins it raises this


atexit.register(_reap, kill=True)


def _forget_parent_builds() -> None:
    """A forked child owns none of its parent's builds."""
    global _TABLE_LOCK
    _TABLE_LOCK = threading.Lock()
    _IN_FLIGHT.clear()


os.register_at_fork(after_in_child=_forget_parent_builds)


def _claim(
    source: str, cache_dir: Path, timeout: float
) -> Tuple[Path, Optional[_Build], bool]:
    """Find or start the build of ``source``'s artifact.

    Returns ``(so_path, build, waited)``: ``build`` is the listed build
    of this process (joined or just launched) or None when the ``.so``
    exists; ``waited`` says another process's build was polled for.
    Raises :class:`BackendUnavailable` without a compiler and
    :class:`~repro._lockfile.ElectionTimeout` when another process
    holds the lock past ``timeout`` (0: do not wait at all).
    """
    compiler = find_c_compiler()
    if compiler is None:
        raise BackendUnavailable(NO_COMPILER)
    cache_dir.mkdir(parents=True, exist_ok=True)
    _reap()
    so_path = cache_dir / f"{content_key(source, compiler)}.so"
    lock = so_path.with_suffix(".lock")
    waited: List[bool] = []

    def ready() -> bool:
        return so_path in _IN_FLIGHT or so_path.exists()

    while True:
        build = _IN_FLIGHT.get(so_path)
        if build is not None:
            return so_path, build, bool(waited)
        if so_path.exists():
            return so_path, None, bool(waited)
        if elect(
            lock, ready, timeout, LOCK_STALE_S,
            on_wait=lambda: waited.append(True),
        ):
            break
    try:
        build = _Build(source, compiler, so_path)
    except BaseException:
        release(lock)
        raise
    with _TABLE_LOCK:
        _IN_FLIGHT[so_path] = build
    return so_path, build, False


def start_build(source: str, cache_dir: Path) -> None:
    """Launch gcc for ``source`` in the background and return at once.

    Nothing happens when its artifact exists, when this process is
    already building it, or when another process holds its lock.  The
    build lands when :func:`build_artifact` joins it, or when a later
    build call or interpreter exit collects it.  Raises
    :class:`BackendUnavailable` without a compiler.
    """
    try:
        _claim(source, cache_dir, timeout=0)
    except ElectionTimeout:
        pass  # another process is building it


def build_artifact(source: str, cache_dir: Path) -> Tuple[Path, bool]:
    """Ensure ``source``'s artifact exists in ``cache_dir``; returns
    ``(so_path, cache_hit)``.

    This is the call that waits for gcc: it joins this process's build
    of the same source (a :func:`start_build`) instead of starting a
    second one, and polls while another process holds the lock.
    ``cache_hit`` is True only when no gcc run was waited for.  Raises
    :class:`BackendUnavailable` when no compiler is found, the build
    fails, or another process's build does not land in time.
    """
    try:
        so_path, build, waited = _claim(source, cache_dir, BUILD_TIMEOUT_S)
    except ElectionTimeout as exc:
        raise BackendUnavailable(str(exc)) from None
    if build is None:
        if not waited:
            try:
                os.utime(so_path)  # touch: mtime is the LRU rank
            except OSError:
                pass
        return so_path, not waited
    try:
        return _finish(build), False
    finally:
        with _TABLE_LOCK:
            if _IN_FLIGHT.get(so_path) is build:
                del _IN_FLIGHT[so_path]


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
        """The snapshot identity: opt-aware plan fingerprint plus
        everything else baked into the rendered source."""
        return self._plan.fingerprint(extra={
            "backend": "native-c",
            "solver": self._solver_name,
            "records": tuple(label for label, __ in self._model.records),
            "x0": tuple(repr(float(v)) for v in self._model.initial_state),
            "kernel": KERNEL_VERSION,
        })

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


class NativeBackend(ExecutionBackend):
    name = "native-c"

    def _render(self, request: CompileRequest) -> Tuple[Any, str, str]:
        solver_name = kernel_solver_name(request)
        if not has_c_compiler():
            raise BackendUnavailable(NO_COMPILER)
        model = lower_request(request, CLang())
        return model, solver_name, render_c_kernel(model, solver_name)

    def compile(self, request: CompileRequest) -> NativeProgram:
        model, solver_name, source = self._render(request)
        so_path, cache_hit = build_artifact(
            source, request_cache_dir(request),
        )
        return NativeProgram(
            model, solver_name, request.h, so_path, cache_hit, source
        )

    def prefetch(self, request: CompileRequest) -> None:
        __, __, source = self._render(request)
        start_build(source, request_cache_dir(request))


register_backend(NativeBackend())
