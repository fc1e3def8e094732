"""The on-disk native artifact cache: content keys, background builds,
single-flight across threads and processes, and the size-capped sweep.

Artifacts are named by :func:`~repro.core.backend.native.content_key`,
a hash of what gcc sees.  ``$REPRO_NATIVE_CACHE_MAX_MB`` bounds the
shared ``.so``/``.c`` spool; :func:`~repro.core.backend.native.sweep_cache`
evicts whole key groups, oldest-loaded first (loads touch the ``.so``
mtime), never the artifact just built nor one being built.  The build
tests count gcc runs through a ``$CC`` wrapper script that logs each
invocation before handing it to the real compiler.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.codegen.common import C_LIBM_DECLARATIONS, CLang
from repro.core.backend import CompileRequest, compile_program, prefetch
from repro.core.backend.base import lower_request
from repro.core.backend.native import (
    build_artifact,
    cache_limit_bytes,
    content_key,
    find_c_compiler,
    has_c_compiler,
    render_c_kernel,
    start_build,
    sweep_cache,
)
from repro.scenarios.spec import ScenarioSpec

needs_cc = pytest.mark.skipif(
    not has_c_compiler(), reason="no C compiler on this host"
)

SOURCE = "double answer(void) { return 42.0; }\n"

#: a ``dag`` scenario whose O0, O1 and O2 plans render the same C
SAME_C_DAG_SEED = 91


def fake_artifact(cache_dir, key: str, size: int, mtime: float) -> None:
    so = cache_dir / f"{key}.so"
    so.write_bytes(b"\x00" * size)
    (cache_dir / f"{key}.c").write_bytes(b"//" + b"x" * size)
    os.utime(so, (mtime, mtime))


def so_for(source: str, cache_dir: Path) -> Path:
    """Where ``source``'s artifact lands under the current ``$CC``."""
    return cache_dir / f"{content_key(source, find_c_compiler())}.so"


class CountingCC:
    """A ``$CC`` wrapper that logs ``<pid> <args>`` per invocation, then
    (after ``delay`` seconds) execs the real compiler in place."""

    def __init__(self, root: Path, real: str, delay: float = 0.0) -> None:
        self.log = root / "cc.log"
        self.path = root / "counting-cc"
        sleep = f"sleep {delay}\n" if delay else ""
        self.path.write_text(
            "#!/bin/sh\n"
            f'echo "$$ $*" >> "{self.log}"\n'
            f"{sleep}"
            f'exec "{real}" "$@"\n'
        )
        self.path.chmod(0o755)

    def runs(self):
        if not self.log.exists():
            return []
        return self.log.read_text().splitlines()

    def pids(self):
        return [int(line.split()[0]) for line in self.runs()]


def make_counting_cc(tmp_path, monkeypatch, delay=0.0) -> CountingCC:
    real = find_c_compiler()
    root = tmp_path / "cc"
    root.mkdir()
    cc = CountingCC(root, real, delay)
    monkeypatch.setenv("CC", str(cc.path))
    return cc


@pytest.fixture
def counting_cc(tmp_path, monkeypatch):
    return make_counting_cc(tmp_path, monkeypatch)


def leftovers(cache_dir: Path):
    """Temp files and locks a finished build must not leave."""
    return sorted(
        p.name for p in cache_dir.iterdir()
        if p.suffix in (".tmp", ".lock")
    )


def pid_alive(pid: int) -> bool:
    """True while ``pid`` exists, zombies included."""
    return Path(f"/proc/{pid}").exists()


def pid_is_zombie(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.01)


class TestCacheLimit:
    def test_unset_means_unbounded(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE_CACHE_MAX_MB", raising=False)
        assert cache_limit_bytes() is None

    def test_parses_megabytes(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CACHE_MAX_MB", "2.5")
        assert cache_limit_bytes() == int(2.5 * 1024 * 1024)

    def test_garbage_and_negative_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CACHE_MAX_MB", "lots")
        assert cache_limit_bytes() is None
        monkeypatch.setenv("REPRO_NATIVE_CACHE_MAX_MB", "-1")
        assert cache_limit_bytes() is None


class TestSweep:
    def test_evicts_oldest_groups_until_fit(self, tmp_path):
        for i, mtime in enumerate((100.0, 200.0, 300.0)):
            fake_artifact(tmp_path, f"k{i}", 1000, mtime)
        removed = sweep_cache(tmp_path, limit_bytes=4500)
        # total ~6000; dropping the oldest group (~2000) fits
        assert {p.stem for p in removed} == {"k0"}
        assert not (tmp_path / "k0.so").exists()
        assert (tmp_path / "k1.so").exists()
        assert (tmp_path / "k2.so").exists()

    def test_protected_key_survives(self, tmp_path):
        fake_artifact(tmp_path, "old", 1000, 100.0)
        fake_artifact(tmp_path, "new", 1000, 200.0)
        removed = sweep_cache(tmp_path, limit_bytes=1, protect="old")
        assert {p.stem for p in removed} == {"new"}
        assert (tmp_path / "old.so").exists()

    def test_locked_key_survives(self, tmp_path):
        # a build in flight (here or in another process) is reading it
        fake_artifact(tmp_path, "building", 1000, 100.0)
        fake_artifact(tmp_path, "idle", 1000, 200.0)
        (tmp_path / "building.lock").write_text("123 0.0\n")
        removed = sweep_cache(tmp_path, limit_bytes=1)
        assert {p.stem for p in removed} == {"idle"}
        assert (tmp_path / "building.c").exists()

    def test_no_limit_is_a_noop(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE_CACHE_MAX_MB", raising=False)
        fake_artifact(tmp_path, "k", 1000, 100.0)
        assert sweep_cache(tmp_path) == []
        assert (tmp_path / "k.so").exists()

    def test_missing_dir_is_a_noop(self, tmp_path):
        assert sweep_cache(tmp_path / "absent", limit_bytes=1) == []

    def test_ignores_foreign_files(self, tmp_path):
        fake_artifact(tmp_path, "k", 1000, 100.0)
        keep = tmp_path / "README.txt"
        keep.write_text("not an artifact")
        sweep_cache(tmp_path, limit_bytes=1)
        assert keep.exists()


class TestContentKey:
    def test_depends_on_source_and_compiler(self):
        key = content_key(SOURCE, "/usr/bin/cc")
        assert key == content_key(SOURCE, "/usr/bin/cc")
        assert key != content_key(SOURCE + "\n", "/usr/bin/cc")
        assert key != content_key(SOURCE, "/usr/bin/clang")


class TestPrelude:
    """The kernels declare CLang's libm functions instead of including
    ``<math.h>``; the table must cover every function CLang emits."""

    def test_table_covers_every_clang_function(self):
        lang = CLang()
        emitted = {
            lang.min("a", "b"), lang.max("a", "b"), lang.abs("a"),
            lang.sin("a"), lang.floor("a"), lang.fmod("a", "b"),
        }
        names = {expr.split("(")[0] for expr in emitted}
        declared = {
            line.split("(")[0].split()[-1] for line in C_LIBM_DECLARATIONS
        }
        assert names == declared

    def test_kernel_renders_without_includes(self):
        spec = ScenarioSpec.from_seed(SAME_C_DAG_SEED)
        model = lower_request(
            CompileRequest(diagram=spec.build(), solver="rk4"), CLang(),
        )
        source = render_c_kernel(model, "rk4")
        assert "#include" not in source
        for line in C_LIBM_DECLARATIONS:
            assert line in source


@needs_cc
class TestBuildIntegration:
    def test_build_sweeps_stale_artifacts(self, tmp_path, monkeypatch):
        fake_artifact(tmp_path, "stale", 512 * 1024, 100.0)
        monkeypatch.setenv("REPRO_NATIVE_CACHE_MAX_MB", "0.25")
        so, hit = build_artifact(SOURCE, tmp_path)
        assert hit is False
        assert so == so_for(SOURCE, tmp_path)
        assert not (tmp_path / "stale.so").exists()
        assert so.exists()

    def test_cache_hit_touches_mtime(self, tmp_path):
        so, hit = build_artifact(SOURCE, tmp_path)
        assert hit is False
        os.utime(so, (100.0, 100.0))
        again, hit = build_artifact(SOURCE, tmp_path)
        assert (again, hit) == (so, True)
        assert so.stat().st_mtime > 100.0

    @pytest.mark.parametrize("key", ["raced0", "raced1", "raced2"])
    def test_concurrent_builds_of_one_key_share_the_artifact(
        self, tmp_path, key,
    ):
        # two threads of one process building the same fresh source
        # share one build and one artifact
        source = f"double {key}(void) {{ return 42.0; }}\n"
        barrier = threading.Barrier(2)
        results, errors = [], []

        def build():
            barrier.wait(timeout=30)
            try:
                results.append(build_artifact(source, tmp_path))
            except Exception as exc:  # reported below, with its type
                errors.append(exc)

        threads = [threading.Thread(target=build) for __ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert errors == []
        so = so_for(source, tmp_path)
        assert [path for path, __ in results] == [so] * 2
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"{so.stem}.c", f"{so.stem}.so",
        ]


def _build_in_child(source, cache_dir, barrier, results) -> None:
    barrier.wait(timeout=60)
    so, hit = build_artifact(source, Path(cache_dir))
    results.put((str(so), hit))


@needs_cc
class TestSingleFlight:
    def test_identical_sources_build_once(self, tmp_path, counting_cc):
        cache = tmp_path / "cache"
        first = build_artifact(SOURCE, cache)
        second = build_artifact(SOURCE, cache)
        assert first == (so_for(SOURCE, cache), False)
        assert second == (first[0], True)
        assert len(counting_cc.runs()) == 1

    def test_orphaned_lock_is_broken(
        self, tmp_path, counting_cc, monkeypatch,
    ):
        import repro.core.backend.native as native

        monkeypatch.setattr(native, "LOCK_STALE_S", 0.0)
        cache = tmp_path / "cache"
        cache.mkdir()
        so = so_for(SOURCE, cache)
        # the builder that took the lock was killed before its .so landed
        so.with_suffix(".lock").write_text("4242 0.0\n")
        assert build_artifact(SOURCE, cache) == (so, False)
        assert len(counting_cc.runs()) == 1
        assert leftovers(cache) == []

    def test_prefetch_then_compile_runs_gcc_once(
        self, tmp_path, counting_cc,
    ):
        cache = tmp_path / "cache"
        start_build(SOURCE, cache)
        wait_for(lambda: len(counting_cc.runs()) == 1)  # in the background
        start_build(SOURCE, cache)  # already in flight: no second run
        joined = build_artifact(SOURCE, cache)
        later = build_artifact(SOURCE, cache)
        assert joined == (so_for(SOURCE, cache), False)
        assert later == (joined[0], True)
        assert len(counting_cc.runs()) == 1
        assert leftovers(cache) == []

    def test_many_threads_run_gcc_once_per_source(
        self, tmp_path, counting_cc,
    ):
        # more threads than cores, half of them prefetching first, with
        # a short switch interval: a lost update in the in-flight table
        # shows as a second gcc run of some source
        sources = [
            f"double s{i}(void) {{ return {i}.0; }}\n" for i in range(3)
        ]
        cache = tmp_path / "cache"
        barrier = threading.Barrier(8)
        results, errors = [], []

        def build(index: int) -> None:
            source = sources[index % 3]
            barrier.wait(timeout=30)
            try:
                if index % 2:
                    start_build(source, cache)
                results.append((source, build_artifact(source, cache)[0]))
            except Exception as exc:  # reported below, with its type
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=build, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(counting_cc.runs()) == 3
        assert set(results) == {(s, so_for(s, cache)) for s in sources}
        assert leftovers(cache) == []

    def test_prefetched_broken_source_demotes_with_the_same_reason(
        self, tmp_path, counting_cc, monkeypatch,
    ):
        import repro.core.backend.native as native

        # an undeclared function: only -Werror makes this a failed build
        monkeypatch.setattr(
            native, "render_c_kernel",
            lambda model, solver: "double f(void) { return g(1.0); }\n",
        )
        spec = ScenarioSpec.from_seed(SAME_C_DAG_SEED)

        def demotion_reason(prefetched: bool) -> str:
            request = CompileRequest(
                diagram=spec.build(), solver="rk4", cache_dir=tmp_path,
            )
            if prefetched:
                prefetch(request, "native-c")
            events = []
            program = compile_program(
                request, "native-c", emit=lambda **kw: events.append(kw),
            )
            assert program.backend == "compiled-python"
            assert [e["attempted"] for e in events] == ["native-c"]
            return events[0]["reason"]

        plain = demotion_reason(prefetched=False)
        assert "implicit declaration" in plain
        assert demotion_reason(prefetched=True) == plain
        # one gcc run per compile: the prefetch's run was the one joined
        assert len(counting_cc.runs()) == 2
        assert leftovers(tmp_path) == []

    def test_two_spawned_processes_run_gcc_once(
        self, tmp_path, monkeypatch,
    ):
        # the wrapper dawdles, so the second process arrives while the
        # first still holds the lock
        cc = make_counting_cc(tmp_path, monkeypatch, delay=2)
        cache = tmp_path / "cache"
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        results = ctx.Queue()
        procs = [
            ctx.Process(
                target=_build_in_child,
                args=(SOURCE, str(cache), barrier, results),
            )
            for __ in range(2)
        ]
        for proc in procs:
            proc.start()
        outcomes = [results.get(timeout=120) for __ in procs]
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        assert len(cc.runs()) == 1
        assert [so for so, __ in outcomes] == [str(so_for(SOURCE, cache))] * 2
        # the loser waited for a gcc run too: neither call was a hit
        assert [hit for __, hit in outcomes] == [False, False]
        assert leftovers(cache) == []

    def test_abandoned_prefetch_is_reaped_by_the_next_build(
        self, tmp_path, counting_cc,
    ):
        cache = tmp_path / "cache"
        start_build(SOURCE, cache)
        wait_for(lambda: len(counting_cc.runs()) == 1)
        [pid] = counting_cc.pids()
        wait_for(lambda: pid_is_zombie(pid))  # exited, nobody waited
        other = "double other(void) { return 1.0; }\n"
        build_artifact(other, cache)
        assert not pid_alive(pid)
        assert leftovers(cache) == []
        assert so_for(SOURCE, cache).exists()
        # the abandoned run still counts for the call that claims it
        assert build_artifact(SOURCE, cache) == (
            so_for(SOURCE, cache), False,
        )
        assert len(counting_cc.runs()) == 2

    def test_abandoned_prefetch_is_killed_at_exit(
        self, tmp_path, monkeypatch,
    ):
        cc = make_counting_cc(tmp_path, monkeypatch, delay=30)
        cache = tmp_path / "cache"
        script = (
            "import sys, time\n"
            "from pathlib import Path\n"
            "from repro.core.backend.native import start_build\n"
            f"start_build({SOURCE!r}, Path(sys.argv[1]))\n"
            f"log = Path({str(cc.log)!r})\n"
            "while not log.exists():\n"
            "    time.sleep(0.01)\n"
        )
        src = Path(repro.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        started = time.monotonic()
        subprocess.run(
            [sys.executable, "-c", script, str(cache)],
            check=True, timeout=60, env=env,
        )
        assert time.monotonic() - started < 25  # killed, not waited for
        [pid] = cc.pids()
        assert not pid_alive(pid)
        assert leftovers(cache) == []
        assert not so_for(SOURCE, cache).exists()

    def test_dag_with_identical_c_at_every_level_builds_one_so(
        self, tmp_path, counting_cc,
    ):
        spec = ScenarioSpec.from_seed(SAME_C_DAG_SEED)
        assert spec.family == "dag"
        programs = [
            compile_program(CompileRequest(
                diagram=spec.build(), solver="rk4", h=1.0 / 512.0,
                opt_level=level, cache_dir=tmp_path,
            ), "native-c")
            for level in (0, 1, 2)
        ]
        assert len({program.source for program in programs}) == 1
        assert {program.so_path for program in programs} == {
            programs[0].so_path,
        }
        assert [program.cache_hit for program in programs] == [
            False, True, True,
        ]
        assert len(counting_cc.runs()) == 1
        # the snapshot identity still tells the opt levels apart
        assert len({program.fingerprint() for program in programs}) == 3


class TestPrefetchIsSilent:
    def test_backends_without_artifacts(self, tmp_path):
        spec = ScenarioSpec.from_seed(SAME_C_DAG_SEED)
        for backend in ("interpreter", "compiled-python", "no-such"):
            request = CompileRequest(
                diagram=spec.build(), cache_dir=tmp_path / "cache",
            )
            assert prefetch(request, backend) is None
        assert not (tmp_path / "cache").exists()

    def test_no_compiler_or_unsupported_solver(self, tmp_path, monkeypatch):
        spec = ScenarioSpec.from_seed(SAME_C_DAG_SEED)
        request = CompileRequest(
            diagram=spec.build(), solver="rk45",
            cache_dir=tmp_path / "cache",
        )
        prefetch(request, "native-c")
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        request.solver = "rk4"
        prefetch(request, "native-c")
        prefetch(request, "native-batch")
        assert not (tmp_path / "cache").exists()
