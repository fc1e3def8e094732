"""The on-disk native artifact cache: size cap + mtime-LRU sweep.

``$REPRO_NATIVE_CACHE_MAX_MB`` bounds the shared ``.so``/``.c`` spool;
:func:`~repro.core.backend.native.sweep_cache` evicts whole key groups,
oldest-loaded first (loads touch the ``.so`` mtime), never the artifact
just built.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.core.backend.native import (
    build_artifact,
    cache_limit_bytes,
    has_c_compiler,
    sweep_cache,
)

needs_cc = pytest.mark.skipif(
    not has_c_compiler(), reason="no C compiler on this host"
)


def fake_artifact(cache_dir, key: str, size: int, mtime: float) -> None:
    so = cache_dir / f"{key}.so"
    so.write_bytes(b"\x00" * size)
    (cache_dir / f"{key}.c").write_bytes(b"//" + b"x" * size)
    os.utime(so, (mtime, mtime))


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


@needs_cc
class TestBuildIntegration:
    SOURCE = "double answer(void) { return 42.0; }\n"

    def test_build_sweeps_stale_artifacts(self, tmp_path, monkeypatch):
        fake_artifact(tmp_path, "stale", 512 * 1024, 100.0)
        monkeypatch.setenv("REPRO_NATIVE_CACHE_MAX_MB", "0.25")
        __, hit = build_artifact(self.SOURCE, "fresh1", tmp_path)
        assert hit is False
        assert not (tmp_path / "stale.so").exists()
        assert (tmp_path / "fresh1.so").exists()

    def test_cache_hit_touches_mtime(self, tmp_path):
        so, hit = build_artifact(self.SOURCE, "touched", tmp_path)
        assert hit is False
        os.utime(so, (100.0, 100.0))
        __, hit = build_artifact(self.SOURCE, "touched", tmp_path)
        assert hit is True
        assert so.stat().st_mtime > 100.0

    @pytest.mark.parametrize("key", ["raced0", "raced1", "raced2"])
    def test_concurrent_builds_of_one_key_share_the_artifact(
        self, tmp_path, key,
    ):
        # two threads of one process building the same fresh key used to
        # share a temp path, and one of them lost it to the other's rename
        barrier = threading.Barrier(2)
        results, errors = [], []

        def build():
            barrier.wait(timeout=30)
            try:
                results.append(build_artifact(self.SOURCE, key, tmp_path))
            except Exception as exc:  # reported below, with its type
                errors.append(exc)

        threads = [threading.Thread(target=build) for __ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert errors == []
        assert [so for so, __ in results] == [tmp_path / f"{key}.so"] * 2
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"{key}.c", f"{key}.so",
        ]
