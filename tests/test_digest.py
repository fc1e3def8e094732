"""The content-key digest: the built-in SHA-256, byte-identical to
:mod:`hashlib`'s.

Plan fingerprints, native artifact names and snapshot identities are
hashed with :data:`repro._digest.sha256`.  These tests pin that the
module binds the interpreter's own SHA-256, that its digests equal
OpenSSL's on every input shape, and that every key computed with it is
the key :mod:`hashlib` gives, so plan-cache keys, ``.so`` names and the
fingerprints inside existing checkpoints stay valid.
"""

from __future__ import annotations

import hashlib
import importlib
import sys

import pytest

import repro._digest as digest_module
import repro.core.backend.native as native_module
import repro.core.plan as plan_module
import repro.resilience.codec as codec_module
from repro.cluster.models import cruise, servo_farm
from repro.core.backend import CompileRequest, compile_program
from repro.core.backend.native import content_key
from repro.core.model import HybridModel
from repro.resilience import SnapshotCodec
from tests.conftest import Echo

#: the built-in module per interpreter line (``random`` uses the same)
BUILTIN = "_sha2" if sys.version_info >= (3, 12) else "_sha256"


def test_binds_the_builtin_module():
    builtin = importlib.import_module(BUILTIN)
    assert digest_module.sha256 is builtin.sha256
    assert digest_module.sha256 is not hashlib.sha256


@pytest.mark.parametrize("parts", [
    [],
    [b"abc"],
    [b"plan\x1f3\x1f1", b"\x1e", b"", b"node\x1f0\x1fpid", b"\x1e"],
    [bytes(range(256)) * 4096],  # 1 MB
])
def test_equals_hashlib(parts):
    ours, theirs = digest_module.sha256(), hashlib.sha256()
    for part in parts:
        ours.update(part)
        theirs.update(part)
    assert ours.digest() == theirs.digest()
    assert ours.hexdigest() == theirs.hexdigest()
    assert ours.copy().hexdigest() == theirs.hexdigest()


def test_falls_back_to_hashlib(monkeypatch):
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    try:
        assert importlib.reload(digest_module).sha256 is hashlib.sha256
    finally:
        monkeypatch.undo()
        importlib.reload(digest_module)
    assert digest_module.sha256 is not hashlib.sha256


def test_content_key_golden():
    # recorded with hashlib before the keys moved to the built-in digest
    assert content_key("int main(void) { return 0; }\n", "/usr/bin/gcc") == (
        "e1283287c2dbddcff9140eacb81504b518b104bc"
    )


class TestKeysUnchanged:
    """Each key, recomputed with :func:`hashlib.sha256` in place of the
    built-in digest, is the same string."""

    @staticmethod
    def with_hashlib(monkeypatch, module, key):
        ours = key()
        monkeypatch.setattr(module, "sha256", hashlib.sha256)
        assert key() == ours
        return ours

    def test_plan_fingerprint(self, monkeypatch):
        program = compile_program(
            CompileRequest(diagram=servo_farm(), records=["servo.out"]),
            "interpreter",
        )
        plan = program.plan
        self.with_hashlib(monkeypatch, plan_module, lambda: [
            plan.fingerprint(),
            plan.fingerprint(
                extra={"solver": "rk4"}, include_param_values=False,
            ),
            program.fingerprint(),
        ])

    def test_content_key(self, monkeypatch):
        key = self.with_hashlib(
            monkeypatch, native_module,
            lambda: content_key("double x;\n" * 1000, "/usr/bin/cc"),
        )
        assert len(key) == 40

    def test_snapshot_fingerprint(self, monkeypatch):
        codec = SnapshotCodec()
        scheduler = cruise().scheduler(sync_interval=0.01)
        scheduler.build()
        self.with_hashlib(
            monkeypatch, plan_module, lambda: codec.fingerprint(scheduler),
        )

    def test_capsule_only_snapshot_fingerprint(self, monkeypatch):
        model = HybridModel("echoes")
        model.add_capsule(Echo("a"))
        model.add_capsule(Echo("b"))
        scheduler = model.scheduler(sync_interval=0.01)
        assert scheduler.plan is None
        codec = SnapshotCodec()
        key = self.with_hashlib(
            monkeypatch, codec_module, lambda: codec.fingerprint(scheduler),
        )
        assert key.startswith("capsule-only:")
