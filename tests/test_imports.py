"""The import graph: packages re-export on use, registries stay eager.

Package ``__init__`` modules resolve their re-exported names through
:func:`repro._lazy.lazy_exports`, so a process imports only the modules
its work needs.  These tests pin that down: a cluster worker boots
without the HTTP front-end, the pool, the scenario engine or the
schedulability engine; every exported name still resolves (and matches
the ``TYPE_CHECKING`` imports static tools read); and the registries
that importing fills are unchanged.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

PACKAGES = sorted(
    ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]
)

#: the modules a cluster worker process must boot and run without
WORKER_NEVER_IMPORTS = (
    "asyncio",
    "http.client",
    "http.server",
    "ssl",
    "hashlib",
    "_hashlib",
    "repro.cluster.http",
    "repro.cluster.client",
    "repro.cluster.pool",
    "repro.scenarios",
    "repro.analysis.schedulability",
    "repro.service.engine",
)


#: modules that load OpenSSL's ``libcrypto``; only the fallback in
#: :mod:`repro._digest` may import one
OPENSSL_MODULES = ("hashlib", "_hashlib", "ssl")

#: one request of each ``cluster-wire`` kind through the worker's job
#: path (a checkpointed native-batch ``servo_farm`` sweep, a checkpointed
#: ``cruise`` single run, a NumPy ``pendulum`` sweep); prints the job
#: states and the loaded modules
WORKER_REQUESTS = """
import json, sys, tempfile
from repro.cluster import worker
from repro.cluster.requests import ClusterJobRequest
from repro.cluster.store import ArtifactStore
from repro.service.cache import PlanCache

class Outbox:
    def send(self, message):
        pass

class CancelCell:
    value = 0

requests = [
    ClusterJobRequest(kind="batch", model="servo_farm", checkpoint=True,
        params={"n": 32, "t_end": 0.2, "records": ["servo.out"],
                "sweeps": {"pid.kp": [6 + i / 8 for i in range(32)]},
                "backend": "native-batch"}),
    ClusterJobRequest(kind="single_run", model="cruise", checkpoint=True,
        params={"t_end": 0.2, "sync_interval": 0.01,
                "checkpoint_every_steps": 5}),
    ClusterJobRequest(kind="batch", model="pendulum",
        params={"n": 64, "t_end": 0.2, "records": ["pend.out"],
                "sweeps": {"pid.kp": [30 + i / 8 for i in range(64)]}}),
]
with tempfile.TemporaryDirectory() as root:
    store = ArtifactStore(root)
    services = worker._WorkerServices(PlanCache(), 0)
    states = [
        worker._run_envelope(
            0, worker.JobEnvelope(f"job-{i}", request, epoch=i + 1),
            Outbox(), CancelCell(), store, services,
        )
        for i, request in enumerate(requests)
    ]
print(json.dumps([[state.value, error] for state, __, error in states]))
print(json.dumps(list(sys.modules)))
"""


def fresh_python(code: str) -> str:
    """Run ``code`` in a new interpreter; returns its standard output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(statement: str) -> set:
    return set(json.loads(fresh_python(
        f"import json, sys\n{statement}\nprint(json.dumps(list(sys.modules)))"
    )))


def type_checking_imports(package: str):
    """``(module, name)`` of every import under ``if TYPE_CHECKING:``
    in the package's ``__init__``."""
    module = importlib.import_module(package)
    tree = ast.parse(Path(module.__file__).read_text())
    pairs = []
    for node in tree.body:
        if not (
            isinstance(node, ast.If)
            and isinstance(node.test, ast.Name)
            and node.test.id == "TYPE_CHECKING"
        ):
            continue
        for stmt in node.body:
            assert isinstance(stmt, ast.ImportFrom), ast.dump(stmt)
            pairs += [(stmt.module, alias.name) for alias in stmt.names]
    return pairs


def lazy_names(package: str) -> set:
    """The ``__all__`` names the package resolves on use."""
    module = importlib.import_module(package)
    return set(module.__all__) - set(vars(module))


class TestWorkerBoot:
    def test_worker_imports_only_the_job_path(self):
        loaded = loaded_after("import repro.cluster.worker")
        assert "repro.cluster.worker" in loaded
        assert loaded.isdisjoint(WORKER_NEVER_IMPORTS), sorted(
            loaded.intersection(WORKER_NEVER_IMPORTS)
        )
        # the checker loads with the first validated model, not at boot
        assert not {
            m for m in loaded
            if m == "repro.check" or m.startswith("repro.check.")
        }

    def test_worker_runs_every_kind_without_openssl(self):
        states, loaded = map(
            json.loads, fresh_python(WORKER_REQUESTS).splitlines(),
        )
        assert states == [["done", None]] * 3
        assert set(loaded).isdisjoint(WORKER_NEVER_IMPORTS), sorted(
            set(loaded).intersection(WORKER_NEVER_IMPORTS)
        )

    def test_only_the_digest_fallback_imports_openssl(self):
        found = set()
        for path in sorted((SRC / "repro").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                found.update(
                    (path.relative_to(SRC).as_posix(), name)
                    for name in names
                    if name.split(".")[0] in OPENSSL_MODULES
                )
        assert found == {("repro/_digest.py", "hashlib")}

    def test_bare_import_loads_no_subpackage(self):
        loaded = loaded_after("import repro")
        assert {m for m in loaded if m.startswith("repro")} == {
            "repro", "repro._lazy",
        }


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_exported_name_resolves(self, package):
        module = importlib.import_module(package)
        assert module.__all__, package
        for name in module.__all__:
            assert getattr(module, name) is not None, name
        assert set(module.__all__) <= set(dir(module))

    @pytest.mark.parametrize("package", PACKAGES)
    def test_type_checking_imports_match_exports(self, package):
        module = importlib.import_module(package)
        pairs = type_checking_imports(package)
        assert lazy_names(package) <= {name for __, name in pairs}
        for source, name in pairs:
            assert name in module.__all__, name
            obj = getattr(importlib.import_module(source), name)
            assert getattr(module, name) is obj, name
            if inspect.isfunction(obj):
                # the lookup goes to the defining module itself
                assert obj.__module__ == source, name

    @pytest.mark.parametrize("package", PACKAGES)
    def test_no_export_shadows_a_submodule(self, package):
        module = importlib.import_module(package)
        submodules = {
            info.name for info in pkgutil.iter_modules(module.__path__)
        }
        clashes = {
            name for name in lazy_names(package) & submodules
            if not inspect.ismodule(getattr(module, name))
        }
        assert not clashes

    def test_star_import(self):
        namespace: dict = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)
        assert namespace["HybridModel"] is repro.HybridModel

    def test_subpackages_resolve_on_attribute_access(self):
        code = (
            "import repro\n"
            "print(repro.cluster.__name__, repro.core.plan.__name__)"
        )
        assert fresh_python(code).split() == [
            "repro.cluster", "repro.core.plan",
        ]

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="NoSuchName"):
            repro.NoSuchName
        with pytest.raises(AttributeError, match="NoSuchName"):
            repro.core.NoSuchName
        assert not hasattr(repro.core, "__wrapped__")

    def test_lookup_is_never_cached_on_the_package(self, monkeypatch):
        import repro.codegen
        import repro.codegen.common

        original = repro.codegen.common.lower

        def stub(*args, **kwargs):
            return None

        monkeypatch.setattr(repro.codegen.common, "lower", stub)
        assert repro.codegen.lower is stub
        monkeypatch.undo()
        assert repro.codegen.lower is original
        assert "lower" not in vars(repro.codegen)


class TestRegistries:
    def test_registries_unchanged(self):
        out = fresh_python(
            "import json, repro\n"
            "from repro.check import default_registry\n"
            "print(json.dumps([repro.available_backends(),"
            " list(repro.available_solvers()),"
            " list(default_registry().codes())]))"
        )
        backends, solvers, codes = json.loads(out)
        assert backends == [
            "batch", "compiled-python", "interpreter", "native-batch",
            "native-c",
        ]
        assert solvers == [
            "backward_euler", "euler", "heun", "rk4", "rk45", "trapezoidal",
        ]
        assert codes == [
            "W1", "W2", "W3", "W4", "W5", "W6", "W7", "W8", "W10",
            "STR001", "STR002", "STR003", "STR004", "STR005", "STR006",
            "SCHED001", "SCHED002", "SCHED003", "SCHED004",
            "SM001", "SM002", "SM003", "SM004", "SM005",
            "THR001", "THR002",
        ]
