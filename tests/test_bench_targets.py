"""The traced benchmark still finds every library function it wraps.

``bench/trace.Tracer.install`` replaces each target of
``bench/layers.TARGETS`` where callers look it up: a method in its
owner's own ``__dict__`` (an inherited method is not there) and a
module function as a module attribute.  A refactor that moves a target
into a base class or renames it would break the traced benchmark's
set-up, so each target is pinned here.  Nothing here needs a compiler.
"""

from __future__ import annotations

import importlib

import pytest

from bench.layers import TARGETS


def resolve(target):
    """The function ``Tracer.install`` would wrap for ``target``."""
    module = importlib.import_module(target.module)
    owner_path, __, attr = target.attr.rpartition(".")
    if not owner_path:
        return getattr(module, attr)
    owner = module
    for part in owner_path.split("."):
        owner = getattr(owner, part)
    assert attr in vars(owner), (
        f"{target.module}.{target.attr} is not in its owner's __dict__"
    )
    raw = vars(owner)[attr]
    if isinstance(raw, (classmethod, staticmethod)):
        return raw.__func__
    return raw


@pytest.mark.parametrize(
    "target", TARGETS, ids=[f"{t.module}:{t.attr}" for t in TARGETS],
)
def test_target_resolves_where_the_tracer_looks(target):
    assert callable(resolve(target))


def test_the_job_path_is_traced_at_its_definitions():
    from repro.service.jobs import (
        BatchJob, CodegenJob, JobHandle, SingleRunJob,
    )

    wanted = {
        ("repro.service.jobs", "JobHandle.result"): JobHandle.result,
        ("repro.service.jobs", "SingleRunJob.execute"):
            SingleRunJob.execute,
        ("repro.service.jobs", "BatchJob.execute"): BatchJob.execute,
        ("repro.service.jobs", "CodegenJob.execute"): CodegenJob.execute,
    }
    found = {
        (target.module, target.attr): resolve(target)
        for target in TARGETS
        if (target.module, target.attr) in wanted
    }
    assert found == wanted
