"""Canonical public names resolve through the package's load-on-use
table without warnings; removed aliases and unknown names raise."""

import warnings

import pytest

import repro.umlrt
import repro.umlrt.runtime
from repro.umlrt import RTRuntimeError


class TestRuntimeErrorAlias:
    def test_canonical_name_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert repro.umlrt.RTRuntimeError is RTRuntimeError
            assert (
                repro.umlrt.runtime.RTRuntimeError is RTRuntimeError
            )

    def test_canonical_name_exported(self):
        assert "RTRuntimeError" in repro.umlrt.__all__
        assert "RTRuntimeError" in dir(repro.umlrt)

    def test_unknown_attribute_still_raises(self):
        # the removed RuntimeError_ alias is now an unknown name too
        for name in ("NoSuchName_", "RuntimeError_"):
            with pytest.raises(AttributeError, match=name):
                getattr(repro.umlrt, name)
            with pytest.raises(AttributeError):
                getattr(repro.umlrt.runtime, name)
