"""The exported surface of each ssflab module."""

import importlib

import pytest

MODULES = ["cli", "dirac", "doi", "functions", "scattering", "spectral", "ssf", "suites"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # perfbench/tracer.py looks up every name of a layer's __all__ with
    # getattr, so a stale entry would crash the traced benchmark
    mod = importlib.import_module(f"ssflab.{name}")
    assert mod.__all__
    assert [attr for attr in mod.__all__ if not hasattr(mod, attr)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)
