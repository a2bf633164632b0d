"""The benchmark's span tracer binds library functions and methods by name;
every name it binds must exist, or the traced benchmark runs fail."""

import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    return tracer


def test_every_traced_function_exists(tracer):
    missing = [f"{mod.__name__}.{attr}" for mod, attr, _, _ in tracer.FUNCTIONS
               if not callable(getattr(mod, attr, None))]
    assert missing == []


def test_every_traced_method_exists(tracer):
    missing = [f"{cls.__qualname__}.{attr}" for cls, attr, _, _ in tracer.METHODS
               if attr not in cls.__dict__]
    assert missing == []
