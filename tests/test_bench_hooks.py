"""The benchmark reaches into the package by name: `bench/tracing.py`
patches the functions listed in TRACED, and `bench/run.py` looks up each
recognizer in RECOGNIZERS.  A renamed or removed function would make a
benchmark run fail, so every name must resolve."""

import importlib
from pathlib import Path

import oppograph.recognize

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(monkeypatch, name):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module(name)


def test_traced_names_resolve(monkeypatch):
    tracing = _bench_module(monkeypatch, "tracing")
    for name in tracing.TRACED:
        module_name, attr = name.split(".")
        module = importlib.import_module(f"{tracing.PACKAGE}.{module_name}")
        assert hasattr(module, attr), name


def test_recognizer_names_resolve(monkeypatch):
    run = _bench_module(monkeypatch, "run")
    assert run.RECOGNIZERS
    for graph_class, attr in run.RECOGNIZERS.items():
        assert hasattr(oppograph.recognize, attr), (graph_class, attr)
