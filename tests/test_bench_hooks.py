"""The benchmark reaches into the package by name: `bench/tracing.py`
patches the functions listed in TRACED, and `bench/run.py` looks up each
recognizer in RECOGNIZERS and sums the verdict stats in STAT_COUNTERS.
A renamed or removed function would make a benchmark run fail, and a
renamed stat would read as zero, so every name must resolve."""

import importlib
from pathlib import Path

import oppograph.recognize
from oppograph.graphs import cycle_graph, parse_graph6

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


def test_stat_counters_are_verdict_stats(monkeypatch):
    run = _bench_module(monkeypatch, "run")
    assert run.STAT_COUNTERS
    decisions = set()
    # F}SyO is a member of all three classes and C5 of none
    for g in (parse_graph6("F}SyO"), cycle_graph(5)):
        for graph_class, attr in run.RECOGNIZERS.items():
            v = getattr(oppograph.recognize, attr)(g)
            decisions.add(v.decision)
            assert set(run.STAT_COUNTERS) <= set(v.stats), (graph_class, attr, v.stats)
    assert decisions == {"member", "non-member"}
