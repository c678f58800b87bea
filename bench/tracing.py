"""Opt-in span tracing of oppograph's layer functions, from outside the package.

`Tracer.install` replaces each traced function by a wrapper in every
`oppograph.*` module namespace that holds it, because the package binds
names with `from .x import f` and a patch of one module alone would miss
the callers in the others.  A class is traced through its `__init__`.
`Tracer.uninstall` puts every original back.

Spans live in memory as (name, parent, start, end) for the current request;
`end_request` folds them into per-function calls, self time and inclusive
time, then drops them.  Self time is a span's duration minus the time its
child spans cover.  Inclusive time counts a span only when no ancestor has
the same name, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# <module>.<attribute> of every public layer function the pipeline calls;
# oracle and cli are not traced
TRACED = (
    "graphs.parse_graph6",
    "graphs.topo_order_or_cycle",
    "graphs.induced_subgraph",
    "p4.induced_p4s",
    "p4.verify_orientation",
    "p4.classify_layer_type",
    "constraints.ConstraintGraph",
    "constraints.bipartition_or_odd_walk",
    "constraints.forced_orientation",
    "constraints.is_acyclic",
    "constraints.extend_acyclic",
    "patterns.find_induced",
    "patterns.find_max_Hk",
    "patterns.is_ptolemaic",
    "patterns.is_distance_hereditary",
    "patterns.has_hole",
    "recognize.recognize_opposition",
    "recognize.recognize_generalized_opposition",
    "recognize.recognize_coalition",
    "recognize.ptolemaic_opposition_orient",
    "recognize.transitive_orient",
    "recognize.verdict_payload",
    "verify.check_verdict",
    "verify.brute_force_p4s",
    "generate.random_tree",
    "generate.random_distance_hereditary",
    "generate.random_opposition_ptolemaic",
)


PACKAGE = "oppograph"


def _package_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.stack: list[int] = []
        self.totals = {name: [0, 0.0, 0.0] for name in TRACED}  # calls, self, inclusive
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append([name, stack[-1] if stack else -1, perf_counter(), None])
            stack.append(i)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[i][3] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = _package_modules()
        for name in TRACED:
            module_name, attr = name.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
            if isinstance(original, type):
                init = original.__dict__["__init__"]
                self._patches.append((original, "__init__", init))
                original.__init__ = self._wrap(name, init)
                continue
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- requests

    def begin_request(self, name: str) -> None:
        """Open the root span of one request (decide, certify or set-up)."""
        self.spans.clear()
        self.stack.clear()
        self.spans.append([name, -1, perf_counter(), None])
        self.stack.append(0)

    def end_request(self) -> None:
        """Close the request and fold its spans into the per-function totals.

        A span left open by an exception raised inside the wrapper itself
        (a RecursionError can strike anywhere) ends with the request.
        """
        now = perf_counter()
        spans = self.spans
        for span in spans:
            if span[3] is None:
                span[3] = now
        child = [0.0] * len(spans)
        for _, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, parent, start, end) in enumerate(spans):
            if i == 0:
                continue
            t = self.totals[name]
            t[0] += 1
            t[1] += end - start - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][1]
            if p < 0:
                t[2] += end - start
        spans.clear()
        self.stack.clear()

    def metrics(self) -> dict[str, float]:
        out = {}
        for name, (calls, self_s, total_s) in self.totals.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.total_s"] = total_s
        return out
