"""Span tracing for the benchmark's traced runs.

A `Tracer` wraps the public functions of each `fockdec` module and records
one span per call: name, start, end and the index of the enclosing span.
The wrapper is installed in every namespace that holds the original object,
because callers look names up in different places: `verify` does
`from fockdec.hecke import gram_det_valuation`, while `fock` reads
`kernel.straighten_raw` as a module attribute.  Methods are replaced on the
class that defines them.

A span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap and the self
times of a tree add up to its root's duration.

Counters (memo hits, Gram sizes, bytes written) are recorded by hooks at the
same boundaries.  The layer of a span is the first dotted part of its name.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, before=None, after=None):
        """Wrap fn in a span; `before(args)` and `after(args, result, state)` observe."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result, state)
            return result

        return traced

    def install(self, owner, attribute: str, name: str, before=None, after=None) -> None:
        """Replace owner.attribute by a traced wrapper wherever fockdec binds it."""
        original = getattr(owner, attribute)
        traced = self.wrap(name, original, before, after)
        if isinstance(owner, type):
            setattr(owner, attribute, traced)
            return
        for module_name, module in list(sys.modules.items()):
            if module_name != "fockdec" and not module_name.startswith("fockdec."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)

    def dump(self, path, extra: dict | None = None) -> None:
        payload = {"spans": self.spans, "counters": self.counters, "extra": extra or {}}
        with open(path, "w") as handle:
            json.dump(payload, handle)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans: list[list]) -> dict:
    """Per-name calls, inclusive and self seconds; per-layer self seconds.

    Inclusive time counts only the outermost span of a name, so a function
    that reaches itself through another is not counted twice.
    """
    own = self_times(spans)
    names: dict[str, dict] = {}
    layers: dict[str, float] = {}
    wall = 0.0
    for index, (name, start, end, parent) in enumerate(spans):
        entry = names.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["s"] += end - start
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + own[index]
        if parent < 0:
            wall += end - start
    return {"names": names, "layers": layers, "wall_s": wall}
