"""Spans around triqent's public functions, recorded from outside the program.

``Tracer.install`` replaces every public function of the given modules at
every binding site (its home module, aliases such as ``cli.classify_state``
and names imported into other modules or the package) with a wrapper that
records a span, and wraps the listed constructors' ``__init__``.
``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter_ns


@dataclass(frozen=True)
class Span:
    name: str
    layer: str
    parent: int  # index of the enclosing span, -1 at the root
    op: int
    start_ns: int
    end_ns: int


def public_functions(module) -> dict:
    """Public functions defined in ``module`` itself (not imported into it)."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and not name.startswith("_")
        and obj.__module__ == module.__name__
    }


def layer_name(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, fn, name: str, layer: str):
        """``fn`` recording one span per call."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = Span(name, layer, parent, self.op, start, end)

        return wrapper

    def install(self, modules, namespaces=(), constructors=()) -> None:
        """Wrap the public functions of ``modules`` wherever they are bound in
        ``modules`` or ``namespaces``, and the ``__init__`` of each class in
        ``constructors`` (as ``<layer>.<ClassName>``)."""
        wrappers = {}
        for module in modules:
            layer = layer_name(module.__name__)
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self.wrap(fn, f"{layer}.{name}", layer))
        for ns in (*modules, *namespaces):
            for attr, value in list(vars(ns).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(ns, attr, hit[1])
        for cls in constructors:
            layer = layer_name(cls.__module__)
            self._patch(cls, "__init__", self.wrap(cls.__init__, f"{layer}.{cls.__name__}", layer))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def dump(spans, path) -> None:
    """Write spans as JSON lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s.__dict__) + "\n")


@dataclass
class Profile:
    """Per-name and per-layer totals over a set of spans."""

    calls: dict
    inclusive_ns: dict
    self_ns: dict

    def add(self, other: "Profile") -> None:
        for mine, theirs in (
            (self.calls, other.calls),
            (self.inclusive_ns, other.inclusive_ns),
            (self.self_ns, other.self_ns),
        ):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0) + value


def profile(spans) -> Profile:
    """Calls and inclusive time per span name; self time per layer.

    A span's self time is its duration minus the durations of its direct
    children, so every nanosecond inside the root spans is counted once.
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_ns[s.parent] += s.end_ns - s.start_ns
    calls = defaultdict(int)
    inclusive = defaultdict(int)
    self_ns = defaultdict(int)
    for i, s in enumerate(spans):
        dur = s.end_ns - s.start_ns
        calls[s.name] += 1
        inclusive[s.name] += dur
        self_ns[s.layer] += dur - child_ns[i]
    return Profile(dict(calls), dict(inclusive), dict(self_ns))
