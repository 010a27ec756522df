"""Spans around jacprop's public functions, recorded from outside the package.

``Tracer.install`` replaces every function named in ``jacprop.__all__``
with a recording wrapper, in every jacprop module that holds a reference
to it (``jacprop.engine.activation_apply`` as well as
``jacprop.activations.activation_apply``), so calls between modules are
seen too. ``uninstall`` puts the originals back.

A span is [name index, start ns, end ns, parent span index or -1,
request id]. Spans stay in memory until ``write``.
"""

import functools
import json
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager

SETUP = -1  # request id of spans recorded while the serving process sets up


def span_name(fn) -> str:
    """'engine.jacobian_forward' for jacprop.engine.jacobian_forward."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.request = SETUP
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._name_ids: dict[str, int] = {}
        self._wrapped: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextmanager
    def span(self, name: str):
        """Record a span around a block, as a child of the enclosing span."""
        spans, stack = self.spans, self._stack
        rec = [self._name_id(name), time.perf_counter_ns(), 0, stack[-1] if stack else -1, self.request]
        spans.append(rec)
        stack.append(len(spans) - 1)
        try:
            yield
        finally:
            stack.pop()
            rec[2] = time.perf_counter_ns()

    def _wrap(self, fn):
        name_id = self._name_id(span_name(fn))
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter_ns, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name_id, clock(), 0, stack[-1] if stack else -1, tracer.request]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()

        return traced

    def install(self, package) -> list[str]:
        """Wrap the package's public functions; returns the span names wrapped.

        Installing again while installed changes nothing.
        """
        if self._patches:
            return self._wrapped
        wrappers = {}
        for public in package.__all__:
            fn = getattr(package, public)
            if isinstance(fn, types.FunctionType) and id(fn) not in wrappers:
                wrappers[id(fn)] = (fn, self._wrap(fn))
        prefix = package.__name__ + "."
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == package.__name__ or modname.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))
        self._wrapped = sorted(span_name(fn) for fn, _ in wrappers.values())
        return self._wrapped

    def uninstall(self) -> None:
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"names": self.names, "spans": self.spans}, handle)


def load(path):
    with open(path) as handle:
        doc = json.load(handle)
    return doc["names"], doc["spans"]


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Children nest inside their parent on one thread, so their durations
    add up to the part of the parent's interval they cover.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


class Summary:
    """Per-name totals over the spans of a set of requests.

    ``count[name]``, ``inclusive[name]`` and ``own[name]`` (self time) are
    summed over spans whose request id is in ``requests``; ``entered`` is
    every name seen at all, set-up included.
    """

    def __init__(self, names, spans, requests):
        own = self_times(spans)
        self.entered = {names[s[0]] for s in spans}
        self.count = defaultdict(int)
        self.inclusive = defaultdict(int)
        self.own = defaultdict(int)
        for span, self_ns in zip(spans, own):
            if span[4] in requests:
                name = names[span[0]]
                self.count[name] += 1
                self.inclusive[name] += span[2] - span[1]
                self.own[name] += self_ns
