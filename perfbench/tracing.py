"""In-memory span recording around the public entry points of each layer.

The benchmark does not instrument the program's source: it replaces a
function or method attribute with a wrapper that records one span per
call (name, start, end, parent span, run id) and restores the original
afterwards.  Spans live in flat arrays until the run ends, so a traced
run of a few hundred thousand calls stays a few megabytes.

A layer's *self time* is its span's duration minus the time covered by
its direct child spans.  Calls are single-threaded and strictly nested,
so children never overlap and self time is never negative beyond clock
rounding.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array


class SpanRecorder:
    """Records spans of wrapped callables; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        #: set by the caller between batches so spans of one batch share
        #: an identifier
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)`` until
        :meth:`uninstall`."""
        if isinstance(owner, str):
            owner = importlib.import_module(owner)
        # class attributes are read from __dict__ so an inherited method
        # is never wrapped on the subclass by accident
        orig = (owner.__dict__[attr] if isinstance(owner, type)
                else getattr(owner, attr))
        # updated=(): a wrapped class must not copy its namespace onto
        # the wrapper function
        wrapper = functools.update_wrapper(make(orig), orig, updated=())
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def span(self, owner, attr: str, name: str, on_return=None) -> None:
        """Record a span named ``name`` around every call of
        ``owner.attr``; ``on_return(result)`` runs after the span
        closes."""
        nid = self._name_id(name)
        rec = self
        clock = time.perf_counter

        def make(orig):
            def wrapper(*args, **kwargs):
                stack = rec._stack
                i = len(rec.start)
                rec.name.append(nid)
                rec.parent.append(stack[-1] if stack else -1)
                rec.run.append(rec.run_id)
                rec.end.append(0.0)
                stack.append(i)
                rec.start.append(clock())
                try:
                    out = orig(*args, **kwargs)
                finally:
                    rec.end[i] = clock()
                    stack.pop()
                if on_return is not None:
                    on_return(out)
                return out
            return wrapper

        self.patch(owner, attr, make)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without recording spans (for
        entry points too small to time)."""
        counters = self.counters
        counters.setdefault(name, 0)

        def make(orig):
            def wrapper(*args, **kwargs):
                counters[name] += 1
                return orig(*args, **kwargs)
            return wrapper

        self.patch(owner, attr, make)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- analysis ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)


class SpanTable:
    """Durations, self times and ancestry of a recorder's spans."""

    def __init__(self, rec: SpanRecorder):
        self.names = rec.names
        self.name = list(rec.name)
        self.parent = list(rec.parent)
        self.dur = [e - s for s, e in zip(rec.start, rec.end)]
        child = [0.0] * len(self.dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.dur[i]
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def ids(self, name: str) -> list[int]:
        if name not in self.names:
            return []
        nid = self.names.index(name)
        return [i for i, n in enumerate(self.name) if n == nid]

    def under(self, ancestor: str) -> list[bool]:
        """Per span: is it ``ancestor`` or nested inside one?  Parents
        precede their children, so one forward pass suffices."""
        aid = self.names.index(ancestor) if ancestor in self.names else -2
        flags = [False] * len(self.name)
        for i, (n, p) in enumerate(zip(self.name, self.parent)):
            flags[i] = n == aid or (p >= 0 and flags[p])
        return flags

    def parent_name(self, i: int) -> str | None:
        p = self.parent[i]
        return None if p < 0 else self.names[self.name[p]]

    def total(self, name: str, field: str = "dur", only=None) -> float:
        vals = getattr(self, field)
        return sum(vals[i] for i in self.ids(name)
                   if only is None or only[i])

    def calls(self, name: str, only=None) -> int:
        return sum(1 for i in self.ids(name) if only is None or only[i])
