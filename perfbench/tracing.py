"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: `Tracer.patch` replaces a
public callable (module function, class method, or instance attribute) with a
wrapper that opens a span, calls through, and closes it. Nothing under `src/`
knows about tracing.

Each span has a name, a start, an end, a parent span and a request id. A
request is one train step or one decoded utterance; its root span is opened
and closed by the harness, and every span opened under it carries its id.
Spans live in typed arrays (about 28 bytes each) until the run ends.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.request_ids: list[str] = [""]  # index 0: outside any request
        self.roots: list[int] = []  # root span of request k is roots[k - 1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._request_stack: list[int] = [0]
        self._root_set: set[int] = set()
        self._patches: list[tuple[object, str, bool, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._request_stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        t = perf_counter()
        while self._stack[-1] != i:
            # A request root still open inside this span ends with it.
            top = self._stack[-1]
            if top not in self._root_set:
                raise RuntimeError(f"span {self.names[self.name[top]]} left open")
            self._close_root(top, t)
        self.end[i] = t
        self._stack.pop()

    def begin_request(self, name: str, request_id: str) -> None:
        self.request_ids.append(request_id)
        self._request_stack.append(len(self.request_ids) - 1)
        i = self.open(name)
        self.roots.append(i)
        self._root_set.add(i)

    def end_request(self) -> None:
        """Close the innermost request root; a no-op when none is open."""
        if self._stack and self._stack[-1] in self._root_set:
            self._close_root(self._stack[-1], perf_counter())

    def _close_root(self, i: int, t: float) -> None:
        self.end[i] = t
        self._stack.pop()
        self._request_stack.pop()

    def wrap(self, fn, name: str, count=None):
        """`count(counts, args, result)` runs after the span closes."""

        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if count is not None:
                count(self.counts, args, out)
            return out

        return traced

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr: str, name: str, count=None, wrapper=None) -> None:
        """Replace `owner.attr` by a traced wrapper until `unpatch_all`.

        `owner` is a module, a class, or an instance (for methods the object
        calls through `self`). `wrapper(traced)` may add harness behaviour
        around the traced call.
        """
        had = attr in vars(owner)
        saved = vars(owner).get(attr)
        traced = self.wrap(getattr(owner, attr), name, count)
        setattr(owner, attr, wrapper(traced) if wrapper else traced)
        self._patches.append((owner, attr, had, saved))

    def unpatch_all(self) -> None:
        for owner, attr, had, saved in reversed(self._patches):
            if had:
                setattr(owner, attr, saved)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def summary(self) -> "TraceSummary":
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        return TraceSummary(self)

    def write(self, path: Path) -> None:
        """Spans as one JSON header line and one tab-separated line each:
        name, start, end (seconds), parent index, request index."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"names": self.names, "requests": self.request_ids}) + "\n")
            for row in zip(self.name, self.start, self.end, self.parent, self.request):
                f.write("%d\t%.9f\t%.9f\t%d\t%d\n" % row)


class TraceSummary:
    """Per-name call counts, inclusive and self times; request accounting.

    Self time is a span's duration minus the part its child spans cover.
    """

    def __init__(self, tracer: Tracer) -> None:
        n = len(tracer.start)
        names = np.frombuffer(tracer.name, dtype=np.int32) if n else np.zeros(0, np.int32)
        start = np.frombuffer(tracer.start) if n else np.zeros(0)
        end = np.frombuffer(tracer.end) if n else np.zeros(0)
        parent = np.frombuffer(tracer.parent, dtype=np.int32) if n else np.zeros(0, np.int32)
        request = np.frombuffer(tracer.request, dtype=np.int32) if n else np.zeros(0, np.int32)
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - covered
        k = len(tracer.names)
        self.calls = dict(zip(tracer.names, np.bincount(names, minlength=k).tolist()))
        self.total = dict(zip(tracer.names, np.bincount(names, weights=dur, minlength=k).tolist()))
        self.self_time = dict(zip(tracer.names, np.bincount(names, weights=self_time, minlength=k).tolist()))
        self.counts = dict(tracer.counts)
        # Sum of self times of each request's spans against its root span.
        # Self times telescope, so this only fails when one request's root
        # opens inside another's, or through float error.
        per_request = np.bincount(request, weights=self_time, minlength=len(tracer.request_ids))
        roots = np.array(tracer.roots, dtype=np.int64)
        root_dur = dur[roots] if len(roots) else np.zeros(0)
        self.requests = len(roots)
        self.accounting_error_s = float(np.abs(per_request[1:] - root_dur).max()) if len(roots) else 0.0
        # Share of request time that no layer span under the root covers.
        total_root = float(root_dur.sum())
        self.root_self_frac = float(self_time[roots].sum()) / total_root if total_root else 0.0

    def n(self, name: str) -> int:
        return self.calls.get(name, 0)

    def per_call(self, name: str, scale: float, self_only: bool = False) -> float:
        times = self.self_time if self_only else self.total
        calls = self.n(name)
        return scale * times.get(name, 0.0) / calls if calls else 0.0

    def per_item(self, name: str, items: int, scale: float, self_only: bool = False) -> float:
        times = self.self_time if self_only else self.total
        return scale * times.get(name, 0.0) / items if items else 0.0
