"""Spans around the calls the benchmark makes into each hfcodec module.

A span records name, start, end, parent, call count and busy seconds.
Calls made once per op (a flat codec, unrank, serialize, cli.main) get
one span each.  Calls made once per tree node (a codec's expand and
collapse, and the flat function inside) would swamp memory, so all such
calls with the same name under the same parent are rolled into one span
whose count and busy time are sums; its start and end are those of the
first and last call.  Collector pauses arrive through gc.callbacks as
rolled-up "gc" spans under whatever span was open.

Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import gc
import json
from time import perf_counter
from typing import Callable

# span record fields
NAME, START, END, PARENT, CALLS, BUSY = range(6)


def layer_name(fn: Callable) -> str:
    """'setfun.nat2set' for hfcodec.setfun.nat2set: the owning module, then the name."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._rollups: dict[tuple[int | None, str], int] = {}
        self._gc_start = 0.0
        gc.callbacks.append(self._on_gc)

    def close(self) -> None:
        gc.callbacks.remove(self._on_gc)

    def reset(self) -> None:
        self.spans.clear()
        self._rollups.clear()

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._open[-1] if self._open else None, 1, 0.0])
        self._open.append(sid)
        return sid

    def end(self, sid: int) -> None:
        rec = self.spans[sid]
        rec[END] = perf_counter()
        rec[BUSY] = rec[END] - rec[START]
        self._open.pop()

    def span(self, name: str, fn: Callable) -> Callable:
        """fn, recording one span per call."""
        def call(*args):
            sid = self.begin(name)
            try:
                return fn(*args)
            finally:
                self.end(sid)
        return call

    def _rollup_id(self, name: str) -> int:
        key = (self._open[-1] if self._open else None, name)
        sid = self._rollups.get(key)
        if sid is None:
            sid = self._rollups[key] = len(self.spans)
            self.spans.append([name, None, 0.0, key[0], 0, 0.0])
        return sid

    def _add(self, sid: int, t0: float, t1: float) -> None:
        rec = self.spans[sid]
        if rec[START] is None:
            rec[START] = t0
        rec[END] = t1
        rec[CALLS] += 1
        rec[BUSY] += t1 - t0

    def rollup(self, name: str, fn: Callable) -> Callable:
        """fn, summing its calls under each parent into one span."""
        opened = self._open

        def call(*args):
            sid = self._rollup_id(name)
            opened.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                t1 = perf_counter()
                opened.pop()
                self._add(sid, t0, t1)
        return call

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self._add(self._rollup_id("gc"), self._gc_start, perf_counter())

    def self_times(self) -> list[float]:
        """Busy time of each span minus the busy time of its child spans."""
        own = [rec[BUSY] for rec in self.spans]
        for rec in self.spans:
            if rec[PARENT] is not None:
                own[rec[PARENT]] -= rec[BUSY]
        return own

    def write(self, path: str) -> None:
        """One JSON object per span; 'op' is the id of the span's root."""
        root: list[int] = []
        with open(path, "w") as f:
            for sid, (name, start, end, parent, calls, busy) in enumerate(self.spans):
                root.append(sid if parent is None else root[parent])
                f.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                    "parent": parent, "op": root[sid], "calls": calls,
                                    "busy": busy}) + "\n")
