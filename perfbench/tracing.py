"""In-memory spans for the traced benchmark run.

A span records a name, its layer (the rankhash module the call went into, or
`cli`/`bench`), start and end on `clock`, the span that was
open when it began, and the id of the benchmark unit it belongs to (one id
per set-up or cycle of a workload run). Spans stay in a list and are written
once, when the run ends. A disabled tracer hands back the functions it is
asked to wrap unchanged, so untraced runs pay nothing.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

# Every time the benchmark reports is CPU time of its own process. The
# program runs on one thread (BLAS too), so CPU time is its wall time minus
# the time the host gave this virtual CPU to other guests ("steal"), which
# on a shared 2-vCPU machine came and went in bursts that doubled walls.
clock = time.process_time


def layer_of(fn) -> str:
    """`rankhash.data` -> `data`."""
    return fn.__module__.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self, counters: dict | None = None):
        self.enabled = False
        self.spans: list[dict] = []
        self.unit = None
        self._stack: list[int] = []
        # extra work counts per call, keyed by span name: fn(args, result) -> dict
        self.counters = counters or {}
        # last arguments and result seen per span name, for measurements
        # that replay a call outside the timed path
        self.last_call: dict = {}

    @contextmanager
    def span(self, name: str, layer: str):
        if not self.enabled:
            yield None
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "unit": self.unit,
            "parent": self._stack[-1] if self._stack else None,
            "start": clock(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = clock()

    def wrap(self, fn, name: str | None = None):
        """`fn` itself when disabled, else a wrapper that records a span."""
        if not self.enabled:
            return fn
        layer = layer_of(fn)
        name = name or f"{layer}.{fn.__name__}"

        def traced(*args, **kwargs):
            with self.span(name, layer) as record:
                out = fn(*args, **kwargs)
            counter = self.counters.get(name)
            if counter is not None:
                record.update(counter(args, out))
            self.last_call[name] = (args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, module, names):
        """Replace `module.<name>` with traced wrappers for the duration."""
        if not self.enabled:
            yield
            return
        saved = {name: getattr(module, name) for name in names}
        try:
            for name, fn in saved.items():
                setattr(module, name, self.wrap(fn))
            yield
        finally:
            for name, fn in saved.items():
                setattr(module, name, fn)

    def self_times(self) -> list[dict]:
        """Every span with `self` = its duration minus its children's."""
        child_total = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_total[s["parent"]] += s["end"] - s["start"]
        return [
            dict(s, dur=s["end"] - s["start"], self=s["end"] - s["start"] - child_total[s["id"]])
            for s in self.spans
        ]

    def stage_breakdown(self, roots: set) -> dict:
        """Per root span name (a CLI stage): its time and the self time of
        each layer beneath it, medians over the units it ran in. The layer
        self times of a stage add up to its time."""
        spans = self.self_times()
        root_of: dict = {}
        per_unit: dict = {}
        for s in spans:  # parents precede children
            parent = root_of.get(s["parent"])
            if s["name"] in roots:
                root_of[s["id"]] = s
                cell = per_unit.setdefault(s["name"], {}).setdefault(s["unit"], {})
                cell["total"] = cell.get("total", 0.0) + s["dur"]
                parent = s
            elif parent is not None:
                root_of[s["id"]] = parent
            if parent is not None:
                cell = per_unit[parent["name"]][parent["unit"]]
                cell[s["layer"]] = cell.get(s["layer"], 0.0) + s["self"]
        out = {}
        for name, units in per_unit.items():
            keys = {k for cell in units.values() for k in cell}
            out[name] = {k: statistics.median(cell.get(k, 0.0) for cell in units.values())
                         for k in sorted(keys)}
        return out

    def write(self, path, header: dict) -> None:
        spans = self.self_times()
        by_layer: dict = {}
        for s in spans:
            unit = by_layer.setdefault(s["unit"], {})
            unit[s["layer"]] = unit.get(s["layer"], 0.0) + s["self"]
        payload = {**header, "self_s_by_unit_and_layer": by_layer, "spans": spans}
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
