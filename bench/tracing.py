"""Span tracing for the benchmark's traced run.

Wrappers are installed around public functions and methods of splinemart
(the targets listed in ``layers.json``), from the benchmark's own files:
nothing under ``src/`` is modified. A module-level function is rebound in
every loaded module namespace that holds it, because callers such as
``construction.driver`` import ``lemma_moments`` and ``bush_decompose`` by
name; a method is rebound on its class.

Spans (name, start, end, parent span, op id) are kept in memory in
columnar arrays and written out by :meth:`Tracer.dump`. Per op the tracer
also keeps, per span name, the call count, the total time of outermost
spans (``.s``) and the self time, i.e. duration minus the time covered by
direct child spans (``.self_s``).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS_FILE = Path(__file__).with_name("layers.json")


def load_layers() -> dict:
    with open(LAYERS_FILE) as fh:
        return json.load(fh)


class Tracer:
    def __init__(self, workload: str, layers: dict):
        self.workload = workload
        self.layers = layers
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._stack: list[list] = []  # [span id, name id, child time]
        self._active: dict[int, int] = {}  # name id -> open spans of that name
        self.op = -1
        self.per_op: dict[int, dict] = {}
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self.per_op[op] = {}

    def _stats(self, nid: int) -> list:
        table = self.per_op[self.op]
        row = table.get(nid)
        if row is None:
            row = table[nid] = [0, 0.0, 0.0, 0]  # calls, s, self_s, points
        return row

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enter(self, nid: int) -> None:
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self._active[nid] = self._active.get(nid, 0) + 1
        self._stack.append([sid, nid, 0.0])
        self.span_start.append(time.perf_counter())

    def _exit(self) -> None:
        end = time.perf_counter()
        sid, nid, child = self._stack.pop()
        self.span_end[sid] = end
        dur = end - self.span_start[sid]
        depth = self._active[nid] - 1
        self._active[nid] = depth
        row = self._stats(nid)
        row[0] += 1
        row[2] += dur - child
        if depth == 0:  # nested spans of one name count once in .s
            row[1] += dur
        if self._stack:
            self._stack[-1][2] += dur

    def span(self, name: str, fn, points: bool = False):
        nid = self._name_id(name)
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        if not points:
            return wrapper

        @functools.wraps(fn)
        def points_wrapper(self_, ts, *args, **kwargs):
            self._stats(nid)[3] += len(ts)
            return wrapper(self_, ts, *args, **kwargs)

        return points_wrapper

    def counter(self, name: str, fn):
        nid = self._name_id(name)
        stats = self._stats

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats(nid)[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing wrappers -------------------------------------------------

    def install(self) -> None:
        """Rebind every target of the layer map to a recording wrapper."""
        if self._installed:
            raise RuntimeError("wrappers already installed")
        for entry in self.layers["targets"]:
            for target in entry["targets"]:
                owner, attr, original = resolve(target)
                if entry["kind"] == "count":
                    wrapped = self.counter(entry["name"], original)
                else:
                    wrapped = self.span(entry["name"], original, entry["kind"] == "points")
                if isinstance(owner, type):
                    self._rebind(owner, attr, original, wrapped)
                else:
                    for namespace in _namespaces_holding(original):
                        for name, value in list(vars(namespace).items()):
                            if value is original:
                                self._rebind(namespace, name, original, wrapped)

    def _rebind(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def op_metrics(self, op: int) -> dict:
        """name -> {calls, s, self_s, points} for one traced op."""
        return {
            self.names[nid]: {"calls": c, "s": s, "self_s": self_s, "points": p}
            for nid, (c, s, self_s, p) in self.per_op.get(op, {}).items()
        }

    def self_time_table(self) -> dict:
        """Per layer (name prefix up to the first dot): calls and self time, all ops."""
        table: dict[str, dict] = {}
        for rows in self.per_op.values():
            for nid, (calls, _s, self_s, _p) in rows.items():
                layer = self.names[nid].split(".", 1)[0]
                slot = table.setdefault(layer, {"calls": 0, "self_s": 0.0})
                slot["calls"] += calls
                slot["self_s"] += self_s
        return table

    def dump(self, path: Path) -> None:
        """Write all spans (times relative to the first span) and the layer table."""
        t0 = self.span_start[0] if self.span_start else 0.0
        blob = {
            "workload": self.workload,
            "names": self.names,
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "name": self.span_name.tolist(),
            "start_s": [round(t - t0, 7) for t in self.span_start],
            "end_s": [round(t - t0, 7) for t in self.span_end],
            "parent": self.span_parent.tolist(),
            "op": self.span_op.tolist(),
            "layer_self_time": self.self_time_table(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(blob, fh, separators=(",", ":"))


def resolve(target: str):
    """'pkg.module:Name' or 'pkg.module:Class.method' -> (owner, attr, original)."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = vars(owner)[attr]
    return owner, attr, original


def _namespaces_holding(fn) -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None
        and (name == "splinemart" or name.startswith("splinemart.") or name == "workloads")
        and any(value is fn for value in vars(mod).values())
    ]
