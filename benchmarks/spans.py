"""In-memory span recorder that wraps public functions of the efbtag package.

A span records its name, start, end, parent span and operation id in
flat arrays, so a traced run of a few hundred thousand calls stays a few
megabytes.  Wrapping replaces the function object in every module
namespace that binds it (including names imported with `from x import
y`) and restores the originals on exit.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class SpanSpec:
    """One public callable to wrap.

    `target` is "module.function" or "module.Class.method" under efbtag.
    `name_of(args, kwargs)` gives the span name (defaults to the target);
    `count(args, kwargs, result)` returns extra counters to add up.
    """

    target: str
    name_of: Optional[Callable] = None
    count: Optional[Callable] = None


class Tracer:
    """Collects spans and counters while installed; see `install`."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counters: dict[str, float] = defaultdict(float)
        self.op_id = 0
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn: Callable, spec: SpanSpec) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = spec.name_of(args, kwargs) if spec.name_of else spec.target
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if spec.count is not None:
                for key, value in spec.count(args, kwargs, result).items():
                    tracer.counters[key] += value
            return result

        return wrapper

    def install(self, specs: list[SpanSpec]) -> None:
        """Wrap every spec'd callable wherever an efbtag module binds it."""
        modules = [
            m for name, m in sys.modules.items()
            if name == "efbtag" or name.startswith("efbtag.")
        ]
        for spec in specs:
            parts = spec.target.split(".")
            owner = sys.modules[f"efbtag.{parts[0]}"]
            for part in parts[1:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
            wrapper = self._wrap(original, spec)
            if isinstance(owner, type):
                self._patch(owner, parts[-1], wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @property
    def n_spans(self) -> int:
        return len(self.start)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (summed self time in seconds, call count).

        Self time is a span's duration minus the durations of its direct
        children, i.e. the part of its interval no wrapped callee covers.
        """
        if not self.names:
            return {}
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        own = np.bincount(name_id, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(name_id, minlength=len(self.names))
        return {
            name: (float(own[i]), int(calls[i])) for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Dump every span (name, start, end, parent, op) to a .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez(
                fh,
                names=np.array(json.dumps(self.names)),
                name_id=np.frombuffer(self.name_id, dtype=np.int32),
                start=np.frombuffer(self.start, dtype=np.float64),
                end=np.frombuffer(self.end, dtype=np.float64),
                parent=np.frombuffer(self.parent, dtype=np.int32),
                op=np.frombuffer(self.op, dtype=np.int32),
            )
