"""Span tracing of the deo package, installed from outside it.

`instrument` wraps every public function and method of every deo module
(except `cli`, whose commands are the root spans the runner opens, and
`__main__`) and rebinds each name that other modules imported, so calls
between modules go through the wrappers too. A span records name, start,
end, parent and the root (CLI command) it belongs to. Spans stay in memory
until the run ends.

Per-record and per-step helpers and the format back-ends of
load_store/save_store are counted, not spanned: they run once per vector or
optimizer step, and their time stays in the caller's self time (for example
`index.FlatIndex.build` includes the per-row `vecmath.l2_normalize` calls,
whose number is counted). Generator functions are counted too, since a call
returns before any work is done.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

SKIPPED_MODULES = {"cli", "__main__"}
COUNT_ONLY = {
    "vecmath.as_vector",
    "vecmath.l2_normalize",
    "optimizer.deo_gradient",
    "optimizer.deo_loss",
    "store.EmbeddingStore.add",
    "store.EmbeddingStore.get",
    "store.EmbeddingStore.load_binary",
    "store.EmbeddingStore.load_jsonl",
    "store.EmbeddingStore.save_binary",
    "store.EmbeddingStore.save_jsonl",
}


def _file_size(path) -> int:
    try:
        return os.path.getsize(os.fspath(path))
    except OSError:
        return 0


# span name -> (counter suffix, f(args, kwargs) -> int), evaluated after the call
EXTRA_COUNTERS = {
    "store.load_store": ("bytes", lambda a, kw: _file_size(a[0])),
    "store.save_store": ("bytes", lambda a, kw: _file_size(a[1] if len(a) > 1 else kw["path"])),
    "ioutil.atomic_write_bytes": ("bytes", lambda a, kw: len(a[1])),
    "decomposer.DecompositionCache.flush": ("bytes", lambda a, kw: _file_size(a[0].path)),
    "clients.EmbeddingClient.embed": ("texts", lambda a, kw: len(a[1])),
}


class Tracer:
    """Collects spans and counters; thread-safe for the decompose pool."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, root]
        self.counters: dict[str, int] = defaultdict(int)
        self.origin = time.perf_counter()
        self._root: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        # spans opened on a worker thread hang off the running command
        parent = stack[-1] if stack else self._root
        with self._lock:
            sid = len(self.spans)
            self.spans.append([name, time.perf_counter() - self.origin, None, parent, self._root])
        stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self._stack().pop()
        self.spans[sid][2] = time.perf_counter() - self.origin

    def count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[key] += amount

    @contextmanager
    def root(self, name: str):
        """Open a root span (one CLI command); its id tags every span inside."""
        sid = self._open(name)
        self.spans[sid][4] = sid
        self._root = sid
        try:
            yield sid
        finally:
            self._close(sid)
            self._root = None

    def span_wrapper(self, fn, name: str):
        extra = EXTRA_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
                if extra is not None:
                    self.count(f"{name}.{extra[0]}", extra[1](args, kwargs))

        return wrapper

    def count_wrapper(self, fn, name: str):
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, root) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "root": root}) + "\n")


def _wrap(tracer: Tracer, fn, name: str):
    if name in COUNT_ONLY or inspect.isgeneratorfunction(fn):
        return tracer.count_wrapper(fn, name)
    return tracer.span_wrapper(fn, name)


def instrument(tracer: Tracer, package: str = "deo"):
    """Wrap the package's public callables; returns a function that undoes it."""
    pkg = importlib.import_module(package)
    modules = [importlib.import_module(f"{package}.{info.name}")
               for info in pkgutil.iter_modules(pkg.__path__)
               if info.name not in SKIPPED_MODULES]
    undo: list[tuple[object, str, object]] = []
    replaced: dict[int, object] = {}  # id(original function) -> wrapper

    for module in modules:
        short = module.__name__.rsplit(".", 1)[-1]
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                replaced[id(obj)] = _wrap(tracer, obj, f"{short}.{attr}")
            elif inspect.isclass(obj):
                for meth, raw in list(vars(obj).items()):
                    if meth.startswith("_"):
                        continue
                    name = f"{short}.{obj.__name__}.{meth}"
                    if isinstance(raw, (classmethod, staticmethod)):
                        new = type(raw)(_wrap(tracer, raw.__func__, name))
                    elif inspect.isfunction(raw):
                        new = _wrap(tracer, raw, name)
                    else:
                        continue
                    undo.append((obj, meth, raw))
                    setattr(obj, meth, new)

    # rebind every module-level reference, including names imported elsewhere
    for mod_name, module in list(sys.modules.items()):
        if mod_name != package and not mod_name.startswith(package + "."):
            continue
        for attr, obj in list(vars(module).items()):
            wrapper = replaced.get(id(obj))
            if wrapper is not None and inspect.isfunction(obj):
                undo.append((module, attr, obj))
                setattr(module, attr, wrapper)

    def restore() -> None:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)

    return restore


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals if min(e, hi) > max(s, lo))
    total = 0.0
    cur_start = cur_end = None
    for s, e in clipped:
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Per span: duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, (_, start, end, parent, _) in enumerate(spans):
        if parent is not None and parent != sid:
            children[parent].append((start, end))
    return [end - start - covered_length(children[sid], start, end)
            for sid, (_, start, end, _, _) in enumerate(spans)]


def layer_table(spans) -> dict[str, dict[str, float]]:
    """name -> {calls, total_s, self_s} over all spans."""
    table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                                             "self_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        row = table[span[0]]
        row["calls"] += 1
        row["total_s"] += span[2] - span[1]
        row["self_s"] += own
    return dict(table)


def layer_share(spans, wall_s: float) -> float:
    """Share of wall_s covered by the union of all non-root spans."""
    intervals = [(s, e) for sid, (_, s, e, _, root) in enumerate(spans) if root != sid]
    return covered_length(intervals, float("-inf"), float("inf")) / wall_s
