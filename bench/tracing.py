"""Spans around the public functions of each qincompat layer.

The benchmark never edits the library. While a ``Tracer`` is installed it
replaces every function that ``qincompat`` exports, in each qincompat module
that refers to it, with a wrapper that records a span (name, start, end,
parent). For the exported dataclasses with a ``__post_init__`` (construction
and validation of ``DensityMatrix``, ``ObservableBasis``, ``Context`` and the
like) it wraps that method on the class, so construction through any route is
seen. ``cli.main`` and ``cli.load_context_document`` are wrapped as well.
Spans stay in memory until ``write`` saves them.

A span's layer is the module that defines the function. A span whose parent
lies in another layer, or that has no parent, is one entry into its layer.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
import tracemalloc
import types
from collections import defaultdict

LAYERS = ("core", "measures", "protocol", "bloch", "mubsearch", "cli")
CLI_FUNCTIONS = ("main", "load_context_document")
PEAK_MEMORY_SPAN = "bloch.build_generators"
SEARCH_SPAN = "mubsearch.maximize_incompatibility"
MIB = 1024.0 * 1024.0


def _public_targets():
    """(span name, owner, attribute, original) for every traced callable."""
    import qincompat

    targets = []
    for name in dir(qincompat):
        obj = getattr(qincompat, name)
        module = getattr(obj, "__module__", "") or ""
        layer = module.rpartition(".")[2]
        if name.startswith("_") or not module.startswith("qincompat.") or layer not in LAYERS:
            continue
        if isinstance(obj, types.FunctionType):
            targets.append((f"{layer}.{name}", None, name, obj))
        elif isinstance(obj, type) and "__post_init__" in obj.__dict__:
            targets.append((f"{layer}.{name}", obj, "__post_init__", obj.__dict__["__post_init__"]))
    cli = sys.modules.get("qincompat.cli")
    if cli is not None:
        for name in CLI_FUNCTIONS:
            targets.append((f"cli.{name}", None, name, getattr(cli, name)))
    return targets


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` swap the wrappers in."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one row per span: name id, start, end, parent row (-1 for none)
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.peak_mib: dict[str, float] = defaultdict(float)
        self.search_results: list = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        watch_memory = name == PEAK_MEMORY_SPAN
        keep_result = name == SEARCH_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(row)
            stack.append(len(spans) - 1)
            if watch_memory:
                tracemalloc.start()
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
                if watch_memory:
                    peak = tracemalloc.get_traced_memory()[1] / MIB
                    tracemalloc.stop()
                    self.peak_mib[name] = max(self.peak_mib[name], peak)
            if keep_result:
                self.search_results.append(result)
            return result

        return traced

    def install(self) -> None:
        """Replace each traced callable everywhere qincompat refers to it."""
        if self._patches:
            return
        modules = [m for n, m in sys.modules.items() if n == "qincompat" or n.startswith("qincompat.")]
        for name, owner, attr, original in _public_targets():
            wrapper = self._wrap(name, original)
            if owner is not None:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ms and self ms; per layer: entries."""
        child_time = [0.0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        entries = dict.fromkeys(LAYERS, 0)
        for row, (name_id, start, end, parent) in enumerate(self.spans):
            name = self.names[name_id]
            stats = out[name]
            stats["calls"] += 1
            stats["ms"] += (end - start) * 1e3
            stats["self_ms"] += (end - start - child_time[row]) * 1e3
            layer = name.partition(".")[0]
            if parent < 0 or self.names[self.spans[parent][0]].partition(".")[0] != layer:
                entries[layer] += 1
        for layer, count in entries.items():
            out[layer] = {"calls": count}
        return dict(out)

    def write(self, path) -> None:
        """Save every span as gzip-compressed JSON: names plus rows of
        [name id, start s, end s, parent row]."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({"names": self.names, "spans": self.spans}, handle, separators=(",", ":"))
