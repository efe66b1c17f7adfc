"""Per-module tracing from outside the library.

`install()` wraps every public function of every hyperspec module, and
rebinds each wrapper wherever the original is bound: the modules import
one another by name (`from .linalg import rref`), so patching only the
defining module would miss most calls. A wrapped call is counted and
records a span (layer, start, end, parent) in memory; `Tracer.dump` writes
the spans and counters out when the traced process ends. Functions called
too often to time are counted only. An lru-cached function is rebuilt as
an equal cache around its traced body, so every call is counted, only a
miss is timed, and misses are read from `cache_info()`.

`aggregate()` turns the dumps of one pass into per-layer figures: for each
layer its calls, its self time (span durations minus the time covered by
child spans) and its extra counters, plus `<module>.self_s` per module.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

MODULES = ("linalg", "gfarith", "hyperkernel", "algkernel", "hopfkernel", "specops", "galoisline", "suite", "cli")

# Called about 10^5 times or more per pass: counted, never timed.
COUNT_ONLY = {"linalg.npmod", "linalg.modinv"}

# Layer names that differ from the function name.
RENAMES = {"linalg.batch_tensor_rank_class": "linalg.rank_class"}

# Public static methods traced as layers of their module.
METHODS = {"hyperkernel.from_json": ("hyperkernel", "HyperRingTable", "from_json")}


def _rows(tracer, layer, args, result):
    tracer.counts[layer + ".rows"] += int(result.shape[0])


def _rank_classes(tracer, layer, args, result):
    tracer.counts[layer + ".rows"] += int(result.shape[0])
    tracer.counts[layer + ".rank1_rows"] += int((result == 1).sum())


def _distinct_pairs(tracer, layer, args, result):
    h, f, g = args[:3]
    key = (h, f.index, g.index)  # HopfData hashes by identity
    if key not in tracer.hyperop_keys:
        tracer.hyperop_keys.add(key)
        tracer.counts[layer + ".computed"] += 1


# Extra counters taken from a call's arguments and result.
EXTRAS = {
    "linalg.rank_class": _rank_classes,
    "linalg.enumerate_vectors": _rows,
    "specops.hyperop": _distinct_pairs,
}


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self.spans: list = []  # (layer index, start, end, parent span index or -1)
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.cached: dict = {}  # layer -> its rebuilt lru cache
        self.hyperop_keys: set = set()  # (algebra, f index, g index) seen by specops.hyperop

    def span_wrapper(self, layer: str, fn, extra=None, count: bool = True):
        self.layers.append(layer)
        lid = len(self.layers) - 1
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter
        calls = layer + ".calls" if count else None

        def traced(*args, **kwargs):
            if calls:
                counts[calls] += 1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (lid, start, end, stack[-1] if stack else -1)
            if extra is not None:
                extra(self, layer, args, return_value)
            return return_value

        return traced

    def count_wrapper(self, layer: str, fn):
        counts, key = self.counts, layer + ".calls"

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def generator_wrapper(self, layer: str, fn):
        counts, calls, items = self.counts, layer + ".calls", layer + ".items"

        def counted(*args, **kwargs):
            counts[calls] += 1
            for item in fn(*args, **kwargs):
                counts[items] += 1
                yield item

        return counted

    def wrap(self, layer: str, fn):
        if layer in COUNT_ONLY:
            return self.count_wrapper(layer, fn)
        if inspect.isgeneratorfunction(fn):
            return self.generator_wrapper(layer, fn)
        if hasattr(fn, "cache_info"):
            cache = functools.lru_cache(**fn.cache_parameters())
            cached = cache(self.span_wrapper(layer, fn.__wrapped__, count=False))
            self.cached[layer] = cached
            return self.count_wrapper(layer, cached)
        return self.span_wrapper(layer, fn, EXTRAS.get(layer))

    def dump(self, path, invocation: str, extra_counts: dict) -> None:
        counts = Counter(self.counts)
        counts.update(extra_counts)
        for layer, fn in self.cached.items():
            counts[layer + ".misses"] += fn.cache_info().misses
        doc = {
            "invocation": invocation,
            "layers": self.layers,
            "spans": self.spans,
            "counts": dict(counts),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            yield name, obj


def install() -> Tracer:
    """Wrap the public functions of every hyperspec module in this process."""
    tracer = Tracer()
    mods = {name: sys.modules[f"hyperspec.{name}"] for name in MODULES}
    namespaces = [m for name, m in sys.modules.items() if name == "hyperspec" or name.startswith("hyperspec.")]
    for short, module in mods.items():
        for name, fn in list(_public_functions(module)):
            layer = RENAMES.get(f"{short}.{name}", f"{short}.{name}")
            wrapper = tracer.wrap(layer, fn)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, attr, wrapper)
    for layer, (short, cls_name, meth) in METHODS.items():
        cls = getattr(mods[short], cls_name)
        setattr(cls, meth, staticmethod(tracer.wrap(layer, inspect.getattr_static(cls, meth).__func__)))
    return tracer


def self_times(layers: list[str], spans: list) -> dict[str, float]:
    """Per-layer self time: each span's duration minus the durations of its
    direct child spans (children nest inside their parent)."""
    child = [0.0] * len(spans)
    for lid, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for k, (lid, start, end, parent) in enumerate(spans):
        out[layers[lid]] = out.get(layers[lid], 0.0) + (end - start - child[k])
    return out


def aggregate(docs: list[dict]) -> dict[str, float]:
    """Sum the dumps of one pass into `<layer>.<figure>` (calls, self_s and
    the extra counters) and `<module>.self_s`."""
    out: Counter = Counter()
    for doc in docs:
        for layer, secs in self_times(doc["layers"], doc["spans"]).items():
            out[layer + ".self_s"] += secs
            out[layer.split(".")[0] + ".self_s"] += secs
        out.update(doc["counts"])
    return dict(out)
