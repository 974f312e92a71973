"""Span recording around teesplit's public functions.

The benchmark measures the package from outside: while a ``Recorder`` is
installed, each target below is replaced, at the module attribute its caller
looks up at call time, by a wrapper that records one span (name, start, end,
parent). Nothing inside ``src/`` changes, and removing the wrappers restores
the original functions, so untraced runs execute exactly the shipped code.
"""

import contextlib
import importlib
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name). The module is the one whose global the
# caller resolves: pipeline.py imports split and predict by name, so those
# are wrapped in teesplit.pipeline, and planner.py likewise for predict.
TARGETS = (
    ("teesplit.engine", "forward", "engine.forward"),
    ("teesplit.engine", "forward_until", "engine.forward_until"),
    ("teesplit.engine", "input_gradient", "engine.input_gradient"),
    ("teesplit.privacy", "invert_feature_map", "privacy.invert_feature_map"),
    ("teesplit.privacy", "ssim", "privacy.ssim"),
    ("teesplit.pipeline", "split", "graph.split"),
    ("teesplit.pipeline", "enumerate_partitions", "graph.enumerate_partitions"),
    ("teesplit.graph", "enumerate_partitions", "graph.enumerate_partitions"),
    ("teesplit.pipeline", "simulate_pipeline", "pipeline.simulate_pipeline"),
    ("teesplit.pipeline", "predict", "costs.predict"),
    ("teesplit.planner", "predict", "costs.predict"),
    ("teesplit.planner", "plan", "planner.plan"),
    ("teesplit.tensors", "load_image", "tensors.load_image"),
    ("teesplit.tensors", "tensor_to_bytes", "tensors.tensor_to_bytes"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))


class Recorder:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_.pop()

        return traced

    def child_index(self):
        """Parent span index -> indexes of its child spans, in call order."""
        out = defaultdict(list)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                out[span[3]].append(i)
        return out

    def totals(self):
        """Calls and self seconds per span name. Self time is the span's
        duration minus the time its child spans cover; children of one
        span never overlap, because calls nest on one thread."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += end - start - inner
        return calls, self_s

    def busy_s(self, prefix):
        """Seconds spent inside spans whose name starts with ``prefix``,
        counting nested spans of the same prefix once."""
        total = 0.0
        for name, start, end, parent in self.spans:
            if name.startswith(prefix) and not (
                    parent >= 0 and self.spans[parent][0].startswith(prefix)):
                total += end - start
        return total


@contextlib.contextmanager
def installed(recorder):
    """Route every target through ``recorder`` for the duration."""
    saved = []
    try:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, recorder.wrap(name, fn))
        yield recorder
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
