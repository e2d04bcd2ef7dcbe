"""In-memory span tracing of speechscore, installed from outside the package.

`Tracer.install()` replaces public functions at the module globals (or class
attributes) where their callers look them up, so the package itself carries
no tracing code. Each call records a span: name, start, end, parent and
thread. Spans stay in memory until the caller reads them; `self_times`
subtracts the part of each span that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None     # index into Tracer.spans
    thread: int


# (module, attribute, span name). The module is where the caller looks the
# name up, which is not always where the function is defined.
FUNCTION_SITES = (
    ("speechscore.cli", "load_corpus", "corpus.load_corpus"),
    ("speechscore.cli", "gain_importance", "explain.gain_importance"),
    ("speechscore.cli", "pdp", "explain.pdp"),
    ("speechscore.cli", "shap_summary", "explain.shap_summary"),
    ("speechscore.cli", "save_model", "learners.save_model"),
    ("speechscore.cli", "load_model", "learners.load_model"),
    ("speechscore.cli", "synth_corpus", "synth.synth_corpus"),
    ("speechscore.cli", "write_corpus", "synth.write_corpus"),
    ("speechscore.harness", "prepare_prompt", "harness.prepare_prompt"),
    ("speechscore.harness", "save_prompt_dataset", "harness.save_prompt_dataset"),
    ("speechscore.harness", "load_prompt_dataset", "harness.load_prompt_dataset"),
    ("speechscore.harness", "_evaluate", "harness.evaluate"),
    ("speechscore.harness", "stratified_split", "corpus.stratified_split"),
    ("speechscore.harness", "fit_standardizer", "corpus.fit_standardizer"),
    ("speechscore.harness", "extract_matrix", "features.extract_matrix"),
    ("speechscore.harness", "metric_report", "metrics.metric_report"),
    ("speechscore.features", "_extract_one", "features.extract_one"),
    ("speechscore.features", "fit_vocabulary", "content.fit_vocabulary"),
    ("speechscore.features", "vectorize", "content.vectorize"),
    ("speechscore.features", "fluency_features", "fluency.fluency_features"),
    ("speechscore.features", "prosody_features", "prosody.prosody_features"),
    ("speechscore.features", "grammar_features", "grammar.grammar_features"),
    ("speechscore.features", "read_wav", "acoustic.read_wav"),
    ("speechscore.features", "extract_acoustic", "acoustic.extract_acoustic"),
    ("speechscore.acoustic", "pitch_track", "acoustic.pitch_track"),
    ("speechscore.acoustic", "acoustic_features", "acoustic.acoustic_features"),
    ("speechscore.learners", "fit_tree", "trees.fit_tree"),
    ("speechscore.learners", "fit_gbt", "learners.fit_gbt"),
    ("speechscore.learners", "grid_search", "learners.grid_search"),
    ("speechscore.explain", "tree_shap", "explain.tree_shap"),
    ("speechscore.svg", "bar_chart", "svg.render"),
    ("speechscore.svg", "line_chart", "svg.render"),
    ("speechscore.svg", "beeswarm", "svg.render"),
)

# (module, class, method, span name, is_classmethod)
METHOD_SITES = (
    ("speechscore.trees", "Tree", "predict", "trees.predict", False),
    ("speechscore.corpus", "FeatureMatrix", "to_csv", "corpus.to_csv", False),
    ("speechscore.corpus", "FeatureMatrix", "from_csv", "corpus.from_csv", True),
)


class Tracer:
    """Records spans while installed; `install` returns an undo callable."""

    def __init__(self):
        self.spans: list[Span] = []
        self._append = threading.Lock()     # spans come from pool threads too
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[int, list[int]]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # A pool worker's first span belongs to the span that is open on
            # the main thread, which submitted the work.
            main = self._main_stack
            parent = main[-1] if main else None
        span = Span(name, time.perf_counter(), 0.0, parent, threading.get_ident())
        with self._append:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index, stack

    def _close(self, index: int, stack: list[int]) -> None:
        self.spans[index].end = time.perf_counter()
        stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, stack = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index, stack)
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself."""
        index, stack = self._open(name)
        try:
            yield
        finally:
            self._close(index, stack)

    def install(self):
        undo = []
        for module_name, attr, name in FUNCTION_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self.wrap(name, original))
            undo.append((module, attr, original))
        for module_name, cls_name, attr, name, is_classmethod in METHOD_SITES:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            if is_classmethod:
                replacement = classmethod(self.wrap(name, original.__func__))
            else:
                replacement = self.wrap(name, original)
            setattr(cls, attr, replacement)
            undo.append((cls, attr, original))

        def uninstall():
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
        return uninstall


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        clipped = [(max(s, span.start), min(e, span.end))
                   for s, e in children.get(i, ()) if e > span.start and s < span.end]
        out.append(span.end - span.start - _covered(clipped))
    return out
