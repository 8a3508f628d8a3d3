"""Span tracing by wrapping module attributes from outside the package.

A traced run replaces the attributes that callers resolve at call time (for
example ``mwetag.crf.expand_macros``, which ``_compile`` and ``build_lattice``
look up in their module's globals on every call) with wrappers that record a
span per call.  Spans stay in memory until the run ends; ``restore`` puts
every original attribute back.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator

# (module, attribute, span name).  Each entry is the binding the caller uses,
# so a function imported into several modules is wrapped where it is called.
LAYER_PATCHES: tuple[tuple[str, str, str], ...] = (
    ("mwetag.features", "stem", "stemmer.stem"),
    ("mwetag.cli", "encode_corpus", "features.encode_corpus"),
    ("mwetag.crf", "expand_macros", "templates.expand_macros"),
    ("mwetag.cli", "train", "crf.train"),
    ("mwetag.cli", "viterbi_decode", "crf.viterbi_decode"),
    ("mwetag.crf", "build_lattice", "crf.build_lattice"),
    ("mwetag.crf", "decode_lattice", "crf.decode_lattice"),
    ("mwetag.ga", "train_and_decode", "crf.train_and_decode"),
    ("mwetag.cli", "run_ga", "ga.run_ga"),
    ("mwetag.ga", "evaluate_fitness", "ga.evaluate_fitness"),
    ("mwetag.ga", "score", "evaluation.score"),
    ("mwetag.cli", "score", "evaluation.score"),
    ("mwetag.cli", "read_raw", "corpus.read_raw"),
    ("mwetag.cli", "read_column_file", "corpus.read_column_file"),
    ("mwetag.cli", "write_column_file", "corpus.write_column_file"),
    ("mwetag.cli", "save_model", "corpus.save_model"),
    ("mwetag.cli", "load_model", "corpus.load_model"),
)


class Tracer:
    """Records nested spans for a single-threaded run.

    Spans live in flat arrays rather than one object each, so a run with
    hundreds of thousands of calls adds no work for the garbage collector.
    A span is (name, start, end, parent index or -1, run id).
    """

    def __init__(self) -> None:
        self.run_id = 0
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("l")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._run = array("l")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str):
        """Start a span and return a function that ends it."""
        name_id = self._name_ids.setdefault(name, len(self._names))
        if name_id == len(self._names):
            self._names.append(name)
        stack, end, clock = self._stack, self._end, time.perf_counter
        start = self._start
        index = len(start)
        self._name.append(name_id)
        self._parent.append(stack[-1] if stack else -1)
        self._run.append(self.run_id)
        end.append(0.0)
        stack.append(index)
        start.append(clock())

        def close() -> None:
            end[index] = clock()
            stack.pop()

        return close

    @contextmanager
    def span(self, name: str):
        close = self._open(name)
        try:
            yield
        finally:
            close()

    def _wrapper(self, original, name: str):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            close = self._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                close()

        return traced

    def install(self, patches=LAYER_PATCHES) -> None:
        for module_name, attr, name in patches:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(original, name))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __len__(self) -> int:
        return len(self._start)

    def spans(self) -> Iterator[tuple[str, float, float, int, int]]:
        for i in range(len(self._start)):
            yield (
                self._names[self._name[i]],
                self._start[i],
                self._end[i],
                self._parent[i],
                self._run[i],
            )

    def write(self, path: Path, header: dict) -> None:
        """One JSON header line, then one ``[name, start, end, parent, run]``
        array per span."""
        with path.open("w", encoding="utf-8") as out:
            out.write(json.dumps(header) + "\n")
            for span in self.spans():
                out.write(json.dumps(span) + "\n")


@contextmanager
def installed(tracer: Tracer, patches=LAYER_PATCHES):
    tracer.install(patches)
    try:
        yield tracer
    finally:
        tracer.restore()


@contextmanager
def counting(module, attr: str):
    """Count calls of ``module.attr`` for the duration of the block; yields
    a one-element list holding the count."""
    original = getattr(module, attr)
    count = [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    setattr(module, attr, counted)
    try:
        yield count
    finally:
        setattr(module, attr, original)


def span_totals(spans: Iterable[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total seconds and self seconds.

    ``spans`` are (name, start, end, parent index, ...) tuples in opening
    order.  A span's self time is its duration minus the durations of its
    direct children; children of one single-threaded parent never overlap.
    """
    spans = list(spans)
    child_time = [0.0] * len(spans)
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for index, (name, start, end, _, *_) in enumerate(spans):
        entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[index]
    return totals
