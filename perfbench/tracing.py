"""Spans around the program's public callables, recorded from outside.

A :class:`Tracer` wraps the layer-boundary callables named in
:data:`TARGETS` for the duration of one ``with tracer.record(repeat):``
block and puts the original objects back on exit, so nothing under
``src/`` is edited and nothing leaks into code that runs afterwards.
Every call becomes one span ``(name, start, end, parent, repeat, size)``;
the span id is its position in :attr:`Tracer.spans`.  Spans stay in memory
and are written out (JSONL) only when the run ends.

Single-threaded by design: the benchmark serves with synchronous swaps and
trains on the serial executor, so spans nest strictly and one stack is
enough.  A layer's *self time* is its span's duration minus the part of
that interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, \
    Sequence, Tuple


class Target(NamedTuple):
    """One callable to wrap: ``module.owner.attr`` (owner "" = the module)."""

    module: str
    owner: str
    attr: str
    span: str
    #: Optional work count taken at the boundary, from the call's arguments.
    size: Optional[Callable[..., int]] = None


def _rows(_self, values) -> int:
    return len(values)


#: The layer boundaries.  Module-level functions are patched on the
#: *importing* module (they are ``from``-imported, so the defining module's
#: binding is not the one the caller reads).
TARGETS: Tuple[Target, ...] = (
    Target("repro.serve.batcher", "MicroBatcher", "offer", "serve.batcher.offer"),
    Target("repro.serve.batcher", "MicroBatcher", "poll", "serve.batcher.poll"),
    Target("repro.serve.batcher", "MicroBatcher", "flush", "serve.batcher.flush"),
    Target("repro.serve.batcher", "MicroBatcher", "flush_all",
           "serve.batcher.flush_all"),
    Target("repro.serve.service", "ServingSession", "offer",
           "serve.session.offer"),
    Target("repro.serve.service", "ServingSession", "finish",
           "serve.session.finish"),
    Target("repro.ingest.admission", "AdmissionController", "admit",
           "ingest.admit"),
    Target("repro.serve.registry", "TenantRegistry", "register",
           "serve.registry.register"),
    Target("repro.serve.registry", "TenantRegistry", "apply_update",
           "serve.registry.apply_update"),
    Target("repro.engine.dispatch", "CompiledClassifier", "lookup_batch",
           "engine.lookup_batch", _rows),
    Target("repro.engine.dispatch", "CompiledClassifier", "match_indices",
           "engine.match_indices", _rows),
    Target("repro.serve.service", "", "packets_to_array", "engine.pack"),
    Target("repro.serve.engines", "", "compile_classifier", "engine.compile"),
    Target("repro.serve.engines", "", "partial_compile_classifier",
           "engine.partial_compile"),
    Target("repro.neurocuts.trainer", "NeuroCutsTrainer", "collect_batch",
           "neurocuts.collect_batch"),
    Target("repro.neurocuts.env", "NeuroCutsEnv", "rollout",
           "neurocuts.rollout"),
    Target("repro.neurocuts.observation", "ObservationEncoder", "encode",
           "neurocuts.encode"),
    Target("repro.neurocuts.action_space", "NeuroCutsActionSpace",
           "masks_for_node", "neurocuts.masks"),
    Target("repro.neurocuts.reward", "RewardCalculator", "subtree_reward",
           "neurocuts.reward"),
    Target("repro.tree.tree", "DecisionTree", "apply_action",
           "tree.apply_action"),
    Target("repro.rl.policy", "Policy", "act", "rl.act"),
    Target("repro.rl.ppo", "PPOLearner", "update", "rl.update"),
)

#: ``repeat`` stamp of spans recorded during set-up.
SETUP = -1


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  #: span id of the enclosing span, -1 at the top
    repeat: int
    size: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while a :meth:`record` block is open."""

    def __init__(self, workload: str = "",
                 targets: Sequence[Target] = TARGETS) -> None:
        self.workload = workload
        self.targets = tuple(targets)
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        self._repeat = SETUP

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    @contextmanager
    def record(self, repeat: int = SETUP) -> Iterator["Tracer"]:
        """Wrap every target; restore the original objects on exit."""
        self._repeat = repeat
        saved = []
        try:
            for target in self.targets:
                holder = resolve(target)
                original = holder.__dict__[target.attr]
                if not callable(original) or isinstance(
                        original, (staticmethod, classmethod)):
                    raise TypeError(f"{target.span}: not a plain function")
                saved.append((holder, target.attr, original))
                setattr(holder, target.attr,
                        self._wrap(target.span, original, target.size))
            yield self
        finally:
            for holder, attr, original in saved:
                setattr(holder, attr, original)

    @contextmanager
    def span(self, name: str, size: int = 0) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        index = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, name, start, time.perf_counter(), size)

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)  # reserve the id so children can name it
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str, start: float, end: float,
               size: int) -> None:
        stack = self._stack
        stack.pop()
        self.spans[index] = Span._make(
            (name, start, end, stack[-1] if stack else -1, self._repeat,
             size))

    def _wrap(self, name: str, fn: Callable, size: Optional[Callable]):
        # The hot path of a traced repeat (several spans per packet), so
        # _open/_close are inlined rather than called.
        clock = time.perf_counter
        spans, stack, make = self.spans, self._stack, Span._make

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = make((
                    name, start, end, stack[-1] if stack else -1,
                    self._repeat,
                    size(*args, **kwargs) if size is not None else 0))

        return traced

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #

    def write_jsonl(self, path) -> None:
        """One span per line: id, parent id, name, start, end, self time."""
        selfs = self_times(self.spans)
        with open(path, "w") as out:
            for index, (span, own) in enumerate(zip(self.spans, selfs)):
                out.write(json.dumps({
                    "id": index, "parent": span.parent, "name": span.name,
                    "workload": self.workload, "repeat": span.repeat,
                    "start": span.start, "end": span.end, "self": own,
                    "size": span.size,
                }) + "\n")


def resolve(target: Target):
    """The object (module or class) holding a target's attribute."""
    module = importlib.import_module(target.module)
    return getattr(module, target.owner) if target.owner else module


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per-span self time: duration minus the time its children cover.

    Spans nest strictly (one thread, one stack), so the interval a span's
    children cover is the sum of its direct children's durations.
    """
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration
    return own


class LayerTotals(NamedTuple):
    calls: int
    total: float  #: inclusive seconds
    own: float  #: self seconds
    size: int


def totals_by_repeat(spans: Sequence[Span]
                     ) -> Dict[int, Dict[str, LayerTotals]]:
    """Calls, inclusive and self seconds per span name, for each repeat."""
    result: Dict[int, Dict[str, List[float]]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = result.setdefault(span.repeat, {}) \
            .setdefault(span.name, [0, 0.0, 0.0, 0])
        entry[0] += 1
        entry[1] += span.duration
        entry[2] += own
        entry[3] += span.size
    return {repeat: {name: LayerTotals(int(e[0]), e[1], e[2], int(e[3]))
                     for name, e in names.items()}
            for repeat, names in result.items()}


def durations_by_repeat(spans: Sequence[Span], name: str
                        ) -> Dict[int, List[float]]:
    """Durations of every span called ``name``, for each repeat."""
    result: Dict[int, List[float]] = {}
    for span in spans:
        if span.name == name:
            result.setdefault(span.repeat, []).append(span.duration)
    return result
