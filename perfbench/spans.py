"""In-memory span recording around the program's public functions.

The benchmark never edits ``src/``: it replaces a layer's function or
method with a wrapper for the length of a traced pass and restores it
afterwards.  Each wrapped call records one span ``(name, start, end,
id, parent id)`` in memory, where the parent is the enclosing open span
of the same thread (or None).  A span's *self time* is its duration
minus the durations of its direct children; summed per name these are
the per-layer metrics.  Spans are tuples of plain values, which the
garbage collector stops tracking, so tens of thousands of them do not
slow the program's own collections.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Optional

__all__ = ["Layer", "SpanRecorder", "install"]

#: Called before a wrapped function with (recorder, absorbing span name
#: or None, positional args); returns a callable taking the result, or
#: None.  Used for counts that come from the call rather than its time.
Hook = Callable[["SpanRecorder", Optional[str], tuple], Optional[Callable[[Any], None]]]


class SpanRecorder:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: Closed spans ``(name, start, end, id, parent id)``, in the
        #: order they closed.
        self.spans: list[tuple[str, float, float, int, Optional[int]]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()

    def _thread_state(self) -> tuple[list, list]:
        local = self._local
        try:
            return local.stack, local.absorbers
        except AttributeError:
            local.stack, local.absorbers = [], []
            return local.stack, local.absorbers

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def call(self, name: Optional[str], fn: Callable, args: tuple, kwargs: dict,
             absorb: bool = False, hook: Optional[Hook] = None) -> Any:
        """Run ``fn`` inside a span named ``name``.

        No span is recorded when ``name`` is None or an enclosing span
        absorbs its callees (its self time then includes this call).
        """
        stack, absorbers = self._thread_state()
        after = hook(self, absorbers[-1] if absorbers else None, args) if hook else None
        if name is None or absorbers:
            result = fn(*args, **kwargs)
        else:
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            if absorb:
                absorbers.append(name)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                stack.pop()
                if absorb:
                    absorbers.pop()
                self.spans.append((name, start, end, span_id, parent))
        if after is not None:
            after(result)
        return result

    def span(self, name: str) -> "_SpanContext":
        """A span around a block, e.g. one pipeline stage."""
        return _SpanContext(self, name)

    def self_times(self) -> dict[str, float]:
        """Self time per span name, in seconds."""
        names = {span_id: name for name, _, _, span_id, _ in self.spans}
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, _, parent in self.spans:
            duration = end - start
            totals[name] += duration
            if parent is not None:
                totals[names[parent]] -= duration
        return dict(totals)


class _SpanContext:
    def __init__(self, recorder: SpanRecorder, name: str):
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> None:
        stack, _ = self.recorder._thread_state()
        self.parent = stack[-1] if stack else None
        self.span_id = next(self.recorder._ids)
        stack.append(self.span_id)
        self.start = self.recorder.clock()

    def __exit__(self, *exc: Any) -> None:
        end = self.recorder.clock()
        self.recorder._thread_state()[0].pop()
        self.recorder.spans.append((self.name, self.start, end, self.span_id, self.parent))


@dataclass(frozen=True)
class Layer:
    """One wrapped function: where it lives and what its spans are called."""

    module: str
    qualname: str
    span: Optional[str]
    absorb: bool = False
    hook: Optional[Hook] = None


def _wrapper(recorder: SpanRecorder, layer: Layer, fn: Callable) -> Callable:
    name, absorb, hook = layer.span, layer.absorb, layer.hook

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs, absorb, hook)

    return traced


def install(recorder: SpanRecorder, layers: list[Layer]) -> Callable[[], None]:
    """Wrap every layer's function; returns the function that undoes it.

    A method is replaced on its class.  A module-level function is
    replaced in every loaded ``repro`` module that bound it by name, so
    callers that did ``from module import fn`` see the wrapper too.
    """
    undo: list[tuple[Any, str, Any]] = []
    for layer in layers:
        module = sys.modules[layer.module]
        owner_name, _, attr = layer.qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                replacement: Any = classmethod(
                    _wrapper(recorder, layer, original.__func__)
                )
            else:
                replacement = _wrapper(recorder, layer, original)
            setattr(owner, attr, replacement)
            undo.append((owner, attr, original))
            continue
        original = getattr(module, attr)
        replacement = _wrapper(recorder, layer, original)
        for name, loaded in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and (
                vars(loaded).get(attr) is original
            ):
                setattr(loaded, attr, replacement)
                undo.append((loaded, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
