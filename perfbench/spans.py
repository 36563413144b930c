"""In-memory span recording around the program's layer entry points.

The traced run wraps each layer's entry point at the binding its
callers use (every ``repro.*`` module attribute that holds the original
function, or the method on its class), records one span per call
(name, start, end, parent) in memory, and restores the originals when
the run ends.  Self time is a span's duration minus its children's; an
experiment span's self time is that experiment's ``(unattributed)``
residual, so the rows of :func:`self_time_rows` sum to the root span.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span name -> layer name used in the report and the metric names.
LAYERS = {
    "sweep": "core.sweep",
    "memo": "sim.memo",
    "stackdist": "sim.stackdist",
    "fast": "sim.fast",
    "reference": "sim.functional",
    "timing": "sim.timing",
    "journal": "resilience.journal",
    "manifest": "audit.manifest",
    "build": "trace.build",
    "store": "trace.store",
}

UNATTRIBUTED = "(unattributed)"


def _no_detail(*args: Any, **kwargs: Any) -> Tuple[int, bool]:
    return 0, False


def rebind(
    original: Callable, replacement: Callable, also: Tuple[Any, ...] = ()
) -> List[Tuple[Any, str, Any]]:
    """Point every attribute bound to ``original`` -- in any ``repro.*``
    module, or in the modules ``also`` names -- at ``replacement``.
    Returns ``(module, attribute, original)`` entries to undo it."""
    modules = [
        module for module_name, module in list(sys.modules.items())
        if module_name.startswith("repro") and module is not None
    ]
    undo = []
    for module in modules + list(also):
        for attribute, value in list(vars(module).items()):
            if value is original:
                undo.append((module, attribute, value))
                setattr(module, attribute, replacement)
    return undo


@dataclasses.dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: Optional[int] = None
    records: int = 0
    eligible: bool = False
    child_ns: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        return self.duration_ns - self.child_ns


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str, records: int = 0, eligible: bool = False):
        index = self._enter(name, records, eligible)
        try:
            yield
        finally:
            self._exit(index)

    def _enter(self, name: str, records: int, eligible: bool) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(
            Span(name, time.perf_counter_ns(), parent=parent,
                 records=records, eligible=eligible)
        )
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def _exit(self, index: int) -> None:
        span = self.spans[index]
        span.end_ns = time.perf_counter_ns()
        self._open.pop()
        if span.parent is not None:
            self.spans[span.parent].child_ns += span.duration_ns

    # -- wrapping ------------------------------------------------------------

    def wrap_function(
        self, original: Callable, name: str,
        describe: Callable[..., Tuple[int, bool]] = _no_detail,
        also: Tuple[Any, ...] = (),
    ) -> None:
        wrapper = self._wrapper(original, name, describe)
        self._restore += rebind(original, wrapper, also)

    def wrap_method(
        self, owner: type, attribute: str, name: str,
        describe: Callable[..., Tuple[int, bool]] = _no_detail,
    ) -> None:
        original = owner.__dict__[attribute]
        if isinstance(original, classmethod):
            inner = self._wrapper(original.__func__, name, describe)
            replacement: Any = classmethod(inner)
        else:
            replacement = self._wrapper(original, name, describe)
        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def _wrapper(self, function: Callable, name: str, describe) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            records, eligible = describe(*args, **kwargs)
            index = tracer._enter(name, records, eligible)
            try:
                return function(*args, **kwargs)
            finally:
                tracer._exit(index)

        return traced

    def unwrap(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    # -- analysis ------------------------------------------------------------

    def as_records(self) -> List[Dict[str, Any]]:
        return [dataclasses.asdict(span) for span in self.spans]


def self_time_rows(tracer: Tracer) -> List[Tuple[str, int, float]]:
    """``(row, calls, self_s)`` per layer, then one ``(unattributed)`` row
    per experiment and one for the run itself.  Rows sum to the root."""
    layers: Dict[str, List[float]] = {}
    residuals: List[Tuple[str, int, float]] = []
    for span in tracer.spans:
        self_s = span.self_ns / 1e9
        if span.name in LAYERS:
            entry = layers.setdefault(LAYERS[span.name], [0, 0.0])
            entry[0] += 1
            entry[1] += self_s
        elif span.name.startswith("experiment."):
            label = span.name[len("experiment."):]
            residuals.append((f"{label} {UNATTRIBUTED}", 1, self_s))
        else:
            residuals.append((f"{span.name} {UNATTRIBUTED}", 1, self_s))
    rows = [(layer, int(c), s) for layer, (c, s) in sorted(layers.items())]
    return rows + residuals
