"""In-memory span tracing of a package's functions, installed from outside.

A `Tracer` replaces chosen functions with wrappers that record one `Span`
per call (name, start, end, parent span) plus optional per-call counts, and
puts every replaced attribute back on `close()`.  A function imported into
several modules of the package (``from .linking_core import train``) is
replaced under every name that refers to it, so calls through any of them
are seen.

Count functions and span naming run outside the span clock: their time is
subtracted from every later timestamp, so it lands in no span's self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span, None at top level
    counts: dict = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Child intervals are clipped to the parent and merged where they overlap,
    so covered time is never counted twice.
    """
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        run_start = run_end = None
        for kid in sorted(kids, key=lambda k: k.start):
            a, b = max(kid.start, span.start), min(kid.end, span.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append((span.end - span.start) - covered)
    return out


def span_metrics(spans: list[Span]) -> dict[str, float]:
    """``<name>.calls`` and ``<name>.self_s`` per span name, plus summed counts."""
    out: dict[str, float] = defaultdict(int)  # calls and counts stay integers
    for span, self_s in zip(spans, self_times(spans)):
        out[f"{span.name}.calls"] += 1
        out[f"{span.name}.self_s"] += self_s
        for key, value in span.counts.items():
            out[key] += value
    return dict(out)


class Tracer:
    """Wraps functions of one package and records a span per call."""

    def __init__(self, package: str, clock: Callable[[], float] = time.perf_counter):
        self.package = package
        self.spans: list[Span] = []
        self._clock = clock
        self._hidden = 0.0  # time spent naming and counting, kept out of spans
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def now(self) -> float:
        return self._clock() - self._hidden

    def _modules(self):
        prefix = self.package + "."
        return [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(prefix))
        ]

    def wrap(
        self,
        module,
        attr: str,
        namer: Optional[Callable[[dict], str]] = None,
        counter: Optional[Callable[[dict, object], dict]] = None,
    ) -> None:
        """Trace ``module.attr`` under every name the package binds it to.

        ``namer`` picks the span name from the bound call arguments;
        ``counter`` maps (bound arguments, result) to counts for the span.
        """
        original = getattr(module, attr)
        default_name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        signature = inspect.signature(original) if (namer or counter) else None
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            bound = None
            span_name = default_name
            if signature is not None:
                t0 = tracer._clock()
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                bound = call.arguments
                if namer is not None:
                    span_name = namer(bound)
                tracer._hidden += tracer._clock() - t0
            span = Span(span_name, tracer.now(), 0.0, tracer._stack[-1] if tracer._stack else None)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = tracer.now()
                tracer._stack.pop()
            if counter is not None:
                t0 = tracer._clock()
                span.counts = counter(bound, result)
                tracer._hidden += tracer._clock() - t0
            return result

        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, traced)

    def close(self) -> None:
        """Restore every attribute this tracer replaced, newest first."""
        while self._patches:
            mod, key, original = self._patches.pop()
            setattr(mod, key, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
