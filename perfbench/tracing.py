"""Spans recorded from outside the package, around its public functions.

The tracer replaces each traced function in every namespace where a
caller looks it up (module globals and the RETRACTION_PAIRS table) with
a wrapper that records one span per call, and puts the originals back
when the traced block ends. Spans stay in memory until the run writes
them out.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span in Tracer.spans, -1 at top level
    phase: str  # "setup" or "loop"
    start: float
    end: float = 0.0
    outcome: str = "ok"  # "ok", "refused" (typed error) or "crashed"


class Tracer:
    def __init__(self, typed_errors: tuple[type[BaseException], ...]):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._typed = typed_errors
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.phase, time.perf_counter())
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except self._typed:
                span.outcome = "refused"
                raise
            except Exception:
                span.outcome = "crashed"
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self, targets: dict, modules: list, tables: list[dict]):
        """Trace targets (span name -> function) wherever modules or tables hold them."""
        wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, fn in targets.items()}

        def swap(value):
            orig, wrapper = wrappers.get(id(value), (None, None))
            return wrapper if orig is value else value

        undo = []
        try:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    new = swap(value)
                    if new is not value:
                        undo.append((mod.__dict__, attr, value))
                        setattr(mod, attr, new)
            for table in tables:
                for key, fns in list(table.items()):
                    new = tuple(swap(f) for f in fns)
                    if new != fns:
                        undo.append((table, key, fns))
                        table[key] = new
            yield self
        finally:
            for ns, key, value in reversed(undo):
                ns[key] = value

    def write(self, path) -> None:
        with open(path, "w") as f:
            for i, span in enumerate(self.spans):
                f.write(json.dumps({"id": i, **asdict(span)}) + "\n")


@dataclass
class Aggregate:
    durations: list[float] = field(default_factory=list)
    self_times: list[float] = field(default_factory=list)
    refused: int = 0

    @property
    def calls(self) -> int:
        return len(self.durations)

    @property
    def busy(self) -> float:
        return sum(self.self_times)


def aggregate(spans: list[Span], phases: tuple[str, ...]) -> dict[str, Aggregate]:
    """Per span name: durations, self times (duration minus child spans) and refusals."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    out: dict[str, Aggregate] = {}
    for s, c in zip(spans, child):
        if s.phase not in phases:
            continue
        agg = out.setdefault(s.name, Aggregate())
        agg.durations.append(s.end - s.start)
        agg.self_times.append(s.end - s.start - c)
        agg.refused += s.outcome == "refused"
    return out


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def p75_or_zero(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def tail(values: list[float]) -> float:
    """The highest percentile with at least 10 samples beyond it.

    With 10 or fewer samples no percentile qualifies and the minimum is returned.
    """
    if not values:
        return 0.0
    return sorted(values)[max(0, len(values) - 11)]
