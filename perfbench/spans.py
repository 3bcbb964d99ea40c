"""The traced run's span recorder, kept in the benchmark's own files.

Spans are recorded around the benchmark's calls into each layer's public
functions, held in memory, and written out once at the end of a run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    #: Id of the enclosing span, ``None`` for an op's root span.
    parent: int | None
    #: The op (one traced ``run``) the span belongs to.
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Nested spans of a single-threaded client, in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._clock = time.perf_counter

    @contextmanager
    def span(self, name: str, op: int) -> Iterator[Span]:
        parent = self._open[-1].id if self._open else None
        sp = Span(len(self.spans), name, self._clock(), 0.0, parent, op)
        self.spans.append(sp)
        self._open.append(sp)
        try:
            yield sp
        finally:
            self._open.pop()
            sp.end = self._clock()

    def self_times(self) -> dict[int, float]:
        """Per span id: its duration minus the part its children cover."""
        children: dict[int, list[Span]] = {}
        for sp in self.spans:
            if sp.parent is not None:
                children.setdefault(sp.parent, []).append(sp)
        out = {}
        for sp in self.spans:
            covered = 0.0
            reach = sp.start
            for child in sorted(children.get(sp.id, ()), key=lambda c: c.start):
                lo = max(child.start, reach)
                if child.end > lo:
                    covered += child.end - lo
                    reach = child.end
            out[sp.id] = sp.duration - covered
        return out

    def write(self, path: Path) -> None:
        """One JSON object per span, with its self time."""
        path.parent.mkdir(parents=True, exist_ok=True)
        self_times = self.self_times()
        with path.open("w") as out:
            for sp in self.spans:
                out.write(json.dumps({**asdict(sp),
                                      "self": self_times[sp.id]}) + "\n")
