"""Summaries, the timer-resolution guard and the in-memory span recorder."""

from __future__ import annotations

import itertools
import statistics
import time
from typing import Dict, List, Optional

#: The shortest timed region that counts as resolved.  At 100 us the
#: clock's own cost (tens of ns per read) stays below 0.1% of a sample;
#: anything shorter, like the 2 us batch count behind the "10484x" in
#: BENCH_batch.json, measures the timer rather than the program.
MIN_REGION_S = max(100e-6,
                   1000 * time.get_clock_info("perf_counter").resolution)
#: A tail is the highest percentile with at least this many samples
#: beyond it.
TAIL_BEYOND = 10
_TAIL_PCTS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class Unresolved(RuntimeError):
    """A timed region was too short for the clock to resolve."""


def region(seconds: float, what: str) -> float:
    """Return ``seconds`` if the clock resolved it; raise otherwise."""
    if seconds < MIN_REGION_S:
        raise Unresolved(f"{what}: timed region of {seconds * 1e6:.2f} us is "
                         f"below the {MIN_REGION_S * 1e6:.0f} us floor")
    return seconds


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), round(pct / 100 * len(ordered) + 0.5)))
    return ordered[rank - 1]


def summary(values: List[float], better: str) -> dict:
    """Median, tail and sample count.  For a metric where higher is
    better the tail is taken from the low side."""
    n = len(values)
    pct = next((p for p in _TAIL_PCTS if n * (100 - p) / 100 >= TAIL_BEYOND),
               100.0)
    side = pct if better == "lower" else 100 - pct
    return {"median": statistics.median(values),
            "tail": percentile(values, side) if pct < 100 else
            (max(values) if better == "lower" else min(values)),
            "tail_pct": side, "n": n}


class Spans:
    """Spans kept in memory: name, layer, start, end, parent, request id.

    ``add`` takes timestamps the caller already read for its own timing,
    so recording a span costs one list append and a disabled recorder
    costs one attribute test.  ``open``/``close`` nest parent spans on the
    main thread; load threads name their parent explicitly.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._stack: List[tuple] = []

    def add(self, name: str, layer: str, start: float, end: float,
            parent: Optional[int] = None, rid: Optional[int] = None) -> int:
        if not self.enabled:
            return 0
        sid = next(self._ids)
        if parent is None:
            parent = self.current()
        self.spans.append({"id": sid, "name": name, "layer": layer,
                           "start": start, "end": end, "parent": parent,
                           "rid": rid})
        return sid

    def current(self) -> Optional[int]:
        return self._stack[-1][0] if self._stack else None

    def open(self, name: str, layer: str) -> None:
        """Begin a parent span; ``close`` ends it."""
        if self.enabled:
            self._stack.append((next(self._ids), name, layer, self.current(),
                                time.perf_counter()))

    def close(self) -> None:
        if not self.enabled:
            return
        sid, name, layer, parent, start = self._stack.pop()
        self.spans.append({"id": sid, "name": name, "layer": layer,
                           "start": start, "end": time.perf_counter(),
                           "parent": parent, "rid": None})

    def self_time(self) -> Dict[str, float]:
        """Seconds per layer: each span's duration minus the part of its
        interval that its children cover."""
        children: Dict[int, List[tuple]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(
                    (s["start"], s["end"]))
        out: Dict[str, float] = {}
        for s in self.spans:
            covered, reach = 0.0, s["start"]
            for a, b in sorted(children.get(s["id"], ())):
                a, b = max(a, reach), min(b, s["end"])
                if b > a:
                    covered += b - a
                    reach = b
            own = (s["end"] - s["start"]) - covered
            out[s["layer"]] = out.get(s["layer"], 0.0) + own
        return out
