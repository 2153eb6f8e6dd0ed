"""In-memory tracing of ``psynd`` from outside the package.

Spans wrap the calls ``cli`` makes into the other modules (and the few
calls ``returnsets`` and ``windows`` make into the witness kernels);
counters with accumulated time wrap the hot primitives (``iterate`` and
``in_ball`` on the system classes, ``IntegralPolynomial.eval``), which
run millions of times per pass and would drown in one span per call.

Every span and counter call adds its duration to the span enclosing
it, so a span's self time is its duration minus its children, and the
self times of all spans plus all counter times add up exactly to the
duration of the root spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from typing import Callable, Dict, List, Optional


class Span:
    __slots__ = ("idx", "name", "bucket", "start", "end", "parent", "op", "child")

    def __init__(self, idx, name, bucket, start, parent, op):
        self.idx = idx
        self.name = name
        self.bucket = bucket
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.child = 0.0

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "bucket": self.bucket,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
        }


class Tracer:
    """Spans, timed counters and plain tallies, all kept in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.stack: List[Span] = []
        self.counters: Dict[str, list] = {}  # name -> [calls, seconds, hits]
        self.tally: Counter = Counter()
        self.op: Optional[str] = None
        self.search_depth = 0

    # -- spans ---------------------------------------------------------

    def open(self, name: str, bucket: str) -> Span:
        parent = self.stack[-1].idx if self.stack else None
        span = Span(len(self.spans), name, bucket, self.clock(), parent, self.op)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self.stack.pop()
        if self.stack:
            self.stack[-1].child += span.end - span.start

    def spanned(self, name: str, bucket: str, fn, after=None, search=False):
        """``fn`` wrapped in a span; ``after(args, result)`` tallies work."""

        def wrapper(*args, **kwargs):
            span = self.open(name, bucket)
            self.search_depth += search
            try:
                result = fn(*args, **kwargs)
            finally:
                self.search_depth -= search
                self.close(span)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- counters ------------------------------------------------------

    def counted(self, name: str, fn, hits: bool = False):
        """``fn`` wrapped in a call counter with accumulated time."""
        stats = self.counters.setdefault(name, [0, 0.0, 0])
        clock, stack = self.clock, self.stack

        if hits:

            def wrapper(*args):
                t0 = clock()
                result = fn(*args)
                dt = clock() - t0
                stats[0] += 1
                stats[1] += dt
                if result:
                    stats[2] += 1
                if stack:
                    stack[-1].child += dt
                return result

        else:

            def wrapper(*args):
                t0 = clock()
                result = fn(*args)
                dt = clock() - t0
                stats[0] += 1
                stats[1] += dt
                if stack:
                    stack[-1].child += dt
                return result

        return wrapper

    # -- results -------------------------------------------------------

    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent is None]

    def bucket_self_times(self) -> Dict[str, float]:
        """Self time per span bucket, plus each counter's time under its name."""
        out: Dict[str, float] = {}
        for span in self.spans:
            out[span.bucket] = out.get(span.bucket, 0.0) + span.self_time
        for name, (_, seconds, _) in self.counters.items():
            out[name] = out.get(name, 0.0) + seconds
        return out

    def write_jsonl(self, fh, extra: Optional[dict] = None) -> None:
        for span in self.spans:
            fh.write(json.dumps({"span": span.to_json_obj(), **(extra or {})}) + "\n")
        for name, (calls, seconds, hits) in sorted(self.counters.items()):
            fh.write(json.dumps({"counter": name, "calls": calls, "seconds": seconds,
                                 "hits": hits, **(extra or {})}) + "\n")
