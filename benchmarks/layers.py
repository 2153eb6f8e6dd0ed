"""Where the benchmark hooks into ``psynd``, and the per-layer metrics.

Two sets of hooks, both installed by rebinding names in the package's
module namespaces and restored afterwards:

* capture hooks, always on: they keep the sets ``cli`` decides
  (generated sets, return sets, combinatorial members and validity,
  recurrence times) so their masks can be checked against references.
  They cost one call per operation.
* trace hooks, on in traced runs only: spans around the calls into each
  layer and timed counters around the hot primitives (see ``tracer``).

A name the package no longer binds is skipped, so a hook never changes
what the program does: a trace hook's layer then reads zero, and a
missing capture shows up as a mask-check failure.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Tuple

from tracer import Tracer

# Per-layer metrics: name -> unit. Time buckets add up to the traced run.
PER_LAYER = {
    "systems.iterate_calls": "count",
    "systems.iterate_s": "s",
    "systems.ball_tests": "count",
    "systems.ball_hits": "count",
    "systems.hit_ratio": "ratio",
    "systems.in_ball_s": "s",
    "systems.us_per_point": "us",
    "polynomials.evals": "count",
    "polynomials.s": "s",
    "returnsets.self_s": "s",
    "returnsets.points": "count",
    "returnsets.combinatorial_s": "s",
    "returnsets.combinatorial_cells": "count",
    "induced.self_s": "s",
    "induced.points": "count",
    "generators.s": "s",
    "generators.points": "count",
    "windows.detect_s": "s",
    "windows.witness_attempts": "count",
    "windows.witness_found_ratio": "ratio",
    "windows.max_rectangle_calls": "count",
    "windows.max_rectangle_cells": "count",
    "windows.max_rectangle_s": "s",
    "windows.verify_s": "s",
    "windows.verify_calls": "count",
    "windows.verify_probes": "count",
    "windows.verify_skipped": "count",
    "cli.report_write_s": "s",
    "cli.report_bytes": "bytes",
    "cli.report_read_s": "s",
    "cli.self_s": "s",
    "trace.run_s": "s",
    "trace.verify_s": "s",
    "trace.overhead_s": "s",
}

# Buckets whose self times partition the traced run_s + verify_s.
TIME_BUCKETS = (
    "systems.iterate_s",
    "systems.in_ball_s",
    "polynomials.s",
    "returnsets.self_s",
    "returnsets.combinatorial_s",
    "induced.self_s",
    "generators.s",
    "windows.detect_s",
    "windows.max_rectangle_s",
    "windows.verify_s",
    "cli.report_write_s",
    "cli.report_read_s",
    "cli.self_s",
)

# Counts that must repeat exactly between traced passes of one run.
EXACT_COUNTS = tuple(
    name for name, unit in PER_LAYER.items() if unit in ("count", "bytes")
)

SYSTEM_CLASSES = ("TorusRotation", "SkewProduct", "HeisenbergNil", "IndicatorSubshift")


class Patches:
    """Attribute rebindings that can all be undone."""

    def __init__(self):
        self._saved: List[Tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make: Callable) -> None:
        """Rebind ``owner.attr`` to ``make(current)`` if ``owner`` binds it."""
        raw = vars(owner).get(attr)
        if raw is None:
            return
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, staticmethod(make(getattr(owner, attr))))
        else:
            setattr(owner, attr, make(raw))

    def undo(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()


# -- masks -------------------------------------------------------------


def digest_window(lo: int, hi: int, bits: bytes) -> str:
    return hashlib.sha256(b"1:%d:%d:" % (lo, hi) + bits).hexdigest()


def digest_grid(box, rows_bytes: bytes) -> str:
    return hashlib.sha256(b"2:%d:%d:%d:%d:" % tuple(box) + rows_bytes).hexdigest()


def digest_set(s) -> str:
    """SHA-256 of a WindowSet's or GridSet's mask, bounds included."""
    if hasattr(s, "rows"):
        nbytes = (s.n_width + 7) // 8
        return digest_grid(s.box, b"".join(r.to_bytes(nbytes, "little") for r in s.rows))
    return digest_window(s.lo, s.hi, s.mask.to_bytes((s.width + 7) // 8, "little"))


def digest_set_json(obj: dict) -> str:
    """The same digest, computed from a report's embedded set."""
    if "box" in obj:
        mlo, mhi, nlo, nhi = obj["box"]
        nbytes = (nhi - nlo + 8) // 8
        buf = bytearray(nbytes * (mhi - mlo + 1))
        for m, n in obj["members"]:
            k = n - nlo
            buf[(m - mlo) * nbytes + (k >> 3)] |= 1 << (k & 7)
        return digest_grid((mlo, mhi, nlo, nhi), bytes(buf))
    lo, hi = obj["lo"], obj["hi"]
    buf = bytearray((hi - lo + 8) // 8)
    for m in obj["members"]:
        k = m - lo
        buf[k >> 3] |= 1 << (k & 7)
    return digest_window(lo, hi, bytes(buf))


def set_count(s) -> int:
    if hasattr(s, "rows"):
        return sum(r.bit_count() for r in s.rows)
    return s.mask.bit_count()


def install_capture(psynd, sink: List[Tuple[str, object]]) -> Patches:
    """Record every set ``cli`` decides into ``sink`` as (label, set)."""
    patches = Patches()

    def keep(name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                if isinstance(result, tuple):
                    for part, obj in zip(("members", "validity"), result):
                        sink.append((f"{name}.{part}", obj))
                else:
                    sink.append((name, result))
                return result

            return wrapper

        return make

    for name in ("window_from_source", "return_set_1d", "return_set_2d",
                 "combinatorial_set_2d", "recurrence_times"):
        patches.wrap(psynd.cli, name, keep(name))
    return patches


# -- tracing -----------------------------------------------------------


def _cells(box) -> int:
    return (box[1] - box[0] + 1) * (box[3] - box[2] + 1)


def _window_points(window) -> int:
    return window[1] - window[0] + 1 if len(window) == 2 else _cells(window)


def verify_probes(cert) -> int:
    """Membership probes a certificate implies for a direct re-check."""
    kind = type(cert).__name__
    if kind == "PwsCert":
        return cert.interval[1] * (cert.shift_bound + 1)
    if kind == "SyndeticCert":
        lo, hi = cert.checked_interval
        return max(0, hi - lo - cert.gap_bound + 2) * cert.gap_bound
    if kind == "ThickCert":
        return cert.run_length
    if kind == "PwsCert2D":
        b1, b2 = cert.shift_box
        return cert.rect[2] * cert.rect[3] * (b1 + 1) * (b2 + 1)
    if kind == "Syndetic2DCert":
        mlo, mhi, nlo, nhi = cert.checked_box
        side = 2 * cert.l_bound + 1
        return max(0, mhi - mlo + 1) * max(0, nhi - nlo + 1) * side * side
    return 0


def install_trace(psynd, tr: Tracer) -> Patches:
    """Spans around the calls into each layer, counters on hot primitives."""
    cli, rs, win = psynd.cli, psynd.returnsets, psynd.windows
    patches = Patches()
    tally = tr.tally

    def span(owner, name: str, bucket: str, after=None, search=False):
        patches.wrap(owner, name, lambda fn: tr.spanned(name, bucket, fn, after, search))

    def found(args, result):
        tally["windows.witness_searches"] += 1
        tally["windows.witness_found"] += result is not None

    def attempt(args, result):
        if tr.search_depth:
            tally["windows.witness_attempts"] += 1

    def max_rect(args, result):
        tally["windows.max_rectangle_calls"] += 1
        tally["windows.max_rectangle_cells"] += args[0].m_width * args[0].n_width

    def verified(args, result):
        tally["windows.verify_calls"] += 1
        tally["windows.verify_probes"] += verify_probes(args[1])

    def points(key: str, count: Callable):
        def after(args, result):
            tally[key] += count(args, result)

        return after

    span(cli, "window_from_source", "generators.s",
         points("generators.points", lambda a, r: r.width))
    span(cli, "combinatorial_set_2d", "returnsets.combinatorial_s",
         points("returnsets.combinatorial_cells", lambda a, r: _cells(a[2])))
    for name in ("return_set_1d", "return_set_2d"):
        span(cli, name, "returnsets.self_s",
             points("returnsets.points", lambda a, r: _window_points(a[0].window)))
    for name in ("masked_dilation_2d", "shift_cover_search"):
        span(cli, name, "returnsets.self_s")
    span(cli, "pws_area_witness_2d", "returnsets.self_s", found, search=True)
    for name in ("orbit_block", "split_block"):
        span(cli, name, "induced.self_s")
    span(cli, "recurrence_times", "induced.self_s",
         points("induced.points", lambda a, r: 2 * a[5] + 1))
    for name in ("gap_summary", "longest_run", "syndetic_certificate", "find_ap"):
        span(cli, name, "windows.detect_s")
    for name in ("pws_witness", "pws_witness_2d"):
        span(cli, name, "windows.detect_s", found, search=True)
    for owner in (cli, rs):
        span(owner, "max_rectangle", "windows.max_rectangle_s", max_rect)
    span(rs, "dilate_2d", "windows.detect_s", attempt)
    for name in ("dilate", "dilate_2d"):
        span(win, name, "windows.detect_s", attempt)
    for name in ("verify_pws", "verify_pws_2d", "verify_syndetic",
                 "verify_syndetic_2d", "verify_thick"):
        span(cli, name, "windows.verify_s", verified)
    span(cli, "_emit", "cli.report_write_s")
    for cls in (win.WindowSet, win.GridSet):
        patches.wrap(cls, "to_json_obj",
                     lambda fn: tr.spanned("to_json_obj", "cli.report_write_s", fn))
        patches.wrap(cls, "from_json_obj",
                     lambda fn: tr.spanned("from_json_obj", "cli.report_read_s", fn))

    for cls_name in SYSTEM_CLASSES:
        cls = getattr(psynd.systems, cls_name, None)
        if cls is None:
            continue
        patches.wrap(cls, "iterate", lambda fn: tr.counted("systems.iterate_s", fn))
        patches.wrap(cls, "in_ball", lambda fn: tr.counted("systems.in_ball_s", fn, hits=True))
    patches.wrap(psynd.polynomials.IntegralPolynomial, "eval",
                 lambda fn: tr.counted("polynomials.s", fn))
    return patches


def layer_metrics(tr: Tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (``trace.*`` filled in by the caller)."""
    times = tr.bucket_self_times()
    calls = {name: stats for name, stats in tr.counters.items()}
    it = calls.get("systems.iterate_s", [0, 0.0, 0])
    ball = calls.get("systems.in_ball_s", [0, 0.0, 0])
    ev = calls.get("polynomials.s", [0, 0.0, 0])
    t = tr.tally
    out: Dict[str, float] = {name: times.get(name, 0.0) for name in TIME_BUCKETS}
    orbit_points = t["returnsets.points"] + t["induced.points"]
    out.update({
        "systems.iterate_calls": it[0],
        "systems.ball_tests": ball[0],
        "systems.ball_hits": ball[2],
        "systems.hit_ratio": ball[2] / ball[0] if ball[0] else 0.0,
        "systems.us_per_point": (it[1] + ball[1]) * 1e6 / orbit_points if orbit_points else 0.0,
        "polynomials.evals": ev[0],
        "returnsets.points": t["returnsets.points"],
        "returnsets.combinatorial_cells": t["returnsets.combinatorial_cells"],
        "induced.points": t["induced.points"],
        "generators.points": t["generators.points"],
        "windows.witness_attempts": t["windows.witness_attempts"],
        "windows.witness_found_ratio": (
            t["windows.witness_found"] / t["windows.witness_attempts"]
            if t["windows.witness_attempts"] else 0.0
        ),
        "windows.max_rectangle_calls": t["windows.max_rectangle_calls"],
        "windows.max_rectangle_cells": t["windows.max_rectangle_cells"],
        "windows.verify_calls": t["windows.verify_calls"],
        "windows.verify_probes": t["windows.verify_probes"],
        "windows.verify_skipped": t["windows.verify_skipped"],
        "cli.report_bytes": t["cli.report_bytes"],
    })
    return out
