"""The host's speed, measured by fixed reference kernels.

The benchmark runs on shared virtual machines whose speed flips between
states up to 2x apart, each lasting a second or more. Every time metric
is therefore reported in *reference seconds*: the measured seconds
times the mean of the kernel's speed, ``NOMINAL_S / k``, over the times
``k`` a small kernel took before, during and after the timed call. On a
host as fast as the one the nominals were taken on, reference seconds
equal seconds; when the host is twice as slow for a while, the call and
the kernel samples of that while slow down together and the product
stays put.

The kernels use nothing from ``psynd``, so a change to the program
cannot move them. Host states do not slow all kinds of work alike, so
there are two kernels, each shaped like the calls it stands for:

* ``mixed``, for the experiments and the set-up: an interpreted loop of
  256-bit fixed-point arithmetic (the orbit's fixed path), ``Fraction``
  arithmetic (the exact path), shifts, ands and ors of 200k-bit
  integers with a byte scan (the masks of ``windows`` and
  ``returnsets``), and a mask built one bit at a time;
* ``masks``, for ``verify``: a mask built one bit at a time, as
  ``from_json_obj`` rebuilds a set, then probed by whole-mask shifts,
  as ``WindowSet.__contains__`` does.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction
from typing import Callable, Tuple

# Seconds between kernel samples during a timed call.
INTERVAL_S = 0.1

_BITS = 256
_ONE = 1 << _BITS
_MASK = _ONE - 1
_WIDE = 200_000


def _fixed_loop(n: int) -> int:
    x, step = 0x9E3779B97F4A7C15 << 192, 0x6A09E667F3BCC908 << 192
    eps = _ONE // 5
    hits = 0
    for k in range(n):
        v = (x + k * k * step) & _MASK
        d = min(v, _ONE - v)
        if d < eps:
            hits += 1
    return hits


def _fraction_loop(n: int) -> int:
    alpha = Fraction(3, 11)
    eps = Fraction(3, 10)
    hits = 0
    for k in range(n):
        v = (k * k * alpha) % 1
        if min(v, 1 - v) < eps:
            hits += 1
    return hits


def _mask_ops(rounds: int) -> int:
    x = int.from_bytes(bytes((i * 37 + 11) & 0xFF for i in range(_WIDE // 8)), "little")
    acc = 0
    for r in range(rounds):
        y = x
        for s in (1, 2, 4, 8, 16):
            y &= y >> s
        acc |= y | (x >> (r + 1))
    raw = acc.to_bytes((acc.bit_length() + 7) // 8, "little")
    return sum(1 for b in raw[:20000] if b)


def _mask_build(step: int) -> int:
    mask = 0
    for k in range(0, _WIDE, step):
        mask |= 1 << k
    return mask.bit_count()


def _mask_probes(step: int) -> int:
    x = int.from_bytes(bytes((i * 37 + 11) & 0xFF for i in range(_WIDE // 8)), "little")
    return sum((x >> k) & 1 for k in range(0, _WIDE, step))


def mixed() -> int:
    """One fixed unit of the experiments' mix of work; returns a checksum."""
    return _fixed_loop(2000) + _fraction_loop(100) + _mask_ops(3) + _mask_build(250)


def masks() -> int:
    """One fixed unit of ``verify``'s work: a mask built bit by bit, then
    probed by whole-mask shifts as ``WindowSet.__contains__`` does."""
    return _mask_build(250) + _mask_probes(400)


# Seconds each kernel takes on a 2-vCPU VM in its fast state, Python
# 3.11. Only scales: they cancel out of any comparison of two runs.
NOMINAL_S = {mixed: 0.004, masks: 0.0035}


def speed(kernel: Callable[[], int] = mixed) -> float:
    """Reference seconds per second now: the kernel's nominal time over
    the time it takes."""
    t0 = time.perf_counter()
    kernel()
    return NOMINAL_S[kernel] / (time.perf_counter() - t0)


def timed(fn: Callable[[], object], kernel: Callable[[], int] = mixed
          ) -> Tuple[object, float, float]:
    """Run ``fn()``; return its result, seconds and reference seconds.

    The kernel's speed is sampled before and after the call, and every
    ``INTERVAL_S`` during it from a ``SIGALRM`` handler. The handler's
    own time is taken out of the seconds. Samples are evenly spaced in
    time, so the mean of their speeds weights each stretch of the call
    by its length.
    """
    speeds = [speed(kernel)]
    spent = 0.0

    def tick(signum, frame):
        nonlocal spent
        t0 = time.perf_counter()
        speeds.append(speed(kernel))
        spent += time.perf_counter() - t0

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    t0 = time.perf_counter()
    try:
        result = fn()
    finally:
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    speeds.append(speed(kernel))
    seconds = elapsed - spent
    return result, seconds, seconds * statistics.fmean(speeds)
