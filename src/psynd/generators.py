"""Window-set sources: Sturmian codings, congruence classes, random
piecewise-syndetic-style sets, and file/literal loading."""

from __future__ import annotations

import json
import random
from pathlib import Path

from . import bitops
from .constants import DEFAULT_BITS, MIN_BITS, parse_real, precision
from .errors import ConfigError, take
from .systems import TorusRotation, arc_mask
from .windows import WindowSet, bounded


def sturmian_window(
    alpha, lo: int, hi: int, bits: int = DEFAULT_BITS
) -> WindowSet:
    """{ n in [lo, hi] : frac(n * alpha) < 1/2 }.

    alpha is the rotation's own value, read from its integer view
    ``TorusRotation((alpha,), bits)._ints()`` as a / m: exact when rational,
    else the declared 2^-bits approximant.  frac(n a/m) < 1/2 exactly when
    (2 a n) mod (2 m) <= m - 1, an arc of the rotation by 2 a at modulus
    2 m, which ``systems.arc_mask`` tiles in blocks of about
    sqrt(width) integers.  Measured on a 2-vCPU VM, the golden slope takes
    3 ms on [0, 199999] and 14 ms on [-1e6, 1e6]; pi - 3, whose partial
    quotient 292 makes the blocks drift, takes about 2.5 times as long there.

    This is the coding of the rotation by alpha by [0, 1/2), not a return
    set into the open ball of radius 1/4 around 1/4: that ball misses the
    point 0 of the half-open interval, so the return set drops n = 0 for an
    irrational slope and every multiple of q for alpha = p/q.
    """
    m, (a,) = TorusRotation((parse_real(alpha),), bits=bits)._ints()
    width = WindowSet(lo, hi).width  # ValueError on an empty window
    return WindowSet(lo, hi, arc_mask(2 * a * lo, 2 * a, m - 1, 2 * m, width))


def congruence_window(modulus: int, residues, lo: int, hi: int) -> WindowSet:
    """{ n in [lo, hi] : n mod modulus is a residue }: the word of the offsets
    below min(modulus, width) from lo, tiled by ``bitops.tile_mask``."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    width = WindowSet(lo, hi).width  # ValueError on an empty window
    sel = bytearray(min(modulus, width))
    for r in residues:
        if (i := (r - lo) % modulus) < len(sel):
            sel[i] = 1
    return WindowSet(lo, hi, bitops.tile_mask(bitops.from_selectors(sel), modulus, width))


def random_thick_syndetic(
    lo: int, hi: int, rng: random.Random
) -> WindowSet:
    """Random model of a piecewise-syndetic set: a syndetic congruence
    pattern intersected with a union of blocks."""
    width = WindowSet(lo, hi).width  # ValueError on an empty window
    gap = rng.randint(1, 6)
    phase = rng.randint(0, gap - 1)
    sel = bytearray(width)
    pos = lo
    while pos <= hi:
        run = rng.randint(max(1, width // 20), max(2, width // 5))
        hole = rng.randint(0, max(1, width // 10))
        first = pos + (phase - pos) % gap  # first n >= pos with n % gap == phase
        block = range(first - lo, min(pos + run, hi + 1) - lo, gap)
        sel[block.start : block.stop : gap] = bytes([1]) * len(block)
        pos += run + hole
    return WindowSet(lo, hi, bitops.from_selectors(sel))


def load_window_file(path: str) -> WindowSet:
    try:
        raw = Path(path).read_bytes()
        if raw[:4] == b"PSYN":
            return WindowSet.from_bitmap_bytes(raw)
        obj = json.loads(raw.decode("utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # unreadable, malformed or too deep
        raise ConfigError(f"cannot read set file {path}: {exc}") from exc
    return WindowSet.from_json_obj(obj)


def read_source(obj: dict) -> tuple:
    """A config set source as ``(builder, args)``, every value read by ``take``
    before anything is built; ``window_from_source`` builds it.

    kinds: literal {lo, hi, members}, file {path}, sturmian {alpha, window,
    bits}, congruence {modulus, residues, window}, full {window},
    random_thick_syndetic {window} (draws from the seeded rng).
    """
    kind = take(obj, "kind", ("literal", "file", "sturmian", "congruence", "full",
                              "random_thick_syndetic"))
    if kind == "file":
        return load_window_file, (take(obj, "path", str),)
    key = "lo, hi" if kind == "literal" else "window"
    lo, hi = bounded(key, [take(obj, "lo", int), take(obj, "hi", int)] if kind == "literal"
                     else take(obj, "window", [int], size=2))
    if kind == "literal":
        return WindowSet.from_members, (lo, hi, take(obj, "members", [int]))
    if kind == "sturmian":
        bits = take(obj, "bits", int, DEFAULT_BITS, least=MIN_BITS, parse=precision)
        return sturmian_window, (take(obj, "alpha", str, parse=parse_real), lo, hi, bits)
    if kind == "congruence":
        return congruence_window, (take(obj, "modulus", int, least=1),
                                   take(obj, "residues", [int]), lo, hi)
    return (WindowSet.full if kind == "full" else random_thick_syndetic), (lo, hi)


def window_from_source(source: tuple, rng: random.Random) -> WindowSet:
    """The set of a source read by ``read_source``; the random source draws from ``rng``."""
    build, args = source
    return build(*args, rng) if build is random_thick_syndetic else build(*args)
