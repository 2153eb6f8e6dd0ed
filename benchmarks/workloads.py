"""Benchmark workloads: the configs each workload feeds to ``psynd``.

Every workload is a list of operations, one ``psynd`` subcommand each.
Seed 0 reproduces the acceptance configs. Any other seed nudges every
parameter (named constants by a rational of size below 1e-6, rational
rotations to another unit numerator) but keeps window and box sizes, so
the load of a run stays the same while its masks change. The random
set of ``certify`` is the same at every seed (see ``certify``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable, List

WORKLOADS = ("orbit-fixed", "orbit-exact", "certify")


@dataclass(frozen=True)
class Op:
    """One ``psynd`` call: subcommand, config, and what it decides."""

    name: str
    command: str
    config: dict
    points: int  # window points or box cells the op decides
    flags: tuple = ()
    expect_oracle: bool = False
    verify: bool = True  # the report embeds a set, so ``verify`` applies
    sizes: dict = field(default_factory=dict)


def _real(name: str, offset: Fraction) -> str:
    if offset == 0:
        return name
    return f"{name}{'+' if offset > 0 else '-'}{abs(offset)}"


def _cells(box) -> int:
    return (box[1] - box[0] + 1) * (box[3] - box[2] + 1)


class _Params:
    """Seeded parameter source; seed 0 returns the unperturbed values."""

    def __init__(self, workload: str, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{workload}:{seed}")

    def named(self, name: str, offset: Fraction = Fraction(0)) -> str:
        if self.seed == 0:
            return _real(name, offset)
        delta = Fraction(self.rng.randint(1, 999), 10**9) * self.rng.choice((-1, 1))
        return _real(name, offset + delta)

    def unit(self, num: int, q: int) -> str:
        """``num/q`` at seed 0, else a random numerator coprime to q."""
        if self.seed != 0:
            num = self.rng.choice([a for a in range(1, q) if gcd(a, q) == 1])
        return f"{num}/{q}"


def _window(half: int) -> list:
    return [-half, half]


def orbit_fixed(p: _Params, scale: Callable[[int], int]) -> List[Op]:
    w_small, w_large = scale(10**4), scale(10**5)
    nil = {
        "system": {
            "type": "heisenberg",
            "alpha": p.named("sqrt2", Fraction(-1)),
            "beta": p.named("sqrt3", Fraction(-1)),
        },
        "family": ["n^2"],
        "epsilon": "1/5",
        "windows": [w_small, w_large],
    }
    half = scale(10**5)
    rot = {
        "system": {"type": "rotation", "alpha": [p.named("sqrt2")]},
        "family": ["n", "n^2"],
        "epsilon": "1/10",
        "window": _window(half),
        "certificates": {"pws": {"b_max": 16, "L": 100}},
    }
    skew_half = scale(5 * 10**4)
    skew = {
        "system": {"type": "skew", "alpha": p.named("golden")},
        "family": ["n^2"],
        "epsilon": "1/5",
        "window": _window(skew_half),
    }
    box = [-scale(200), scale(200), -scale(50), scale(50)]
    planar = {
        "system": {"type": "rotation", "alpha": [p.named("golden")]},
        "family": ["n", "n^2"],
        "epsilon": "1/5",
        "box": box,
        "certificates": {"pws2d": {"b1_max": 8, "b2_max": 8, "w": 3, "h": 3}},
    }
    n_bound = scale(10**4)
    induced = {
        "system": {"type": "rotation", "alpha": [p.named("sqrt2")]},
        "family": ["n", "n^2"],
        "epsilon": "1/10",
        "radius": 3,
        "N": n_bound,
    }
    return [
        Op("nilcheck-heisenberg", "nilcheck", nil, 2 * (w_small + w_large) + 2,
           verify=False, sizes={"windows": [w_small, w_large]}),
        Op("returns-sqrt2-pws", "returns", rot, 2 * half + 1, sizes={"window": 2 * half + 1}),
        Op("returns-skew-golden", "returns", skew, 2 * skew_half + 1,
           sizes={"window": 2 * skew_half + 1}),
        Op("returns-planar-golden", "returns", planar, _cells(box), sizes={"box": _cells(box)}),
        Op("induced-sqrt2", "induced", induced, 2 * n_bound + 1,
           sizes={"window": 2 * n_bound + 1, "radius": 3}),
    ]


def orbit_exact(p: _Params, scale: Callable[[int], int]) -> List[Op]:
    half = scale(10**4)
    ops = []
    for q in (4, 6, 12):
        alpha = p.unit(1, q)
        for fam in (["n^2"], ["n", "n^2"], ["n^3+n"]):
            cfg = {
                "system": {"type": "rotation", "alpha": [alpha]},
                "family": fam,
                "epsilon": "3/10",
                "window": _window(half),
            }
            ops.append(Op(f"oracle-q{q}-{'-'.join(fam)}", "returns", cfg, 2 * half + 1,
                          flags=("--oracle",), expect_oracle=True,
                          sizes={"window": 2 * half + 1}))
    torus = {
        "system": {"type": "rotation", "alpha": [p.unit(3, 7), p.unit(1, 5)]},
        "family": ["n", "n^2"],
        "epsilon": "3/10",
        "window": _window(half),
    }
    ops.append(Op("returns-torus2", "returns", torus, 2 * half + 1,
                  sizes={"window": 2 * half + 1}))
    n_bound = scale(10**4)
    induced = {
        "system": {"type": "rotation", "alpha": [p.unit(3, 11)]},
        "family": ["n", "n^2"],
        "epsilon": "1/10",
        "radius": 3,
        "N": n_bound,
    }
    ops.append(Op("induced-3/11", "induced", induced, 2 * n_bound + 1,
                  sizes={"window": 2 * n_bound + 1, "radius": 3}))
    return ops


def certify(p: _Params, scale: Callable[[int], int]) -> List[Op]:
    s_half = scale(63000)
    box = [-scale(1500), scale(1500), -scale(250), scale(250)]
    thma = {
        "set": {"kind": "sturmian", "alpha": p.named("golden"), "window": _window(s_half)},
        "family": ["n", "n^2"],
        "box": box,
        "certificates": {"pws2d": {"b1_max": 8, "b2_max": 8, "min_area": 400}},
    }
    c2_half = scale(5000)
    c2_box = [-scale(300), scale(300), -scale(70), scale(70)]
    thma_all = {
        "set": {"kind": "sturmian", "alpha": p.named("golden"), "window": _window(c2_half)},
        "family": ["n", "n^2"],
        "box": c2_box,
        "certificates": {"pws2d": {"b1_max": 8, "b2_max": 8, "min_area": 10**6}},
    }
    width = scale(200000)
    golden = {
        "set": {"kind": "sturmian", "alpha": p.named("golden"), "window": [0, width - 1]},
        "certificates": {"syndetic": {"N": 3}, "pws": {"b_max": 16, "L": 100}, "ap": {"k": 6}},
    }
    # the random set keeps generator seed 0 at every seed: across generator
    # seeds its members range over 25k-125k and its verify time over 4x,
    # which would make the load, not the program, set the spread of verify_s
    rand = {
        "seed": 0,
        "set": {"kind": "random_thick_syndetic", "window": [0, width - 1]},
        "certificates": {"syndetic": {"N": 8}},
    }
    return [
        Op("thma-golden", "thma", thma, _cells(box),
           sizes={"set_window": 2 * s_half + 1, "box": _cells(box)}),
        Op("thma-all-attempts", "thma", thma_all, _cells(c2_box),
           sizes={"set_window": 2 * c2_half + 1, "box": _cells(c2_box)}),
        Op("analyze-golden", "analyze", golden, width, sizes={"window": width}),
        Op("analyze-random", "analyze", rand, width, sizes={"window": width}),
    ]


_BUILDERS = {"orbit-fixed": orbit_fixed, "orbit-exact": orbit_exact, "certify": certify}


def build_ops(workload: str, seed: int, small: bool = False) -> List[Op]:
    """The operations of one workload run; ``small`` divides sizes by 50."""
    scale = (lambda n: max(1, n // 50)) if small else (lambda n: n)
    return _BUILDERS[workload](_Params(workload, seed), scale)
