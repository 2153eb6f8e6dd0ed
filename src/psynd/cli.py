"""Batch experiment driver.

Subcommands: analyze, thma, thmb, returns, induced, nilcheck, verify.
Every experiment reads a JSON config, runs the library pipeline, and
writes one report (JSON, or CSV point lists for plotting).  Identical
config and precision produce byte-identical JSON; all randomness is
seeded from the config and the seed is echoed in the report.  Each
subcommand reads its config before any work, then refuses any key that
nothing read.

Exit codes: 0 success, 1 verification failure, 2 config/parse error,
3 infeasible: a mandatory certificate that could not be produced, an
empty set, or a subshift word too short for the requested decision.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
from fractions import Fraction
from functools import cache
from itertools import islice
from math import factorial
from pathlib import Path
from typing import Optional

from .check import PwsCert, PwsCert2D, Syndetic2DCert, Syndetic2DRefutation, SyndeticCert
from .check import SyndeticRefutation, ThickCert, cert_from_json_obj, verify_pws, verify_pws_2d
from .check import verify_syndetic, verify_syndetic_2d, verify_syndetic_2d_refutation
from .check import verify_syndetic_refutation, verify_thick
from .constants import RealSpec
from .errors import Config, ConfigError, EmptySetError, NoRowError, NotNormalFormError
from .errors import WindowExhaustedError, refuse_unread, take
from .generators import read_source, window_from_source
from .induced import orbit_block, recurrence_times, split_block
from .polynomials import PolyFamily, reduce_to_normal_form
from .returnsets import (
    ReturnQuery,
    combinatorial_set_2d,
    masked_dilation_2d,
    pws_area_witness_2d,
    return_set_1d,
    return_set_2d,
    shift_cover_search,
)
from .systems import TorusRotation, system_from_json_obj
from .windows import (
    GridSet,
    WindowSet,
    best_slice,
    find_ap,
    gap_summary,
    grid_slice,
    longest_run,
    max_rectangle,
    pws_witness,
    pws_witness_2d,
    syndetic_certificate,
)

PARSE_ERROR = 2
INFEASIBLE = 3
TOO_LARGE = "a set too large to hold in memory"  # what a MemoryError, whose text is empty, means


def _dump_json(report: dict) -> str:
    """Compact JSON with sorted keys; a set value is written from its masks.

    The text equals ``json.dumps`` of the report with every set replaced
    by its ``to_json_obj()``; each value's text is copied once, into it.
    """

    def text(value) -> str:
        if isinstance(value, (WindowSet, GridSet)):
            return value.to_json()
        return json.dumps(value, sort_keys=True, separators=(",", ":"))

    parts = [p for k in sorted(report) for p in (",", json.dumps(k), ":", text(report[k]))]
    return "".join(["{", *parts[1:], "}\n"])


def _emit(report: dict, out: Optional[str], fmt: str) -> None:
    if fmt == "json":
        text = _dump_json(report)
    else:  # csv; no set, or only its window: no lines
        the_set = report.get("set")
        text = the_set.to_csv() if isinstance(the_set, (WindowSet, GridSet)) else ""
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_config(path: str) -> dict:
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"), object_hook=Config)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    return cfg


def _family(cfg: dict, default=...) -> PolyFamily:
    """The config's family, at least one polynomial (the paper's 1 <= i <= d)."""
    texts = take(cfg, "family", [str], default)
    try:
        if not texts:
            raise ValueError("a family needs at least one polynomial")
        return PolyFamily.parse(texts)
    except ValueError as exc:
        raise ConfigError(f"bad family {texts!r}: {exc}") from exc


def _seeded(cfg: dict, override: Optional[int]) -> tuple[int, random.Random]:
    seed = take(cfg, "seed", int, 0)
    seed = seed if override is None else override
    return seed, random.Random(seed)


def cmd_analyze(cfg: dict, rng: random.Random) -> tuple[dict, int]:
    source = read_source(take(cfg, "set", dict))
    certs_cfg = take(cfg, "certificates", dict, {})
    syn = take(certs_cfg, "syndetic", dict, None)
    n_syn = None if syn is None else take(syn, "N", int, least=1)
    pws = take(certs_cfg, "pws", dict, None)
    b_max = 16 if pws is None else take(pws, "b_max", int, least=0)
    l_run = None if pws is None else take(pws, "L", int, least=1)
    ap_k = take(take(certs_cfg, "ap", dict, {}), "k", int, 3, least=3)
    syn_mandatory, pws_mandatory = (take(c or {}, "mandatory", bool, False) for c in (syn, pws))
    refuse_unread(cfg)
    s = window_from_source(source, rng)
    report: dict = {
        "query": {"set_source": cfg["set"], "certificates": certs_cfg},
        "set": s,
        "results": {},
        "certificates": [],
    }
    code = 0
    if s.is_empty():
        report["results"]["error"] = "empty set"
        return report, INFEASIBLE
    g = gap_summary(s)
    report["results"]["max_gap"] = g.max_gap
    report["results"]["boundary_gaps"] = {"lead_in": g.lead_in, "tail_out": g.tail_out}
    run = longest_run(s)
    report["results"]["longest_run"] = run.to_json_obj()
    report["certificates"].append(run.to_json_obj())
    if n_syn is not None:
        res = syndetic_certificate(s, n_syn)
        report["certificates"].append(res.to_json_obj())
        if isinstance(res, SyndeticRefutation) and syn_mandatory:
            code = INFEASIBLE
    cert = pws_witness(s, b_max, max(2, s.width // 10) if l_run is None else l_run)
    if cert is not None:
        report["certificates"].append(cert.to_json_obj())
        report["results"]["pws"] = cert.to_json_obj()
    else:
        report["results"]["pws"] = None
        if pws_mandatory:
            code = INFEASIBLE
    ap = find_ap(s, ap_k)
    report["results"]["ap"] = {"k": ap_k, "found": list(ap) if ap else None}
    return report, code


def cmd_thma(cfg: dict, rng: random.Random) -> tuple[dict, int]:
    source = read_source(take(cfg, "set", dict))
    family = _family(cfg)
    box = tuple(take(cfg, "box", [int], size=4))
    certs_cfg = take(take(cfg, "certificates", dict, {}), "pws2d", dict, {})
    b1_max, b2_max = (take(certs_cfg, k, int, 8, least=0) for k in ("b1_max", "b2_max"))
    by_shape = "w" in certs_cfg or "h" in certs_cfg  # then both are required
    w, h = (take(certs_cfg, k, int, ... if by_shape else None, least=1) for k in ("w", "h"))
    min_area = None if by_shape else take(certs_cfg, "min_area", int, 400, least=1)
    mandatory = take(certs_cfg, "mandatory", bool, False)
    refuse_unread(cfg)
    s = window_from_source(source, rng)
    members, validity = combinatorial_set_2d(s, family, box)
    report: dict = {
        "query": {
            "set_source": cfg["set"],
            "family": family.to_strs(),
            "box": list(box),
            "b1_max": b1_max,
            "b2_max": b2_max,
        },
        "set": members,
        "results": {
            "member_count": members.count(),
            "validity_count": validity.count(),
        },
        "certificates": [],
    }
    if by_shape:
        cert = pws_witness_2d(members, b1_max, b2_max, w, h)
    else:
        cert = pws_area_witness_2d(members, validity, b1_max, b2_max, min_area)
    if cert is None:
        report["results"]["pws2d"] = None
        return report, INFEASIBLE if mandatory else 0
    report["results"]["pws2d"] = cert.to_json_obj()
    report["certificates"].append(cert.to_json_obj())
    if by_shape:
        area, rect = max_rectangle(
            masked_dilation_2d(members, validity, cert.shift_box[0], cert.shift_box[1])
        )
    else:  # the area search already took the maximal rectangle at its shift box
        area, rect = cert.rect[2] * cert.rect[3], cert.rect
    report["results"]["achieved"] = {
        "b1": cert.shift_box[0],
        "b2": cert.shift_box[1],
        "w": cert.rect[2],
        "h": cert.rect[3],
        "max_area_at_b": area,
        "max_rect_at_b": list(rect) if rect else None,
    }
    return report, 0


def cmd_thmb(cfg: dict, rng: random.Random) -> tuple[dict, int]:
    """Search shifts a_N carrying target intersect [-N, N] into the set.

    Without a configured ``target``, the target is the return set that
    Theorem B lifts: the row {n : m + p_i(n) in S} of the planar set over
    ``box`` chosen by ``best_slice`` at the ``certificates.pws`` bounds
    (b_max 3, L 12 by default).  The row and its witness are reported.
    """
    source = read_source(take(cfg, "set", dict))
    family = _family(cfg)
    target_cfg = take(cfg, "target", dict, None)
    if target_cfg is None:
        box = tuple(take(cfg, "box", [int], size=4))
        pws_cfg = take(take(cfg, "certificates", dict, {}), "pws", dict, {})
        b_max, l_run = take(pws_cfg, "b_max", int, 3, least=0), take(pws_cfg, "L", int, 12, least=1)
    else:
        target_source = read_source(target_cfg)
    n_values = take(take(cfg, "targets", dict, {}), "N_values", [int], [5, 10, 15, 20], least=0)
    refuse_unread(cfg)
    s = window_from_source(source, rng)
    row = None
    if target_cfg is not None:
        target = window_from_source(target_source, rng)
    else:
        members, _ = combinatorial_set_2d(s, family, box)
        m_star, row_cert = best_slice(members, b_max, l_run)
        target = grid_slice(members, m_star)
        row = {"m": m_star, "b_max": b_max, "L": l_run, "pws": row_cert.to_json_obj()}
    found = {}
    for n_bound in n_values:
        try:
            found[str(n_bound)] = shift_cover_search(s, family, target, n_bound)
        except EmptySetError:
            found[str(n_bound)] = None
    report = {
        "query": {
            "set_source": cfg["set"],
            "family": family.to_strs(),
            "N_values": n_values,
        },
        "set": {"lo": s.lo, "hi": s.hi},
        "target": target,
        "results": {"a_N": found, "all_found": all(v is not None for v in found.values())},
        "certificates": [],
    }
    if row is not None:
        report["target_row"] = row
    return report, 0 if report["results"]["all_found"] else INFEASIBLE


def _rational_rotation_oracle(alpha: RealSpec, family: PolyFamily, eps, lo: int, hi: int) -> WindowSet:
    """Independent modular-arithmetic evaluation for 1-dim rational rotations
    started at 0 with center 0, exact on every n of the window.  n is a
    member when every p(n) a mod q is an r with min(r, q - r) / q < eps, in
    integers; p(n) mod q has period q d! for degree d, so the word of one
    period, decided by ``p.eval(n)`` per n to share no code with ``systems``
    or ``values``, is repeated over the window."""
    alpha = alpha.as_fraction()
    q = alpha.denominator
    a = alpha.numerator % q
    allowed = {r for r in range(q) if min(r, q - r) * eps.denominator < eps.numerator * q}
    width = hi - lo + 1
    span = min(width, q * factorial(max([0, *(p.degree for p in family.polys)])))
    tiled = int("".join(  # bit i is lo + i
        "1" if all((p.eval(n) * a) % q in allowed for p in family.polys) else "0"
        for n in reversed(range(lo, lo + span))), 2)
    while span < width:  # whole periods, doubled until they cover the window
        tiled, span = tiled | tiled << span, 2 * span
    return WindowSet(lo, hi, tiled & ((1 << width) - 1))


def cmd_returns(cfg: dict, rng: random.Random, oracle: bool) -> tuple[dict, int]:
    sys_spec = system_from_json_obj(take(cfg, "system", dict))
    family = _family(cfg)
    x_cfg, center_cfg = take(cfg, "x", dict, None), take(cfg, "center", dict, None)
    x = sys_spec.base_point() if x_cfg is None else sys_spec.point_from_json(x_cfg, "x")
    center = x if center_cfg is None else sys_spec.point_from_json(center_cfg, "center")
    eps, eps_f = take(cfg, "epsilon", str), take(cfg, "epsilon", str, parse=Fraction)
    box = take(cfg, "box", [int], None, size=4)
    window = take(cfg, "window", [int], size=2) if box is None else None
    pws_cfg = take(take(cfg, "certificates", dict, {}), "pws2d" if box else "pws", dict, {})
    keys = {"b_max": 0, "L": 1} if box is None else {"b1_max": 0, "b2_max": 0, "w": 1, "h": 1}
    bounds = [take(pws_cfg, k, int, least=n) for k, n in keys.items()] if pws_cfg else None
    mandatory = take(pws_cfg, "mandatory", bool, False)
    refuse_unread(cfg)
    if oracle and not (isinstance(sys_spec, TorusRotation) and sys_spec.exact and sys_spec.dim == 1
                       and x_cfg is None and center_cfg is None and box is None):
        raise ConfigError("--oracle needs a window and a 1-dim rational rotation"
                          " from the base point")
    report: dict = {
        "query": {
            "system": sys_spec.to_json_obj(),
            "family": family.to_strs(),
            "epsilon": eps,
            "x": sys_spec.point_to_json(x),
            "center": sys_spec.point_to_json(center),
            "window": window if box is None else box,
        },
        "results": {},
        "certificates": [],
    }
    if box is not None:
        grid = return_set_2d(ReturnQuery(sys_spec, x, center, eps_f, family, tuple(box)))
        report["set"] = grid
        report["results"]["count"] = grid.count()
        cert = bounds and pws_witness_2d(grid, *bounds)
    else:
        rs = return_set_1d(ReturnQuery(sys_spec, x, center, eps_f, family, tuple(window)))
        report["set"] = rs
        report["results"]["count"] = rs.count()
        if not rs.is_empty():
            report["results"]["max_gap"] = gap_summary(rs).max_gap
        cert = bounds and pws_witness(rs, *bounds)
    if oracle:  # before a failed mandatory search returns
        o = _rational_rotation_oracle(sys_spec.alphas[0], family, eps_f, *window)
        report["results"]["oracle_match"] = o == rs
    if cert:
        report["certificates"].append(cert.to_json_obj())
    elif bounds and mandatory:
        return report, INFEASIBLE
    return report, 0


def cmd_induced(cfg: dict, rng: random.Random) -> tuple[dict, int]:
    """Recurrence times and a block of the family's normal-form core; when the
    reduction removed members, ``results.reduction`` gives the core and the
    covering triples (removed family index, kept core index, shift j)."""
    sys_spec = system_from_json_obj(take(cfg, "system", dict))
    family = _family(cfg)
    try:
        reduction = reduce_to_normal_form(family)
    except NotNormalFormError as exc:  # a zero member
        raise ConfigError(f"bad family {cfg['family']!r}: {exc}") from exc
    core = reduction.core
    x_cfg = take(cfg, "x", dict, None)
    x = sys_spec.base_point() if x_cfg is None else sys_spec.point_from_json(x_cfg, "x")
    radius = take(cfg, "radius", int, 3, least=0)
    eps = take(cfg, "epsilon", str, "1/10")
    eps_f = take(cfg, "epsilon", str, "1/10", parse=Fraction)
    n_bound = take(cfg, "N", int, 1000, least=0)
    kind = take(cfg, "block", ("split", "orbit"), "split")
    refuse_unread(cfg)
    times = recurrence_times(sys_spec, x, core, radius, eps_f, n_bound)
    block = (split_block if kind == "split" else orbit_block)(sys_spec, x, core, radius)
    report = {
        "query": {
            "system": sys_spec.to_json_obj(),
            "family": family.to_strs(),
            "epsilon": eps,
            "radius": radius,
            "N": n_bound,
            "x": sys_spec.point_to_json(x),
        },
        "set": times,
        "results": {
            "count": times.count(),
            "nonzero": list(islice((n for n in times.members() if n != 0), 64)),
        },
        "block": block.to_json_obj(),
        "certificates": [],
    }
    if reduction.covering:
        report["results"]["reduction"] = {"core": core.to_strs(),
                                          "covering": [list(t) for t in reduction.covering]}
    return report, 0


NILCHECK_DEFAULTS = {
    "system": {"type": "heisenberg", "alpha": "sqrt2-1", "beta": "sqrt3-1"},
    "family": ["n^2"],
    "epsilon": "1/5",
    "windows": [10000, 100000],
}


def cmd_nilcheck(cfg: dict, rng: random.Random) -> tuple[dict, int]:
    """Max return-time gap of the polynomial orbit on each window [-w, w].

    ``stable`` is true only when every window has the same max gap.
    ``false`` means a larger window met a larger gap; it does not mean
    the gaps are unbounded.
    """
    default = NILCHECK_DEFAULTS
    sys_spec = system_from_json_obj(take(cfg, "system", dict, default["system"]))
    family = _family(cfg, default["family"])
    eps = take(cfg, "epsilon", str, default["epsilon"])
    eps_f = take(cfg, "epsilon", str, default["epsilon"], parse=Fraction)
    widths = take(cfg, "windows", [int], default["windows"], least=0)
    if not widths:  # no window, no gap to compare
        raise ConfigError("bad windows []: a list of at least one integer >= 0")
    refuse_unread(cfg)
    x = sys_spec.base_point()
    gaps, counts, rs = {}, {}, None
    for w in widths:  # each window's set decides its overlap with the next
        rs = return_set_1d(ReturnQuery(sys_spec, x, x, eps_f, family, (-w, w)), known=rs)
        gaps[str(w)] = gap_summary(rs).max_gap if not rs.is_empty() else None
        counts[str(w)] = rs.count()
    values = list(gaps.values())
    report = {
        "query": {
            "system": sys_spec.to_json_obj(),
            "family": family.to_strs(),
            "epsilon": eps,
            "windows": widths,
        },
        "results": {
            "max_gap": gaps,
            "counts": counts,
            "stable": len(set(values)) == 1 and values[0] is not None,
        },
        "certificates": [],
    }
    return report, 0


def cmd_verify(report_path: str) -> int:
    """Re-verify every certificate in a report; a malformed report exits 2 first."""
    gc_was_enabled = gc.isenabled()
    gc.disable()  # until the JSON is freed: it has no cycles, yet a collection rescans it
    try:
        report = json.loads(Path(report_path).read_text(encoding="utf-8"))
        set_obj = report.get("set") if isinstance(report, dict) else None
        if not isinstance(set_obj, dict) or "members" not in set_obj:
            raise ValueError("report has no embedded set")
        planar = "box" in set_obj
        the_set = (GridSet if planar else WindowSet).from_json_obj(set_obj)
        certs = [cert_from_json_obj(obj) for obj in take(report, "certificates", list, [])]
        del report, set_obj
        for cert in certs:
            if cert.planar != planar:
                raise ValueError(f"{cert.type} certificate on a {'2D' if planar else '1D'} set")
    except (OSError, ValueError, OverflowError, MemoryError) as exc:
        print(f"verify: bad report: {str(exc) or TOO_LARGE}", file=sys.stderr)
        return PARSE_ERROR
    finally:
        if gc_was_enabled:
            gc.enable()
    # built per call, so that rebinding these module names (the benchmark's hooks) takes effect
    verifiers = {SyndeticCert: verify_syndetic, SyndeticRefutation: verify_syndetic_refutation,
                 ThickCert: verify_thick, PwsCert: verify_pws, PwsCert2D: verify_pws_2d,
                 Syndetic2DCert: verify_syndetic_2d,
                 Syndetic2DRefutation: verify_syndetic_2d_refutation}
    failures = 0
    for cert in certs:
        ok = verifiers[type(cert)](the_set, cert)
        print(f"{cert.type}: {'ok' if ok else 'FAIL'}")
        failures += not ok
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psynd",
        description="windowed piecewise-syndetic structure and polynomial return sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("analyze", "thma", "thmb", "returns", "induced", "nilcheck", "verify"):
        p = sub.add_parser(name)
        if name == "verify":
            p.add_argument("--config", required=True, help="the report to check")
            continue
        p.add_argument("--config", required=(name != "nilcheck"), help="JSON config path")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", default="json", choices=("json", "csv"))
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name == "returns":
            p.add_argument("--oracle", action="store_true",
                           help="cross-check against the arithmetic oracle")
    return parser


# built on the first ``main`` call, not at import; parse_args keeps no state in the parser
_parser = cache(build_parser)


def main(argv: Optional[list] = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args.config)
    commands = {"analyze": cmd_analyze, "thma": cmd_thma, "thmb": cmd_thmb,
                "returns": lambda cfg, rng: cmd_returns(cfg, rng, args.oracle),
                "induced": cmd_induced, "nilcheck": cmd_nilcheck}
    try:
        cfg = _load_config(args.config) if args.config else {}
        seed, rng = _seeded(cfg, args.seed)
        report, code = commands[args.command](cfg, rng)
        report |= {"experiment": args.command, "seed": seed}
    # before ValueError, which EmptySetError and WindowExhaustedError subclass
    except (EmptySetError, NoRowError, WindowExhaustedError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return INFEASIBLE
    except MemoryError as exc:  # a size no allocation can hold
        print(f"{args.command}: {str(exc) or TOO_LARGE}", file=sys.stderr)
        return INFEASIBLE
    # a ConfigError, a value the library refuses, or a size no integer index can hold;
    # any other exception is a psynd bug
    except (ValueError, OverflowError) as exc:
        print(f"{args.command}: config error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    _emit(report, args.out, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
