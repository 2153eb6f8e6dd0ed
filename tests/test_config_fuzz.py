"""Fuzz each subcommand's config: one value of the wrong JSON type or shape,
or one key deleted.

Every case either exits 2 with a ``config error: bad <key>`` or ``missing
<key>`` message naming the key it changed, or runs to the same exit code and
the same report bytes as the valid config.  None raises.
"""

import contextlib
import functools
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from psynd.cli import main

SUBSHIFT_BASE = {"lo": -12, "hi": 12, "members": [-12, -9, -4, -1, 0, 2, 3, 7, 8, 11]}

VALID = {
    "analyze": {
        "seed": 3,
        "set": {"kind": "sturmian", "alpha": "golden", "window": [0, 400], "bits": 200},
        "certificates": {"syndetic": {"N": 3, "mandatory": False},
                         "pws": {"b_max": 4, "L": 20, "mandatory": False}, "ap": {"k": 3}},
    },
    "analyze-literal": {"set": {"kind": "literal", "lo": -5, "hi": 20, "members": [0, 1, 2, 9]}},
    "thma": {
        "seed": 1,
        "set": {"kind": "congruence", "modulus": 6, "residues": [0, 1, 4], "window": [-90, 90]},
        "family": ["n", "n^2"],
        "box": [-20, 20, -6, 6],
        "certificates": {"pws2d": {"b1_max": 3, "b2_max": 3, "w": 2, "h": 2, "mandatory": False}},
    },
    "thmb": {
        "set": {"kind": "full", "window": [-200, 200]},
        "family": ["n^2"],
        "target": {"kind": "literal", "lo": -10, "hi": 10, "members": [0, 3, 5]},
        "targets": {"N_values": [3, 8]},
    },
    "thmb-row": {
        "set": {"kind": "sturmian", "alpha": "sqrt2-1", "window": [-600, 600]},
        "family": ["n", "n^2"],
        "box": [-20, 20, -12, 12],
        "certificates": {"pws": {"b_max": 3, "L": 6}},
    },
    "returns": {
        "system": {"type": "rotation", "alpha": ["1/6"], "bits": 160},
        "family": ["n", "n^2"],
        "epsilon": "1/5",
        "window": [-60, 60],
        "x": {"coords": ["1/3"]},
        "center": {"coords": ["1/2"]},
        "certificates": {"pws": {"b_max": 3, "L": 4, "mandatory": False}},
    },
    "returns-box": {
        "system": {"type": "heisenberg", "alpha": "sqrt2-1", "beta": "1/3"},
        "family": ["n"],
        "epsilon": "1/3",
        "box": [-8, 8, -4, 4],
        "certificates": {"pws2d": {"b1_max": 2, "b2_max": 2, "w": 1, "h": 1, "mandatory": False}},
    },
    "returns-subshift": {
        "system": {"type": "subshift", "base": SUBSHIFT_BASE},
        "family": ["n"],
        "epsilon": "1/2",
        "window": [-3, 3],
        "x": {"word": "1001000010011001100001001", "lo": -12, "hi": 12},
    },
    "induced": {
        "seed": 5,
        "system": {"type": "skew", "alpha": "1/5"},
        "family": ["n", "n^2"],
        "x": {"coords": ["1/2", "0"]},
        "radius": 2,
        "epsilon": "1/10",
        "N": 40,
        "block": "orbit",
    },
    "nilcheck": {
        "system": {"type": "heisenberg", "alpha": "sqrt2-1", "beta": "sqrt3-1", "bits": 128},
        "family": ["n^2"],
        "epsilon": "1/5",
        "windows": [50, 200],
        "seed": 2,
    },
}

# keys whose deletion must be reported; the others have defaults, or select a path
REQUIRED = {
    "analyze": ["set", "set.kind", "set.alpha", "set.window", "certificates.syndetic.N",
                "certificates.pws.b_max", "certificates.pws.L"],
    "analyze-literal": ["set", "set.kind", "set.lo", "set.hi", "set.members"],
    "thma": ["set", "set.kind", "set.modulus", "set.residues", "set.window", "family", "box"],
    "thmb": ["set", "set.kind", "set.window", "family", "target.kind", "target.lo",
             "target.hi", "target.members"],
    "thmb-row": ["set", "set.kind", "set.alpha", "set.window", "family", "box"],
    "returns": ["system", "system.type", "system.alpha", "family", "epsilon", "window",
                "x.coords", "center.coords", "certificates.pws.b_max", "certificates.pws.L"],
    "returns-box": ["system", "system.type", "system.alpha", "system.beta", "family", "epsilon",
                    "certificates.pws2d.b1_max", "certificates.pws2d.b2_max",
                    "certificates.pws2d.w", "certificates.pws2d.h"],
    "returns-subshift": ["system", "system.type", "system.base", "system.base.lo",
                         "system.base.hi", "system.base.members", "family", "epsilon", "window",
                         "x.word", "x.lo", "x.hi"],
    "induced": ["system", "system.type", "system.alpha", "family", "x.coords"],
    "nilcheck": ["system.type", "system.alpha", "system.beta"],
}


def command(name: str) -> str:
    return name.split("-")[0]


def run(name: str, cfg: dict):
    """(exit code, report bytes, stderr) of one run of ``name``'s subcommand."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = Path(tmp) / "config.json", Path(tmp) / "report.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command(name), "--config", str(cfg_path), "--out", str(out)])
        return code, out.read_bytes() if out.exists() else None, err.getvalue()


@functools.cache
def baseline(name: str):
    return run(name, VALID[name])


def test_valid_configs_run():
    for name in VALID:
        code, report, err = baseline(name)
        assert (code, err) == (0, ""), name
        assert report is not None


def paths(value, prefix=()):
    """Every (path, key) below ``value``: a dict entry is named by its own key,
    a list item by the key of its list."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield prefix + (k,), k
            yield from paths(v, prefix + (k,))
    elif isinstance(value, list) and prefix:
        for i, v in enumerate(value):
            if not isinstance(v, (dict, list)):
                yield prefix + (i,), prefix[-1]


def json_type(v):
    return type(v) if v is not None else None


def retyped(v):
    """JSON values of another type than ``v``, or ``v`` wrapped in (or taken out
    of) a list or an object."""
    scalars = {
        int: st.integers(-300, 300),
        float: st.floats(-300, 300, allow_nan=False),
        bool: st.booleans(),
        None: st.none(),
        str: st.text(max_size=4),
    }
    # a string may stand for a list of strings (a rotation's alpha), so it replaces
    # a list only as the list's first item
    exclude = str if isinstance(v, list) else json_type(v)
    options = [s for t, s in scalars.items() if t is not exclude]
    if isinstance(v, list):
        options += [st.just(v[0])] if v else []
    else:
        options.append(st.just([v]))
    if not isinstance(v, dict):
        options.append(st.just({"k": v}))
    return st.one_of(options)


def changed(cfg, path, new):
    """A copy of ``cfg`` with the value at ``path`` replaced, or deleted when ``new`` is ``...``."""
    cfg = json.loads(json.dumps(cfg))
    *parents, last = path
    holder = cfg
    for step in parents:
        holder = holder[step]
    if new is ...:
        del holder[last]
    else:
        holder[last] = new
    return cfg


@st.composite
def mutations(draw):
    name = draw(st.sampled_from(sorted(VALID)))
    path, key = draw(st.sampled_from(list(paths(VALID[name]))))
    holder = VALID[name]
    for step in path:
        holder = holder[step]
    if isinstance(path[-1], str) and draw(st.booleans()):
        return name, path, key, ...
    return name, path, key, draw(retyped(holder))


@given(mutations())
@settings(max_examples=500, deadline=None)
def test_one_changed_value_is_named_or_changes_nothing(mutation):
    name, path, key, new = mutation
    code, report, err = run(name, changed(VALID[name], path, new))
    dotted = ".".join(map(str, path))
    if new is ... and dotted not in REQUIRED[name]:
        return  # a default, or another path: it runs or exits 2, and raises nothing
    if code == 2:
        assert report is None
        named = rf"^{command(name)}: config error: (bad|missing) {re.escape(key)}\b"
        assert re.search(named, err), (dotted, new, err)
    else:
        assert (code, report, err) == baseline(name), (dotted, new)
