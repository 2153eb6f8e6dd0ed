"""Report bytes of point-carrying and set-heavy experiments, pinned by SHA-256.

The benchmark digests cover set masks only.  The ``returns`` and
``induced`` reports also echo points (``x``, ``center``) and list orbit
points in ``induced`` blocks, so their bytes fix the point encoding of
every coordinate system: hex ``coords_fixed`` at 2^bits for named
constants, reduced fractions for rationals.  The ``nilcheck`` reports and
the ``returns`` report of ``n^2`` on a skew product, over a window that
is longer below 0 than above, fix return sets of an even family, which
are decided once per |n|; two of the ``nilcheck`` reports sit at eps 1/2
and 51/100, on both sides of the Heisenberg ball's switch from one
translate of the center to three.  The ``thma`` and ``analyze`` reports fix the
text of embedded member lists, planar and linear, in JSON and in CSV,
next to their certificates (a syndetic refutation among them).  A
digest changes only if a report byte changes.
"""

import hashlib
import json

import pytest

from psynd.cli import main

ROT_SQRT2 = {"type": "rotation", "alpha": ["sqrt2"]}
HEIS_RATIONAL = {"type": "heisenberg", "alpha": "2/7", "beta": "3/11"}

CASES = {
    "returns-rotation-sqrt2-x-center": ("returns", {
        "system": ROT_SQRT2,
        "family": ["n", "n^2"],
        "epsilon": "1/10",
        "window": [-300, 300],
        "x": {"coords": ["1/3"]},
        "center": {"coords": ["2/5"]},
    }),
    "returns-heisenberg-rational-x-center": ("returns", {
        "system": HEIS_RATIONAL,
        "family": ["n^2"],
        "epsilon": "1/4",
        "window": [-300, 300],
        "x": {"coords": ["1/3", "5/6", "1/2"]},
        "center": {"coords": ["1/4", "2/3", "-1/5"]},
    }),
    "returns-heisenberg-rational-box": ("returns", {
        "system": HEIS_RATIONAL,
        "family": ["n", "n^2"],
        "epsilon": "1/3",
        "box": [-20, 20, -10, 10],
        "x": {"coords": ["1/3", "5/6", "1/2"]},
    }),
    "returns-skew-golden-coords-fixed": ("returns", {
        "system": {"type": "skew", "alpha": "golden"},
        "family": ["n^2"],
        "epsilon": "1/5",
        "window": [-300, 300],
        "x": {"coords_fixed": ["0x1", "0x" + "f" * 64], "bits": 256},
    }),
    "induced-rotation-sqrt2-split": ("induced", {
        "system": ROT_SQRT2,
        "family": ["n", "n^2"],
        "epsilon": "1/10",
        "radius": 3,
        "N": 500,
        "x": {"coords": ["1/7"]},
    }),
    "induced-skew-golden-orbit": ("induced", {
        "system": {"type": "skew", "alpha": "golden"},
        "family": ["n", "n^2"],
        "epsilon": "1/5",
        "radius": 2,
        "N": 300,
        "block": "orbit",
    }),
    "induced-heisenberg-named-split": ("induced", {
        "system": {"type": "heisenberg", "alpha": "sqrt2-1", "beta": "sqrt3-1"},
        "family": ["n", "n^2"],
        "epsilon": "1/5",
        "radius": 2,
        "N": 300,
        "x": {"coords": ["1/3", "2/5", "3/4"]},
    }),
    "induced-heisenberg-rational-orbit": ("induced", {
        "system": HEIS_RATIONAL,
        "family": ["n^2"],
        "epsilon": "1/4",
        "radius": 3,
        "N": 200,
        "block": "orbit",
        "x": {"coords": ["1/3", "5/6", "1/2"]},
    }),
    "thma-sturmian-golden-area": ("thma", {
        "set": {"kind": "sturmian", "alpha": "golden", "window": [-4000, 4000]},
        "family": ["n", "n^2"],
        "box": [-60, 60, -20, 20],
        "certificates": {"pws2d": {"b1_max": 8, "b2_max": 8, "min_area": 40}},
    }),
    "thma-sturmian-sqrt2-shape": ("thma", {
        "set": {"kind": "sturmian", "alpha": "sqrt2", "window": [-4000, 4000]},
        "family": ["n", "n^2"],
        "box": [-50, 50, -20, 20],
        "certificates": {"pws2d": {"b1_max": 6, "b2_max": 6, "w": 3, "h": 3}},
    }),
    "nilcheck-heisenberg-named-nested": ("nilcheck", {
        "system": {"type": "heisenberg", "alpha": "sqrt2-1", "beta": "sqrt3-1"},
        "family": ["n^2"],
        "epsilon": "1/5",
        "windows": [1000, 3000],
    }),
    "nilcheck-heisenberg-named-eps-1-2": ("nilcheck", {
        "system": {"type": "heisenberg", "alpha": "sqrt2-1", "beta": "sqrt3-1"},
        "family": ["n^2"],
        "epsilon": "1/2",
        "windows": [2000],
    }),
    "nilcheck-heisenberg-named-eps-51-100": ("nilcheck", {
        "system": {"type": "heisenberg", "alpha": "sqrt2-1", "beta": "sqrt3-1"},
        "family": ["n^2"],
        "epsilon": "51/100",
        "windows": [2000],
    }),
    "returns-skew-golden-n2": ("returns", {
        "system": {"type": "skew", "alpha": "golden"},
        "family": ["n^2"],
        "epsilon": "1/5",
        "window": [-700, 400],
        "certificates": {"pws": {"b_max": 4, "L": 20}},
    }),
    "analyze-random-syndetic-refuted": ("analyze", {
        "seed": 5,
        "set": {"kind": "random_thick_syndetic", "window": [-2000, 2999]},
        "certificates": {"syndetic": {"N": 3}},
    }),
}
CASES["thma-sturmian-golden-area-csv"] = (*CASES["thma-sturmian-golden-area"], "--format", "csv")
CASES["returns-skew-golden-n2-csv"] = (*CASES["returns-skew-golden-n2"], "--format", "csv")
CASES["analyze-random-syndetic-refuted-csv"] = (
    *CASES["analyze-random-syndetic-refuted"], "--format", "csv",
)

DIGESTS = {
    "analyze-random-syndetic-refuted": "73f26a6ea410ab6e771525aa5f6d1d6aaf6d67342d53f8e9cfd7af289009f68f",
    "analyze-random-syndetic-refuted-csv": "dd45004f866ca057978d175333df0767741e8ddf0450f1f6fd5e504446af240a",
    "induced-heisenberg-named-split": "d52d98c98ac56f82ea402f4e7095f7274db76a97d2f669a1d4dc9dba2e1ce825",
    "induced-heisenberg-rational-orbit": "be3a0600baec12ca4ebb8b63005a0b74a543cdcb9ebc09b1a6efd5cba90af3ea",
    "induced-rotation-sqrt2-split": "336863b826702c821b2bede6203c704cc856e46e0ffc29965a4da6cae049f47b",
    "induced-skew-golden-orbit": "0ccdb9c98625c50219e24819b647708657bc9bb4155532a75b401b46ca7c7d54",
    "returns-heisenberg-rational-box": "41004a1b08bee236dbea73c1fc5c29054fbeae5509363da1ba166a1573043084",
    "returns-heisenberg-rational-x-center": "d1162cc8f16741fe0c65d443e35a4a2a36f6a6ebf16e26198dcd8e46f05b053d",
    "returns-rotation-sqrt2-x-center": "cbe38d6118e4b9f3936c4d23ed0cd03eef0da4c977806dbdb9671a0e0bd63e7c",
    "nilcheck-heisenberg-named-eps-1-2": "52b7d716eed4b24479377ad32bb26a85e3e0b6a54b2618dc7321c7612f443e91",
    "nilcheck-heisenberg-named-eps-51-100": "3c0b34ecc68511654cdafeaabd2e4f20196523ce4cc6e1e4f365b321916800d9",
    "nilcheck-heisenberg-named-nested": "08b6407296df3b99b2fc0f6423d897d92cc79d45806fda89087583fea97099c4",
    "returns-skew-golden-coords-fixed": "0a29898b6c9a30d2c5e358d6c0c88582cfd714ea92633e7cde5daf7a2c3edeba",
    "returns-skew-golden-n2": "607fc6cbc2f7d46f658d3ba259a2cb0d39a8a37b11e21a982d470f5b15b0eadd",
    "returns-skew-golden-n2-csv": "d3dca9013b74856e688b9213c4533ace8b0c5e3024fb282ab2f29576456c65f2",
    "thma-sturmian-golden-area": "e9893c16f4fcaba2b43e2195e5d4ff74e229076ad31a1e2a9084529e72e2c359",
    "thma-sturmian-golden-area-csv": "a117f65767f92af1f093813f4411941c1b642d8f47622fdd90703d322d6bacee",
    "thma-sturmian-sqrt2-shape": "738eedc7308a52358aaac8da73d1a3649afb8160d73fae4556fc8a65815081cd",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_are_pinned(tmp_path, name):
    command, cfg, *flags = CASES[name]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main([command, "--config", str(cfg_path), "--out", str(out), *flags]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[name]
