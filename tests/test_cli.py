"""Driver behavior: reports, determinism, verification, exit codes."""

import argparse
import errno
import gc
import io
import json
import os
import random
import resource
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import psynd.cli
from psynd import (
    GridSet,
    PolyFamily,
    ReturnQuery,
    WindowSet,
    combinatorial_set_2d,
    longest_run,
    max_gap,
    max_rectangle,
    parse_polynomial,
    pws_witness,
    pws_witness_2d,
    recurrence_times,
    return_set_1d,
    syndetic_2d_certificate,
    syndetic_certificate,
    system_from_json_obj,
)
from psynd.check import CERT_TYPES
from psynd.cli import NILCHECK_DEFAULTS, main
from psynd.generators import sturmian_window
from psynd.returnsets import masked_dilation_2d
from test_polynomials import random_shift_family


def run(tmp_path, command, cfg, *extra):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out_path = tmp_path / "report.json"
    code = main([command, "--config", str(cfg_path), "--out", str(out_path), *extra])
    report = json.loads(out_path.read_text()) if out_path.exists() else None
    return code, report, out_path


ANALYZE_CFG = {
    "seed": 7,
    "set": {"kind": "sturmian", "alpha": "golden", "window": [0, 10000]},
    "certificates": {"syndetic": {"N": 3}, "pws": {"b_max": 4, "L": 50}, "ap": {"k": 6}},
}


def test_analyze_sturmian(tmp_path):
    code, report, _ = run(tmp_path, "analyze", ANALYZE_CFG)
    assert code == 0
    assert report["results"]["max_gap"] == 3
    assert report["results"]["pws"]["shift_bound"] <= 4
    assert report["results"]["ap"]["found"] is not None


def test_analyze_full_window(tmp_path):
    cfg = {"set": {"kind": "full", "window": [0, 500]}}
    code, report, _ = run(tmp_path, "analyze", cfg)
    assert code == 0
    assert report["results"]["pws"]["shift_bound"] == 0


def test_analyze_empty_exit_3(tmp_path):
    cfg = {"set": {"kind": "literal", "lo": 0, "hi": 10, "members": []}}
    code, report, _ = run(tmp_path, "analyze", cfg)
    assert code == 3
    assert report["results"]["error"] == "empty set"


def test_analyze_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["analyze", "--config", str(bad)]) == 2


def test_mandatory_infeasible_exit_3(tmp_path):
    cfg = {
        "set": {"kind": "literal", "lo": 0, "hi": 50, "members": [0, 25, 50]},
        "certificates": {"pws": {"b_max": 1, "L": 40, "mandatory": True}},
    }
    code, _, _ = run(tmp_path, "analyze", cfg)
    assert code == 3


def test_byte_identical_reports(tmp_path):
    _, _, first = run(tmp_path, "analyze", ANALYZE_CFG)
    data1 = first.read_bytes()
    _, _, second = run(tmp_path, "analyze", ANALYZE_CFG)
    assert data1 == second.read_bytes()


def test_seed_flag_overrides_and_is_reported(tmp_path):
    cfg = {"set": {"kind": "random_thick_syndetic", "window": [0, 400]}}
    code, r1, _ = run(tmp_path, "analyze", cfg, "--seed", "123")
    assert code in (0, 3)
    assert r1["seed"] == 123
    _, r2, _ = run(tmp_path, "analyze", cfg, "--seed", "123")
    assert r1 == r2


def test_thma_full_set(tmp_path):
    cfg = {
        "set": {"kind": "full", "window": [-50, 50]},
        "family": ["n"],
        "box": [-10, 10, -5, 5],
        "certificates": {"pws2d": {"b1_max": 3, "b2_max": 3, "w": 4, "h": 4}},
    }
    code, report, _ = run(tmp_path, "thma", cfg)
    assert code == 0
    assert report["results"]["pws2d"]["shift_box"] == [0, 0]


def test_thma_parity(tmp_path):
    cfg = {
        "set": {"kind": "congruence", "modulus": 2, "residues": [0], "window": [-100, 100]},
        "family": ["n", "2n"],
        "box": [-20, 20, -20, 20],
        "certificates": {"pws2d": {"b1_max": 3, "b2_max": 3, "w": 10, "h": 10}},
    }
    code, report, _ = run(tmp_path, "thma", cfg)
    assert code == 0
    assert report["results"]["pws2d"]["shift_box"] == [1, 1]


@pytest.mark.parametrize("pws2d", [
    {"b1_max": 2, "b2_max": 2, "min_area": 30},
    {"b1_max": 2, "b2_max": 2, "w": 3, "h": 4},
])
def test_thma_achieved_is_max_rectangle_at_shift_box(tmp_path, pws2d):
    """``achieved`` holds the largest rectangle of the masked dilation at the
    certificate's shift box, on the area path and on the shape path."""
    cfg = {
        "set": {"kind": "sturmian", "alpha": "golden", "window": [-2000, 2000]},
        "family": ["n", "n^2"],
        "box": [-60, 60, -20, 20],
        "certificates": {"pws2d": pws2d},
    }
    code, report, _ = run(tmp_path, "thma", cfg)
    assert code == 0
    s = sturmian_window("golden", -2000, 2000)
    members, validity = combinatorial_set_2d(s, PolyFamily.parse(["n", "n^2"]), (-60, 60, -20, 20))
    b1, b2 = report["results"]["pws2d"]["shift_box"]
    area, rect = max_rectangle(masked_dilation_2d(members, validity, b1, b2))
    achieved = report["results"]["achieved"]
    assert (achieved["b1"], achieved["b2"]) == (b1, b2)
    assert (achieved["max_area_at_b"], achieved["max_rect_at_b"]) == (area, list(rect))


@pytest.mark.parametrize("pws2d", [
    {"b1_max": -1, "b2_max": 2, "min_area": 30},
    {"b1_max": 2, "b2_max": -1, "min_area": 30},
    {"b1_max": 2, "b2_max": 2, "min_area": 0},
    {"b1_max": -1, "b2_max": 2, "w": 3, "h": 4},
    {"b1_max": 2, "b2_max": -1, "w": 3, "h": 4},
    {"b1_max": 2, "b2_max": 2, "w": 0, "h": 4},
])
def test_thma_bad_bounds_exit_2(tmp_path, capsys, pws2d):
    """A negative shift bound, min_area < 1 or an empty rect side is a config
    error on the area path and on the shape path: exit 2, a message, no report."""
    cfg = {
        "set": {"kind": "congruence", "modulus": 2, "residues": [0], "window": [-100, 100]},
        "family": ["n", "2n"],
        "box": [-20, 20, -20, 20],
        "certificates": {"pws2d": pws2d},
    }
    code, report, _ = run(tmp_path, "thma", cfg)
    assert (code, report) == (2, None)
    assert "thma: config error:" in capsys.readouterr().err


@pytest.mark.parametrize("given, missing", [({"w": 3}, "h"), ({"h": 2, "min_area": 9}, "w")])
def test_thma_lone_rect_side_exit_2(tmp_path, capsys, given, missing):
    """A ``w`` without ``h`` (or the reverse) asks for the shape search: the
    missing side is a config error, not a fall-back to the area search."""
    cfg = {
        "set": {"kind": "sturmian", "alpha": "golden", "window": [-2000, 2000]},
        "family": ["n", "n^2"],
        "box": [-100, 100, -40, 40],
        "certificates": {"pws2d": given},
    }
    code, report, _ = run(tmp_path, "thma", cfg)
    assert (code, report) == (2, None)
    assert capsys.readouterr().err.startswith(f"thma: config error: missing {missing}: ")


def test_returns_oracle_flag(tmp_path):
    cfg = {
        "system": {"type": "rotation", "alpha": ["1/6"]},
        "family": ["n^2", "n"],
        "epsilon": "0.3",
        "window": [-1500, 1500],
    }
    code, report, _ = run(tmp_path, "returns", cfg, "--oracle")
    assert code == 0
    assert report["results"]["oracle_match"] is True


def test_returns_oracle_reads_alpha_as_the_system_does(tmp_path):
    # the oracle parses alpha with parse_real, as the system does; Fraction() refuses "1 / 4"
    cfg = {"system": {"type": "rotation", "alpha": ["1 / 4"]}, "family": ["n^2"],
           "epsilon": "1/5", "window": [-40, 40]}
    plain = run(tmp_path, "returns", cfg)[1]
    code, report, _ = run(tmp_path, "returns", cfg, "--oracle")
    assert code == 0 and report["results"].pop("oracle_match") is True
    assert report == plain


def test_returns_oracle_checks_before_a_failed_mandatory_search_exits(tmp_path):
    # no run of 40 at b = 0: exit 3, and the oracle's verdict is still reported
    cfg = {"system": {"type": "rotation", "alpha": "1/7"}, "family": ["n^2"], "epsilon": "1/10",
           "window": [-50, 50], "certificates": {"pws": {"b_max": 0, "L": 40, "mandatory": True}}}
    code, report, _ = run(tmp_path, "returns", cfg, "--oracle")
    assert code == 3 and report["certificates"] == []
    assert report["results"] == {"count": 15, "max_gap": 7, "oracle_match": True}


@pytest.mark.parametrize("system, where", [
    ({"type": "rotation", "alpha": ["1/12"]}, {"box": [-10, 10, -5, 5]}),
    ({"type": "rotation", "alpha": ["sqrt2"]}, {"box": [-10, 10, -5, 5]}),
    ({"type": "rotation", "alpha": ["sqrt2"]}, {"window": [-100, 100]}),
], ids=["rational-box", "irrational-box", "irrational-window"])
def test_returns_oracle_rejects_what_it_cannot_check(tmp_path, capsys, system, where):
    cfg = {"system": system, "family": ["n", "n^2"], "epsilon": "1/20", **where}
    code, report, _ = run(tmp_path, "returns", cfg, "--oracle")
    assert (code, report) == (2, None)
    assert "returns: config error: --oracle needs" in capsys.readouterr().err


def test_returns_identity_family_full(tmp_path):
    cfg = {
        "system": {"type": "rotation", "alpha": ["1/4"]},
        "family": ["n"],
        "epsilon": "0.6",
        "window": [-40, 40],
    }
    code, report, _ = run(tmp_path, "returns", cfg)
    assert code == 0
    assert report["results"]["count"] == 81


def test_nilcheck_small_windows(tmp_path):
    cfg = {"windows": [2000, 4000]}
    code, report, _ = run(tmp_path, "nilcheck", cfg)
    assert code == 0
    gaps = report["results"]["max_gap"]
    assert set(gaps) == {"2000", "4000"}
    assert all(isinstance(v, int) for v in gaps.values())


def test_nilcheck_windows_match_direct_return_sets(tmp_path):
    # the numbers of each window are those of the return set on that window
    code, report, _ = run(tmp_path, "nilcheck", {"windows": [1000, 0, 300]})
    assert code == 0
    sys_spec = system_from_json_obj(NILCHECK_DEFAULTS["system"])
    x = sys_spec.base_point()
    for w in (1000, 0, 300):
        query = ReturnQuery(sys_spec, x, x, Fraction(1, 5), PolyFamily.parse(["n^2"]), (-w, w))
        rs = return_set_1d(query)
        assert report["results"]["counts"][str(w)] == rs.count()
        assert report["results"]["max_gap"][str(w)] == (max_gap(rs) if rs.count() else None)


def test_nilcheck_reports_the_config_seed(tmp_path):
    # main reads the seed, so the defaults that nilcheck fills in leave it read
    code, report, _ = run(tmp_path, "nilcheck", {"seed": 5, "windows": [100]})
    assert (code, report["seed"], report["experiment"]) == (0, 5, "nilcheck")


@pytest.mark.parametrize("widths", [[-5], [100, -5]])
def test_nilcheck_negative_width_exit_2(tmp_path, capsys, widths):
    code, report, _ = run(tmp_path, "nilcheck", {"windows": widths})
    assert (code, report) == (2, None)
    assert "nilcheck: config error: " in capsys.readouterr().err


def test_thmb_with_literal_target(tmp_path):
    cfg = {
        "set": {"kind": "congruence", "modulus": 2, "residues": [0], "window": [-100, 100]},
        "family": ["2n", "4n"],
        "target": {"kind": "congruence", "modulus": 2, "residues": [0], "window": [-50, 50]},
        "targets": {"N_values": [5, 10]},
    }
    code, report, _ = run(tmp_path, "thmb", cfg)
    assert code == 0
    assert report["results"]["a_N"] == {"5": 0, "10": 0}


THMB_ROW_CFG = {
    "set": {"kind": "sturmian", "alpha": "golden", "window": [-5000, 5000]},
    "family": ["n", "n^2"],
    "box": [-300, 300, -70, 70],
    "targets": {"N_values": [5, 10, 15, 20]},
}


def test_thmb_default_target_is_best_row(tmp_path):
    # no "target": the row of the planar set that best_slice picks at the
    # default pws bounds (b_max 3, L 12), as in acceptance criterion 3
    code, report, _ = run(tmp_path, "thmb", THMB_ROW_CFG)
    assert code == 0
    row = report["target_row"]
    assert (row["m"], row["b_max"], row["L"]) == (-283, 3, 12)
    assert row["pws"]["type"] == "pws"
    assert all(a is not None for a in report["results"]["a_N"].values())
    s = sturmian_window("golden", -5000, 5000)
    assert report["target"]["members"]
    for n in report["target"]["members"]:
        assert row["m"] + n in s and row["m"] + n * n in s


def test_thmb_no_row_exit_3(tmp_path):
    cfg = dict(THMB_ROW_CFG, certificates={"pws": {"b_max": 0, "L": 141}})
    code, report, _ = run(tmp_path, "thmb", cfg)
    assert code == 3
    assert report is None


def test_thmb_infeasible_exit_3(tmp_path):
    cfg = {
        "set": {"kind": "sturmian", "alpha": "golden", "window": [-2000, 2000]},
        "family": ["n"],
        "target": {"kind": "full", "window": [-20, 20]},
        "targets": {"N_values": [15]},
    }
    code, report, _ = run(tmp_path, "thmb", cfg)
    # covering a full interval needs a 31-run; Sturmian runs cap at 2
    assert code == 3
    assert report["results"]["a_N"] == {"15": None}


@pytest.mark.parametrize("members, message", [
    ([0, 2], "loses the center letter"),  # T^25 of a word on [-3, 3]
    ([], "empty set"),
])
def test_returns_infeasible_subshift_exit_3(tmp_path, capsys, members, message):
    cfg = {
        "system": {"type": "subshift", "base": {"lo": -3, "hi": 3, "members": members}},
        "family": ["n^2"],
        "epsilon": "1/2",
        "window": [-5, 5],
    }
    code, report, _ = run(tmp_path, "returns", cfg)
    assert code == 3
    assert report is None
    err = capsys.readouterr().err
    assert message in err and "config error" not in err


def test_file_set_source(tmp_path):
    from psynd import WindowSet

    s = WindowSet.from_members(0, 50, range(0, 51, 2))
    bitmap = tmp_path / "set.psyn"
    bitmap.write_bytes(s.to_bitmap_bytes())
    cfg = {"set": {"kind": "file", "path": str(bitmap)}}
    code, report, _ = run(tmp_path, "analyze", cfg)
    assert code == 0
    assert report["results"]["max_gap"] == 2


@pytest.mark.parametrize("name, raw, message", [
    ("short-header.psyn", b"PSYN" + struct.pack("<Hq", 1, 0), "header"),
    ("short-body.psyn", WindowSet.full(0, 100).to_bitmap_bytes()[:-8], "body"),
    ("list.json", b"[0, 1, 2]", "missing lo: [0, 1, 2] is not an object"),
    ("members.json", b'{"lo": 0, "hi": 5, "members": "012"}', "bad members '012': a list"),
], ids=["short-header", "short-body", "json-list", "string-members"])
def test_malformed_set_file_exit_2(tmp_path, capsys, name, raw, message):
    path = tmp_path / name
    path.write_bytes(raw)
    code, report, _ = run(tmp_path, "analyze", {"set": {"kind": "file", "path": str(path)}})
    assert (code, report) == (2, None)
    err = capsys.readouterr().err
    assert "analyze: config error: " in err and message in err


@pytest.mark.parametrize("command, cfg", [
    ("analyze", {"set": 5}),
    ("thmb", {**THMB_ROW_CFG, "target": [0, 1, 2]}),
], ids=["analyze-set-number", "thmb-target-list"])
def test_set_source_not_an_object_exit_2(tmp_path, capsys, command, cfg):
    code, report, _ = run(tmp_path, command, cfg)
    assert (code, report) == (2, None)
    err = capsys.readouterr().err
    key = "set" if command == "analyze" else "target"
    assert f"{command}: config error: bad {key} " in err and ": an object" in err


def test_induced_report(tmp_path):
    cfg = {
        "system": {"type": "rotation", "alpha": ["1/4"]},
        "family": ["n^2"],
        "radius": 3,
        "epsilon": "0.1",
        "N": 100,
    }
    code, report, _ = run(tmp_path, "induced", cfg)
    assert code == 0
    assert report["results"]["count"] == 101  # evens in [-100, 100]
    assert report["block"]["kind"] == "split"


@pytest.mark.parametrize("kind", ["bogus", "Split", 1])
def test_induced_unknown_block_kind_exit_2(tmp_path, capsys, kind):
    cfg = {"system": {"type": "rotation", "alpha": ["1/4"]}, "family": ["n^2"], "block": kind}
    code, report, _ = run(tmp_path, "induced", cfg)
    assert code == 2 and report is None
    err = capsys.readouterr().err
    assert "induced: config error: bad block" in err and "'split'" in err and "'orbit'" in err


def test_induced_reduces_a_family_to_normal_form(tmp_path):
    # criterion 5's family is one shift class: the times and the block are the core's
    cfg = {"system": {"type": "rotation", "alpha": ["sqrt2"]},
           "family": ["n^2", "n^2+2n", "n^2+6n"], "radius": 2, "epsilon": "1/5", "N": 300}
    code, report, _ = run(tmp_path, "induced", cfg)
    assert code == 0
    assert report["results"]["reduction"] == {"core": ["n^2"], "covering": [[1, 0, 1], [2, 0, 3]]}
    assert report["query"]["family"] == cfg["family"]
    assert report["block"]["family"] == ["n^2"]
    sys_spec = system_from_json_obj(cfg["system"])
    times = recurrence_times(sys_spec, sys_spec.base_point(), PolyFamily.parse(["n^2"]), 2,
                             Fraction(1, 5), 300)
    assert report["set"] == times.to_json_obj() and times.count() > 1


def test_induced_covering_rederives_each_removed_member(tmp_path):
    # from the report alone: each removed member is its core member shifted by j, the
    # core is the other members in order, and a family in normal form has no reduction
    rng = random.Random(0x1D)
    removals = 0
    for _ in range(40):
        family = random_shift_family(rng).to_strs()
        cfg = {"system": {"type": "rotation", "alpha": ["1/5"]}, "family": family,
               "radius": 1, "N": 20}
        code, report, _ = run(tmp_path, "induced", cfg)
        assert code == 0
        reduction = report["results"].get("reduction", {"core": family, "covering": []})
        core, covering = reduction["core"], reduction["covering"]
        assert (covering == []) == ("reduction" not in report["results"])
        for removed, kept, j in covering:
            assert parse_polynomial(core[kept]).shift(j) == parse_polynomial(family[removed])
        removed = {r for r, _, _ in covering}
        assert core == [p for idx, p in enumerate(family) if idx not in removed]
        assert report["block"]["family"] == core
        removals += len(covering)
    assert removals > 0


HEIS_NAMED = {"type": "heisenberg", "alpha": "sqrt2-1", "beta": "sqrt3-1"}
MOD3 = {"kind": "congruence", "modulus": 3, "residues": [0], "window": [0, 99]}


@pytest.mark.parametrize("command, cfg, message", [
    # explicit ids keep the test names these cases had before their messages named the key
    pytest.param("thmb", {"set": MOD3, "family": ["n^2"], "target": MOD3,
                          "targets": {"N_values": 5}}, "bad N_values 5: a list of integers",
                 id="thmb-cfg0-'int' object is not iterable"),
    pytest.param("analyze", {"set": MOD3, "certificates": {"syndetic": 3}},
                 "bad syndetic 3: an object", id="analyze-cfg1-'int' object is not subscriptable"),
    pytest.param("analyze", {"set": MOD3, "certificates": []}, "bad certificates []: an object",
                 id="analyze-cfg2-'list' object has no attribute"),
    ("nilcheck", [1, 2], "is not a JSON object"),
    *[("nilcheck", {"system": {**HEIS_NAMED, "bits": bits}}, f"bad bits {bits!r}")
      for bits in [256.9, "256", -3, 127, True, None]],
    ("returns", {"system": {"type": "rotation", "alpha": ["1/4"], "bits": 64}, "family": ["n"],
                 "window": [0, 9]}, "bad bits 64: an integer >= 128"),
    *[("analyze", {"set": {"kind": "sturmian", "alpha": "golden", "window": [0, 9], "bits": bits}},
       f"bad bits {bits!r}: an integer >= 128") for bits in [256.9, "256", -3, 127, True, None]],
    *[("analyze", {"seed": 0, "set": {**source, "window": window}}, f"bad window {window!r}")
      for source in [{"kind": "sturmian", "alpha": "golden"}, MOD3, {"kind": "full"},
                     {"kind": "random_thick_syndetic"}]
      for window in [[0.5, 99.9], [0, "99"], [False, 99], [0], 7]],
    # a float, a string or a bool where an integer, a list or a bool belongs
    ("thma", {"set": MOD3, "family": ["n"], "box": [-10.5, 10.9, -3, 3]},
     "bad box [-10.5, 10.9, -3, 3]: a list of 4 integers"),
    ("induced", {"system": {"type": "rotation", "alpha": ["1/4"]}, "family": ["n^2"], "N": 2.5},
     "bad N 2.5: an integer >= 0"),
    ("thmb", {"set": MOD3, "family": ["n^2"], "target": MOD3, "targets": {"N_values": [5.9]}},
     "bad N_values [5.9]: a list of integers"),
    ("analyze", {"set": {"kind": "literal", "lo": 0.5, "hi": 9, "members": [1]}},
     "bad lo 0.5: an integer"),
    ("analyze", {"set": {**MOD3, "modulus": 3.7}}, "bad modulus 3.7: an integer >= 1"),
    ("analyze", {"set": {**MOD3, "residues": ["0"]}}, "bad residues ['0']: a list of integers"),
    ("analyze", {"seed": "7", "set": MOD3}, "bad seed '7': an integer"),
    ("thma", {"set": MOD3, "family": "n", "box": [-10, 10, -3, 3]},
     "bad family 'n': a list of strings"),
    ("analyze", {"set": MOD3, "certificates": {"pws": {"b_max": 0, "L": 90, "mandatory": "no"}}},
     "bad mandatory 'no': a boolean"),
    # a zero member, which no reduction to normal form removes
    pytest.param("induced", {"system": {"type": "rotation", "alpha": ["1/4"]},
                             "family": ["n^2", "0"], "epsilon": "1/10"},
                 "bad family ['n^2', '0']: member 1 is constant", id="induced-cfg46-zero member"),
    # the paper's family is p_1, ..., p_d with d >= 1: with none, no condition would apply
    *[pytest.param(command, {**cfg, "family": []}, "bad family []: ", id=f"{command}-empty family")
      for command, cfg in [
          ("thma", {"set": MOD3, "box": [-10, 10, -3, 3]}),
          ("thmb", {"set": MOD3, "target": MOD3}),
          ("returns", {"system": {"type": "rotation", "alpha": "1/7"}, "epsilon": "1/10",
                       "window": [-50, 50]}),
          ("induced", {"system": {"type": "rotation", "alpha": "1/7"}}),
          ("nilcheck", {})]],
    # an inverted window or box names its range; a negative N has no patch [-N, N]
    *[pytest.param("analyze", {"set": {**source, "window": [5, 2]}}, "empty window: lo=5 > hi=2",
                   id=f"analyze-inverted window-{source['kind']}")
      for source in [{"kind": "sturmian", "alpha": "golden"}, MOD3, {"kind": "full"},
                     {"kind": "random_thick_syndetic"}]],
    *[pytest.param(command, {"set": MOD3, "family": ["n"], "box": box}, message,
                   id=f"{command}-inverted box {box}")
      for command in ("thma", "thmb")
      for box, message in [([10, 0, 0, 3], "empty box: mlo=10 > mhi=0"),
                           ([0, 3, 2, -2], "empty box: nlo=2 > nhi=-2")]],
    pytest.param("thmb", {"set": MOD3, "family": ["n^2"], "target": MOD3,
                          "targets": {"N_values": [-3, 2]}},
                 "bad N_values [-3, 2]: a list of integers >= 0", id="thmb-negative N"),
    # a rotation of the 0-torus, on which every time would be a return time
    *[pytest.param(command, {**cfg, "system": {"type": "rotation", "alpha": []}},
                   "bad alpha []: ", id=f"{command}-empty alpha")
      for command, cfg in [("returns", {"family": ["n"], "epsilon": "1/5", "window": [0, 20]}),
                           ("induced", {"family": ["n^2"]}), ("nilcheck", {})]],
    # a fixed-point coordinate that is no hex integer, named by its point's key
    pytest.param("returns", {"system": {"type": "rotation", "alpha": ["sqrt2"]}, "family": ["n"],
                             "epsilon": "1/5", "window": [0, 20],
                             "x": {"coords_fixed": ["zz"], "bits": 256}},
                 "bad x ['zz']: ", id="returns-coords_fixed not hex"),
    # no window, no gap to compare
    pytest.param("nilcheck", {"windows": []}, "bad windows []: ", id="nilcheck-empty windows"),
    # a coefficient with a zero denominator, named by the family
    pytest.param("returns", {"system": {"type": "rotation", "alpha": ["1/4"]}, "family": ["1/0n"],
                             "epsilon": "1/5", "window": [0, 9]},
                 "bad family ['1/0n']: zero denominator in '1/0n'", id="returns-zero denominator"),
    # terms side by side, which were summed as one term per position
    pytest.param("returns", {"system": {"type": "rotation", "alpha": ["1/4"]}, "family": ["n^2 2n"],
                             "epsilon": "1/5", "window": [0, 9]},
                 "bad family ['n^2 2n']: cannot parse polynomial near '2 2'",
                 id="returns-juxtaposed terms"),
    # a degree above MAX_DEGREE, refused before any coefficient is computed
    pytest.param("returns", {"system": {"type": "rotation", "alpha": ["1/4"]}, "family": ["n^800"],
                             "epsilon": "1/5", "window": [0, 9]},
                 "bad family ['n^800']: degree 800 above the bound 64",
                 id="returns-degree above bound"),
    # a resolution above MAX_BITS, where 10^6 bits took seconds on an 11-integer window
    pytest.param("returns", {"system": {"type": "rotation", "alpha": ["sqrt2"], "bits": 10**9},
                             "family": ["n"], "epsilon": "1/5", "window": [0, 10]},
                 "bad bits 1000000000: precision above 4096 bits", id="returns-bits above bound"),
    pytest.param("nilcheck", {"system": {**HEIS_NAMED, "bits": 4097}},
                 "bad bits 4097: precision above 4096 bits", id="nilcheck-bits above bound"),
    pytest.param("analyze", {"set": {"kind": "sturmian", "alpha": "golden", "window": [0, 9],
                                     "bits": 4097}},
                 "bad bits 4097: precision above 4096 bits", id="analyze-sturmian bits above bound"),
])
def test_malformed_config_shapes_exit_2(tmp_path, capsys, command, cfg, message):
    """A value of the wrong JSON type is a config error: exit 2, no report, no traceback."""
    code, report, _ = run(tmp_path, command, cfg)
    assert code == 2 and report is None
    err = capsys.readouterr().err
    assert f"{command}: config error: " in err and message in err


@pytest.mark.parametrize("command, key, point", [
    ("returns", "x", {"coords": ["1/3", "1/2"]}),
    ("returns", "center", {"coords": ["1/3", "1/2"]}),
    ("induced", "x", {"coords": ["1/3", "1/2"]}),
    ("returns", "x", {"coords_fixed": ["0x1", "0x2"], "bits": 256}),
])
def test_point_of_wrong_length_names_its_key(tmp_path, capsys, command, key, point):
    alpha = "sqrt2" if "bits" in point else "1/4"
    cfg = {"system": {"type": "rotation", "alpha": [alpha]}, "family": ["n"], key: point}
    if command == "returns":
        cfg |= {"epsilon": "1/5", "window": [0, 20]}
    code, report, _ = run(tmp_path, command, cfg)
    assert code == 2 and report is None
    strings = point.get("coords", point.get("coords_fixed"))
    assert capsys.readouterr().err == (f"{command}: config error: bad {key} {strings!r}: "
                                       "each point has 1 coordinates\n")


@pytest.mark.parametrize("key", ["x", "center"])
@pytest.mark.parametrize("point, message", [
    ({"word": "012", "lo": 0, "hi": 2}, "word '012': 3 letters 0/1"),
    ({"word": "", "lo": 0, "hi": -1}, "window [0, -1]: empty, lo > hi"),
])
def test_subshift_point_names_its_key(tmp_path, capsys, key, point, message):
    cfg = {"system": {"type": "subshift", "base": {"lo": -3, "hi": 3, "members": [0]}},
           "family": ["n"], "epsilon": "1/2", "window": [-1, 1], key: point}
    code, report, _ = run(tmp_path, "returns", cfg)
    assert code == 2 and report is None
    assert capsys.readouterr().err == f"returns: config error: bad {key} {message}\n"


@pytest.mark.parametrize("text", ["n^2 2n", "nn", "n^2n^3", "2nn^2", "2n3", "n 2", "1 /2n",
                                  "n+-n", "n^2+"])
def test_refused_family_text_exit_2(tmp_path, capsys, text):
    # terms side by side, or a sign without its term, name the family
    cfg = {"system": {"type": "rotation", "alpha": ["1/4"]}, "family": ["n", text],
           "epsilon": "1/5", "window": [0, 9]}
    code, report, _ = run(tmp_path, "returns", cfg)
    assert code == 2 and report is None
    err = capsys.readouterr().err
    assert err.startswith(f"returns: config error: bad family ['n', {text!r}]: ")
    assert "Traceback" not in err


def test_verify_roundtrip(tmp_path):
    _, _, out_path = run(tmp_path, "thma", {
        "set": {"kind": "sturmian", "alpha": "golden", "window": [-2000, 2000]},
        "family": ["n", "n^2"],
        "box": [-100, 100, -40, 40],
        "certificates": {"pws2d": {"b1_max": 6, "b2_max": 6, "min_area": 100}},
    })
    assert main(["verify", "--config", str(out_path)]) == 0


def test_verify_detects_tampering(tmp_path):
    _, report, out_path = run(tmp_path, "analyze", ANALYZE_CFG)
    for cert in report["certificates"]:
        if cert["type"] == "pws":
            cert["interval"]["length"] += 5000
    out_path.write_text(json.dumps(report), encoding="utf-8")
    assert main(["verify", "--config", str(out_path)]) == 1


GOLDEN = sturmian_window("golden", 0, 2000)
STRIPES = GridSet.from_predicate((-20, 20, -20, 20), lambda m, n: m % 3 == 0)

# certificate type -> (set, genuine certificate, tampering of its JSON form)
TAMPERED = {
    "syndetic": (GOLDEN, syndetic_certificate(GOLDEN, 3), lambda o: o.update(gap_bound=2)),
    "syndetic_refutation": (GOLDEN, syndetic_certificate(GOLDEN, 2), lambda o: o.update(gap=99)),
    "thick": (GOLDEN, longest_run(GOLDEN), lambda o: o.update(run_length=o["run_length"] + 1)),
    "pws": (GOLDEN, pws_witness(GOLDEN, 4, 50), lambda o: o["interval"].update(length=5000)),
    "pws2d": (STRIPES, pws_witness_2d(STRIPES, 3, 3, 4, 4), lambda o: o.update(shift_box=[0, 0])),
    "syndetic2d": (STRIPES, syndetic_2d_certificate(STRIPES, 1), lambda o: o.update(l_bound=0)),
    "syndetic2d_refutation": (
        STRIPES, syndetic_2d_certificate(STRIPES, 0), lambda o: o.update(point=[0, 0])
    ),
}


# each certificate type on a set of the other dimension; the first two ids predate the rest
OTHER_DIMENSION = {
    {"pws2d": "2d-on-1d", "thick": "1d-on-2d"}.get(kind, f"{kind}-on-other-dimension"): (
        "1d" if the_set is STRIPES else "2d", cert.to_json_obj(),
        f"{kind} certificate on a {'1D' if the_set is STRIPES else '2D'} set")
    for kind, (the_set, cert, _) in TAMPERED.items()
}


def verify_report(tmp_path, the_set, *certs):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"set": the_set.to_json_obj(), "certificates": list(certs)}))
    return main(["verify", "--config", str(path)])


@pytest.mark.parametrize("kind", TAMPERED)
def test_verify_checks_every_certificate_type(tmp_path, capsys, kind):
    assert set(TAMPERED) == set(CERT_TYPES)  # a new certificate type needs a case here
    the_set, cert, tamper = TAMPERED[kind]
    obj = cert.to_json_obj()
    assert obj["type"] == kind
    assert verify_report(tmp_path, the_set, obj) == 0
    assert capsys.readouterr().out == f"{kind}: ok\n"
    tamper(obj)
    assert verify_report(tmp_path, the_set, obj) == 1
    assert capsys.readouterr().out == f"{kind}: FAIL\n"



@pytest.mark.parametrize("the_set, cert, verdict", [
    (GOLDEN, {"type": "syndetic", "gap_bound": 3, "checked_interval": [0, 10**12]}, "FAIL"),
    (GOLDEN, {"type": "syndetic", "gap_bound": 3, "checked_interval": [-10**30, 10**30]}, "FAIL"),
    (GOLDEN, {"type": "thick", "run_start": 0, "run_length": 10**12}, "FAIL"),
    (GOLDEN, {"type": "thick", "run_start": -10**30, "run_length": 10**31}, "FAIL"),
    (STRIPES, {"type": "syndetic2d", "l_bound": 1, "checked_box": [-20, 10**12, -20, 20]},
     "FAIL"),
    (STRIPES, {"type": "syndetic2d", "l_bound": 1, "checked_box": [-19, 19, -19, 10**12]},
     "FAIL"),
    # an empty m-range claims nothing, however long the n-range
    (STRIPES, {"type": "syndetic2d", "l_bound": 1, "checked_box": [5, 4, 0, 10**12]}, "ok"),
    # a true claim with g = 10**30: the hole ladder stops once no run is left, after
    # about log2 of the set's width rounds
    (GOLDEN,
     {"type": "syndetic", "gap_bound": 10**30, "checked_interval": [2001 - 10**30, 10**30]}, "ok"),
    # a true planar claim over 2e12 + 1 values of n: the slice of columns that n's
    # window takes moves only for n near the box, so O(columns) of them are checked
    (STRIPES, {"type": "syndetic2d", "l_bound": 10**30, "checked_box": [0, 0, -10**12, 10**12]},
     "ok"),
], ids=["syndetic", "syndetic-huge", "thick", "thick-huge", "syndetic2d-m", "syndetic2d-n",
        "syndetic2d-vacuous", "syndetic-huge-gap", "syndetic2d-huge-l"])
def test_verify_forged_far_bounds_cost_no_more_than_the_set(tmp_path, capsys, the_set, cert,
                                                             verdict):
    # bounds far outside the set are read, not scanned: no huge mask, no long loop
    assert verify_report(tmp_path, the_set, cert) == (verdict == "FAIL")
    assert capsys.readouterr().out == f"{cert['type']}: {verdict}\n"


@pytest.mark.parametrize("the_set, cert", [
    # the checked interval psynd analyze writes for N = 8 on the golden window [0, 9]
    (GOLDEN, {"type": "syndetic", "gap_bound": -3, "checked_interval": [8, 1]}),
    (STRIPES, {"type": "syndetic2d", "l_bound": -1, "checked_box": [2, 1, 2, 1]}),
], ids=["syndetic-gap-below-1", "syndetic2d-l-below-0"])
def test_verify_refuses_bounds_that_detection_refuses(tmp_path, capsys, the_set, cert):
    # detection raises BadBoundError for N < 1 and L < 0, so a certificate with
    # such a bound fails, also where its checked region is empty
    assert verify_report(tmp_path, the_set, cert) == 1
    assert capsys.readouterr().out == f"{cert['type']}: FAIL\n"


def test_verify_genuine_reports_skip_nothing(tmp_path, capsys):
    # a refuted N in analyze, and a thma witness: every certificate is checked
    cfg = dict(ANALYZE_CFG, certificates={"syndetic": {"N": 2}, "pws": {"b_max": 4, "L": 50}})
    _, _, analyzed = run(tmp_path, "analyze", cfg)
    assert main(["verify", "--config", str(analyzed)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "thick: ok", "syndetic_refutation: ok", "pws: ok"
    ]
    _, _, planar = run(tmp_path, "thma", {
        "set": {"kind": "sturmian", "alpha": "golden", "window": [-2000, 2000]},
        "family": ["n", "n^2"],
        "box": [-100, 100, -40, 40],
        "certificates": {"pws2d": {"b1_max": 6, "b2_max": 6, "w": 3, "h": 3}},
    })
    assert main(["verify", "--config", str(planar)]) == 0
    assert capsys.readouterr().out.splitlines() == ["pws2d: ok"]


@pytest.mark.parametrize("set_kind, cert, message", [
    ("1d", {"type": "bogus"}, "bad type 'bogus': 'syndetic' or "),
    ("1d", {"type": "pws", "shift_bound": 1}, "missing interval: an object"),
    ("1d", {"type": "thick", "run_start": "3", "run_length": 2}, "bad run_start '3': an integer"),
    *OTHER_DIMENSION.values(),
], ids=["unknown-type", "missing-field", "ill-typed-field", *OTHER_DIMENSION])
def test_verify_malformed_report_exit_2(tmp_path, capsys, set_kind, cert, message):
    the_set = GOLDEN if set_kind == "1d" else STRIPES
    genuine = longest_run(GOLDEN) if set_kind == "1d" else syndetic_2d_certificate(STRIPES, 1)
    assert verify_report(tmp_path, the_set, genuine.to_json_obj(), cert) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err


@pytest.mark.parametrize("set_obj, message", [
    ({"lo": 0, "hi": 10, "members": [1, 2.5]}, "bad members [1, 2.5]: a list of integers"),
    ({"lo": 0, "hi": 10, "members": [1, "2"]}, "bad members [1, '2']: a list of integers"),
    ({"lo": 0, "hi": 10, "members": [3, 11, 12, -1]}, "member 11 outside window [0,10]"),
    ({"box": [0, 4, 0, 4], "members": [[0, 1.5]]}, "not float"),
    ({"box": [0, 4, 0, 4], "members": [["0", 1]]}, "'<=' not supported"),
    ({"box": [0, 4, 0, 4], "members": [[0, 1], [0, 1, 2]]}, "too many values to unpack"),
    ({"box": [0, 4, 0, 4], "members": [[0, 0], [0, 5], [5, 0]]}, "member (0, 5) outside box"),
    # a bool passes every other test as 0 or 1, as it would in a 1D list
    ({"box": [0, 4, 0, 4], "members": [[True, 0]]},
     "bad members: member [True, 0] is not a pair of integers"),
    ({"box": [0, 4, 0, 4], "members": [[0, 1], [2, False]]},
     "bad members: member [2, False] is not a pair of integers"),
    ({"lo": 0, "hi": 4, "members": [True]}, "bad members [True]: a list of integers"),
    ({"lo": 0.5, "hi": "9", "members": [1, 2]}, "bad lo 0.5: an integer"),
    ({"box": [0, 3.5, 0, "3"], "members": [[0, 1]]},
     "bad box [0, 3.5, 0, '3']: a list of 4 integers"),
    # windows whose first allocation fails: 10^17 bits are beyond the address space
    ({"lo": 0, "hi": 10**17, "members": []}, "verify: bad report: a set too large to hold in memory"),
    # windows and boxes no index holds, refused by their keys before any allocation
    ({"lo": 0, "hi": 10**30, "members": []},
     f"verify: bad report: bad lo, hi [0, {10**30}]: at most {sys.maxsize} integers\n"),
    ({"box": [0, 10**30, 0, 0], "members": []},
     f"verify: bad report: bad box [0, {10**30}, 0, 0]: at most {sys.maxsize} integers\n"),
], ids=["float", "string", "outside", "2d-float", "2d-string", "2d-triple", "2d-outside",
        "2d-bool-m", "2d-bool-n", "bool", "float-bound", "2d-float-bound", "too-large-to-hold",
        "too-large-to-index", "2d-too-large-to-index"])
def test_verify_malformed_members_exit_2(tmp_path, capsys, set_obj, message):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"set": set_obj, "certificates": []}))
    assert main(["verify", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("verify: bad report: ") and message in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("outcome", [0, 1, 2], ids=["ok", "FAIL", "bad-report"])
def test_verify_restores_the_gc_state(tmp_path, monkeypatch, enabled, outcome):
    # the set decodes with the cyclic GC paused, and the certificates verify
    # with the caller's state back, whichever way verify ends
    the_set, cert, tamper = TAMPERED["pws2d"]
    obj = cert.to_json_obj()
    if outcome == 1:
        tamper(obj)
    if outcome == 2:
        obj = {"type": "bogus"}
    seen = {}

    def spy(name, fn):
        def wrapper(*args):
            seen[name] = gc.isenabled()
            return fn(*args)

        return wrapper

    monkeypatch.setattr(GridSet, "from_json_obj", spy("decode", GridSet.from_json_obj))
    monkeypatch.setattr(psynd.cli, "verify_pws_2d", spy("verify", psynd.cli.verify_pws_2d))
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert verify_report(tmp_path, the_set, obj) == outcome
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen["decode"] is False
    assert seen.get("verify", enabled) is enabled


def test_analyze_embeds_a_set_wider_than_2e5(tmp_path, capsys):
    cfg = {"set": {"kind": "sturmian", "alpha": "golden", "window": [-150000, 150000]},
           "certificates": {"syndetic": {"N": 3}, "pws": {"b_max": 2, "L": 1000}}}
    code, report, out_path = run(tmp_path, "analyze", cfg)
    assert code == 0
    assert report["set"]["lo"] == -150000 and report["set"]["hi"] == 150000
    assert report["set"]["members"] == list(sturmian_window("golden", -150000, 150000).members())
    assert main(["verify", "--config", str(out_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["thick: ok", "syndetic: ok", "pws: ok"]


def test_each_subcommand_takes_only_its_flags(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text("{}")
    for argv in (
        ["verify", "--config", str(cfg), "--out", str(tmp_path / "o")],
        ["verify", "--config", str(cfg), "--seed", "1"],
        ["analyze", "--config", str(cfg), "--oracle"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_one_parser_per_process_keeps_no_state(tmp_path, monkeypatch, capsys):
    # ten calls build one parser and its 7 subparsers; a call that exits 2, a --seed and a
    # --format leave nothing behind: every call writes what a fresh process writes
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    psynd.cli._parser.cache_clear()
    cfg = tmp_path / "analyze.json"
    cfg.write_text(json.dumps(ANALYZE_CFG), encoding="utf-8")
    calls = [["analyze", "--config", str(cfg)], ["analyze", "--config", str(cfg), "--oracle"],
             ["analyze", "--config", str(cfg), "--seed", "5"],
             ["analyze", "--config", str(cfg), "--format", "csv"]]

    def in_process(argv, out=None):
        try:
            code = main([*argv, "--out", str(out)] if out else argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, out.read_bytes() if out and out.exists() else None, captured.out, captured.err

    got = []
    for round_ in range(2):
        got.append([in_process(argv, tmp_path / f"in-{round_}-{i}")
                    for i, argv in enumerate(calls)])
        assert in_process(["verify", "--config", str(tmp_path / f"in-{round_}-0")])[0] == 0
    assert len(built) == 8
    src = str(Path(psynd.cli.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for i, argv in enumerate(calls):
        out = tmp_path / f"process-{i}"
        proc = subprocess.run([sys.executable, "-m", "psynd.cli", *argv, "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        want = proc.returncode, out.read_bytes() if out.exists() else None, proc.stdout, proc.stderr
        assert got[0][i] == want and got[1][i] == want, argv
    code, report, _, err = got[1][1]
    assert code == 2 and report is None and "unrecognized arguments: --oracle" in err


def test_returns_point_coords_follow_the_system(tmp_path):
    cfg = {
        "system": {"type": "rotation", "alpha": "sqrt2"},
        "family": ["n"],
        "epsilon": "1/10",
        "window": [-50, 50],
        "x": {"coords": ["1/3"]},
    }
    code, report, _ = run(tmp_path, "returns", cfg)
    assert code == 0
    assert "coords_fixed" in report["query"]["x"]
    exact = dict(cfg, system={"type": "rotation", "alpha": ["1/4"]})
    for coords in (["sqrt2"], [0.5]):
        code, _, _ = run(tmp_path, "returns", dict(exact, x={"coords": coords}))
        assert code == 2


TORUS2 = {
    "system": {"type": "rotation", "alpha": ["1/3", "1/5"]},
    "family": ["n"],
    "epsilon": "1/10",
    "window": [-3, 3],
}
SUBSHIFT = {
    "system": {"type": "subshift", "base": {"lo": -3, "hi": 3, "members": [0]}},
    "family": ["n"],
    "epsilon": "1/2",
    "window": [-1, 1],
}


@pytest.mark.parametrize("cfg, message", [
    # a dropped axis would answer the 1-torus question, members [-3, 0, 3]
    (dict(TORUS2, x={"coords": ["1/2"]}), "has 2 coordinates"),
    (dict(TORUS2, x={"coords": ["1/2", "1/5", "0"]}), "has 2 coordinates"),
    # explicit ids keep the test names these cases had before their messages named the key
    pytest.param(dict(TORUS2, x=5), "bad x 5: an object", id="cfg2-needs coords or coords_fixed"),
    pytest.param(dict(TORUS2, system={"type": "rotation", "alpha": ["sqrt2", "1/5"]},
                      x={"coords_fixed": [5, 7], "bits": 256}),
                 "bad coords_fixed [5, 7]: a list of strings", id="cfg3-hex strings"),
    pytest.param(dict(SUBSHIFT, x={"coords": ["1/2"]}), "missing word: a string",
                 id="cfg4-needs word, lo and hi"),
    (dict(SUBSHIFT, x={"word": "0002000", "lo": -3, "hi": 3}), "7 letters 0/1"),
])
def test_returns_malformed_point_exit_2(tmp_path, capsys, cfg, message):
    code, report, _ = run(tmp_path, "returns", cfg)
    assert code == 2
    assert report is None
    err = capsys.readouterr().err
    assert "config error" in err and message in err


def test_returns_coords_fixed_read_mod_2_bits(tmp_path):
    cfg = {
        "system": {"type": "rotation", "alpha": "sqrt2"},
        "family": ["n"],
        "epsilon": "1/10",
        "window": [-50, 50],
    }
    reports = []
    for value in (5, (1 << 256) + 5, 5 - (3 << 256)):
        x = {"coords_fixed": [hex(value)], "bits": 256}
        code, report, _ = run(tmp_path, "returns", dict(cfg, x=x))
        assert code == 0
        assert report["query"]["x"] == {"coords_fixed": ["0x5"], "bits": 256}
        reports.append(report)
    assert reports[0] == reports[1] == reports[2]


def test_csv_output(tmp_path):
    cfg = {
        "system": {"type": "rotation", "alpha": ["1/2"]},
        "family": ["n"],
        "epsilon": "0.2",
        "window": [-5, 5],
    }
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "points.csv"
    assert main(["returns", "--config", str(cfg_path), "--out", str(out), "--format", "csv"]) == 0
    rows = out.read_text().split()
    assert rows == [str(n) for n in range(-4, 5, 2)]


ROTATION_RETURNS = {
    "system": {"type": "rotation", "alpha": ["1/4"]},
    "family": ["n"],
    "epsilon": "0.3",
}


@pytest.mark.parametrize("command, cfg, key", [
    ("nilcheck", {"windows": 5}, "windows"),
    ("nilcheck", {"windows": [[1, 2]]}, "windows"),
    ("returns", dict(ROTATION_RETURNS, window=5), "window"),
    ("returns", dict(ROTATION_RETURNS, box=5), "box"),
])
def test_malformed_windows_exit_2(tmp_path, capsys, command, cfg, key):
    """A window, box or window list that is not a list of integers is a
    config error: exit 2, a message, no report and no traceback."""
    code, report, _ = run(tmp_path, command, cfg)
    assert (code, report) == (2, None)
    assert f"{command}: config error: bad {key} " in capsys.readouterr().err


@pytest.mark.parametrize("command, kernel, error", [
    ("analyze", "gap_summary", KeyError),
    ("returns", "return_set_1d", TypeError),
    ("thma", "combinatorial_set_2d", AttributeError),
    ("induced", "recurrence_times", KeyError),
])
def test_program_fault_is_not_a_config_error(tmp_path, capsys, monkeypatch, command, kernel, error):
    """A kernel that raises KeyError, TypeError or AttributeError is a psynd bug:
    main lets it propagate (a traceback), and prints no config error."""
    cfgs = {
        "analyze": {"set": MOD3},
        "returns": dict(ROTATION_RETURNS, window=[-10, 10]),
        "thma": {"set": MOD3, "family": ["n"], "box": [0, 5, 0, 5]},
        "induced": {"system": {"type": "rotation", "alpha": ["1/4"]}, "family": ["n^2"]},
    }

    def broken(*args, **kwargs):
        raise error("internal")

    monkeypatch.setattr(psynd.cli, kernel, broken)
    with pytest.raises(error, match="internal"):
        run(tmp_path, command, cfgs[command])
    assert "config error" not in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg, message", [
    ("analyze", {"set": {"kind": "file", "path": "no-such-set.json"}}, "cannot read set file"),
    ("returns", dict(ROTATION_RETURNS, epsilon="1/0", window=[0, 9]), "bad epsilon '1/0'"),
    ("induced", {"system": {"type": "skew", "alpha": "golden"}, "family": ["n"], "epsilon": "x"},
     "bad epsilon 'x'"),
    ("analyze", {"set": {"kind": "sturmian", "alpha": "golden+", "window": [0, 9]}},
     "bad alpha 'golden+'"),
    ("returns", dict(ROTATION_RETURNS, system={"type": "rotation", "alpha": ["1/4", "sqrt7"]},
                     window=[0, 9]), "bad alpha ['1/4', 'sqrt7']"),
    # sizes no index holds: a window is refused by its key, a literal one by lo and hi,
    # before its first allocation could raise Python's own OverflowError text
    ("analyze", {"set": {"kind": "full", "window": [0, 10**30]}},
     f"bad window [0, {10**30}]: at most {sys.maxsize} integers"),
    ("analyze", {"set": {"kind": "literal", "lo": 0, "hi": 10**30, "members": []}},
     f"bad lo, hi [0, {10**30}]: at most {sys.maxsize} integers"),
    ("analyze", {"set": {"kind": "literal", "lo": -10**30, "hi": -1, "members": []}},
     f"bad lo, hi [{-10**30}, -1]: at most {sys.maxsize} integers"),
    # every other range of a config, a box by its cells, and N and windows by [-N, N]
    ("returns", dict(ROTATION_RETURNS, window=[0, 10**30]),
     f"bad window [0, {10**30}]: at most {sys.maxsize} integers"),
    ("returns", dict(ROTATION_RETURNS, box=[0, 10**30, 0, 3]),
     f"bad box [0, {10**30}, 0, 3]: at most {sys.maxsize} integers"),
    ("thma", {"set": MOD3, "family": ["n"], "box": [0, 10**30, 0, 3]},
     f"bad box [0, {10**30}, 0, 3]: at most {sys.maxsize} integers"),
    ("thmb", {"set": MOD3, "family": ["n"], "box": [0, 3, 0, 10**30]},
     f"bad box [0, 3, 0, {10**30}]: at most {sys.maxsize} integers"),
    ("thma", {"set": MOD3, "family": ["n"], "box": [0, 10**10, 0, 10**9]},
     f"bad box [0, {10**10}, 0, {10**9}]: at most {sys.maxsize} integers"),
    ("nilcheck", {"system": {"type": "rotation", "alpha": ["1/4"]}, "windows": [10, 10**30]},
     f"bad windows [10, {10**30}]: at most {sys.maxsize} integers"),
    ("nilcheck", {"system": {"type": "rotation", "alpha": ["1/4"]}, "windows": [sys.maxsize // 2 + 1]},
     f"bad windows [{sys.maxsize // 2 + 1}]: at most {sys.maxsize} integers"),
    ("induced", {"system": {"type": "rotation", "alpha": ["1/4"]}, "family": ["n^2"], "N": 10**30},
     f"bad N {10**30}: at most {sys.maxsize} integers"),
    ("returns", dict(ROTATION_RETURNS, window=[0, 3], system={
        "type": "subshift", "base": {"lo": 0, "hi": 10**30, "members": []}}),
     f"bad lo, hi [0, {10**30}]: at most {sys.maxsize} integers"),
], ids=["missing-file", "zero-denominator", "not-a-number", "bad-constant", "bad-constant-list",
        "full-window-of-1e30", "literal-hi-of-1e30", "literal-lo-of-minus-1e30",
        "returns-window-of-1e30", "returns-box-of-1e30", "thma-box-of-1e30", "thmb-box-of-1e30",
        "thma-box-of-1e19-cells", "nilcheck-windows-of-1e30", "nilcheck-windows-of-maxsize",
        "induced-N-of-1e30", "subshift-base-of-1e30"])
def test_unreadable_values_exit_2(tmp_path, capsys, command, cfg, message):
    """A value of the right JSON type that cannot be read is a config error
    naming the key; a missing set file and a zero denominator ended in a traceback."""
    code, report, _ = run(tmp_path, command, cfg)
    assert (code, report) == (2, None)
    err = capsys.readouterr().err
    assert f"{command}: config error: {message}" in err and "Traceback" not in err


DEEP = "[" * 200_000  # nested past the JSON decoder's recursion limit
TOO_DEEP = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"


@pytest.mark.parametrize("command, config_text, set_text, message", [
    ("analyze", DEEP, "", "analyze: config error: cannot read config {config}: " + TOO_DEEP),
    ("analyze", None, DEEP, "analyze: config error: cannot read set file {set}: " + TOO_DEEP),
    ("verify", DEEP, "", "verify: bad report: " + TOO_DEEP),
    ("analyze", None, json.dumps({"lo": 0, "hi": 10**30, "members": []}),
     f"analyze: config error: bad lo, hi [0, {10**30}]: at most {sys.maxsize} integers"),
    ("analyze", None, '{"lo": 0,', "analyze: config error: cannot read set file {set}: "
     "Expecting property name enclosed in double quotes: line 1 column 10 (char 9)"),
], ids=["deep-config", "deep-set-file", "deep-report", "set-file-of-1e30", "set-file-not-json"])
def test_unreadable_inputs_exit_2(tmp_path, capsys, command, config_text, set_text, message):
    """A config, a ``file`` set source or a report nested too deep to decode, a set file
    too wide to index, or one that is not JSON, exits 2 with one line naming the input,
    not a traceback (exit 1, which ``verify`` gives a FAILed certificate)."""
    paths = {"config": tmp_path / "config.json", "set": tmp_path / "set.json"}
    paths["set"].write_text(set_text)
    paths["config"].write_text(config_text or json.dumps(
        {"set": {"kind": "file", "path": str(paths["set"])}}))
    assert main([command, "--config", str(paths["config"])]) == 2
    assert capsys.readouterr()[:] == ("", message.format(**paths) + "\n")


@pytest.mark.parametrize("command, cfg", [
    ("analyze", {"set": {"kind": "full", "window": [0, 10**18]}}),
    ("thma", {"set": MOD3, "family": ["n"], "box": [0, 10**18, 0, 3]}),
], ids=["full-window-of-1e18", "thma-box-of-1e18"])
def test_sets_too_large_to_hold_exit_3(tmp_path, capsys, command, cfg):
    """A set whose mask of 10^17 bits or more fails at its first allocation is
    infeasible: exit 3, no report, and one line naming the cause, which a
    MemoryError's own text does not."""
    code, report, _ = run(tmp_path, command, cfg)
    assert (code, report) == (3, None)
    err = capsys.readouterr().err
    assert err == f"{command}: a set too large to hold in memory\n"


QUARTER = {"type": "rotation", "alpha": ["1/4"]}


@pytest.mark.parametrize("command, cfg", [
    ("analyze", {"set": {"kind": "congruence", "modulus": 3, "residues": [0], "window": [0, 10**18]}}),
    ("analyze", {"set": {"kind": "sturmian", "alpha": "golden", "window": [0, 10**18]}}),
    ("returns", {"system": QUARTER, "family": ["n^2"], "epsilon": "1/5", "window": [0, 10**12]}),
    ("induced", {"system": QUARTER, "family": ["n^2"], "N": 10**12}),
    ("nilcheck", {"system": QUARTER, "windows": [10**12]}),
], ids=["congruence", "sturmian", "returns-folded", "induced-folded", "nilcheck-folded"])
def test_huge_generated_window_fails_at_once(tmp_path, command, cfg):
    """A kernel that grows a mask (``tile_mask`` doubling one period, ``arc_mask``
    searching its blocks) reserves the whole mask first: on a window no memory
    holds it fails there, exit 3, instead of growing its mask until memory runs
    out (a congruence set reached 1 GB under a 1 GB cap, a Sturmian one spun on,
    and the folded return times of the rotation by 1/4 reached 837 MiB).  Run as
    a process capped at 1 GiB of address space and 60 CPU seconds."""
    cfg_path = tmp_path / "huge.json"
    cfg_path.write_text(json.dumps(cfg))
    src = str(Path(psynd.cli.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        resource.setrlimit(resource.RLIMIT_CPU, (60, 60))

    with open(tmp_path / "out", "w+") as out, open(tmp_path / "err", "w+") as err:
        proc = subprocess.Popen([sys.executable, "-m", "psynd.cli", command, "--config", str(cfg_path)],
                                env=env, preexec_fn=cap, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)  # this child's own peak RSS
        proc.returncode = os.waitstatus_to_exitcode(status)
    assert (proc.returncode, (tmp_path / "out").read_text(), (tmp_path / "err").read_text()) == (
        3, "", f"{command}: a set too large to hold in memory\n")
    assert usage.ru_maxrss < 256 * 1024  # KiB: the interpreter and psynd, no mask


SQRT2_RETURNS = dict(ROTATION_RETURNS, system={"type": "rotation", "alpha": ["sqrt2"]},
                     window=[0, 9])


@pytest.mark.parametrize("command, cfg, key", [
    ("analyze", {"set": {"kind": "sturmian", "alpha": "golden", "window": [0, 999]},
                 "certificates": {"pws": {"b_max": 0, "L": 900, "mandatroy": True}}},
     "certificates.pws.mandatroy"),
    ("analyze", {"set": MOD3, "seeds": 3}, "seeds"),
    ("analyze", {"set": dict(MOD3, bits=256)}, "set.bits"),
    ("analyze", {"set": MOD3, "certificates": {"pws2d": {}}}, "certificates.pws2d"),
    ("thma", {"set": MOD3, "family": ["n"], "box": [0, 5, 0, 5],
              "certificates": {"pws2d": {"w": 2, "h": 2, "min_area": 4}}},
     "certificates.pws2d.min_area"),
    ("thmb", {"set": MOD3, "family": ["n"], "target": dict(MOD3, alpha="golden")},
     "target.alpha"),
    ("thmb", {"set": MOD3, "family": ["n"], "target": MOD3, "box": [0, 5, 0, 5]}, "box"),
    ("returns", dict(ROTATION_RETURNS, window=[0, 9], box=[0, 5, 0, 5]), "window"),
    ("returns", dict(ROTATION_RETURNS, window=[0, 9], certificates={"pws2d": {}}),
     "certificates.pws2d"),
    ("returns", dict(ROTATION_RETURNS, window=[0, 9],
                     system={"type": "rotation", "alpha": ["1/4"], "beta": "1/3"}), "system.beta"),
    ("returns", dict(SQRT2_RETURNS, x={"coords": ["1/3"], "bits": 256}), "x.bits"),
    ("returns", dict(SQRT2_RETURNS, center={"coords_fixed": ["0x5"], "bits": 256,
                                            "coords": ["1/3"]}), "center.coords"),
    ("induced", {"system": {"type": "rotation", "alpha": ["1/4"]}, "family": ["n^2"],
                 "radius": 1, "N": 9, "window": [0, 9]}, "window"),
    ("nilcheck", {"window": [100]}, "window"),
    ("nilcheck", {"system": dict(HEIS_NAMED, gamma="1/2"), "windows": [10]}, "system.gamma"),
])
def test_unused_keys_exit_2(tmp_path, capsys, command, cfg, key):
    """A key that nothing reads, at any depth, is a config error naming its path:
    a misspelling no longer passes for an absent key."""
    code, report, _ = run(tmp_path, command, cfg)
    assert (code, report) == (2, None)
    assert f"{command}: config error: unused key {key}: nothing reads it" in capsys.readouterr().err


def test_unused_keys_in_a_report_do_not_fail_verify(tmp_path, capsys):
    the_set = WindowSet.from_members(0, 9, [1, 2, 3])
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"set": dict(the_set.to_json_obj(), note=1), "extra": {},
                                "certificates": [dict(longest_run(the_set).to_json_obj())]}))
    assert main(["verify", "--config", str(path)]) == 0
    assert capsys.readouterr().out == "thick: ok\n"


TINY = WindowSet.from_members(0, 9, [1])


@pytest.mark.parametrize("the_set, cert, verdict", [
    (TINY, {"type": "thick", "run_start": 5, "run_length": -3}, "FAIL"),
    (TINY, {"type": "thick", "run_start": 5, "run_length": 0}, "ok"),
    (TINY, {"type": "pws", "shift_bound": 0, "interval": {"start": 4, "length": -7}}, "FAIL"),
    (TINY, {"type": "pws", "shift_bound": 0, "interval": {"start": 4, "length": 0}}, "FAIL"),
    (STRIPES, {"type": "pws2d", "shift_box": [0, 0], "rect": [0, 0, -3, 2]}, "FAIL"),
    (STRIPES, {"type": "pws2d", "shift_box": [0, 0], "rect": [0, 0, 1, 0]}, "FAIL"),
], ids=["thick-negative", "thick-empty", "pws-negative", "pws-empty", "pws2d-negative-w",
        "pws2d-empty-h"])
def test_verify_refuses_empty_and_negative_lengths(tmp_path, capsys, the_set, cert, verdict):
    # a pws interval or rectangle claims at least one point; a thick run of 0 claims nothing
    assert verify_report(tmp_path, the_set, cert) == (verdict == "FAIL")
    assert capsys.readouterr().out == f"{cert['type']}: {verdict}\n"


NO_SPACE = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_unwritable_out_exit_2(tmp_path, capsys, where):
    """An --out that cannot be written is exit 2 with one line naming it, not
    the FileNotFoundError or IsADirectoryError traceback (exit 1) it was."""
    out, reason = {"missing-directory": (tmp_path / "missing" / "r.json", "No such file or directory"),
                   "a-directory": (tmp_path, "Is a directory")}[where]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(ANALYZE_CFG), encoding="utf-8")
    assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr()[:] == ("", f"analyze: cannot write {out}: {reason}\n")


@pytest.mark.parametrize("command", ["analyze", "verify"])
@pytest.mark.parametrize("failing", ["write", "flush"])
def test_unwritable_stdout_exit_2(tmp_path, capsys, monkeypatch, command, failing):
    """A report or a verdict line that stdout refuses, when written or when
    flushed, is exit 2: for verify, 1 means a FAILed certificate."""
    _, _, report_path = run(tmp_path, "analyze", ANALYZE_CFG)
    argv = {"analyze": ["analyze", "--config", str(tmp_path / "config.json")],
            "verify": ["verify", "--config", str(report_path)]}[command]

    def refuse(*args):
        raise NO_SPACE

    monkeypatch.setattr(sys, "stdout", type("FullStdout", (io.StringIO,), {failing: refuse})())
    assert main(argv) == 2
    assert capsys.readouterr().err == f"{command}: cannot write stdout: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_full_stdout_of_a_process_exit_2(tmp_path, command):
    """With a buffered stdout on a full device the interpreter flushes again at
    exit: that flush must find nothing to fail on, or the exit code is 120 and
    stderr says ``Exception ignored``.  The report is small enough to stay in
    the buffer until then."""
    _, _, report_path = run(tmp_path, "analyze", {"set": {"kind": "full", "window": [0, 99]},
                                                  "certificates": {"syndetic": {"N": 3}}})
    config = {"analyze": tmp_path / "config.json", "verify": report_path}[command]
    src = str(Path(psynd.cli.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "psynd.cli", command, "--config", str(config)],
                              env=env, stdout=full, stderr=subprocess.PIPE, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (
        2, f"{command}: cannot write stdout: No space left on device\n")
