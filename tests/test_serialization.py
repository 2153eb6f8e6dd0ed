"""Wire formats: JSON objects, raw bitmaps, certificate and block dumps."""

import json
import random
import struct

import pytest

from psynd import (
    PolyFamily,
    PwsCert,
    PwsCert2D,
    Syndetic2DCert,
    SyndeticCert,
    SyndeticRefutation,
    ThickCert,
    TorusRotation,
    WindowSet,
    orbit_block,
    parse_real,
    split_block,
)
from psynd.check import CERT_TYPES, Syndetic2DRefutation, cert_from_json_obj


def test_window_json_roundtrip():
    s = WindowSet.from_members(-5, 9, [-5, 0, 3, 9])
    again = WindowSet.from_json_obj(json.loads(s.to_json()))
    assert again == s


def test_window_bitmap_header_layout():
    s = WindowSet.from_members(-2, 70, [-2, 0, 64, 70])
    raw = s.to_bitmap_bytes()
    assert raw[:4] == b"PSYN"
    version, lo, hi = struct.unpack_from("<Hqq", raw, 4)
    assert (version, lo, hi) == (1, -2, 70)
    # body: 73 bits -> two little-endian 64-bit words
    assert len(raw) == 4 + 18 + 16
    assert WindowSet.from_bitmap_bytes(raw) == s


def test_window_bitmap_random_roundtrip():
    rng = random.Random(55)
    for _ in range(30):
        lo = rng.randint(-1000, 1000)
        hi = lo + rng.randint(0, 700)
        s = WindowSet.from_predicate(lo, hi, lambda n: rng.random() < 0.4)
        assert WindowSet.from_bitmap_bytes(s.to_bitmap_bytes()) == s


def test_bitmap_rejects_garbage():
    with pytest.raises(ValueError):
        WindowSet.from_bitmap_bytes(b"NOPE" + b"\x00" * 40)


def test_window_bitmap_rejects_bad_lengths():
    raw = WindowSet.from_members(-2, 70, [-2, 0, 64, 70]).to_bitmap_bytes()
    empty = b"PSYN" + struct.pack("<Hqq", 1, 5, 4)
    for bad, message in [(raw[:21], "header"), (raw[:-1], "body"), (raw + bytes(8), "body"),
                         (empty, "body")]:
        with pytest.raises(ValueError, match=message):
            WindowSet.from_bitmap_bytes(bad)
    # a header declaring 2^40 bits over one word fails before any mask is built
    huge = b"PSYN" + struct.pack("<Hqq", 1, 0, 2**40 - 1) + bytes(8)
    with pytest.raises(ValueError, match="body"):
        WindowSet.from_bitmap_bytes(huge)


def test_certificate_json_roundtrip():
    certs = [
        SyndeticCert(3, (-7, 7)),
        SyndeticRefutation(4, 12, 3),
        ThickCert(5, 4),
        ThickCert(None, 0),
        PwsCert(2, (10, 6)),
        PwsCert2D((1, 2), (0, 0, 3, 4)),
        Syndetic2DCert(1, (-3, 3, 0, 5)),
        Syndetic2DRefutation(2, (4, -1)),
    ]
    assert {type(cert) for cert in certs} == set(CERT_TYPES.values())
    for _ in range(2):  # the second decode reads the field kinds the first one cached
        for cert in certs:
            again = cert_from_json_obj(json.loads(json.dumps(cert.to_json_obj())))
            assert again == cert


def test_block_json_has_provenance():
    sys_spec = TorusRotation((parse_real("1/6"),))
    fam = PolyFamily.parse(["n", "n^2"])
    block = split_block(sys_spec, sys_spec.base_point(), fam, 2)
    obj = block.to_json_obj()
    assert obj["kind"] == "split"
    assert obj["family"] == ["n", "n^2"]
    assert obj["applied_shift"] == 0 and obj["applied_T"] == 0
    assert len(obj["tail"]) == 5 and len(obj["head"]) == 1
    # entries re-derivable from provenance: head = x, tail row j = T^{j^2} x
    x = sys_spec.point_from_json(obj["x"])
    for idx, row in enumerate(obj["tail"]):
        j = idx - obj["radius"]
        want = sys_spec.iterate(x, j * j)
        assert sys_spec.point_from_json(row[0]) == want

    ob = orbit_block(sys_spec, sys_spec.base_point(), fam, 1).to_json_obj()
    assert ob["kind"] == "orbit" and len(ob["entries"]) == 3
