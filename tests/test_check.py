"""psynd.check stands apart from detection: it imports no detection code; and
its certificates decode by their field kinds, read once per class."""

import ast
import sys
from collections import Counter
from pathlib import Path
from typing import get_type_hints

import pytest

import psynd.check
from psynd.check import CERT_TYPES, _Cert, cert_from_json_obj
from psynd.errors import ConfigError
from test_cli import TAMPERED, verify_report

# the only names psynd.check may take from the package: the exceptions and
# ``take``, and two bit helpers that know nothing of detection
ALLOWED = {"psynd.errors": None, "psynd.bitops": {"lowest_set_bit", "mask_of"}}


def imports(tree):
    """(module, names) for every import in ``tree``, relative ones resolved
    in the package; ``from . import x`` is an import of the module ``psynd.x``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "psynd" if node.level else ""
            if node.module is None:
                yield from ((f"{base}.{alias.name}", None) for alias in node.names)
            else:
                module = f"{base}.{node.module}" if base else node.module
                yield module, {alias.name for alias in node.names}


def forbidden_imports(source: str) -> list:
    bad = []
    for module, names in imports(ast.parse(source)):
        top = module.split(".")[0]
        if module == "__future__" or top in sys.stdlib_module_names and top != "psynd":
            continue
        if module in ALLOWED and (ALLOWED[module] is None or names and names <= ALLOWED[module]):
            continue
        bad.append((module, names))
    return bad


def test_check_imports_no_detection_code():
    source = Path(psynd.check.__file__).read_text(encoding="utf-8")
    assert forbidden_imports(source) == []


def test_the_import_rule_refuses_detection_modules():
    # the rule itself: each of these lines fails it
    for line in ("from .returnsets import combinatorial_set_2d", "from . import windows",
                 "import psynd.windows", "from .bitops import smear_down",
                 "from .bitops import iter_bits, has_run", "from .bitops import iter_bits",
                 "from psynd import bitops",
                 "from .systems import *"):
        assert forbidden_imports(line), line
    assert forbidden_imports("from .errors import take\nfrom .bitops import mask_of\n"
                             "from functools import reduce\nimport operator") == []


# -- decoding ------------------------------------------------------------

# certificate type -> field -> what the decoder asks for, as worded in its messages
FIELD_KINDS = {
    "syndetic": {"gap_bound": "an integer", "checked_interval": "a list of 2 integers"},
    "syndetic_refutation": {"gap": "an integer", "location": "an integer",
                            "length": "an integer"},
    "thick": {"run_start": "an integer", "run_length": "an integer"},
    "pws": {"shift_bound": "an integer", "interval": "an object"},
    "pws2d": {"shift_box": "a list of 2 integers", "rect": "a list of 4 integers"},
    "syndetic2d": {"l_bound": "an integer", "checked_box": "a list of 4 integers"},
    "syndetic2d_refutation": {"l_bound": "an integer", "point": "a list of 2 integers"},
}


@pytest.mark.parametrize("kind, field", [(k, f) for k, fs in FIELD_KINDS.items() for f in fs])
def test_decoding_names_a_missing_or_ill_typed_field(kind, field):
    assert set(FIELD_KINDS) == set(CERT_TYPES)  # a new certificate type needs a row here
    obj = TAMPERED[kind][1].to_json_obj()
    assert list(obj) == ["type", *FIELD_KINDS[kind]]
    for bad, message in (({k: v for k, v in obj.items() if k != field}, f"missing {field}: "),
                         ({**obj, field: "x"}, f"bad {field} 'x': ")):
        for _ in range(2):  # the field kinds read on the first decode serve the second
            with pytest.raises(ConfigError) as exc:
                cert_from_json_obj(bad)
            assert str(exc.value) == message + FIELD_KINDS[kind][field]


@pytest.mark.parametrize("interval, message", [
    ([0, 5], "bad interval [0, 5]: an object"),  # no writer has produced the list form
    ({"start": 0}, "missing length: an integer"),
    ({"start": "0", "length": 5}, "bad start '0': an integer"),
])
def test_pws_interval_is_read_as_the_object_reports_write(interval, message):
    obj = {**TAMPERED["pws"][1].to_json_obj(), "interval": interval}
    with pytest.raises(ConfigError) as exc:
        cert_from_json_obj(obj)
    assert str(exc.value) == message


def test_field_kinds_are_read_once_per_class(tmp_path, monkeypatch, capsys):
    calls = Counter()

    def spy(cls, *args, **kwargs):
        calls[cls.type] += 1
        return get_type_hints(cls, *args, **kwargs)

    monkeypatch.setattr(psynd.check, "get_type_hints", spy)
    _Cert._field_kinds.cache_clear()
    try:
        for planar in (False, True):
            cases = [(s, c.to_json_obj()) for s, c, _ in TAMPERED.values() if c.planar == planar]
            for _ in range(3):
                assert verify_report(tmp_path, cases[0][0], *(obj for _, obj in cases)) == 0
            assert capsys.readouterr().out.count(": ok\n") == 3 * len(cases)
    finally:
        _Cert._field_kinds.cache_clear()  # the spy's reads must not outlive the test
    assert calls == {kind: 1 for kind in CERT_TYPES}
