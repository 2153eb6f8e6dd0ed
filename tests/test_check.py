"""psynd.check stands apart from detection: it imports no detection code."""

import ast
import sys
from pathlib import Path

import psynd.check

# the only names psynd.check may take from the package: the exceptions and
# ``take``, and three bit helpers that know nothing of detection
ALLOWED = {"psynd.errors": None, "psynd.bitops": {"iter_bits", "lowest_set_bit", "mask_of"}}


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
                 "from .bitops import iter_bits, has_run", "from psynd import bitops",
                 "from .systems import *"):
        assert forbidden_imports(line), line
    assert forbidden_imports("from .errors import take\nfrom .bitops import mask_of\n"
                             "from functools import reduce\nimport operator") == []

