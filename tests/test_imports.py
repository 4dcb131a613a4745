"""Every module-level import of the package modules is used.

No linter is a test dependency, so this is the unused-import check: a name
bound by a top-level ``import`` or ``from ... import`` must be read
somewhere else in its module.  ``__init__.py`` re-exports and is skipped.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nlslab"


def unused_imports(source):
    """Names bound by the module's top-level imports that it never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_no_unused_module_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_check_sees_an_unused_import():
    source = "import json\nfrom .util import fit_loglog_slope, other\n\nprint(other)\n"
    assert unused_imports(source) == [(1, "json"), (2, "fit_loglog_slope")]
