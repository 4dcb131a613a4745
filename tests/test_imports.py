"""Every module-level import of the package modules, tests, demos and tools
is used, and every module-level name is referenced.

No linter is a test dependency, so these are the unused-import and
dead-name checks: a name bound by a top-level ``import`` or
``from ... import`` must be read somewhere else in its module
(``__init__.py`` re-exports and is skipped); a private ``_name`` defined at
the top level of a package module must be read somewhere in the package;
a public name defined at the top level of a package module must be read by
a package module, a demo or a tool, where neither a re-export from
``__init__.py`` nor a test counts as a read (a name that only its tests
read is dead code); and each member of a package class (method, property,
dataclass field) must be read by a package module, a test, a demo or a tool
as an attribute, a keyword argument or a string constant.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nlslab"


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


# package modules by file name, tests, demos and tools by folder and file name
_IMPORTING = {
    **{p.name: p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"},
    **{f"{folder}/{p.name}": p for folder in ("tests", "demos", "tools")
       for p in (ROOT / folder).glob("*.py")},
}


@pytest.mark.parametrize("module", sorted(_IMPORTING))
def test_no_unused_module_imports(module):
    assert unused_imports(_IMPORTING[module].read_text()) == []


def test_check_sees_an_unused_import():
    source = "import json\nfrom .util import fit_loglog_slope, other\n\nprint(other)\n"
    assert unused_imports(source) == [(1, "json"), (2, "fit_loglog_slope")]


def _defined_names(node):
    """The names a top-level statement defines (imports excluded)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def unreferenced_names(sources, readers=(), private=False):
    """(module, line, name) of each public (or, with ``private``, private)
    name that some module of ``sources`` (module name -> source) defines at
    its top level and that no source of ``sources`` or ``readers`` reads, as
    a name or an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            defined += [(module, node.lineno, name) for name in _defined_names(node)
                        if name.startswith("_") == private and not name.startswith("__")]
    for source in [*sources.values(), *readers]:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return sorted(entry for entry in defined if entry[2] not in read)


def test_every_private_name_is_referenced():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unreferenced_names(sources, private=True) == []


def test_check_sees_an_unreferenced_private_name():
    sources = {
        "a.py": "_LIMIT = 3\n_OLD, _NEW = 1, 2\n\ndef _helper():\n    return _NEW\n",
        "b.py": "from .a import _helper\n\nclass _Dead:\n    pass\n\nprint(_helper())\n",
    }
    assert unreferenced_names(sources, private=True) == [
        ("a.py", 1, "_LIMIT"), ("a.py", 2, "_OLD"), ("b.py", 3, "_Dead"),
    ]


def public_readers(root):
    """The sources outside the package that count as readers of its public
    names: the demos and the tools, not the tests."""
    return [p.read_text() for folder in ("demos", "tools")
            for p in (root / folder).glob("*.py")]


def test_every_public_name_is_referenced():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")
               if p.name != "__init__.py"}
    assert unreferenced_names(sources, public_readers(ROOT)) == []


def test_check_sees_an_unreferenced_public_name(tmp_path):
    sources = {
        "a.py": "LIMIT = 3\nOLD, NEW = 1, 2\n\ndef helper():\n    return NEW\n",
        "b.py": "from .a import helper\n\nclass Dead:\n    pass\n\nclass Used:\n"
                "    pass\n\nclass Tool:\n    pass\n\nclass Tested:\n    pass\n\n"
                "print(helper())\n",
    }
    readers = {
        "demos/d.py": "from nlslab.b import Used\n\nprint(Used)\n",
        "tools/t.py": "from nlslab.b import Tool\n\nprint(Tool)\n",
        # a name that only a test reads is not referenced
        "tests/test_b.py": "from nlslab.b import Tested\n\nprint(Tested)\n",
    }
    for name, source in readers.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(source)
    assert unreferenced_names(sources, public_readers(tmp_path)) == [
        ("a.py", 1, "LIMIT"), ("a.py", 2, "OLD"), ("b.py", 3, "Dead"),
        ("b.py", 12, "Tested"),
    ]


def unreferenced_members(sources, readers=()):
    """(module, line, "Class.member") of each method, property, dataclass
    field or class attribute of a class that some module of ``sources``
    defines at its top level, when no source of ``sources`` or ``readers``
    reads the member's name: as an attribute, a keyword argument or a string
    constant (``getattr(obj, "name")``).  Dunder members are skipped."""
    defined, read = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if not isinstance(node, ast.ClassDef):
                continue
            defined += [(module, member.lineno, f"{node.name}.{name}")
                        for member in node.body for name in _defined_names(member)
                        if not (name.startswith("__") and name.endswith("__"))]
    for source in [*sources.values(), *readers]:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.keyword) and n.arg:
                read.add(n.arg)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                read.add(n.value)
    return sorted(entry for entry in defined
                  if entry[2].partition(".")[2] not in read)


def test_every_class_member_is_referenced():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    readers = [p.read_text() for folder in ("tests", "demos", "tools")
               for p in (ROOT / folder).glob("*.py")]
    assert unreferenced_members(sources, readers) == []


def test_check_sees_an_unreferenced_member():
    sources = {
        "a.py": "from dataclasses import dataclass\n\n@dataclass\nclass P:\n"
                "    sigma: float\n    dim: int = 1\n    mu: float = 1.0\n\n"
                "    def __post_init__(self):\n        pass\n\n"
                "    @property\n    def critical(self):\n        return self.dim\n\n"
                "    def scaled(self):\n        return 2 * self.mu\n",
        "b.py": "from .a import P\n\nclass Q:\n    LIMIT = 3\n\n"
                "    def unused(self):\n        pass\n\n"
                "p = P(sigma=2.0)\nprint(getattr(p, 'scaled')(), Q)\n",
    }
    assert unreferenced_members(sources) == [
        ("a.py", 13, "P.critical"), ("b.py", 4, "Q.LIMIT"), ("b.py", 6, "Q.unused"),
    ]


def grid_transform_bypasses(sources):
    """(module, line, name) of each use of numpy's n-dimensional FFTs
    (``fftn``, ``ifftn``, ``fft2``, ``ifft2``) in ``sources`` (module name ->
    source), and of each reference to the per-axis routine ``_along_grid``
    outside ``core.py``: every grid transform goes through the spectral
    plan's ``fft``/``ifft``."""
    found = []
    for module, source in sources.items():
        for n in ast.walk(ast.parse(source)):
            names = ([n.attr] if isinstance(n, ast.Attribute) else
                     [n.id] if isinstance(n, ast.Name) else
                     [a.name for a in n.names] if isinstance(n, ast.ImportFrom) else [])
            for name in names:
                if (name in ("fftn", "ifftn", "fft2", "ifft2")
                        or (name == "_along_grid" and module != "core.py")):
                    found.append((module, n.lineno, name))
    return sorted(found)


def test_one_grid_transform():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert grid_transform_bypasses(sources) == []


def test_check_sees_a_grid_transform_bypass():
    sources = {
        "core.py": "import numpy as np\n\nclass P:\n    def _along_grid(self):\n"
                   "        return np.fft.fft\n",
        "born.py": "import numpy as np\nfrom .core import _along_grid\n\n"
                   "spec = np.fft.fftn(x)\nback = np.fft.ifft2(spec)\n",
        "solvers.py": "from numpy.fft import ifftn\n\nprint(plan._along_grid)\n",
    }
    assert grid_transform_bypasses(sources) == [
        ("born.py", 2, "_along_grid"), ("born.py", 4, "fftn"), ("born.py", 5, "ifft2"),
        ("solvers.py", 1, "ifftn"), ("solvers.py", 3, "_along_grid"),
    ]
