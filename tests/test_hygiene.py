"""Source hygiene: every name a `walklab` module imports is used there,
no module reaches into another package's private modules unless listed,
and every function, method and class it defines is referenced."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "walklab"
# where a reference to a `walklab` definition may live
REFERRERS = (ROOT / "src", ROOT / "tests", ROOT / "perfbench")


def unused_imports(path: Path) -> list:
    """`module:name` for each imported name that the module never reads.

    A name counts as read when it appears as a variable or as the root of
    an attribute chain anywhere in the module, or when `__all__` lists it.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names
                         if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {e.value for e in node.value.elts
                     if isinstance(e, ast.Constant)}
    return [f"{path.stem}:{name}" for name in imported if name not in used]


def test_no_unused_imports():
    unused = [hit for path in sorted(SRC.glob("*.py"))
              for hit in unused_imports(path)]
    assert unused == [], "unused imports: " + ", ".join(unused)


def test_scan_flags_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import os\nfrom math import log, sqrt\n"
                   "import numpy as np\n__all__ = ['sqrt']\n"
                   "x = np.zeros(1)\n")
    assert unused_imports(mod) == ["mod:os", "mod:log"]


# `module:name` of each allowed import of a private module: the float DP
# calls scipy's CSR matvec on a prefix of the rows, which no public
# sparse API offers without copying the arrays
PRIVATE_ALLOWED = {"chains:_sparsetools"}


def private_imports(path: Path) -> list:
    """`module:name` for each absolute import whose dotted path has a
    segment starting with an underscore (dunders such as ``__future__``
    aside).  Relative imports stay inside `walklab` and are not checked."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            prefix = ""
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            prefix = node.module + "."
        else:
            continue
        hits += [f"{path.stem}:{a.name}" for a in node.names
                 if any(seg.startswith("_") and not seg.endswith("__")
                        for seg in (prefix + a.name).split("."))]
    return hits


def test_no_private_module_imports():
    hits = [hit for path in sorted(SRC.glob("*.py"))
            for hit in private_imports(path)]
    bad = sorted(set(hits) - PRIVATE_ALLOWED)
    assert bad == [], "private module imports: " + ", ".join(bad)


def test_scan_flags_a_private_module_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from __future__ import annotations\n"
                   "import numpy.core._internal\n"
                   "from scipy.sparse import _sparsetools as st, csr_matrix\n"
                   "from scipy._lib import doccer\n"
                   "from .doob import _killed_walk\n")
    assert private_imports(mod) == [
        "mod:numpy.core._internal", "mod:_sparsetools", "mod:doccer"]


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def references(tree) -> Counter:
    """Names read in a tree: variables, attributes and the identifiers in
    string constants other than docstrings (the tracer names methods as
    strings such as "models.WalkModel.collapse")."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, *DEFS)) and node.body
                  and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)}
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            out.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return out


def unreferenced_defs(modules, referrers) -> list:
    """`module:name` for each function, method or class defined in
    ``modules`` that no file under ``referrers`` names outside its own
    definition.  Dunder methods are called implicitly and are skipped."""
    total = Counter()
    for path in referrers:
        for f in [path] if path.is_file() else sorted(path.rglob("*.py")):
            total += references(ast.parse(f.read_text(), filename=str(f)))
    dead = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, DEFS) and not node.name.startswith("__")
                    and total[node.name] <= references(node)[node.name]):
                dead.append(f"{path.stem}:{node.name}")
    return dead


def test_no_unreferenced_definitions():
    dead = unreferenced_defs(sorted(SRC.glob("*.py")), REFERRERS)
    assert dead == [], "unreferenced definitions: " + ", ".join(dead)


def test_scan_flags_an_unreferenced_definition(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        'def used():\n    """Calls unused() in its docstring."""\n'
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class Box:\n    def __init__(self):\n        self.x = 1\n"
        "    def shown(self):\n        return 1\n"
        "    def hidden(self):\n        return 2\n"
        "def unused():\n    pass\n"
        "used()\nBox().shown()\nTRACED = ('mod.Box.hidden',)\n")
    assert unreferenced_defs([mod], [mod]) == ["mod:recursive", "mod:unused"]
