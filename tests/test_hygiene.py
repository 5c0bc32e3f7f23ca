"""Source hygiene: every name a `walklab` module imports is used there."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "walklab"


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
