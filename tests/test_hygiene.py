"""Source hygiene: every name a `walklab` module imports is used there,
no module reaches into another package's private modules unless listed,
every function, method and class it defines is referenced, every span
the benchmark tracer wraps names a definition, a chain's ``edges``
and ``matrix()`` views are read only where listed, a series' Fraction
view ``values`` is read in no module, no function nests loops
three deep, every third-party package a module imports is a
declared dependency, no graph family but `WalkModel` defines
``neighbors``, no property only renames another attribute, and every
attribute a graph family sets is read outside the families' ``__init__``."""

import ast
import importlib
import inspect
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

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


TRACER = ROOT / "perfbench" / "tracing.py"


def tracer_spans(path: Path) -> list:
    """The span names the benchmark tracer wraps or reads: the spans of
    its time metrics, its ``METHODS`` table and its hooks.  The file is
    compiled and run in a fresh namespace, so no bytecode is written."""
    ns = {"__name__": "tracing"}
    exec(compile(path.read_text(), str(path), "exec"), ns)
    names = [name for spans in ns["TIME_METRICS"].values() for name in spans]
    names += [f"{layer}.{cls}.{meth}"
              for layer, classes in ns["METHODS"].items()
              for cls, meths in classes.items() for meth in meths]
    return list(dict.fromkeys(names + list(ns["_HOOKS"])))


def unresolved_spans(names) -> list:
    """Each span name, ``[mode]`` suffix stripped, that does not name a
    public function of ``walklab.layer`` (``layer.func``) or an entry of
    the class's own ``__dict__`` (``layer.Class.meth``)."""
    bad = []
    for name in names:
        layer, *path = name.split("[")[0].split(".")
        mod = importlib.import_module(f"walklab.{layer}")
        obj = vars(mod).get(path[0])
        if len(path) == 1:
            ok = (inspect.isfunction(obj) and not path[0].startswith("_")
                  and obj.__module__ == mod.__name__)
        else:
            ok = isinstance(obj, type) and path[1] in vars(obj)
        if not ok:
            bad.append(name)
    return bad


def test_tracer_spans_name_walklab_definitions():
    bad = unresolved_spans(tracer_spans(TRACER))
    assert bad == [], "tracer spans that name nothing: " + ", ".join(bad)


def test_span_scan_flags_a_missing_name():
    assert unresolved_spans([
        "models.ball_return_series", "series.first_return_probabilities[exact]",
        "chains.CollapsedChain.return_series_float", "models._truncate",
        "models.CollapsedChain", "chains.CollapsedChain.no_such_method",
        "models.ExplicitGraph.walk", "doob.np"]) == [
        "models._truncate", "models.CollapsedChain",
        "chains.CollapsedChain.no_such_method", "models.ExplicitGraph.walk",
        "doob.np"]


# `module:name` of each allowed read of a chain's views: none.  The float
# `matrix()` and the per-row `edges` lists are read by tests and the
# benchmark tracer, never in `src/`; every reader there, the Doob weights
# included, goes through ``chain.csr``
VIEWS_ALLOWED = set()


def view_reads(path: Path) -> list:
    """`module:edges` for each read of an attribute named ``edges`` and
    `module:matrix` for each call of a ``.matrix()`` method."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "edges"
                and isinstance(node.ctx, ast.Load)):
            hits.append(f"{path.stem}:edges")
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "matrix"):
            hits.append(f"{path.stem}:matrix")
    return hits


def test_chain_views_read_only_where_allowed():
    hits = [hit for path in sorted(SRC.glob("*.py"))
            for hit in view_reads(path)]
    bad = sorted(set(hits) - VIEWS_ALLOWED)
    assert bad == [], "chain views read outside the allow-list: " + \
        ", ".join(bad)


def test_scan_flags_a_chain_view_read(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def edges(chain):\n    chain.edges = []\n"
                   "    rows = chain.edges[0]\n    P = chain.matrix()\n"
                   "    M = chain.matrix\n    return rows, P, M, chain.csr\n")
    assert sorted(view_reads(mod)) == ["mod:edges", "mod:matrix"]


def values_reads(path: Path) -> list:
    """`module:values` for each read of an attribute named ``values``
    that is not called: a dict's ``.values()`` is not a series view."""
    tree = ast.parse(path.read_text(), filename=str(path))
    called = {id(node.func) for node in ast.walk(tree)
              if isinstance(node, ast.Call)}
    return [f"{path.stem}:values" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "values"
            and isinstance(node.ctx, ast.Load) and id(node) not in called]


def test_series_values_read_only_in_series():
    """No module, `series` included, reads the Fraction view: a series is
    read as its numerators or floats, so exact and float series take one
    code path, and the view is left to tests."""
    hits = [hit for path in sorted(SRC.glob("*.py"))
            for hit in values_reads(path)]
    assert hits == [], "series values read in the library: " + \
        ", ".join(hits)


def test_scan_flags_a_values_read(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def f(u, d):\n    u.values = []\n    a = u.values\n"
                   "    b = d.values()\n    c = [*d.values(), *u.values]\n"
                   "    return a, b, c, u.values[0], u.numerators\n")
    assert values_reads(mod) == ["mod:values"] * 3


COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def loop_depth(node) -> int:
    """Deepest nesting of loops in ``node``: each ``for`` and ``while``
    and each ``for`` clause of a comprehension is one level around what
    it runs per iteration.  The iterable of a ``for`` (the first one of a
    comprehension) and an ``else`` run once, outside it.  A nested
    function or lambda starts again at 0, being a function of its own."""
    if isinstance(node, (*FUNCTIONS, ast.Lambda)):
        return 0
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return max(loop_depth(node.iter), deepest(node.orelse),
                   1 + deepest(node.body))
    if isinstance(node, ast.While):
        return max(deepest(node.orelse), 1 + deepest([node.test, *node.body]))
    if isinstance(node, COMPREHENSIONS):
        gens = node.generators
        looped = [n for n in ast.iter_child_nodes(node)
                  if not isinstance(n, ast.comprehension)]
        looped += [g.iter for g in gens[1:]] + [c for g in gens for c in g.ifs]
        return max(loop_depth(gens[0].iter), len(gens) + deepest(looped))
    return deepest(ast.iter_child_nodes(node))


def deepest(nodes) -> int:
    return max(map(loop_depth, nodes), default=0)


def deep_loops(path: Path, limit: int = 3) -> list:
    """`module:name` for each function whose loops nest ``limit`` deep."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.stem}:{node.name}" for node in ast.walk(tree)
            if isinstance(node, FUNCTIONS)
            and max(map(loop_depth, node.body), default=0) >= limit]


def test_no_function_nests_loops_three_deep():
    hits = [hit for path in sorted(SRC.glob("*.py"))
            for hit in deep_loops(path)]
    assert hits == [], "loops nested three deep: " + ", ".join(hits)


def test_scan_flags_loops_nested_three_deep(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def fors(xs):\n    for x in xs:\n        for y in x:\n"
        "            for z in y:\n                pass\n"
        "def mixed(xs):\n    while xs:\n"
        "        xs = [y for x in xs for y in x]\n"
        "def two(xs):\n    for x in xs:\n        while x:\n"
        "            x = x[1:]\n        for y in [z for z in x]:\n"
        "            pass\n        else:\n            [z for z in x]\n"
        "    return [y for x in xs for y in x]\n"
        "def comp(xs):\n"
        "    return [[z for z in y] for x in xs for y in x]\n"
        "def outer(xs):\n    for x in xs:\n"
        "        def inner(y):\n            for a in y:\n"
        "                for b in a:\n                    pass\n"
        "        f = lambda y: [b for a in y for b in a]\n")
    assert deep_loops(mod) == ["mod:fors", "mod:mixed", "mod:comp"]


def declared_dependencies(pyproject: Path) -> set:
    """Import names of the packages in ``[project] dependencies``."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    deps = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_")
            for d in deps}


def undeclared_imports(path: Path, declared: set) -> list:
    """`module:package` for each absolute import of a package that is
    neither in the standard library, nor `walklab`, nor ``declared``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots += [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.append(node.module.split(".")[0])
    known = sys.stdlib_module_names | {"walklab"} | declared
    return [f"{path.stem}:{root}" for root in dict.fromkeys(roots)
            if root not in known]


def test_imports_are_declared_dependencies():
    declared = declared_dependencies(ROOT / "pyproject.toml")
    assert {"numpy", "scipy", "mpmath"} <= declared
    hits = [hit for path in sorted(SRC.glob("*.py"))
            for hit in undeclared_imports(path, declared)]
    assert hits == [], "undeclared third-party imports: " + ", ".join(hits)


def test_scan_flags_an_undeclared_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from __future__ import annotations\n"
                   "import os.path, sympy\nimport numpy as np\n"
                   "from scipy.sparse import csr_matrix\n"
                   "from sympy.ntheory import nextprime\n"
                   "from gmpy2 import mpz\nfrom .chains import walk\n"
                   "import walklab.models\n")
    declared = {"numpy", "scipy", "mpmath"}
    assert undeclared_imports(mod, declared) == ["mod:sympy", "mod:gmpy2"]


def neighbor_overrides(path: Path) -> list:
    """`module:Class` for each class other than ``WalkModel`` whose body
    defines or assigns ``neighbors``: a family's one adjacency is its
    ``neighbor_rows``, which `WalkModel.neighbors` decodes."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.stem}:{node.name}" for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name != "WalkModel"
            and "neighbors" in class_names(node)]


def class_names(node: ast.ClassDef) -> set:
    """The names a class body binds: its methods and assigned names."""
    names = set()
    for d in node.body:
        if isinstance(d, FUNCTIONS):
            names.add(d.name)
        elif isinstance(d, ast.Assign):
            names.update(t.id for t in d.targets if isinstance(t, ast.Name))
    return names


def test_only_walk_model_defines_neighbors():
    hits = neighbor_overrides(SRC / "models.py")
    assert hits == [], "families that define neighbors: " + ", ".join(hits)


def test_scan_flags_a_neighbors_definition(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "class WalkModel:\n    def neighbors(self, v):\n        return []\n"
        "class Tree(WalkModel):\n    def neighbors(self, v):\n"
        "        return [v]\n"
        "class Lambda(WalkModel):\n    neighbors = lambda self, v: []\n"
        "class Rows(WalkModel):\n    def neighbor_rows(self, rows):\n"
        "        def neighbors(v):\n            return v\n"
        "        return rows\n")
    assert neighbor_overrides(mod) == ["mod:Tree", "mod:Lambda"]


PROPERTIES = {"property", "cached_property"}


def is_property(node) -> bool:
    """``property`` or ``cached_property``, by name or as an attribute
    such as ``functools.cached_property``."""
    return (isinstance(node, ast.Name) and node.id in PROPERTIES) or (
        isinstance(node, ast.Attribute) and node.attr in PROPERTIES)


def is_self_attribute(expr, args: ast.arguments) -> bool:
    """``expr`` is ``self.name``, ``self`` the first positional argument."""
    return (bool(args.args) and isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == args.args[0].arg)


def alias_properties(path: Path) -> list:
    """`module:Class.name` for each property or cached_property of a class
    whose body only returns another attribute of ``self``: assigned as
    ``property(lambda self: self.other)``, or a decorated def whose body,
    docstring aside, is ``return self.other``.  A reader of such a name
    must still know the object it renames."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for d in cls.body:
            if (isinstance(d, ast.Assign) and isinstance(d.value, ast.Call)
                    and is_property(d.value.func) and d.value.args
                    and isinstance(d.value.args[0], ast.Lambda)):
                fn = d.value.args[0]
                if is_self_attribute(fn.body, fn.args):
                    hits += [f"{path.stem}:{cls.name}.{t.id}"
                             for t in d.targets if isinstance(t, ast.Name)]
            elif (isinstance(d, FUNCTIONS)
                  and any(map(is_property, d.decorator_list))):
                body = d.body[1:] if ast.get_docstring(d) else d.body
                if (len(body) == 1 and isinstance(body[0], ast.Return)
                        and is_self_attribute(body[0].value, d.args)):
                    hits.append(f"{path.stem}:{cls.name}.{d.name}")
    return hits


def test_no_alias_properties():
    hits = [hit for path in sorted(SRC.glob("*.py"))
            for hit in alias_properties(path)]
    assert hits == [], "properties that rename an attribute: " + \
        ", ".join(hits)


def test_scan_flags_an_alias_property(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import functools\nfrom functools import cached_property\n"
        "class Ball:\n"
        "    vertices = property(lambda self: self.states)\n"
        "    dist = cached_property(lambda s: s.depth)\n"
        "    half = property(lambda self: self.horizon // 2)\n"
        "    deep = property(lambda self: self.csr.indptr)\n"
        "    def plain(self):\n        return self.states\n"
        "    @property\n    def levels(self):\n"
        "        \"The levels.\"\n        return self.level\n"
        "    @functools.cached_property\n    def adj(self):\n"
        "        return self.rows\n"
        "    @property\n    def radius(self):\n"
        "        return self.horizon // 2\n"
        "    @property\n    def size(self):\n"
        "        n = self.count\n        return n\n")
    assert alias_properties(mod) == [
        "mod:Ball.vertices", "mod:Ball.dist", "mod:Ball.levels",
        "mod:Ball.adj"]


def self_attributes(tree) -> list:
    """The attribute names that the methods of the classes in ``tree`` set
    on ``self`` (their first argument), in order of first assignment."""
    names = []
    for cls in ast.walk(tree):
        for f in cls.body if isinstance(cls, ast.ClassDef) else ():
            if isinstance(f, FUNCTIONS) and f.args.args:
                names += [n.attr for n in ast.walk(f)
                          if isinstance(n, ast.Attribute)
                          and isinstance(n.ctx, ast.Store)
                          and is_self_attribute(n, f.args)]
    return list(dict.fromkeys(names))


def attribute_reads(tree, skip: tuple = ()) -> Counter:
    """Attribute names read in ``tree`` outside the functions it names
    in ``skip``."""
    skipped = {id(n) for f in ast.walk(tree)
               if isinstance(f, FUNCTIONS) and f.name in skip
               for n in ast.walk(f)}
    return Counter(n.attr for n in ast.walk(tree)
                   if isinstance(n, ast.Attribute)
                   and isinstance(n.ctx, ast.Load) and id(n) not in skipped)


def unread_attributes(module: Path, referrers) -> list:
    """`module:name` for each attribute that a class of ``module`` sets on
    ``self`` and no file under ``referrers`` reads, the ``__init__``
    methods of ``module`` aside: a flag that only constructors read is a
    second copy of what they derive it from."""
    reads = Counter()
    for path in referrers:
        for f in [path] if path.is_file() else sorted(path.rglob("*.py")):
            skip = ("__init__",) if f.resolve() == module.resolve() else ()
            reads += attribute_reads(ast.parse(f.read_text()), skip)
    return [f"{module.stem}:{name}" for name in
            self_attributes(ast.parse(module.read_text())) if not reads[name]]


def test_family_attributes_are_read():
    hits = unread_attributes(SRC / "models.py", REFERRERS)
    assert hits == [], "attributes only constructors read: " + \
        ", ".join(hits)


def test_scan_flags_an_unread_attribute(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "class Tree:\n    def __init__(self, spec):\n"
        "        self.degree = spec.b + 1\n        self.flag = True\n"
        "        self.kind, self.copy = 1, self.flag\n"
        "    def grow(me):\n        me.size = 0\n        return me.kind\n"
        "class Pair(Tree):\n    def __init__(self, spec):\n"
        "        self.twin = Tree(spec).flag\n"
        "def helper(self):\n    self.loose = 1\n")
    user = tmp_path / "user.py"
    user.write_text("def f(t):\n    t.size = t.degree\n    return t.copy\n")
    assert unread_attributes(mod, [mod, user]) == [
        "mod:flag", "mod:size", "mod:twin"]
