"""Built-in graph families: explicit balls and orbit-collapsed chains.

Each family carries a level structure: an integer label per vertex such
that the stabilizer-orbit ratio between neighbors is base**(level
difference).  Conventions:

* Trees with a distinguished end: moving toward the end raises the level
  by 1 and multiplies the stabilizer measure by b, so a vertex has one
  neighbor at ratio b and b neighbors at ratio 1/b.
* Grandparent graphs add the +/-2 edges on top of that.
* DL(q,r) with q != r: every edge multiplies the ratio by (q/r)**(+-1),
  so the level lattice has base max(q,r)/min(q,r) and increments +-1.

Vertices are encoded as coordinate words relative to the root o:
``(s, w)`` means "go up s steps toward the end, then down along w".  The
first letter of w is nonzero when s > 0 (letter 0 is reserved for the
child pointing back toward o), which makes the encoding canonical.  The
orbit of a vertex under the stabilizer of o is then exactly ``(s, len(w))``.

A family defines five methods: ``root_vertex``, ``neighbors`` and
``vertex_orbit`` on vertices, ``orbit_moves`` and ``orbit_level`` on
orbits.  `WalkModel` derives ``orbit_root``, ``vertex_level`` and
``level_profile`` from them, and builds balls and collapsed chains with
one breadth-first truncation, `_truncate`.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from math import log
from typing import Optional

from .chains import CollapsedChain


class ModelError(ValueError):
    pass


class BallCapExceeded(ModelError):
    def __init__(self, count: int, cap: int):
        super().__init__(f"ball enumeration exceeded cap: {count} > {cap} vertices")
        self.count = count
        self.cap = cap


DEFAULT_BALL_CAP = 2_000_000


@dataclass(frozen=True)
class ModelSpec:
    family: str
    b: Optional[int] = None
    q: Optional[int] = None
    r: Optional[int] = None
    alpha: Optional[int] = None
    beta: Optional[int] = None
    factors: tuple = ()

    FAMILIES = ("tree", "fixed_end_tree", "grandparent", "diestel_leader",
                "cartesian", "free_product")

    def validate(self) -> None:
        f = self.family
        if f not in self.FAMILIES:
            raise ModelError(f"unknown family {f!r}")
        if f in ("tree", "fixed_end_tree", "grandparent"):
            if self.b is None or self.b < 2:
                raise ModelError(f"{f} requires branching b >= 2, got {self.b}")
        elif f == "diestel_leader":
            if self.q is None or self.r is None or self.q < 2 or self.r < 2:
                raise ModelError(f"diestel_leader requires q, r >= 2, got {self.q}, {self.r}")
        elif f == "cartesian":
            if len(self.factors) != 2:
                raise ModelError("cartesian requires exactly two factor specs")
            for fac in self.factors:
                if fac.family == "cartesian" and any(
                        g.family == "cartesian" for g in fac.factors):
                    raise ModelError("cartesian nesting depth is limited to 2")
                fac.validate()
        elif f == "free_product":
            a, b2 = self.alpha, self.beta
            if a is None or b2 is None or a < 2 or b2 < 2 or max(a, b2) <= 2:
                raise ModelError(
                    f"free_product requires alpha, beta >= 2 with max > 2, got {a}, {b2}")


def parse_model_config(text: str) -> ModelSpec:
    """Parse a key=value model description (one pair per line or ';')."""
    pairs = {}
    for chunk in text.replace(";", "\n").splitlines():
        chunk = chunk.strip()
        if not chunk or chunk.startswith("#"):
            continue
        if "=" not in chunk:
            raise ModelError(f"bad config line {chunk!r}")
        k, v = chunk.split("=", 1)
        pairs[k.strip()] = v.strip()
    if "family" not in pairs:
        raise ModelError("config missing 'family'")
    fam = pairs["family"]

    def geti(key):
        if key not in pairs:
            return None
        try:
            return int(pairs[key])
        except ValueError as exc:
            raise ModelError(f"config value {key}={pairs[key]!r} "
                             "is not an integer") from exc

    if fam == "cartesian":
        f1 = parse_model_config(pairs["factor1"].replace(",", "\n"))
        f2 = parse_model_config(pairs["factor2"].replace(",", "\n"))
        spec = ModelSpec(family=fam, factors=(f1, f2))
    else:
        spec = ModelSpec(family=fam, b=geti("b"), q=geti("q"), r=geti("r"),
                         alpha=geti("alpha"), beta=geti("beta"))
    spec.validate()
    return spec


@dataclass
class LevelProfile:
    """Neighbor counts by stabilizer ratio: entries (q, t_q), q = base**j."""
    degree: int
    entries: list  # list of (Fraction ratio, int count)
    base: Optional[Fraction]  # ratio base; None for unimodular mode
    t0_lattice: int  # max level jump across an edge, in lattice units

    @property
    def t0(self) -> float:
        if self.base is None:
            return 0.0
        return self.t0_lattice * log(float(self.base))

    def lattice_entries(self) -> list:
        """Entries as (lattice step j, count) with ratio == base**j."""
        if self.base is None:
            return [(0, self.degree)]
        out = []
        for q, t in self.entries:
            j = _ratio_to_lattice(q, self.base)
            out.append((j, t))
        return out


def _ratio_to_lattice(q: Fraction, base: Fraction) -> int:
    j = 0
    x = Fraction(q)
    while x > 1:
        x /= base
        j += 1
    while x < 1:
        x *= base
        j -= 1
    if x != 1:
        raise ModelError(f"ratio {q} is not a power of base {base}")
    return j


@dataclass
class ExplicitGraph(CollapsedChain):
    """A finite ball around the root: the collapsed chain of the trivial
    partition, one state per vertex with unit counts.  A ball of radius r
    has horizon 2r + 1: a walk back at the root by then never went deeper
    than r."""
    index: dict = field(default_factory=dict, repr=False)  # vertex -> i
    vertices = property(lambda self: self.states)
    dist = property(lambda self: self.depth)  # graph distance from the root
    levels = property(lambda self: self.level)  # lattice levels, or None

    @property
    def adj(self) -> list:
        """adj[i] = sorted list of neighbor indices."""
        indptr, targets, _ = self.csr
        return [sorted(targets[a:b]) for a, b in zip(indptr, indptr[1:])]

    def degree_of(self, i: int) -> int:
        indptr = self.csr[0]
        return indptr[i + 1] - indptr[i]

    def to_csv(self) -> str:
        lines = ["vertex_id,neighbor_id,level"]
        for i, nbrs in enumerate(self.adj):
            lev = self.levels[i] if self.levels is not None else 0
            for j in nbrs:
                lines.append(f"{i},{j},{lev}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Family implementations
# ---------------------------------------------------------------------------

def _tree_up(v):
    """Parent (toward the end) in canonical (s, w) coordinates."""
    s, w = v
    if w:
        return (s, w[:-1])
    return (s + 1, ())


def _tree_down(v, b):
    """All b children of v in canonical (s, w) coordinates."""
    s, w = v
    if w:
        return [(s, w + (c,)) for c in range(b)]
    if s > 0:
        return [(s - 1, ())] + [(s, (c,)) for c in range(1, b)]
    return [(0, (c,)) for c in range(b)]


def _orbit_up(state):
    s, t = state
    if t > 0:
        return [((s, t - 1), 1)]
    return [((s + 1, 0), 1)]


def _orbit_down(state, b):
    s, t = state
    if t > 0:
        return [((s, t + 1), b)]
    if s > 0:
        return [((s - 1, 0), 1), ((s, 1), b - 1)]
    return [((0, 1), b)]


def _compose_moves(moves1, moves2_fn):
    out = {}
    for mid, c1 in moves1:
        for tgt, c2 in moves2_fn(mid):
            out[tgt] = out.get(tgt, 0) + c1 * c2
    return list(out.items())


def _truncate(root, moves, radius: int, cap: int):
    """Breadth-first truncation at ``radius`` of the graph ``moves``.

    ``moves(node)`` lists (target, count) pairs and is called once per
    node, in BFS order.  Nodes at depth < radius number their new
    targets; all nodes at depth radius are numbered before the first is
    read.  Row i holds node i's moves to numbered nodes, in ``moves``
    order.  Returns (nodes, index, depth, csr), csr the triple (indptr,
    targets, counts) of an array("q") and two array("i")s.
    """
    nodes = [root]
    index = {root: 0}
    depth = [0]
    indptr, targets, counts = array("q", [0]), array("i"), array("i")
    for i, node in enumerate(nodes):
        d = depth[i] + 1
        for tgt, c in moves(node):
            j = index.get(tgt)
            if j is None:
                if d > radius:
                    continue
                j = index[tgt] = len(nodes)
                nodes.append(tgt)
                depth.append(d)
                if len(nodes) > cap:
                    raise BallCapExceeded(len(nodes), cap)
            targets.append(j)
            counts.append(c)
        indptr.append(len(targets))
    return nodes, index, depth, (indptr, targets, counts)


class WalkModel:
    """Base class: a graph family instance with root, levels and collapse;
    the module docstring lists what a family defines."""

    spec: ModelSpec
    degree: int
    nonunimodular: bool
    bipartite: bool
    level_base: Optional[Fraction]  # ratio base; None if no level structure

    def name(self) -> str:
        raise NotImplementedError

    # vertex-space API (for explicit balls)
    def root_vertex(self):
        raise NotImplementedError

    def neighbors(self, v) -> list:
        raise NotImplementedError

    def vertex_orbit(self, v):
        """The stabilizer orbit of the root that contains vertex v."""
        raise NotImplementedError

    def vertex_level(self, v) -> Optional[int]:
        return self.orbit_level(self.vertex_orbit(v))

    # orbit-space API (for collapsed chains)
    has_collapse = True

    def orbit_root(self):
        return self.vertex_orbit(self.root_vertex())

    def orbit_moves(self, state) -> list:
        """List of (state, neighbor count) pairs; counts sum to the degree."""
        raise NotImplementedError

    def orbit_level(self, state) -> int:
        raise NotImplementedError

    def level_profile(self) -> LevelProfile:
        """The root's neighbor counts grouped by level step j, as entries
        (base**j, count) in descending ratio order."""
        if self.level_base is None:
            return LevelProfile(degree=self.degree,
                                entries=[(Fraction(1), self.degree)],
                                base=None, t0_lattice=0)
        root = self.orbit_root()
        steps = {}
        for tgt, c in self.orbit_moves(root):
            j = self.orbit_level(tgt) - self.orbit_level(root)
            steps[j] = steps.get(j, 0) + c
        return LevelProfile(
            degree=self.degree,
            entries=[(self.level_base ** j, steps[j])
                     for j in sorted(steps, reverse=True)],
            base=self.level_base, t0_lattice=max(map(abs, steps)))

    # ---- generic machinery ---------------------------------------

    def enumerate_ball(self, radius: int, cap: int = DEFAULT_BALL_CAP) -> ExplicitGraph:
        if radius < 0:
            raise ModelError("radius must be >= 0")
        vertices, index, dist, csr = _truncate(
            self.root_vertex(), lambda v: [(w, 1) for w in self.neighbors(v)],
            radius, cap)
        levels = t0 = None
        if self.level_base is not None:
            levels = [self.vertex_level(v) for v in vertices]
            t0 = self.level_profile().t0_lattice
        return ExplicitGraph(states=vertices, csr=csr, denom=self.degree,
                             level=levels, level_base=self.level_base,
                             horizon=2 * radius + 1, depth=dist,
                             t0=t0 or 1, index=index)

    def collapse(self, n_max: int, cap: int = DEFAULT_BALL_CAP) -> CollapsedChain:
        """Finite truncation of the stabilizer-quotient chain.

        States within chain distance n_max//2 of the root are kept; any
        walk that leaves this set cannot return to the root within n_max
        steps, so root-return probabilities are exact for all n <= n_max.
        """
        if not self.has_collapse:
            raise ModelError(f"{self.name()} has no collapsed chain")
        if n_max < 0:
            raise ModelError("n_max must be >= 0")
        states, _, depth, csr = _truncate(
            self.orbit_root(), self.orbit_moves, n_max // 2, cap)
        return CollapsedChain(
            states=states, csr=csr, denom=self.degree,
            level=[self.orbit_level(st) for st in states],
            level_base=self.level_base, horizon=n_max, depth=depth,
            t0=self.level_profile().t0_lattice or 1, root=0)


class RegularTreeModel(WalkModel):
    """(b+1)-regular tree under its full automorphism group (unimodular)."""

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.b = spec.b
        self.degree = spec.b + 1
        self.nonunimodular = False
        self.bipartite = True
        self.level_base = None

    def name(self):
        return f"tree(b={self.b})"

    # vertices: tuples of letters; root (); first letter 0..b, rest 0..b-1
    def root_vertex(self):
        return ()

    def neighbors(self, v):
        out = []
        if v:
            out.append(v[:-1])
            out.extend(v + (c,) for c in range(self.b))
        else:
            out.extend((c,) for c in range(self.b + 1))
        return out

    # orbits of the root stabilizer are spheres: state = distance
    def vertex_orbit(self, v):
        return len(v)

    def orbit_moves(self, state):
        if state == 0:
            return [(1, self.b + 1)]
        return [(state - 1, 1), (state + 1, self.b)]

    def orbit_level(self, state):
        return 0


class FixedEndTreeModel(WalkModel):
    """(b+1)-regular tree under the stabilizer of one end (nonunimodular)."""

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.b = spec.b
        self.degree = spec.b + 1
        self.nonunimodular = True
        self.bipartite = True
        self.level_base = Fraction(spec.b)

    def name(self):
        return f"fixed_end_tree(b={self.b})"

    def root_vertex(self):
        return (0, ())

    def neighbors(self, v):
        return [_tree_up(v)] + _tree_down(v, self.b)

    def vertex_orbit(self, v):
        s, w = v
        return (s, len(w))

    def orbit_moves(self, state):
        return _orbit_up(state) + _orbit_down(state, self.b)

    def orbit_level(self, state):
        s, t = state
        return s - t


class GrandparentModel(FixedEndTreeModel):
    """Fixed-end tree with extra edges to each vertex's second ancestor;
    same coordinates, orbits and levels as the tree."""

    def __init__(self, spec: ModelSpec):
        super().__init__(spec)
        self.degree = spec.b * spec.b + spec.b + 2
        self.bipartite = False
        self._patterns = {}  # boundary class -> [(ds, dt, count)]

    def name(self):
        return f"grandparent(b={self.b})"

    def neighbors(self, v):
        b = self.b
        up = _tree_up(v)
        down = _tree_down(v, b)
        out = [up, _tree_up(up)]
        out.extend(down)
        for c in down:
            out.extend(_tree_down(c, b))
        return out

    def orbit_moves(self, state):
        """`_moves` as offsets, memoized by the boundary class of the
        state: the moves of (s, t) depend only on min(s, 2), min(t, 2)."""
        s, t = state
        key = (s if s < 2 else 2, t if t < 2 else 2)
        pattern = self._patterns.get(key)
        if pattern is None:
            pattern = self._patterns[key] = [
                (s2 - s, t2 - t, c) for (s2, t2), c in self._moves(state)]
        return [((s + ds, t + dt), c) for ds, dt, c in pattern]

    def _moves(self, state):
        b = self.b
        up1 = _orbit_up(state)
        up2 = _compose_moves(up1, _orbit_up)
        down1 = _orbit_down(state, b)
        down2 = _compose_moves(down1, lambda s: _orbit_down(s, b))
        merged = {}
        for tgt, c in itertools.chain(up1, up2, down1, down2):
            merged[tgt] = merged.get(tgt, 0) + c
        return list(merged.items())


class DiestelLeaderModel(WalkModel):
    """DL(q,r): horocyclic product of T_{q+1} and T_{r+1}.

    A vertex is a pair of fixed-end-tree vertices with opposite horocycle
    indices; an edge moves one coordinate up and the other down.  For
    q != r the stabilizer ratio across an edge is (q/r)**(+-1).
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.q = spec.q
        self.r = spec.r
        self.degree = spec.q + spec.r
        self.nonunimodular = spec.q != spec.r
        self.bipartite = True
        if self.nonunimodular:
            hi, lo = max(spec.q, spec.r), min(spec.q, spec.r)
            self.level_base = Fraction(hi, lo)
        else:
            self.level_base = None
        # level = +h1 when q > r, -h1 when q < r (h1 = first-tree horocycle)
        self._sign = 1 if spec.q > spec.r else -1
        self._patterns = {}  # boundary class -> [(ds1, dt1, ds2, dt2, count)]

    def name(self):
        return f"diestel_leader(q={self.q},r={self.r})"

    def root_vertex(self):
        return ((0, ()), (0, ()))

    def neighbors(self, v):
        v1, v2 = v
        out = []
        u1 = _tree_up(v1)
        for w2 in _tree_down(v2, self.r):
            out.append((u1, w2))
        u2 = _tree_up(v2)
        for w1 in _tree_down(v1, self.q):
            out.append((w1, u2))
        return out

    def vertex_orbit(self, v):
        (s1, w1), (s2, w2) = v
        return ((s1, len(w1)), (s2, len(w2)))

    def orbit_moves(self, state):
        """`_moves` as offsets, memoized by the boundary class of the
        state: which of s1, t1, s2, t2 are positive."""
        (s1, t1), (s2, t2) = state
        key = (s1 > 0, t1 > 0, s2 > 0, t2 > 0)
        pattern = self._patterns.get(key)
        if pattern is None:
            pattern = self._patterns[key] = [
                (a1 - s1, b1 - t1, a2 - s2, b2 - t2, c)
                for ((a1, b1), (a2, b2)), c in self._moves(state)]
        return [(((s1 + d1, t1 + e1), (s2 + d2, t2 + e2)), c)
                for d1, e1, d2, e2, c in pattern]

    def _moves(self, state):
        st1, st2 = state
        merged = {}
        for t1, c1 in _orbit_up(st1):
            for t2, c2 in _orbit_down(st2, self.r):
                key = (t1, t2)
                merged[key] = merged.get(key, 0) + c1 * c2
        for t2, c2 in _orbit_up(st2):
            for t1, c1 in _orbit_down(st1, self.q):
                key = (t1, t2)
                merged[key] = merged.get(key, 0) + c1 * c2
        return list(merged.items())

    def orbit_level(self, state):
        if self.level_base is None:
            return 0
        (s1, t1), _ = state
        return self._sign * (s1 - t1)


class CartesianProductModel(WalkModel):
    """Cartesian product; explicit balls only (series come from the
    binomial mixing combinator, see walklab.series.cartesian_series)."""

    has_collapse = False

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.f1 = build_model(spec.factors[0])
        self.f2 = build_model(spec.factors[1])
        self.degree = self.f1.degree + self.f2.degree
        self.nonunimodular = self.f1.nonunimodular or self.f2.nonunimodular
        self.bipartite = self.f1.bipartite and self.f2.bipartite
        b1, b2 = self.f1.level_base, self.f2.level_base
        if b1 is not None and b2 is not None and b1 != b2:
            self.level_base = None  # incompatible lattices: no level labels
        else:
            self.level_base = b1 if b1 is not None else b2

    def name(self):
        return f"cartesian({self.f1.name()},{self.f2.name()})"

    def root_vertex(self):
        return (self.f1.root_vertex(), self.f2.root_vertex())

    def neighbors(self, v):
        v1, v2 = v
        out = [(w1, v2) for w1 in self.f1.neighbors(v1)]
        out.extend((v1, w2) for w2 in self.f2.neighbors(v2))
        return out

    def vertex_level(self, v):
        if self.level_base is None:
            return None
        v1, v2 = v
        l1 = self.f1.vertex_level(v1) if self.f1.level_base is not None else 0
        l2 = self.f2.vertex_level(v2) if self.f2.level_base is not None else 0
        return l1 + l2

    def level_profile(self):
        b1, b2 = self.f1.level_base, self.f2.level_base
        if b1 is not None and b2 is not None and b1 != b2:
            raise ModelError("factors have incompatible level lattices")
        merged = {}
        for fac in (self.f1, self.f2):
            for ratio, t in fac.level_profile().entries:
                merged[ratio] = merged.get(ratio, 0) + t
        t0 = max((abs(_ratio_to_lattice(qr, self.level_base))
                  for qr in merged if qr != 1), default=0)
        return LevelProfile(degree=self.degree,
                            entries=sorted(merged.items(), reverse=True),
                            base=self.level_base if t0 else None,
                            t0_lattice=t0)


class FreeProductModel(WalkModel):
    """Free product of the complete graphs on alpha and beta vertices.

    Vertices are alternating reduced words; supported through ball
    enumeration and the quasi-transitive schema path only.
    """

    has_collapse = False

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.alpha = spec.alpha
        self.beta = spec.beta
        self.degree = spec.alpha + spec.beta - 2
        self.nonunimodular = True  # via a quasi-transitive subgroup
        self.bipartite = False if max(spec.alpha, spec.beta) > 2 else True
        self.level_base = None  # level structure not derived in v1

    def name(self):
        return f"free_product(alpha={self.alpha},beta={self.beta})"

    # word letters: ('a', i) with 1 <= i < alpha, or ('b', j) with 1 <= j < beta
    def root_vertex(self):
        return ()

    def neighbors(self, v):
        out = []
        last = v[-1] if v else None
        for fac, size in (("a", self.alpha), ("b", self.beta)):
            if last is not None and last[0] == fac:
                base = v[:-1]
                for i in range(1, size):
                    if i != last[1]:
                        out.append(base + ((fac, i),))
                out.append(base)
            else:
                for i in range(1, size):
                    out.append(v + ((fac, i),))
        return out

    def vertex_level(self, v):
        return None

    def level_profile(self):
        raise ModelError("free_product level profile requires an orbit schema")


_FAMILY_CLASSES = {
    "tree": RegularTreeModel,
    "fixed_end_tree": FixedEndTreeModel,
    "grandparent": GrandparentModel,
    "diestel_leader": DiestelLeaderModel,
    "cartesian": CartesianProductModel,
    "free_product": FreeProductModel,
}


def build_model(spec: ModelSpec) -> WalkModel:
    spec.validate()
    return _FAMILY_CLASSES[spec.family](spec)


# ---------------------------------------------------------------------------
# Oracle cross-checks
# ---------------------------------------------------------------------------

def ball_return_series(graph: ExplicitGraph, n_max: int, degree: int) -> list:
    """Exact u_n for n <= n_max from a ball with radius >= n_max//2.

    A walk that returns to the root by time n never goes deeper than
    n//2, and the ball holds every edge between its vertices, so the
    count of such walks on the ball is exact.  ``degree`` is the graph's
    degree, the ball's common denominator.
    """
    if graph.radius < n_max // 2:
        raise ModelError(
            f"ball radius {graph.radius} too small for n_max={n_max}")
    if degree != graph.denom:
        raise ModelError(f"degree {degree} is not the ball's {graph.denom}")
    return graph.return_series_exact(n_max)


@dataclass
class ValidationReport:
    model: str
    n_check: int
    ball_u: list
    chain_u: list
    ok: bool = field(init=False)
    mismatches: list = field(init=False)

    def __post_init__(self):
        self.mismatches = [n for n, (a, b) in
                           enumerate(zip(self.ball_u, self.chain_u)) if a != b]
        self.ok = not self.mismatches


def validate_collapse(model: WalkModel, n_check: int = 12,
                      cap: int = DEFAULT_BALL_CAP) -> ValidationReport:
    """Exact equality of u_n from the ball and from the collapsed chain,
    both truncated at radius n_check // 2."""
    graph = model.enumerate_ball(n_check // 2, cap=cap)
    ball_u = ball_return_series(graph, n_check, model.degree)
    chain = model.collapse(n_check, cap=cap)
    chain_u = chain.return_series_exact(n_check)
    return ValidationReport(model=model.name(), n_check=n_check,
                            ball_u=ball_u, chain_u=chain_u)
