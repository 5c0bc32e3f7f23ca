"""Built-in graph families: balls and orbit-collapsed chains.

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

A family defines ``root_vertex`` and ``vertex_orbit`` on vertices and
writes a vertex as a row of nonnegative integers, ``vertex_row``, whose
neighbors ``neighbor_rows`` gives as rows: the graph's one adjacency.
`WalkModel.neighbors` decodes those rows with ``vertex``, the inverse of
``vertex_row``.  A family with a collapse writes an orbit as a row
(``_coords``, ``_state``) and defines ``_vertex_moves(state)``, the
(orbit, word maps) of a vertex's neighbors in `neighbors` order;
``_words``, the (t column, base) of each word w, ``_vertex_words``, a
vertex's words, and ``_vertex(state, words)``, the vertex they and its
orbit give; ``_clip``, such that the moves of a row depend only on its
boundary class, the row clipped at ``_clip``; and ``_level`` on
coordinate columns.  `WalkModel` derives the rest from them (Woess 2000;
for DL Bartholdi, Neuhauser and Woess, JEMS 2008): the vertex rows and
their decoding, and the orbit moves, the vertex moves' offsets grouped
per boundary class.  `collapse` and `enumerate_ball` run one
breadth-first kernel, `_frontier_bfs`, one depth at a time: on the int64
mixed-radix keys of orbit rows, each moved by the key offsets of its
boundary class, and on vertex rows, from ``neighbor_rows``, on whole
arrays or, for collapse frontiers of at most `_SMALL` states (the
crossover on grandparent b=2 and DL(2,3)), state by state.  Both give a
`CollapsedChain`, ``bipartite`` read off its entries: a ball is the
chain of the trivial partition, its states vertices.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from math import log, prod
from typing import Optional

import numpy as np

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
        missing = [k for k in ("factor1", "factor2") if k not in pairs]
        if missing:
            raise ModelError(f"cartesian config missing {missing}")
        spec = ModelSpec(family=fam, factors=tuple(
            parse_model_config(pairs[k].replace(",", "\n"))
            for k in ("factor1", "factor2")))
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
        return 0.0 if self.base is None else \
            self.t0_lattice * log(float(self.base))

    def lattice_entries(self) -> list:
        """Entries as (lattice step j, count) with ratio == base**j."""
        if self.base is None:
            return [(0, self.degree)]
        return [(_ratio_to_lattice(q, self.base), t) for q, t in self.entries]


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


class OrbitStates(Sequence):
    """A chain's states: a read-only view of its coordinate rows that
    decodes a row to the family's state tuple, or a ball's vertex row to
    its vertex, only when read."""

    def __init__(self, rows: np.ndarray, decode):
        self.rows, self.decode = rows, decode

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i):
        row = self.rows[i].tolist()
        return list(map(self.decode, row)) if isinstance(i, slice) \
            else self.decode(row)

    def __iter__(self):
        return map(self.decode, self.rows.tolist())


# ---------------------------------------------------------------------------
# Family implementations
# ---------------------------------------------------------------------------

def _word_up(state, b):
    """(orbit, word map) of the parent (toward the end) of a tree vertex
    in orbit ``state``: the map (div, mul, add) takes a word code x to
    x // div * mul + add."""
    s, t = state
    return ((s, t - 1) if t else (s + 1, 0)), (b, 1, 0)


def _word_down(state, b):
    """The same for its b children: at t = 0 the code is 0, so every child
    reads x * b + c, the child toward o too."""
    s, t = state
    return [((s - 1, 0) if s and not t and not c else (s, t + 1), (1, b, c))
            for c in range(b)]


_TOP = np.iinfo(np.int64).max  # above every key: ends each sorted run


def _key_scale(radix, what: str) -> np.ndarray:
    """Place values of the mixed-radix int64 key of rows whose column k is
    below ``radix[k]``; ModelError if a key could reach `_TOP`."""
    if prod(map(int, radix)) >= 2 ** 63:
        raise ModelError(f"{what} overflows the int64 keys")
    return np.cumprod([1, *radix[:0:-1]], dtype=np.int64)[::-1]


_CHUNK = 1024  # states of the last frontier expanded at once
_SMALL = 12  # largest frontiers `_small_step` expands faster (the crossover)


def _frontier_bfs(root, expand, radius: int, cap: int, moves=None) -> tuple:
    """Breadth-first truncation at ``radius`` from the one-state array
    ``root`` of int64 keys (a collapse) or of rows (a ball), a frontier at
    a time (Beamer, Asanovic and Patterson, SC 2012).  An edge changes
    depth by at most 1, so a known target is in frontier d - 1 or d, whose
    numbers are kept in key order; new targets are numbered as they first
    appear, or dropped at depth radius + 1.  A depth takes `_small_step`
    if ``moves`` is given and those frontiers hold at most `_SMALL` states
    each, else `_array_step`.  Returns the states, their depths, the CSR
    (indptr, targets, counts) of an array("q") and two array("i")s, and
    whether no kept entry joins two states of one depth (bipartite)."""
    states, ns, bipartite = [root], 1, True
    runs = [(root, np.zeros(1, np.int32))]  # keys and numbers, in key order
    csr = array("q", [0]), array("i"), array("i")
    for d in range(radius + 1):
        step, by = (_small_step, moves) if moves is not None and max(
            map(len, states[-2:])) <= _SMALL else (_array_step, expand)
        ns, bipartite = step(by, states, runs, csr, ns, d == radius, bipartite)
        if ns > cap:
            raise BallCapExceeded(ns, cap)
        del runs[:-2]
    depth = np.repeat(np.arange(len(states), dtype=object),
                      list(map(len, states))).tolist()
    return np.concatenate(states), depth, csr, bipartite


def _array_step(expand, states, runs, csr, ns, last, flat) -> tuple:
    """One depth on whole arrays: ``expand(states)`` gives the moves of the
    frontier in (state, move) order as sources, targets and int32 counts;
    new targets are numbered by one stable sort of their keys.  A ball keys
    rows by radices from the column maxima of frontiers d - 1 and d and,
    below depth radius, the targets: such keys sort rows lexicographically.
    Returns the state count and ``flat``, cleared by a same-depth entry."""
    indptr, targets, counts = csr
    ball, front = states[0].ndim == 2, states[-1]
    lo, step = ns - len(front), _CHUNK if last else len(front)
    for a in range(0, len(front), step):
        chunk = front[a:a + step]
        src, tkeys, c = expand(chunk)
        if a == 0:  # frontiers d - 1 and d as one sorted run
            sk, sn = zip(*runs[-2:])
            sn = np.concatenate((*sn, [0]), dtype=np.int32)  # 0: _TOP's
            if ball:  # keys read off the rows: a code grows as base**t
                near = np.concatenate(states[-2:])
                top = near.max(0) if last else np.maximum(near.max(0),
                                                          tkeys.max(0))
                sc = _key_scale(top + 1, f"a ball at depth {len(states)}")
                sk = ((near @ sc)[sn[:-1] - (ns - len(near))],)
            sk = np.concatenate((*sk, [_TOP]))
            m = sk.argsort(kind="stable")
            sk, sn = sk[m], sn[m]
        if ball:
            tgt, tkeys = tkeys, tkeys @ sc
            tkeys[(tgt > top).any(1)] = -1  # past the maxima: dropped
        at = sk.searchsorted(tkeys)
        j, new = sn[at], sk[at] != tkeys
        flat = flat and not (~new & (j >= lo)).any()
        if last:
            src, j, c = src[~new], j[~new], c[~new]
        else:  # new targets, numbered in (state, move) order
            at = new.nonzero()[0]
            at = at[tkeys[at].argsort(kind="stable")]  # in key order
            s = tkeys[at]
            head = s != np.concatenate((s[:1] - 1, s[:-1]))
            rank = at[head].argsort()  # first targets of new keys
            n = np.empty(len(rank), np.int32)
            n[rank] = np.arange(ns, ns + len(rank))
            j[at] = n[head.cumsum() - 1]
            runs.append((s[head], n))
            states.append(tgt[at[head][rank]] if ball else s[head][rank])
            ns += len(rank)
        lens = np.bincount(src, minlength=len(chunk))
        indptr.frombytes((indptr[-1] + lens.cumsum()).tobytes())
        targets.frombytes(j.tobytes())
        counts.frombytes(c.tobytes())
        del src, tkeys, c, j, new  # before the next expansion
    return ns, flat


def _small_step(moves, states, runs, csr, ns, last, flat) -> tuple:
    """`_array_step` on a collapse's small frontier, state by state in
    Python: ``moves(key)`` gives a key's move offsets and counts as lists."""
    indptr, targets, counts = csr
    near, lo = np.concatenate(states[-2:]).tolist(), ns - len(states[-1])
    known, new = dict(zip(near, range(ns - len(near), ns))), []
    for key in states[-1].tolist():
        for t, c in zip(*moves(key)):
            j = known.get(key + t)
            if j is None and not last:
                j = known[key + t] = ns + len(new)
                new.append(key + t)
            if j is not None:
                flat = flat and not lo <= j < ns
                targets.append(j)
                counts.append(c)
        indptr.append(len(targets))
    if not last:  # the frontier, and the run a following step reads
        states.append(np.array(new, np.int64))
        m = states[-1].argsort()
        runs.append((states[-1][m], (m + ns).astype(np.int32)))
    return ns + len(new), flat


def _ints(a: np.ndarray) -> list:
    """``a``, a fresh array this overwrites, as a list of Python ints, one
    object per distinct value."""
    lo = a.min()
    a -= lo
    return np.arange(lo, lo + a.max() + 1).astype(object)[a].tolist()


class WalkModel:
    """Base class: a graph family instance with root, levels and collapse;
    the module docstring lists what a family defines."""

    spec: ModelSpec
    degree: int
    level_base: Optional[Fraction]  # ratio base; None if no level structure

    _params = ("b",)  # the spec fields a family's name shows

    def name(self) -> str:
        args = (f"{k}={getattr(self.spec, k)}" for k in self._params)
        return f"{self.spec.family}({','.join(args)})"

    # vertex-space API (for explicit balls)
    def root_vertex(self):
        raise NotImplementedError

    def neighbors(self, v) -> list:
        """v's neighbors: `neighbor_rows` on v's row, exact as Python ints,
        decoded by `vertex`.  A slow path for one vertex at a time (tens of
        microseconds a call); blocks of vertices go through `neighbor_rows`
        on their rows."""
        row = np.array([self.vertex_row(v)], dtype=object)
        return list(map(self.vertex, self.neighbor_rows(row)[0].tolist()))

    def vertex_orbit(self, v):
        """The stabilizer orbit of the root that contains vertex v."""
        raise NotImplementedError

    def vertex_level(self, v) -> Optional[int]:
        return self.orbit_level(self.vertex_orbit(v))

    # orbit-space API (for collapsed chains): see the module docstring
    has_collapse = True
    _clip: tuple = ()

    def _coords(self, state) -> tuple:
        return state if isinstance(state, tuple) else (state,)

    def _state(self, row: list):
        return tuple(row) if len(row) > 1 else row[0]

    def orbit_root(self):
        return self.vertex_orbit(self.root_vertex())

    def orbit_moves(self, state) -> list:
        """List of (state, neighbor count) pairs; counts sum to the degree."""
        row = np.array(self._coords(state))
        ptr, offs, cnts = self._table
        moves = slice(*ptr[self._boundary(row) + np.arange(2)])
        return [(self._state((row + off).tolist()), n)
                for off, n in zip(offs[moves], cnts[moves].tolist())]

    def orbit_level(self, state) -> int:
        return self._level(self._coords(state))

    def vertex_row(self, v) -> tuple:
        """v's orbit coordinates, then its words read in their bases."""
        return (*self._coords(self.vertex_orbit(v)), *(
            reduce(lambda x, c: x * base + c, w, 0)
            for w, (_, base) in zip(self._vertex_words(v), self._words)))

    def vertex(self, row):
        """The vertex of a `vertex_row`: its orbit, and each word's t
        letters read back from its code."""
        dim, words = len(self._clip), []
        for (col, base), x in zip(self._words, row[dim:]):
            letters = []
            for _ in range(row[col]):
                x, c = divmod(x, base)
                letters.append(c)
            words.append(tuple(letters[::-1]))
        return self._vertex(self._state(list(row[:dim])), words)

    def neighbor_rows(self, rows: np.ndarray) -> np.ndarray:
        """The (m, degree, columns) block of the neighbors of m vertex rows,
        in the order of `_vertex_moves`; exact on object rows."""
        offs, maps = self._vertex_table
        dim = len(self._clip)
        cls = self._boundary(rows[:, :dim].T).astype(np.int64)
        f, x = maps[cls], rows[:, None, dim:]
        return np.concatenate([rows[:, None, :dim] + offs[cls],
                               x // f[..., 0] * f[..., 1] + f[..., 2]], 2)

    def _boundary(self, c, clip=np.minimum):
        """Boundary class of coordinate columns ``c`` (ints or arrays): the
        mixed-radix number of the coordinates clipped at ``_clip``."""
        cls = 0
        for x, k in zip(c, self._clip):
            cls = cls * (k + 1) + clip(x, k)
        return cls

    @cached_property
    def _table(self) -> tuple:
        """Moves by boundary class as a CSR (ptr, offs, cnts): class c moves
        by the offsets ``offs[ptr[c]:ptr[c + 1]]``, the distinct offsets of
        `_vertex_table` in order of first appearance, ``cnts`` times each."""
        classes = [Counter(map(tuple, offs.tolist()))
                   for offs in self._vertex_table[0]]
        return (np.cumsum([0, *map(len, classes)]),
                np.array([o for c in classes for o in c], dtype=np.int64),
                np.array([n for c in classes for n in c.values()], np.int32))

    @cached_property
    def _vertex_table(self) -> tuple:
        """Orbit offsets ``offs[c, j]`` and word maps ``maps[c, j, i]`` of
        neighbor j in boundary class c, from `_vertex_moves`, which runs
        once per class, on the clipped row itself."""
        rows = list(np.ndindex(*np.add(self._clip, 1)))
        moves = [self._vertex_moves(self._state(list(row))) for row in rows]
        offs = [[np.subtract(self._coords(t), row) for t, _ in ms]
                for row, ms in zip(rows, moves)]
        maps = np.array([[f for _, f in ms] for ms in moves])
        return np.array(offs), maps.reshape(*maps.shape[:2], -1, 3)

    def level_profile(self) -> LevelProfile:
        """The root's neighbor counts grouped by level step j, as entries
        (base**j, count) in descending ratio order."""
        if self.level_base is None:
            return LevelProfile(degree=self.degree,
                                entries=[(Fraction(1), self.degree)],
                                base=None, t0_lattice=0)
        root = self.orbit_root()
        steps = Counter()
        for tgt, c in self.orbit_moves(root):
            steps[self.orbit_level(tgt) - self.orbit_level(root)] += c
        return LevelProfile(
            degree=self.degree,
            entries=[(self.level_base ** j, steps[j])
                     for j in sorted(steps, reverse=True)],
            base=self.level_base, t0_lattice=max(map(abs, steps)))

    # ---- generic machinery ---------------------------------------

    def enumerate_ball(self, radius: int, cap: int = DEFAULT_BALL_CAP) -> CollapsedChain:
        """The ball of ``radius``, the chain of the trivial partition with
        unit counts, by `_frontier_bfs` on vertex rows and `neighbor_rows`.
        Its horizon is 2 * radius + 1, as a closed walk that long never goes
        deeper, and its states are vertex rows that `vertex` decodes."""
        if radius < 0:
            raise ModelError("radius must be >= 0")

        def expand(rows):
            m, deg = len(rows), self.degree
            return (np.arange(m).repeat(deg), self.neighbor_rows(rows)
                    .reshape(m * deg, -1), np.ones(m * deg, dtype=np.int32))
        rows, depth, csr, bipartite = _frontier_bfs(np.array(
            [self.vertex_row(self.root_vertex())], dtype=np.int64), expand,
            radius, cap)
        levels = t0 = None
        if self.level_base is not None:
            levels = _ints(self._level(rows.T))
            t0 = self.level_profile().t0_lattice
        return CollapsedChain(states=OrbitStates(rows, self.vertex), csr=csr,
                              denom=self.degree, level=levels,
                              level_base=self.level_base,
                              horizon=2 * radius + 1, depth=depth, t0=t0 or 1,
                              bipartite=bipartite)

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
        radius, (ptr, offs, cnts) = n_max // 2, self._table
        # the root is all zeros, so a coordinate at depth <= radius + 1 is
        # at most reach * (radius + 1), a digit of the key radix
        dims = (int(np.abs(offs).max()) * (radius + 1) + 1,) * len(self._clip)
        scale = _key_scale(dims, f"{self.name()}: radius {radius}")
        okeys, size = offs @ scale, np.diff(ptr)  # a move adds its key

        def expand(keys):
            cls = self._boundary(np.unravel_index(keys, dims))
            k = size[cls]
            src = np.arange(len(keys)).repeat(k)
            # entry e of state i is move e - (i's first entry) of i's class
            at = np.arange(len(src)) - (k.cumsum() - k - ptr[cls])[src]
            return src, keys[src] + okeys[at], cnts[at]
        place, start, ol, cl = (a.tolist() for a in (scale, ptr, okeys, cnts))

        def moves(key):  # the moves of its class, on Python ints
            cls = self._boundary([key // p % dims[0] for p in place], min)
            return ol[start[cls]:start[cls + 1]], cl[start[cls]:start[cls + 1]]
        keys, depth, csr, bipartite = _frontier_bfs(
            np.array([self._coords(self.orbit_root())]) @ scale, expand,
            radius, cap, moves)
        rows = np.empty((len(keys), len(dims)), np.int64)
        rows[:, 0], keys = keys, None  # decoded in place, last digit first
        for k in range(len(dims) - 1, 0, -1):
            np.divmod(rows[:, 0], dims[k], out=(rows[:, 0], rows[:, k]))
        # lists of Python ints: exact arithmetic raises bases to levels
        return CollapsedChain(
            states=OrbitStates(rows, self._state), csr=csr, denom=self.degree,
            level=_ints(self._level(rows.T)), level_base=self.level_base,
            horizon=n_max, depth=depth, bipartite=bipartite,
            t0=self.level_profile().t0_lattice or 1, root=0)


class RegularTreeModel(WalkModel):
    """(b+1)-regular tree under its full automorphism group (unimodular)."""

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.b = spec.b
        self.degree = spec.b + 1
        self.level_base = None
        self._words = ((0, spec.b + 1),)

    # vertices: tuples of letters; root (); first letter 0..b, rest 0..b-1
    def root_vertex(self):
        return ()

    # orbits of the root stabilizer are spheres: state = distance
    def vertex_orbit(self, v):
        return len(v)

    _clip = (1,)

    _vertex_words = staticmethod(lambda v: (v,))  # read in base b + 1
    _vertex = staticmethod(lambda t, words: words[0])

    def _vertex_moves(self, t):
        b1 = self.b + 1
        return [(t - 1, (b1, 1, 0))] * (t > 0) + [
            (t + 1, (1, b1, c)) for c in range(self.b + (t == 0))]

    def _level(self, c):
        return 0 * c[0]


class FixedEndTreeModel(WalkModel):
    """(b+1)-regular tree under one end's stabilizer, Delta = b**level."""

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.b = spec.b
        self.degree = spec.b + 1
        self.level_base = Fraction(spec.b)
        self._words = ((1, spec.b),)

    def root_vertex(self):
        return (0, ())

    def vertex_orbit(self, v):
        s, w = v
        return (s, len(w))

    _clip = (1, 1)

    _vertex_words = staticmethod(lambda v: (v[1],))
    _vertex = staticmethod(lambda state, words: (state[0], words[0]))

    def _vertex_moves(self, state):
        return [_word_up(state, self.b), *_word_down(state, self.b)]

    def _level(self, c):
        return c[0] - c[1]


class GrandparentModel(FixedEndTreeModel):
    """Fixed-end tree with extra edges to each vertex's second ancestor;
    same coordinates, orbits and levels as the tree."""

    _clip = (2, 2)

    def __init__(self, spec: ModelSpec):
        super().__init__(spec)
        self.degree = spec.b * spec.b + spec.b + 2

    def _vertex_moves(self, state):
        b = self.b
        up, f = _word_up(state, b)
        down = _word_down(state, b)
        moves = [(up, f), (_word_up(up, b)[0], (b * b, 1, 0)), *down]
        return moves + [(t, (1, b * b, c * b + a)) for mid, (_, _, c) in down
                        for t, (_, _, a) in _word_down(mid, b)]


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
        self.level_base = Fraction(max(spec.q, spec.r), min(
            spec.q, spec.r)) if spec.q != spec.r else None
        # level = +h1 when q > r, -h1 when q < r, 0 when q = r (h1 =
        # first-tree horocycle)
        self._sign = (spec.q > spec.r) - (spec.q < spec.r)
        self._words = ((1, spec.q), (3, spec.r))

    _params = ("q", "r")

    def root_vertex(self):
        return ((0, ()), (0, ()))

    def vertex_orbit(self, v):
        (s1, w1), (s2, w2) = v
        return ((s1, len(w1)), (s2, len(w2)))

    # coordinates (s1, t1, s2, t2); the moves see which are positive
    _clip = (1, 1, 1, 1)

    def _coords(self, state):
        return (*state[0], *state[1])

    def _state(self, row):
        return (tuple(row[:2]), tuple(row[2:]))

    _vertex_words = staticmethod(lambda v: (v[0][1], v[1][1]))
    _vertex = staticmethod(lambda state, words: (
        (state[0][0], words[0]), (state[1][0], words[1])))

    def _vertex_moves(self, state):
        (u1, f1), (u2, f2) = _word_up(state[0], self.q), _word_up(state[1],
                                                                   self.r)
        return [((u1, t), (f1, f)) for t, f in _word_down(state[1], self.r)] \
            + [((t, u2), (f, f2)) for t, f in _word_down(state[0], self.q)]

    def _level(self, c):
        return self._sign * (c[0] - c[1])


class CartesianProductModel(WalkModel):
    """Cartesian product; explicit balls only (series come from the
    binomial mixing combinator, see walklab.series.cartesian_series)."""

    has_collapse = False

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.f1 = build_model(spec.factors[0])
        self.f2 = build_model(spec.factors[1])
        self.degree = self.f1.degree + self.f2.degree
        b1, b2 = self.f1.level_base, self.f2.level_base
        if b1 is not None and b2 is not None and b1 != b2:
            self.level_base = None  # incompatible lattices: no level labels
        else:
            self.level_base = b1 if b1 is not None else b2
        self._k = len(self.f1.vertex_row(self.f1.root_vertex()))

    def name(self):
        return f"cartesian({self.f1.name()},{self.f2.name()})"

    def root_vertex(self):
        return (self.f1.root_vertex(), self.f2.root_vertex())

    # a vertex row is the two factor rows side by side
    def vertex_row(self, v):
        return (*self.f1.vertex_row(v[0]), *self.f2.vertex_row(v[1]))

    def vertex(self, row):
        return (self.f1.vertex(row[:self._k]), self.f2.vertex(row[self._k:]))

    def neighbor_rows(self, rows):
        k, d1 = self._k, self.f1.degree
        out = np.repeat(rows[:, None], self.degree, 1)
        out[:, :d1, :k] = self.f1.neighbor_rows(rows[:, :k])
        out[:, d1:, k:] = self.f2.neighbor_rows(rows[:, k:])
        return out

    def _level(self, c):
        return sum(f._level(c[a:]) for f, a in ((self.f1, 0),
                                                (self.f2, self._k))
                   if f.level_base is not None)

    def vertex_level(self, v):
        return None if self.level_base is None else \
            self._level(self.vertex_row(v))

    def level_profile(self):
        b1, b2 = self.f1.level_base, self.f2.level_base
        if b1 is not None and b2 is not None and b1 != b2:
            raise ModelError("factors have incompatible level lattices")
        merged = Counter()
        for fac in (self.f1, self.f2):
            merged.update(dict(fac.level_profile().entries))
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
        self.level_base = None  # level structure not derived in v1

    _params = ("alpha", "beta")

    # word letters: ('a', i) with 1 <= i < alpha, or ('b', j) with 1 <= j < beta
    def root_vertex(self):
        return ()

    def vertex_level(self, v):
        return None

    def level_profile(self):
        raise ModelError("free_product level profile requires an orbit schema")

    # a vertex row is (length, factor of the last letter: 0 none, 1 a, 2 b,
    # the word read letter by letter in radix alpha - 1 or beta - 1)
    def vertex_row(self, v):
        size = {"a": self.alpha - 1, "b": self.beta - 1}
        return (len(v), "_ab".index(v[-1][0] if v else "_"),
                reduce(lambda x, c: x * size[c[0]] + c[1] - 1, v, 0))

    def vertex(self, row):
        """The letters back from the last, of alternating factors."""
        t, g, x = row
        letters = []
        for _ in range(t):
            x, c = divmod(x, (self.alpha if g == 1 else self.beta) - 1)
            letters.append(("_ab"[g], c + 1))
            g = 3 - g
        return tuple(letters[::-1])

    def neighbor_rows(self, rows):
        """Per factor g in turn: if the last letter is of g, the other
        letters of g in its place (skipping it, so not an affine map of the
        code) and then the drop; else each letter of g appended."""
        t, f, x = rows.T[:, :, None]
        blocks = []
        for g, n in ((1, self.alpha - 1), (2, self.beta - 1)):
            k, own = np.arange(n), f == g
            drop, c = own & (k == n - 1), x % n
            code = np.where(own, x - c + k + (k >= c), x * n + k)
            blocks.append(np.stack(np.broadcast_arrays(
                np.where(own, t - drop, t + 1),
                np.where(drop, (3 - g) * (t > 1), g),
                np.where(drop, x // n, code)), 2))
        return np.concatenate(blocks, 1)


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

def ball_return_series(graph: CollapsedChain, n_max: int, degree: int) -> list:
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
