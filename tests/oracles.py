"""Independent brute-force oracles used by the acceptance suite.

The level-walk statistics are recomputed here by exhaustive enumeration
over all increment sequences, with exact arithmetic reassembled from
atom-count histograms.  Nothing below shares code with the dynamic
programs under test.  `QuadRef` is a plain reference for the exact
quadratic-field arithmetic.  `window_visits` and `rebuild_distinct_means`
are the direct forms of the bridge visit count and of the step-by-step
vertex-path rebuild, and `trajectory_statistics` reads the Monte Carlo
window visits and maxima off a whole trajectory array.
`coo_float_matrix` and `bfs_rows` build a chain's float matrix and its
rows entry by entry, and `doob_rows` its h-walk rows; `full_half_walk`
is the float half walk with the whole matrix applied at every step.
`walk_count` counts walks on an adjacency list by pushing every
vertex's mass at every step.
`argsort_pull_rows` transposes a chain's CSR rows by a stable argsort of
the targets.  `loop_excursion_record_law` and `loop_cnw_condition_scan`
are the term-by-term loop forms of the excursion record law and the
convolution-domination scan.  `fraction_renewal` and `float_renewal`
invert the renewal equation on exact Fraction values and on floats,
and `smoothness_by_pairs` builds the smoothness report pair by pair on
the Fraction values.
`truncate_moves` is the state-by-state breadth-first truncation of a
collapsed chain, one dict lookup per move, and `truncate_vertices` that
of a graph, one `neighbors` call per vertex.  `tuple_neighbors` writes a
family's graph out on its tuple vertices, and `counted_moves` counts a
family's vertex moves by orbit: the references for the vertex rows and
the orbit moves the library derives.  `hitting_per_barrier` is the
hitting law of one barrier from its own killed level-walk run.
`FieldWalk`, built by `field_law_walk` and `field_orbit_walk`, is a
level walk with field-valued weights; `field_killed_walk` steps it on
`QuadExt` arrays, as the library did before it counted integer paths,
and `field_level_laws` reads ballot, maximum and return laws off it.
`object_root_walk` steps a chain's root walk on Python-int object
arrays, with no residues, `object_bridge_tables` the bridge F/G tables
as whole Python-int vectors, with no light cone either, and
`quadext_hwalk` the Doob h-walk on `QuadExt` object arrays.
`reversal_check` compares the laws of a level walk and of its time
reversal over every increment sequence.
`float_atoms`, `degree_of`, `adjacency` and `to_csv` read an increment
law's atoms as floats, a ball's vertex degree, its sorted neighbor lists
and its edge list as CSV.
"""

from array import array

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import sparse

from walklab.bridges import BridgeError, ExcursionLaw
from walklab.doob import LevelIncrementLaw
from walklab.models import BallCapExceeded
from walklab.qfield import sqrt_exact
from walklab.series import SmoothnessReport


def enumerate_statistics(law, n, r_ballot=(), r_max=(), r_tau=()):
    """Exact laws of ballot / max-and-return / hitting events by listing
    every atom sequence of length n.

    Returns a dict keyed by ("ballot", r), ("max", r) or ("tau", r, k),
    None where no sequence counts.  Sequences grow one letter at a time
    from each prefix of their first two letters, carrying the level, the
    running maximum, whether every level before the last is positive,
    the first step at or above each hitting barrier (0: not yet) and the
    atom-count code sum_v c_v (n+1)**v.  Surviving sequences are tallied
    by that code, and each tally is turned into an exact probability
    since the chance of a sequence depends only on how often each atom
    occurs.
    """
    steps = np.array([j for j, _ in law.atoms], dtype=np.int16)
    probs = [p for _, p in law.atoms]
    K, t0, span = len(probs), law.t0_lattice, n + 1
    digits = span ** np.arange(K, dtype=np.int32)
    barriers = sorted({r for r, _ in r_tau})
    hists = {key: np.zeros(span ** K, dtype=np.int64)
             for key in [("ballot", r) for r in r_ballot]
             + [("max", r) for r in r_max] + [("tau", *rk) for rk in r_tau]}

    def add(key, codes):
        hists[key] += np.bincount(codes, minlength=span ** K)

    for prefix in itertools.product(range(K), repeat=min(n, 2)):
        level = np.zeros(1, dtype=np.int16)
        top, code = level.copy(), np.zeros(1, dtype=np.int32)
        positive = np.ones(1, dtype=bool)
        first = {r: level.copy() for r in barriers}
        for k in range(1, n + 1):
            # each sequence so far becomes a row, one column per next letter
            letters = list(prefix[k - 1:k] or range(K))
            level = level[:, None] + steps[letters]
            top = np.maximum(top[:, None], level).ravel()
            code = (code[:, None] + digits[letters]).ravel()
            positive = (positive[:, None] & ((level > 0) | (k == n))).ravel()
            for r, f in first.items():
                first[r] = np.where((f[:, None] == 0) & (level >= r * t0),
                                    k, f[:, None]).ravel()
            level = level.ravel()
        for r in r_ballot:
            add(("ballot", r), code[positive & (level >= r * t0)
                                    & (level < (r + 1) * t0)])
        for r in r_max:
            add(("max", r), code[(level == 0) & (top >= r * t0)
                                 & (top < (r + 1) * t0)])
        for r, k in r_tau:
            add(("tau", r, k), code[first[r] == k])

    powers = [[p ** c for c in range(span)] for p in probs]
    out = {}
    for key, h in hists.items():
        acc = None
        for c in np.flatnonzero(h).tolist():
            term = int(h[c])
            for v in range(K):
                term = term * powers[v][c // span ** v % span]
            acc = term if acc is None else acc + term
        out[key] = acc
    return out


def enumerate_pm1(law, n, r_ballot=(), r_max=(), r_tau=()):
    """Same statistics for a two-atom law via direct itertools listing."""
    atoms = law.atoms
    t0 = law.t0_lattice
    out = {}
    for key in [("ballot", r) for r in r_ballot] + \
               [("max", r) for r in r_max] + \
               [("tau", r, k) for r, k in r_tau]:
        out[key] = None
    for seq in itertools.product(range(len(atoms)), repeat=n):
        path = []
        y = 0
        prob = None
        for v in seq:
            y += atoms[v][0]
            path.append(y)
            prob = atoms[v][1] if prob is None else prob * atoms[v][1]
        m_top = max(0, max(path))
        for r in r_ballot:
            if all(p > 0 for p in path[:-1]) and \
                    r * t0 <= path[-1] < (r + 1) * t0:
                key = ("ballot", r)
                out[key] = prob if out[key] is None else out[key] + prob
        for r in r_max:
            if path[-1] == 0 and r * t0 <= m_top < (r + 1) * t0:
                key = ("max", r)
                out[key] = prob if out[key] is None else out[key] + prob
        for r, k in r_tau:
            first = next((i + 1 for i, p in enumerate(path)
                          if p >= r * t0), 0)
            if first == k:
                key = ("tau", r, k)
                out[key] = prob if out[key] is None else out[key] + prob
    return out


class QuadRef:
    """a + b*sqrt(D) with a, b Fractions and D a fixed squarefree integer.

    The textbook representation, kept as a reference for the integer
    triples of `walklab.qfield`; it shares no code with that module.
    """

    def __init__(self, D, a, b=0):
        self.D, self.a, self.b = D, Fraction(a), Fraction(b)

    def _lift(self, other):
        if isinstance(other, QuadRef):
            assert other.D == self.D
            return other
        return QuadRef(self.D, other)

    def __add__(self, other):
        o = self._lift(other)
        return QuadRef(self.D, self.a + o.a, self.b + o.b)

    def __neg__(self):
        return QuadRef(self.D, -self.a, -self.b)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __mul__(self, other):
        o = self._lift(other)
        return QuadRef(self.D, self.a * o.a + self.D * self.b * o.b,
                       self.a * o.b + self.b * o.a)

    def inverse(self):
        norm = self.a * self.a - self.D * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError
        return QuadRef(self.D, self.a / norm, -self.b / norm)

    def __truediv__(self, other):
        return self * self._lift(other).inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** -k
        out = QuadRef(self.D, 1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        o = self._lift(other)
        return self.a == o.a and self.b == o.b

    __hash__ = None

    def sign(self):
        """Sign by squaring: a + b sqrt(D) > 0 iff a > -b sqrt(D)."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if (a > 0) == (b > 0):
            return 1 if a > 0 else -1
        bigger_a = a * a > self.D * b * b
        return (1 if a > 0 else -1) if bigger_a else (1 if b > 0 else -1)

    def __float__(self):
        """a + b sqrt(D); when the two terms have opposite signs, the
        conjugate form (a^2 - D b^2) / (a - b sqrt(D)), whose denominator
        adds two terms of one sign, in place of their cancelling sum."""
        a, b, root = self.a, self.b, math.sqrt(self.D)
        if a * b < 0:
            return float(a * a - self.D * b * b) / (float(a) - float(b) * root)
        return float(a) + float(b) * root


def enumerate_chain_statistics(chain, n, r_ballot=(), r_max=(), r_tau=()):
    """Ballot, max-and-return and hitting laws of a Markov-additive chain
    by listing every path of n states with nonzero weight.

    A path s_1..s_n has weight initial[s_1] * prod trans[s_t][s_{t+1}]
    and level Y_t = steps[s_1] + ... + steps[s_t].  Returns a dict keyed
    like `enumerate_statistics`; events no path reaches are absent.
    """
    t0 = chain.t0_lattice
    r_tau = set(r_tau)
    tau_levels = {r for r, _ in r_tau}
    succ = [[(s2, p) for s2, p in enumerate(row) if float(p) != 0]
            for row in chain.trans]
    out = {}

    def add(key, w):
        out[key] = w if key not in out else out[key] + w

    def paths(s, w, levels):
        if len(levels) == n:
            yield w, levels
            return
        for s2, p in succ[s]:
            yield from paths(s2, w * p,
                             levels + [levels[-1] + chain.steps[s2]])

    for s, p in enumerate(chain.initial):
        if float(p) == 0:
            continue
        for w, ys in paths(s, p, [chain.steps[s]]):
            top = max(0, max(ys))
            for r in r_ballot:
                if all(y > 0 for y in ys[:-1]) and \
                        r * t0 <= ys[-1] < (r + 1) * t0:
                    add(("ballot", r), w)
            for r in r_max:
                if ys[-1] == 0 and r * t0 <= top < (r + 1) * t0:
                    add(("max", r), w)
            for r in tau_levels:
                first = next((i + 1 for i, y in enumerate(ys)
                              if y >= r * t0), 0)
                if (r, first) in r_tau:
                    add(("tau", r, first), w)
    return out


def window_visits(chain, u, n, k):
    """Expected visits of a length-n bridge to level window k, summed
    over every cut j from freshly built tables F_j = d^j P[root -> s]
    and G_m = d^m P[s -> root]."""
    ns = len(chain.states)
    t0 = max((abs(chain.level[j] - chain.level[i])
              for i, row in enumerate(chain.edges) for j, _ in row),
             default=0) or 1
    F = [[0] * ns]
    F[0][chain.root] = 1
    G = [[0] * ns]
    G[0][chain.root] = 1
    for _ in range(n):
        f, g = [0] * ns, [0] * ns
        for i, row in enumerate(chain.edges):
            for j, c in row:
                f[j] += F[-1][i] * c
                g[i] += c * G[-1][j]
        F.append(f)
        G.append(g)
    total = 0
    for j in range(n + 1):
        for s in range(ns):
            if k * t0 <= chain.level[s] < (k + 1) * t0:
                total += F[j][s] * G[n - j][s]
    return Fraction(total, chain.denom ** n) / u[n]


def rebuild_distinct_means(model, chain, traj, k_grid, t0, m, rng):
    """Distinct vertices per level window of the first m orbit paths,
    each lifted to a vertex path one step at a time: filter the current
    vertex's neighbors by the next orbit, pick one with a scalar
    ``rng.integers``."""
    out = {k: [] for k in k_grid}
    for row in traj[:m]:
        v = model.root_vertex()
        path = [v]
        for t in range(1, len(row)):
            target = chain.states[row[t]]
            options = [w for w in tuple_neighbors(model, v)
                       if model.vertex_orbit(w) == target]
            v = options[rng.integers(len(options))]
            path.append(v)
        levels = [model.vertex_level(v) for v in path]
        for k in k_grid:
            lo, hi = k * t0, (k + 1) * t0
            out[k].append(len({v for v, lv in zip(path, levels)
                               if lo <= lv < hi}))
    result = {}
    for k in k_grid:
        arr = np.array(out[k], dtype=float)
        result[k] = (float(arr.mean()),
                     float(arr.std(ddof=1) / np.sqrt(len(arr))), m)
    return result


def trajectory_statistics(chain, traj, k_grid):
    """(visit_means, hit_upper, max_level_counts) of the bridges whose
    state paths are the rows of ``traj``, read off the whole samples x
    (n+1) array of their levels with one boolean mask per window."""
    samples = len(traj)
    level_arr = np.array(chain.level, dtype=np.int32)
    lv_traj = level_arr[traj]
    t0 = chain.t0
    max_levels = lv_traj.max(axis=1)
    visit_means = {}
    hit_upper = {}
    for k in k_grid:
        lo, hi = k * t0, (k + 1) * t0
        visits = ((lv_traj >= lo) & (lv_traj < hi)).sum(axis=1)
        visit_means[k] = (float(visits.mean()),
                          float(visits.std(ddof=1) / np.sqrt(samples)))
        hit_upper[k] = float((max_levels >= lo).mean())
    uniq, cnt = np.unique(max_levels, return_counts=True)
    max_level_counts = {int(a): int(b) for a, b in zip(uniq, cnt)}
    return visit_means, hit_upper, max_level_counts


def coo_float_matrix(rows, scale=1.0):
    """Sparse P[j, i] = scale * p for rows[i] = [(j, p)], assembled entry
    by entry in COO form."""
    r_idx, c_idx, vals = [], [], []
    for i, row in enumerate(rows):
        for j, p in row:
            r_idx.append(j)
            c_idx.append(i)
            vals.append(float(p) * scale)
    n = len(rows)
    return sparse.csr_matrix((vals, (r_idx, c_idx)), shape=(n, n))


def full_half_walk(chain, A, n_max, taboo=False):
    """x_0..x_{n_max} of the half walk with the whole symmetric matrix A
    applied at every step, v_k = A @ v_k-1 from v_0 = e_root, and no
    rescaling: x_2k-1 = <v_k-1, v_k> and x_2k = |v_k|**2, summed over the
    states within k steps of the root; with ``taboo`` the root entry of
    v_k is zeroed between the two sums and x_0 = 0."""
    v = np.zeros(len(chain.states))
    v[chain.root] = 1.0
    x, c = [0.0 if taboo else 1.0], 1
    for k in range(1, -(-n_max // 2) + 1):
        w, ck = A @ v, chain.cone(k)
        x.append(np.einsum("i,i->", v[:c], w[:c]))
        if taboo:
            w[chain.root] = 0.0
        x.append(np.einsum("i,i->", w[:ck], w[:ck]))
        v, c = w, ck
    return np.array(x[:n_max + 1])


def doob_rows(chain, rho):
    """The h-walk rows of a collapsed chain edge by edge: rows[i] lists
    (j, p_h(i -> j)) with p_h = (c / d) sqrt(base)**(level j - level i)
    / rho, for rho a `SpectralRadius` with its exact value."""
    sqrt_base = sqrt_exact(chain.level_base)
    inv_rho = rho.exact.inverse()
    rows = []
    for i, edge_row in enumerate(chain.edges):
        row = []
        for j, c in edge_row:
            ratio = sqrt_base ** (chain.level[j] - chain.level[i])
            row.append((j, Fraction(c, chain.denom) * ratio * inv_rho))
        rows.append(row)
    return rows


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


def _free_product_neighbors(model, v):
    out = []
    last = v[-1] if v else None
    for fac, size in (("a", model.alpha), ("b", model.beta)):
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


def tuple_neighbors(model, v):
    """The neighbors of vertex v written on the family's tuple vertices,
    one family at a time, in the order `WalkModel.neighbors` gives them."""
    family = model.spec.family
    if family == "tree":
        out = []
        if v:
            out.append(v[:-1])
            out.extend(v + (c,) for c in range(model.b))
        else:
            out.extend((c,) for c in range(model.b + 1))
        return out
    if family == "fixed_end_tree":
        return [_tree_up(v)] + _tree_down(v, model.b)
    if family == "grandparent":
        b = model.b
        up = _tree_up(v)
        down = _tree_down(v, b)
        out = [up, _tree_up(up)]
        out.extend(down)
        for c in down:
            out.extend(_tree_down(c, b))
        return out
    if family == "diestel_leader":
        v1, v2 = v
        out = []
        u1 = _tree_up(v1)
        for w2 in _tree_down(v2, model.r):
            out.append((u1, w2))
        u2 = _tree_up(v2)
        for w1 in _tree_down(v1, model.q):
            out.append((w1, u2))
        return out
    if family == "cartesian":
        v1, v2 = v
        out = [(w1, v2) for w1 in tuple_neighbors(model.f1, v1)]
        out.extend((v1, w2) for w2 in tuple_neighbors(model.f2, v2))
        return out
    return _free_product_neighbors(model, v)


def counted_moves(model, state):
    """(state, count) pairs: the vertex moves of orbit ``state`` counted
    by target, in order of first appearance."""
    return list(Counter(t for t, _ in model._vertex_moves(state)).items())


def truncate_moves(root, moves, radius, cap):
    """Breadth-first truncation at ``radius`` of the chain ``moves``:
    ``moves(state)`` lists (target, count) pairs and is read once per
    state in BFS order, new targets are numbered as met, and targets
    past ``radius`` are dropped.  Returns (states, depth, csr), csr the
    triple (indptr, targets, counts) of an array("q") and two
    array("i")s."""
    states, index, depth = [root], {root: 0}, [0]
    indptr, targets, counts = array("q", [0]), array("i"), array("i")
    for i, state in enumerate(states):
        for tgt, c in moves(state):
            if tgt not in index:
                if depth[i] == radius:
                    continue
                index[tgt] = len(states)
                states.append(tgt)
                depth.append(depth[i] + 1)
                if len(states) > cap:
                    raise ValueError(f"more than {cap} states")
            targets.append(index[tgt])
            counts.append(c)
        indptr.append(len(targets))
    return states, depth, (indptr, targets, counts)


def truncate_vertices(root, neighbors, radius, cap):
    """Breadth-first truncation at ``radius`` of the graph ``neighbors``,
    vertex by vertex: the ball a family's `enumerate_ball` must equal.

    ``neighbors(node)`` is called once per node, in BFS order.  Nodes at
    depth < radius number their new neighbors; all nodes at depth radius
    are numbered before the first is read.  Row i holds node i's edges to
    numbered nodes, in ``neighbors`` order.  Returns (nodes, index, depth,
    csr), csr the triple (indptr, targets, counts) of an array("q") and
    two array("i")s, the counts all 1.
    """
    nodes = [root]
    index = {root: 0}
    depth = [0]
    indptr, targets = array("q", [0]), array("i")
    for i, node in enumerate(nodes):
        d = depth[i] + 1
        for tgt in neighbors(node):
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
        indptr.append(len(targets))
    return nodes, index, depth, (indptr, targets,
                                 array("i", [1]) * len(targets))


def bfs_rows(model, n_max):
    """Rows of the collapsed chain for horizon n_max by a plain BFS: the
    states within n_max // 2 orbit moves of the root in discovery order,
    then each state's moves to those states as (index, count)."""
    radius = n_max // 2
    root = model.orbit_root()
    index, frontier = {root: 0}, [root]
    for _ in range(radius):
        nxt = []
        for s in frontier:
            for t, _ in model.orbit_moves(s):
                if t not in index:
                    index[t] = len(index)
                    nxt.append(t)
        frontier = nxt
    return [[(index[t], c) for t, c in model.orbit_moves(s) if t in index]
            for s in index]


def walk_count(adj, n, src, dst, avoid=None):
    """Number of length-n walks src -> dst on the adjacency lists ``adj``
    that never visit ``avoid``: every vertex pushes its count to each of
    its neighbors at every step."""
    if avoid is not None and avoid in (src, dst):
        return 0
    w = [0] * len(adj)
    w[src] = 1
    for _ in range(n):
        nw = [0] * len(adj)
        for i, wi in enumerate(w):
            if wi:
                for j in adj[i]:
                    nw[j] += wi
        if avoid is not None:
            nw[avoid] = 0
        w = nw
    return w[dst]


def argsort_pull_rows(chain, weights=None):
    """A chain's transposed rows ``(indptr, sources, weights)`` from a
    stable argsort of its CSR targets: row j lists the sources i of the
    entries i -> j in ascending order, ``weights`` (default the counts)
    permuted along."""
    indptr, targets, counts = map(np.asarray, chain.csr)
    ns = len(chain.states)
    perm = np.argsort(targets, kind="stable")
    sources = np.repeat(np.arange(ns, dtype=np.int32),
                        np.diff(indptr))[perm]
    t_indptr = np.zeros(ns + 1, dtype=np.int64)
    np.cumsum(np.bincount(targets, minlength=ns), out=t_indptr[1:])
    return t_indptr, sources, (counts if weights is None else weights)[perm]


def loop_excursion_record_law(u, f, n, a_cap=None, joint_cap=3):
    """`walklab.bridges.excursion_record_law` summed term by term over
    every time, skipping zero terms: the a-fold excursion laws, the
    second-half weights, the alpha-law and the joint law."""
    if u[n] == 0:
        raise BridgeError(f"u_{n} = 0: conditioning undefined")
    half = n // 2           # first-half return times s <= n/2
    l_top = n - 1 - half    # second-half sum l satisfies n - l > n/2
    exact = u.exact and f.exact
    if exact:
        fv = [f[i] for i in range(n + 1)]
        uv = [u[i] for i in range(n + 1)]
        zero, one = Fraction(0), Fraction(1)
    else:
        fv = [float(f[i]) for i in range(n + 1)]
        uv = [float(u[i]) for i in range(n + 1)]
        zero, one = 0.0, 1.0
    if a_cap is None:
        a_cap = half // 2 + 1
    # convs[a][s] = P[a first-return excursions totalling s steps]
    c0 = [zero] * (half + 1)
    c0[0] = one
    convs = [c0]
    while len(convs) <= a_cap:
        prev = convs[-1]
        nxt = [zero] * (half + 1)
        nonzero = False
        for s in range(half + 1):
            ps = prev[s]
            if not ps:
                continue
            for k in range(2, half - s + 1):
                if fv[k]:
                    nxt[s + k] = nxt[s + k] + ps * fv[k]
                    nonzero = True
        if not nonzero:
            break
        convs.append(nxt)
    # w[s] = sum over second-half records: sum_{l <= l_top} u_l f_{n-s-l}
    # (sum over beta of the beta-fold convolutions is the renewal u_l)
    w = [zero] * (half + 1)
    for s in range(half + 1):
        acc = zero
        for l in range(0, min(l_top, n - s - 1) + 1):
            if uv[l] and fv[n - s - l]:
                acc = acc + uv[l] * fv[n - s - l]
        w[s] = acc
    alpha_law = []
    total = zero
    for ca in convs:
        acc = zero
        for s in range(half + 1):
            if ca[s] and w[s]:
                acc = acc + ca[s] * w[s]
        alpha_law.append(acc / uv[n])
        total = total + acc
    joint = {}
    for a in range(min(joint_cap, len(convs) - 1) + 1):
        for b in range(min(joint_cap, len(convs) - 1) + 1):
            ca, cb = convs[a], convs[b]
            acc = zero
            for s in range(half + 1):
                if not ca[s]:
                    continue
                for l in range(0, min(l_top, n - s - 1) + 1):
                    if l <= half and cb[l] and fv[n - s - l]:
                        acc = acc + ca[s] * cb[l] * fv[n - s - l]
            if acc:
                joint[(a, b)] = acc / uv[n]
    return ExcursionLaw(n=n, alpha_law=alpha_law, joint=joint,
                        total_mass=total / uv[n],
                        f_over_u=joint.get((0, 0), zero))


def loop_cnw_condition_scan(a, epsilon_grid, n_max, n_cap=None):
    """`walklab.bridges.cnw_condition_scan` with the check of each n, per
    (N, eps), as a loop that stops at the first failing n."""
    a = np.asarray(a, dtype=float)[:n_max + 1]
    if n_cap is None:
        n_cap = n_max // 2
    full = np.convolve(a, a)[:n_max + 1]
    edge = np.zeros(n_max + 1)  # edge[n] = 2 sum_{i<N} a_i a_{n-i}
    results = {float(eps): None for eps in epsilon_grid}
    pending = sorted((float(e) for e in epsilon_grid), reverse=True)
    for N in range(0, n_cap + 1):
        if N > 0:
            i = N - 1
            ns = np.arange(i, n_max + 1)
            edge[ns] += 2 * a[i] * a[ns - i]
        ok_eps = []
        for eps in pending:
            good = True
            for n in range(max(2 * N, 2), n_max + 1):
                if a[n] <= 0:
                    continue
                inner = full[n] - edge[n]
                if inner > eps * a[n] + 1e-15:
                    good = False
                    break
            if good:
                results[eps] = N
                ok_eps.append(eps)
        pending = [e for e in pending if e not in ok_eps]
        if not pending:
            break
    return results


def fraction_renewal(u):
    """f_n = u_n - sum_{k=1}^{n-1} f_k u_{n-k} on the Fraction values of
    the exact series ``u``, term by term."""
    uv = u.values
    f = [Fraction(0)] * len(uv)
    for n in range(1, len(uv)):
        acc = uv[n]
        for k in range(1, n):
            if f[k] and uv[n - k]:
                acc -= f[k] * uv[n - k]
        f[n] = acc
    return f


def float_renewal(u):
    """The same inversion on the floats of ``u``, one dot product per n."""
    uv = u.floats
    f = np.zeros_like(uv)
    for n in range(1, len(uv)):
        f[n] = uv[n] - np.dot(f[1:n], uv[1:n][::-1])
    return f


def smoothness_by_pairs(u, rho):
    """The smoothness report from the Fraction values of the exact series
    ``u``: each ratio u_{2k+2}/u_{2k} as a Fraction, and even_c1 as the
    least rho^{2k} u_{n-2k} / u_n over every even n and k, one
    `QuadExt` or Fraction product per pair."""
    uv = u.values
    rho2 = rho.rho_squared
    violations = []

    u2 = uv[2]
    lower_ok = upper_ok = True
    for k in range(1, (len(uv) - 1) // 2):
        ratio = Fraction(uv[2 * k + 2], uv[2 * k])
        if ratio < u2:
            lower_ok = False
            violations.append(("ratio-lower", 2 * k, ratio))
        if rho2 is not None and ratio > rho2:
            upper_ok = False
            violations.append(("ratio-upper", 2 * k, ratio))

    odd_ok = True
    for mth in range(len(uv) // 2):
        if uv[2 * mth + 1] > uv[2 * mth]:
            odd_ok = False
            violations.append(("odd-le-even", 2 * mth + 1, uv[2 * mth + 1]))

    # largest constant c1 with u_{n-2k} >= c1 u_n rho^{-2k}
    even_c1 = None
    if rho2 is not None:
        for n in range(2, len(uv), 2):
            if uv[n] == 0:
                continue
            power = rho2
            for k in range(1, n // 2 + 1):
                cand = power * Fraction(uv[n - 2 * k], uv[n])
                power = power * rho2
                if even_c1 is None or cand < even_c1:
                    even_c1 = cand
    even_c1_ge_1 = even_c1 is None or not (even_c1 < 1)

    uf, odd_c1 = u.floats.tolist(), None
    if rho2 is not None:
        r2, odds = float(rho2), [n for n in range(1, len(uv), 2) if uv[n] > 0]
        odd_c1 = min((uf[n - 2 * k] * r2 ** k / uf[n] for n in odds
                      for k in range(1, (n - odds[0]) // 2 + 1)), default=None)

    d = u.period
    traj = [uf[n + d] / uf[n] for n in range(d, len(uv) - d, d) if uv[n] > 0]

    return SmoothnessReport(
        ratio_lower_ok=lower_ok, ratio_upper_ok=upper_ok,
        odd_le_even_ok=odd_ok, even_c1=even_c1,
        even_c1_ge_1=even_c1_ge_1, odd_c1=odd_c1,
        ratio_trajectory=traj, violations=violations)


def hitting_per_barrier(walk, barrier, n_max):
    """P[Y_k >= barrier for the first time] for k = 0..n_max, one run per
    barrier: the level walk ``walk`` (start law ``pi``, moves (s, s2, j,
    p), float64 or field-valued) is stepped k - 1 times with levels >=
    barrier removed, and one last step kept at levels >= barrier gives
    P[tau = k]."""
    states = len(walk.pi)
    js = [j for _, _, j, _ in walk.moves]
    zero = walk.pi[0] * 0

    def step(v, a, lo, hi):
        """One step from mass v[s, i] at level a + i, keeping levels in
        [lo, hi) (None: unbounded); returns the new array and its level."""
        na = a + min(js) if lo is None else max(a + min(js), lo)
        nb = a + v.shape[1] + max(js)
        nb = nb if hi is None else min(nb, hi)
        new = np.full((states, max(nb - na, 0)), zero,
                      dtype=float if isinstance(zero, float) else object)
        for s, s2, j, p in walk.moves:
            i0, i1 = max(na - a - j, 0), min(nb - a - j, v.shape[1])
            if i0 < i1:
                new[s2, i0 + a + j - na:i1 + a + j - na] += p * v[s, i0:i1]
        return new, na

    v, a = walk.pi[:, None], 0
    out = [zero]
    for _ in range(n_max):
        out.append(zero + step(v, a, barrier, None)[0].sum())
        v, a = step(v, a, None, barrier)
    return out


@dataclass
class FieldWalk:
    """A level walk on field elements: start law ``pi`` over chain states
    (an object array) and moves (s, s2, j, p) with `QuadExt` weights p."""
    pi: np.ndarray
    moves: list
    t0: int


def field_law_walk(law):
    """An increment law as a one-state `FieldWalk` of its atoms."""
    one = law.atoms[0][1] * 0 + 1
    return FieldWalk(np.array([one], dtype=object),
                     [(0, 0, j, p) for j, p in law.atoms], law.t0_lattice)


def field_orbit_walk(chain):
    """An exact `MarkovAdditiveChain` as a `FieldWalk` on vertex orbits:
    the crossing (i, j, q) moves orbit i to orbit j with the probability
    every state ending in orbit i gives it, and orbit i starts with the
    initial mass of the crossings leaving it."""
    orbits = max(j for _, j, _ in chain.states)
    into = {j: s for s, (_, j, _) in enumerate(chain.states)}
    pi = np.full(orbits, chain.initial[0] * 0, dtype=object)
    for p, (i, _, _) in zip(chain.initial, chain.states):
        pi[i - 1] = pi[i - 1] + p
    return FieldWalk(pi, [(i - 1, j - 1, chain.steps[s],
                           chain.trans[into[i]][s])
                          for s, (i, j, _) in enumerate(chain.states)],
                     chain.t0_lattice)


def field_killed_walk(walk, v, a, n, live):
    """Yield (k, v, a) after steps k = 1..n of a `FieldWalk` from the mass
    v[..., s, i] at level a + i, every entry a field element: the
    field-valued killed walk that `walklab.doob` stepped before it counted
    paths.  live(k) = (lo, hi) bounds the levels kept after step k, None
    meaning unbounded."""
    zero = walk.pi[0] * 0
    down = min(j for _, _, j, _ in walk.moves)
    up = max(j for _, _, j, _ in walk.moves)
    for k in range(1, n + 1):
        lo, hi = live(k)
        width = v.shape[-1]
        na = a + down if lo is None else max(a + down, lo)
        nb = a + width + up if hi is None else min(a + width + up, hi)
        new = np.full(v.shape[:-1] + (max(nb - na, 0),), zero, dtype=object)
        for s, s2, j, p in walk.moves:
            i0, i1 = max(na - a - j, 0), min(nb - a - j, width)
            if i0 < i1:
                shift = a + j - na
                new[..., s2, i0 + shift:i1 + shift] += p * v[..., s, i0:i1]
        v, a = new, na
        yield k, v, a


def field_level_laws(walk, n, r):
    """(P[Y_1..Y_{n-1} > 0, Y_n in window r], P[max_{j<=n} Y_j in window
    r, Y_n = 0], P[Y_n = 0]) of a `FieldWalk`, each from its own
    `field_killed_walk` run: the ballot run drops the levels <= 0 before
    step n, and the maximum is the difference P[M_n < (r+1) t0, Y_n = 0]
    - P[M_n < r t0, Y_n = 0] of two runs kept below a level (P[M_n < 0]
    = 0, as Y_0 = 0)."""
    zero = walk.pi[0] * 0

    def mass(live, lo, hi):
        """Mass at levels [lo, hi) after n steps of the run kept in live."""
        v, a = walk.pi[:, None], 0
        for _, v, a in field_killed_walk(walk, v, a, n, live):
            pass
        return sum((v[:, i - a].sum() for i in range(max(lo, a), min(
            hi, a + v.shape[1]))), zero)

    lo, hi = r * walk.t0, (r + 1) * walk.t0
    ballot = mass(lambda k: (1 if k < n else 0, None), lo, hi)
    below = [mass(lambda k: (None, top), 0, 1) if top > 0 else zero
             for top in (lo, hi)]
    return ballot, below[1] - below[0], mass(lambda k: (None, None), 0, 1)


def object_root_walk(chain, n_max, start=1, rows=None, taboo=False):
    """Root entries of w_1..w_{n_max} of a chain's walk from the root,
    stepped as Python-int object arrays: one gather and one
    ``np.add.reduceat`` per step over the light-cone rows, the root's
    mass removed after each read with ``taboo``.  ``rows`` is a pull-row
    triple (indptr, idx, data), default the chain's counts."""
    indptr, idx, data = chain.pull_rows() if rows is None else rows
    ns = len(chain.depth)
    reach, left = chain.depth[chain.root], chain.depth[chain.root] + n_max
    # reduceat gives an empty row a neighbor's entry, not 0
    live = np.flatnonzero(np.diff(indptr))
    starts = indptr[live]
    zero = start * 0
    w = np.full(ns, zero, dtype=object)
    w[chain.root] = start
    out = []
    for n in range(1, n_max + 1):
        m = chain.cone(min(reach + n, left - n))
        nw = np.full(ns, zero, dtype=object)
        if (k := np.searchsorted(live, m)):
            end = indptr[m]
            terms = w[idx[:end]]
            if data is not None:
                terms *= data[:end]
            nw[live[:k]] = np.add.reduceat(terms, starts[:k])
        w = nw
        out.append(w[chain.root])
        if taboo:
            w[chain.root] = 0
    return out


def object_bridge_tables(chain, n):
    """(F, G), each n + 1 Python-int vectors over all the states: F_j[s]
    = d^j P[root -> s in j], stepped forward over `pull_rows`, and G_m[s]
    = d^m P[s -> root in m], stepped backward over ``chain.csr``, both
    from the root by one gather and one ``np.add.reduceat`` per step."""
    indptr, targets, counts = map(np.asarray, chain.csr)
    tables = []
    for indptr, idx, data in (chain.pull_rows(),
                              (indptr, targets, counts.astype(object))):
        # reduceat gives an empty row a neighbor's entry, not 0
        live = np.flatnonzero(np.diff(indptr))
        w = np.zeros(len(chain.depth), dtype=object)
        w[chain.root] = 1
        table = [w]
        for _ in range(n):
            terms = w[idx] if data is None else w[idx] * data
            w = np.zeros(len(w), dtype=object)
            w[live] = np.add.reduceat(terms, indptr[live])
            table.append(w)
        tables.append(table)
    return tuple(tables)


def reversal_check(law: LevelIncrementLaw, n: int) -> bool:
    """Exact check that (Y_1,..,Y_n) and (Y_n - Y_{n-1},..,Y_n) agree in law.

    Brute force over all increment sequences of length n; the joint laws
    are accumulated as exact field elements keyed by the path tuple.
    """
    fwd: dict = {}
    rev: dict = {}
    for seq in itertools.product(law.atoms, repeat=n):
        mass = math.prod(p for _, p in seq)
        steps = [j for j, _ in seq]
        path = tuple(np.cumsum(steps))
        rpath = tuple(np.cumsum(steps[::-1]))
        fwd[path] = fwd[path] + mass if path in fwd else mass
        rev[rpath] = rev[rpath] + mass if rpath in rev else mass
    if set(fwd) != set(rev):
        return False
    return all(fwd[k] == rev[k] for k in fwd)


def quadext_hwalk(dc, n_max):
    """a_0..a_{n_max} of a `DoobChain` as the root walk of its weights
    stepped on `QuadExt` object arrays (`object_root_walk` over the
    `argsort_pull_rows` of the weights), from a_0 = 1."""
    chain = dc.base_chain
    one = dc.weights[0] * 0 + 1
    return [one] + object_root_walk(chain, n_max, one,
                                    argsort_pull_rows(chain, dc.weights))


def float_atoms(law: LevelIncrementLaw) -> dict:
    """A level increment law as {lattice step: float probability}."""
    return {j: float(p) for j, p in law.atoms}


def degree_of(graph, i: int) -> int:
    """Number of entries in row i of a ball's CSR rows."""
    indptr = graph.csr[0]
    return indptr[i + 1] - indptr[i]


def adjacency(graph) -> list:
    """adj[i] = the sorted neighbor numbers of vertex i, from a ball's CSR
    rows."""
    indptr, targets, _ = graph.csr
    return [sorted(targets[a:b]) for a, b in zip(indptr, indptr[1:])]


def to_csv(graph) -> str:
    """A ball's edges as CSV rows ``vertex_id,neighbor_id,level``."""
    lines = ["vertex_id,neighbor_id,level"]
    for i, nbrs in enumerate(adjacency(graph)):
        lev = graph.level[i] if graph.level is not None else 0
        for j in nbrs:
            lines.append(f"{i},{j},{lev}")
    return "\n".join(lines) + "\n"
