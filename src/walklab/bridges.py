"""Bridges conditioned to return, excursion records, and the convolution
domination condition behind the f_n/u_n limit law.

Bridge sampling is exact: a forward step from state s is reweighted by
the probability of returning to the root in the remaining steps, so each
sample is a draw from the conditioned path measure, no rejection needed.
Those probabilities G_m are a float readout of `CollapsedChain.walk`.
The sampler moves all bridges at once, one inversion draw per step over
the cumulative weights of each ``chain.csr`` row, and adds up its
statistics as it goes: it keeps no samples x (n+1) trajectory, only the
state paths of the distinct-vertex subsample, lifted to vertex paths
all at once too, on integer vertex rows (`WalkModel.vertex_row`).

Exact visit counts go through the occupation vector of a length-n
bridge, occ[s] = sum_j F_j[s] G_{n-j}[s] with F_j[s] = d^j P[root->s in j]
and G_m[s] = d^m P[s->root in m]: occ[s] / (d^n u_n) is the expected
number of times a bridge sits in state s.  It is built on residues
once per (chain, n) and kept on the chain; a level window sums it.
The excursion record law convolves the numerators of u and f, integers
over d^n when exact, and divides by U_n once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import log
from typing import Optional

import numpy as np

from .chains import CollapsedChain, _crt, _integer_rows, _residue_primes
from .models import WalkModel
from .series import ProbabilitySeries, SpectralRadius, evaluate_generating


class BridgeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Exact bridge visit DP
# ---------------------------------------------------------------------------

def _csr(chain: CollapsedChain, n: int):
    """``chain.csr`` as arrays; BridgeError unless 0 <= n <= horizon."""
    chain._check_horizon(n, BridgeError)
    return map(np.asarray, chain.csr)


def _backward_table(chain: CollapsedChain, n: int) -> list:
    """G_0..G_n as floats, G_m[s] = P[s -> root in m]: a walk from the
    root over ``chain.csr`` as it stands.  On the light cone only, so
    G_m[s] is full where depth(s) <= min(m, n - m), and 0 where depth(s) >
    m, as the full value is."""
    indptr, targets, counts = _csr(chain, n)
    start = np.zeros(len(chain.depth))
    start[chain.root] = 1.0
    return [start, *(w.copy() for w in chain.walk(
        n, 1.0, (indptr, targets, counts * (1.0 / chain.denom))))]


def _forward_backward_numerators(chain: CollapsedChain, n: int) -> tuple:
    """(F, G, moduli): F_j = d^j P[root -> . in j] yielded for j = 0..n,
    and the list of G_m = d^m P[. -> root in m], walked from the root over
    `pull_rows` and ``chain.csr`` as residues |x| < q on the cone(min(j,
    n - j)) rows, off which F_j G_{n-j} = 0.  The pairwise-coprime moduli
    q lie below 2**31, so G fits in int32 and a residue plus F_j G_{n-j}
    in int64, and their product exceeds 2 (n + 1) d^n."""
    indptr, targets, counts = _csr(chain, n)
    fwd, bwd = (_integer_rows(rows, len(chain.depth)) for rows in
                (chain.pull_rows(), (indptr, targets, counts)))
    moduli = _residue_primes(max(fwd[1], bwd[1]),
                             (n + 1) * chain.denom ** n, 31)

    def table(rows, dtype):  # reduced every step (r = 1), cut and copied
        yield np.ones((1, len(moduli)), dtype=dtype)  # the root's row
        for j, w in enumerate(chain.walk(n, 1, rows, primes=(moduli, 1)), 1):
            yield w[:chain.cone(min(j, n - j))].astype(dtype)
    return table(fwd[0], np.int64), list(table(bwd[0], np.int32)), moduli


def bridge_cut_identity(chain: CollapsedChain, n: int) -> bool:
    """sum_s F_j[s] G_{n-j}[s] = d^n u_n at every cut j, mod each modulus:
    equality, as the totals lie below half the moduli's product."""
    F, G, moduli = _forward_backward_numerators(chain, n)
    return len({tuple(np.fmod(f * g, moduli).sum(0) % moduli)
                for f, g in zip(F, reversed(G))}) == 1


def _occupation_numerators(chain: CollapsedChain, n: int) -> list:
    """occ[s] = sum_j F_j[s] G_{n-j}[s] for length-n bridges, by `_crt`
    of its residues, built once per (chain, n) in ``chain.occupation``."""
    if n not in chain.occupation:
        F, G, moduli = _forward_backward_numerators(chain, n)
        occ = np.zeros((len(chain.depth), len(moduli)), dtype=np.int64)
        for f, g in zip(F, reversed(G)):
            occ[:len(f)] = np.fmod(occ[:len(f)] + f * g, moduli)
        chain.occupation[n] = _crt(occ.tolist(), moduli)
    return chain.occupation[n]


def bridge_level_visits(chain: CollapsedChain, u: ProbabilitySeries,
                        n: int, k: int) -> Fraction:
    """Expected visits of a length-n bridge to the level window k.

    The window is [k*t0, (k+1)*t0) in lattice units; the count includes
    both endpoints (so the k=0 window scores at least 2 for n >= 1).
    """
    occ = _occupation_numerators(chain, n)
    if u[n] == 0:
        raise BridgeError(f"u_{n} = 0: conditioning undefined")
    t0 = chain.t0
    total = sum(o for o, lv in zip(occ, chain.level) if lv // t0 == k)
    return Fraction(total, chain.denom ** n) / u[n]


def bridge_inclusion_probability(graph: CollapsedChain, n: int,
                                 x: int, degree: int) -> Fraction:
    """P_{n,root}[x in w] on a ball (`WalkModel.enumerate_ball`), exact.

    Counts length-n root-to-root walks avoiding x versus all of them.
    Needs the ball's degree, x < len(graph) and radius >= n//2, the
    farthest a closed n-walk gets from its start, so both counts are complete.
    """
    if degree != graph.denom or x not in range(len(graph)):
        raise BridgeError(f"need degree {graph.denom} and x in range("
                          f"{len(graph)}), got {degree} and {x}")
    if graph.radius < n // 2:
        raise BridgeError("ball too small")
    total = _walk_count(graph, n, graph.root, graph.root, avoid=None)
    if total == 0:
        raise BridgeError("u_n = 0 on this ball")
    avoid = _walk_count(graph, n, graph.root, graph.root, avoid=x)
    return 1 - Fraction(avoid, total)


def bridge_inclusion_symmetry(graph: CollapsedChain, n: int, x: int,
                              degree: int) -> tuple:
    """(P_{n,root}[x in w], P_{n,x}[root in w]) for an interior x."""
    p1 = bridge_inclusion_probability(graph, n, x, degree)  # checks x
    if graph.depth[x] + n // 2 > graph.radius:
        raise BridgeError("x too close to the ball boundary")
    total = _walk_count(graph, n, x, x, avoid=None)
    avoid = _walk_count(graph, n, x, x, avoid=graph.root)
    p2 = 1 - Fraction(avoid, total)
    return p1, p2


def _walk_count(graph: CollapsedChain, n: int, src: int, dst: int,
                avoid: Optional[int]) -> int:
    """Number of length-n walks src -> dst never visiting `avoid`."""
    if avoid is not None and avoid in (src, dst):
        return 0
    if n == 0:
        return int(src == dst)
    return graph.walk_entries(n, source=src, target=dst, kill=avoid)[-1]


# ---------------------------------------------------------------------------
# Monte Carlo bridge statistics
# ---------------------------------------------------------------------------

@dataclass
class BridgeStatistics:
    n: int
    samples: int
    seed: int
    visit_means: dict        # window k -> (mc mean, std error)
    hit_upper: dict          # k -> empirical P[w cap H_k+ nonempty]
    distinct_means: dict     # window k -> (mean, stderr, subsample size)
    max_level_counts: dict   # max lattice level -> count


def mc_bridge_statistics(model: WalkModel, n: int, samples: int, seed: int,
                         k_grid=None, distinct_subsample: int = 2000,
                         chain: Optional[CollapsedChain] = None) -> BridgeStatistics:
    """Visits per level window, the maximum level and distinct vertices
    per window of ``samples`` seeded bridges of length n.

    The bridges take each step together, by one inversion draw (Devroye,
    *Non-Uniform Random Variate Generation*, 1986, ch. III) against the
    cumulative sums of counts * G[rem][target] along each row.  Window
    visits and the running maximum level are added up step by step; of
    the state paths only the first ``min(distinct_subsample, samples)``
    are kept, for the distinct-vertex lift.
    """
    if samples < 2:
        raise BridgeError("need samples >= 2 for a standard error")
    if seed is None:
        raise BridgeError("a seed is required")
    m = min(distinct_subsample, samples)
    if model.has_collapse and m < 2:
        raise BridgeError("need a distinct-vertex subsample >= 2 for a "
                          "standard error")
    if chain is None:
        chain = model.collapse(n)
    # a draw reads G[rem] at targets of depth <= n - rem: full values, or
    # past depth rem zeros that are true
    G = _backward_table(chain, n)
    if G[n][chain.root] <= 0:
        raise BridgeError(f"u_{n} = 0: no bridges")
    indptr, targets, counts = _csr(chain, n)
    slot, width, tgt = _padded_rows(indptr, targets)
    t0 = chain.t0
    k_grid = list(range(-3, 9) if k_grid is None else k_grid)
    ks, col = _window_columns(chain, k_grid, t0)
    level = np.asarray(chain.level, dtype=np.int32)
    rng = np.random.default_rng(seed)
    cur = np.full(samples, chain.root, dtype=np.int64)
    # visits[i, b] = visits of bridge b to window ks[i]
    visits = np.zeros((len(ks), samples), np.min_scalar_type(n + 1))
    max_level = np.full(samples, level[chain.root])
    kept = np.empty((m, n + 1), dtype=np.int32)
    kept[:, 0] = chain.root
    if col[chain.root] < len(ks):
        visits[col[chain.root]] = 1
    for step in range(n):
        # the bridges are in cone(min(step, n - step)), a BFS prefix
        rows = chain.cone(min(step, n - step))
        end = indptr[rows]
        weight = np.zeros(rows * width)
        weight[slot[:end]] = counts[:end] * G[n - step - 1][targets[:end]]
        weight = weight.reshape(rows, width)
        cdf = np.cumsum(weight, axis=1)
        total = cdf[:, -1].copy()
        u = total[cur]  # times a uniform below
        if (u <= 0).any():
            raise BridgeError(f"stranded state {cur[u <= 0][0]} at step "
                              f"{step}")
        # cdf is inf from a row's last positive weight on: a draw stops
        # there at the latest, so it lands on no zero weight and no
        # padding, not even when u rounds up to the total
        last = width - 1 - np.argmax(weight[:, ::-1] > 0, axis=1)
        cdf[np.arange(width) >= last[:, None]] = np.inf
        cdf = cdf.reshape(-1)
        u *= rng.random(samples)
        at = cur * width
        for _ in range(width - 1):  # past slot j while u >= cdf[j]
            at += u >= cdf[at]
        cur = tgt[at]
        window = col[cur]
        for i, row in enumerate(visits):
            row += window == i
        np.maximum(max_level, level[cur], out=max_level)
        kept[:, step + 1] = cur[:m]
    visit_means = {}
    hit_upper = {}
    for k in k_grid:
        v = visits[ks.index(k)]
        visit_means[k] = (float(v.mean()),
                          float(v.std(ddof=1) / np.sqrt(samples)))
        hit_upper[k] = float((max_level >= k * t0).mean())
    uniq, cnt = np.unique(max_level, return_counts=True)
    max_level_counts = {int(a): int(b) for a, b in zip(uniq, cnt)}
    distinct_means = _distinct_counts(model, chain, kept, k_grid, t0, m, rng)
    return BridgeStatistics(n=n, samples=samples, seed=seed,
                            visit_means=visit_means, hit_upper=hit_upper,
                            distinct_means=distinct_means,
                            max_level_counts=max_level_counts)


def _padded_rows(indptr, targets) -> tuple:
    """(slot, width, tgt): the CSR rows laid out as a states x width
    table, width the longest row; entry e sits at flat slot ``slot[e]``,
    and ``tgt`` is the flat table of targets, padded with 0."""
    lengths = np.diff(indptr)
    width = int(lengths.max())
    row = np.repeat(np.arange(len(lengths)), lengths)
    slot = row * width + np.arange(len(targets)) - indptr[row]
    tgt = np.zeros(len(lengths) * width, dtype=np.int64)
    tgt[slot] = targets
    return slot, width, tgt


def _window_columns(chain, k_grid, t0) -> tuple:
    """(ks, col): the distinct windows of ``k_grid`` in order, and per
    state the index in ``ks`` of its level window [k*t0, (k+1)*t0), or
    len(ks) when that window is not in the grid."""
    ks = list(dict.fromkeys(k_grid))
    window = np.asarray(chain.level) // t0
    col = np.full(len(window), len(ks), np.min_scalar_type(len(ks)))
    for i, k in enumerate(ks):
        col[window == k] = i
    return ks, col


def _distinct_counts(model, chain, traj, k_grid, t0, m, rng) -> dict:
    """Lift the first m state paths of ``traj`` to vertex paths and count
    distinct vertices per level window.  A vertex path consistent with
    the state path is chosen uniformly, the correct conditional law as
    the walk is uniform over neighbors realizing each move: a move goes to
    the choice-th neighbor in the next state, in `neighbor_rows` order, the
    choices drawn up front by one ``rng.integers`` over the collapse counts.

    The paths step together on vertex rows (`WalkModel.vertex_row`): a
    state gives the orbit coordinates and boundary class, and the word
    codes are carried.  The class's neighbors at the offset of the move
    are counted by a cumsum, must number the collapse count (else
    `BridgeError`), and the choice-th gives the word maps.  Codes are
    int64 or, past 2**62 (`_vertex_numbering`), Python ints: one code
    path, exact at any n.  A path's distinct vertices are the runs of its
    sorted vertex numbers; a vertex's window is the level of its state.
    """
    if not model.has_collapse:
        return {}
    traj, src, n = traj[:m], traj[:m, :-1], traj.shape[1] - 1
    offs, maps = model._vertex_table
    nc, deg, dim = offs.shape
    # an offset as one integer (balanced digits), then as its rank o in
    # ``okeys``; the chain's moves are among them
    digits = (2 * int(np.abs(offs).max()) + 1) ** np.arange(dim)
    okeys, place = np.unique(offs @ digits), chain.states.rows @ digits
    # counts[entry] of each move, from a states x offsets count table
    indptr, targets, counts = map(np.asarray, chain.csr)
    at = np.repeat(np.arange(len(place)), np.diff(indptr))
    table = np.zeros((len(place), len(okeys)), dtype=counts.dtype)
    table[at, np.searchsorted(okeys, place[targets] - place[at])] = counts
    move = place[traj[:, 1:]]
    move -= place[src]
    move = np.searchsorted(okeys, move).astype(np.int32)
    counts = table[src, move]
    # seen[c * len(okeys) + o, j]: neighbors 0..j of class c at offset o;
    # pick[., i] is c * deg + the index of the i-th, its row of ``maps``
    seen = (offs @ digits == okeys[:, None, None]).transpose(1, 0, 2)
    seen = seen.cumsum(2).reshape(-1, deg)
    pick = (seen[:, None, :] <= np.arange(deg)[:, None]).sum(2)
    pick += np.arange(len(seen))[:, None] // len(okeys) * deg
    move += model._boundary(chain.states.rows.T).astype(np.int32)[src] \
        * len(okeys)
    for i, j in np.argwhere(seen[move, -1] != counts)[:1]:
        raise BridgeError(f"move {traj[i, j]} -> {traj[i, j + 1]}: "
                          f"{seen[move[i, j], -1]} neighbors differ from "
                          f"the collapse count {counts[i, j]}")
    move = pick[move, rng.integers(0, counts.astype(np.int64))]
    move = move.astype(np.int32)
    del counts
    maps = maps.reshape(nc * deg, -1, 3)
    offset, stride, limbs = _vertex_numbering(model, chain)
    code = np.zeros((m, maps.shape[1]), dtype=offset.dtype)
    number = np.zeros((limbs, m, n + 1), dtype=np.int64)  # the root is 0
    for step in range(n):
        f, nxt = maps[move[:, step]], traj[:, step + 1]
        code = code // f[..., 0] * f[..., 1] + f[..., 2]
        v = offset[nxt] + code[:, -1]
        for i in range(stride.shape[1]):
            v += code[:, i] * stride[nxt, i]
        for i in range(limbs - 1):
            number[i, :, step + 1] = v & (2 ** 62 - 1)
            v >>= 62
        number[-1, :, step + 1] = v
    del move
    ks, col = _window_columns(chain, k_grid, t0)
    idx = np.lexsort(number)
    number = np.take_along_axis(number, idx[None], 2)
    new = np.c_[np.ones(m, dtype=bool),
                (number[..., 1:] != number[..., :-1]).any(0)]
    del number
    window = col[np.take_along_axis(traj, idx, 1)]
    result = {}
    for k in k_grid:
        arr = (new & (window == ks.index(k))).sum(1).astype(float)
        result[k] = (float(arr.mean()),
                     float(arr.std(ddof=1) / np.sqrt(len(arr))), m)
    return result


def _vertex_numbering(model, chain) -> tuple:
    """(offset, stride, limbs): vertex (s, x_0..x_k) is number offset[s] +
    x_k + sum_{i<k} x_i stride[s, i], distinct as word i of state s is
    below base_i ** t_i; int64 when all are below 2**62, else Python
    ints, a number then taking ``limbs`` 62-bit limbs."""
    cols, bases = zip(*model._words)
    size = np.power(np.array(bases, dtype=object),
                    chain.states.rows[:, list(cols)].astype(object))
    space = size.prod(1)
    limbs = max(1, -(-(int(space.sum()) - 1).bit_length() // 62))
    dtype = np.int64 if limbs == 1 else object
    stride = space[:, None] // np.cumprod(size, axis=1)[:, :-1]
    return (np.cumsum(space) - space).astype(dtype), stride.astype(dtype), limbs


# ---------------------------------------------------------------------------
# Excursion records
# ---------------------------------------------------------------------------

@dataclass
class ExcursionLaw:
    n: int
    alpha_law: list          # P[alpha = a] for a = 0..cap
    joint: dict              # (a, b) -> P[alpha = a, beta = b]
    total_mass: object       # exact Fraction or float
    f_over_u: object         # f_n / u_n = P[alpha = 0, beta = 0]


def excursion_record_law(u: ProbabilitySeries, f: ProbabilitySeries,
                         n: int, a_cap: Optional[int] = None,
                         joint_cap: int = 3) -> ExcursionLaw:
    """Law of the number of pre-midpoint returns of a length-n bridge.

    A bridge decomposes uniquely into alpha first-return excursions
    ending by time n/2, one excursion across the midpoint, and beta
    excursions after it; the probability of a record is the product of
    the f-weights of its excursions divided by u_n.

    Every sum is a convolution over the multiples of ``u.period``, the
    only times at which u and f can be nonzero, on the numerators of the
    series: every record has length n, so its weight is a numerator over
    denom**n, and dividing by U_n gives its probability.
    """
    if (u.denom, u.exact) != (f.denom, f.exact):
        raise BridgeError("u and f must be numerators over one denominator")
    if not 1 <= n <= min(u.n_max, f.n_max):
        raise BridgeError(f"need 1 <= n <= {min(u.n_max, f.n_max)}, the "
                          f"last term of u and f, got n = {n}")
    if u[n] == 0:
        raise BridgeError(f"u_{n} = 0: conditioning undefined")
    p = u.period
    half = n // 2           # first-half return times s <= n/2
    l_top = n - 1 - half    # second-half sum l satisfies n - l > n/2
    top, j_top, last = half // p, l_top // p, n // p  # in units of p
    uv, fv = (s.numerators[:n + 1:p].copy() for s in (u, f))
    fv[0] = 0               # an excursion takes at least one step
    if a_cap is None:
        a_cap = half // 2 + 1
    # laws[a][i] = P[a first-return excursions totalling p*i steps]
    laws = [np.zeros(top + 1, dtype=fv.dtype)]
    laws[0][0] = 1
    while len(laws) <= a_cap:
        prev = laws[-1]
        lo = np.flatnonzero(prev)[0]
        nxt = np.zeros_like(prev)
        nxt[lo:] = np.convolve(prev[lo:], fv[:top + 1 - lo])[:top + 1 - lo]
        if not nxt.any():
            break
        laws.append(nxt)
    laws = np.array(laws)

    def tail(c):
        """t[i] = sum_{j <= l_top/p} c[j] f_{n-p*(i+j)}: the f slice it
        reads starts at time n - p*(top + j_top) >= 1."""
        return np.convolve(fv[last - top - j_top:], c[:j_top + 1],
                           "valid")[::-1]

    # int / Fraction stays exact, float / Fraction is float division
    total = Fraction(uv[-1])
    # second-half records summed over beta: the renewal u_l in place of
    # the beta-fold convolutions
    alpha_law = [x / total for x in (laws @ tail(uv)).tolist()]
    cap = min(joint_cap, len(laws) - 1) + 1
    grid = [[x / total for x in row] for row in (
        laws[:cap] @ np.array([tail(c) for c in laws[:cap]]).T).tolist()]
    joint = {(a, b): x for a, row in enumerate(grid)
             for b, x in enumerate(row) if x}
    return ExcursionLaw(n=n, alpha_law=alpha_law, joint=joint,
                        total_mass=sum(alpha_law), f_over_u=grid[0][0])


def limit_excursion_law(f: ProbabilitySeries, rho: SpectralRadius) -> dict:
    """Conjectured limit: alpha geometric with parameter 1 - F(1/rho),
    excursion lengths with law f_k rho^{-k} / F(1/rho)."""
    Fval = evaluate_generating(f, 1 / rho.value, rho)
    if Fval.upper >= 1:
        raise BridgeError("tail interval for F(1/rho) reaches 1")
    param = 1 - Fval.value
    xs = f.floats * (1 / rho.value) ** np.arange(len(f.floats))
    xi_law = xs / Fval.value
    return {
        "F_at_inv_rho": Fval,
        "geometric_parameter": param,
        "parameter_interval": (1 - Fval.upper, 1 - Fval.lower),
        "xi_law": xi_law,
        "xi_mass_in_range": float(xi_law.sum()),
        "target_ratio": param ** 2,
    }


def geometric_tv_distance(alpha_law, p: float) -> float:
    """Total variation between a finite alpha-law and Geometric(p) on
    {0, 1, ...} (P[a] = p (1-p)^a)."""
    probs = [float(x) for x in alpha_law]
    cap = len(probs)
    geo = [p * (1 - p) ** a for a in range(cap)]
    tv = 0.5 * sum(abs(x - g) for x, g in zip(probs, geo))
    tv += 0.5 * abs((1 - sum(probs)) - (1 - p) ** cap)
    return tv


# ---------------------------------------------------------------------------
# Convolution-domination (CNW) scanner and synthetic sequences
# ---------------------------------------------------------------------------

_CNW_BLOCK = 32  # values of N whose rows the scan tests at once


def cnw_condition_scan(a: np.ndarray, epsilon_grid, n_max: int,
                       n_cap: Optional[int] = None) -> dict:
    """Least N with sum_{i=N}^{n-N} a_i a_{n-i} <= eps a_n for all
    2N <= n <= n_max, per epsilon; None when no N <= cap works.

    Works on the rho-normalized sequence a_n, for which the condition is
    equivalent to the original one in u_n.
    """
    a = np.asarray(a, dtype=float)[:n_max + 1]
    if n_cap is None:
        n_cap = n_max // 2
    full = np.convolve(a, a)[:n_max + 1]
    edge = np.zeros(n_max + 1)  # edge[n] = 2 sum_{i<N} a_i a_{n-i}
    results = {float(eps): None for eps in epsilon_grid}
    pending = sorted((float(e) for e in epsilon_grid), reverse=True)
    positive = np.flatnonzero(a > 0)
    # pad[n_max + j] is a_j, 0 for j < 0; every eps holds at N with 2N >
    # n_max, so no N past n_max // 2 + 1 is tested
    pad = np.concatenate((np.zeros(n_max), a))
    stop = min(n_cap, n_max // 2 + 1) + 1
    for lo in range(0, stop, _CNW_BLOCK):  # the rows edge_N of a block of N
        ns = positive[positive >= max(2 * lo, 2)]  # the n these N test
        Ns = np.arange(max(lo, 1), min(lo + _CNW_BLOCK, stop))
        # cumsum adds row after row, in the order of a loop over N
        rows = np.cumsum(np.vstack((edge[ns], (2 * a[Ns - 1])[:, None] * pad[
            n_max + 1 - Ns[:, None] + ns])), 0)[lo > 0:]
        edge[ns], Ns = rows[-1], np.arange(lo, lo + len(rows))
        inner = np.where(ns >= 2 * Ns[:, None], full[ns] - rows, -np.inf)
        for eps in list(pending):
            ok = ~(inner > eps * a[ns] + 1e-15).any(1)
            if ok.any():
                results[eps] = int(Ns[ok.argmax()])
                pending.remove(eps)
        if not pending:
            break
    return results


def synthetic_sequence(case: str, n_max: int, rho: float = 0.9,
                       alpha: float = 1.5, c: float = 1.0,
                       beta: float = 1.0 / 3.0) -> np.ndarray:
    """Even-index model sequences for exercising the CNW scanner."""
    u = np.zeros(n_max + 1)
    u[0] = 1.0
    ns = np.arange(2, n_max + 1, 2)
    m = ns / 2.0
    if case == "power":
        if alpha <= 1:
            raise BridgeError("power case needs alpha > 1")
        u[ns] = rho ** ns * m ** -alpha
    elif case == "stretched":
        if not 0 < beta < 1:
            raise BridgeError("stretched case needs 0 < beta < 1")
        u[ns] = rho ** ns * m ** -alpha * np.exp(-c * m ** beta)
    elif case == "log-exponential":
        u[ns] = rho ** ns * np.exp(-ns / np.log(np.maximum(ns, 3)))
    elif case == "constant":
        u[ns] = rho ** ns
    else:
        raise BridgeError(f"unknown case {case!r}")
    return u


def first_return_lower_bound_check(u: ProbabilitySeries, f: ProbabilitySeries,
                                   n_lo: int, n_hi: int,
                                   margin: float = 0.2) -> dict:
    """Least c' >= 0 with f_n n^{c'} >= margin u_n on the range."""
    step = u.period
    ns = [n for n in range(n_lo, min(n_hi, u.n_max) + 1)
          if n % step == 0 and u.floats[n] > 0 and f.floats[n] > 0]
    if not ns:
        raise BridgeError("empty range")
    ratios = {n: float(f.floats[n] / u.floats[n]) for n in ns}
    cprime = 0.0
    for n, ratio in ratios.items():
        if ratio < margin:
            cprime = max(cprime, log(margin / ratio) / log(n))
    return {"c_prime": cprime, "min_ratio": min(ratios.values()),
            "max_ratio": max(ratios.values()), "margin": margin}
