"""Bridges conditioned to return, excursion records, and the convolution
domination condition behind the f_n/u_n limit law.

Bridge sampling is exact: a forward step from state s is reweighted by
the probability of returning to the root in the remaining steps, so each
sample is a draw from the conditioned path measure, no rejection needed.

Exact visit counts go through the occupation vector of a length-n
bridge, occ[s] = sum_j F_j[s] G_{n-j}[s] with F_j[s] = d^j P[root->s in j]
and G_m[s] = d^m P[s->root in m]: occ[s] / (d^n u_n) is the expected
number of times a bridge sits in state s.  It is built once per
(chain, n) and kept on the chain; a level window sums it over its states.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import log
from typing import Optional

import numpy as np

from .chains import CollapsedChain
from .models import WalkModel, ExplicitGraph
from .series import ProbabilitySeries, SpectralRadius, evaluate_generating


class BridgeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Exact bridge visit DP
# ---------------------------------------------------------------------------

def _forward_backward_numerators(chain: CollapsedChain, n: int):
    """Integer-numerator tables F[j][s] = d^j P[root->s in j] and
    G[m][s] = d^m P[s->root in m]."""
    ns = len(chain.states)
    F = [[0] * ns for _ in range(n + 1)]
    F[0][chain.root] = 1
    for j in range(1, n + 1):
        F[j] = chain.step_numerators(F[j - 1])
    G = [[0] * ns for _ in range(n + 1)]
    G[0][chain.root] = 1
    for m in range(1, n + 1):
        prev, cur = G[m - 1], G[m]
        for i, row in enumerate(chain.edges):
            acc = 0
            for j, c in row:
                if prev[j]:
                    acc += c * prev[j]
            cur[i] = acc
    return F, G


def bridge_cut_identity(chain: CollapsedChain, n: int) -> bool:
    """sum_s F_j[s] G_{n-j}[s] = d^n u_n at every cut j."""
    F, G = _forward_backward_numerators(chain, n)
    totals = {sum(f * g for f, g in zip(F[j], G[n - j]))
              for j in range(n + 1)}
    return len(totals) == 1


def _occupation_numerators(chain: CollapsedChain, n: int) -> list:
    """occ[s] = sum_j F_j[s] G_{n-j}[s] for length-n bridges, built
    once per (chain, n) and kept in ``chain.occupation``."""
    occ = chain.occupation.get(n)
    if occ is None:
        F, G = _forward_backward_numerators(chain, n)
        occ = [0] * len(chain.states)
        for Fj, Gm in zip(F, reversed(G)):
            occ = [o + f * g for o, f, g in zip(occ, Fj, Gm)]
        chain.occupation[n] = occ
    return occ


def bridge_level_visits(chain: CollapsedChain, u: ProbabilitySeries,
                        n: int, k: int) -> Fraction:
    """Expected visits of a length-n bridge to the level window k.

    The window is [k*t0, (k+1)*t0) in lattice units; the count includes
    both endpoints (so the k=0 window scores at least 2 for n >= 1).
    """
    if n > chain.horizon:
        raise BridgeError("beyond chain horizon")
    if u[n] == 0:
        raise BridgeError(f"u_{n} = 0: conditioning undefined")
    t0 = chain.t0
    occ = _occupation_numerators(chain, n)
    total = sum(o for o, lv in zip(occ, chain.level) if lv // t0 == k)
    return Fraction(total, chain.denom ** n) / u[n]


def bridge_inclusion_probability(graph: ExplicitGraph, n: int,
                                 x: int, degree: int) -> Fraction:
    """P_{n,root}[x in w] on an explicit ball, exact.

    Counts length-n root-to-root walks avoiding x versus all of them.
    Needs ball radius >= n//2 + 1 so both counts are complete.
    """
    if graph.radius < n // 2 + 1:
        raise BridgeError("ball too small")
    total = _walk_count(graph, n, graph.root, graph.root, avoid=None)
    if total == 0:
        raise BridgeError("u_n = 0 on this ball")
    avoid = _walk_count(graph, n, graph.root, graph.root, avoid=x)
    return 1 - Fraction(avoid, total)


def bridge_inclusion_symmetry(graph: ExplicitGraph, n: int, x: int,
                              degree: int) -> tuple:
    """(P_{n,root}[x in w], P_{n,x}[root in w]) for an interior x."""
    if graph.dist[x] + n // 2 + 1 > graph.radius:
        raise BridgeError("x too close to the ball boundary")
    p1 = bridge_inclusion_probability(graph, n, x, degree)
    total = _walk_count(graph, n, x, x, avoid=None)
    avoid = _walk_count(graph, n, x, x, avoid=graph.root)
    p2 = 1 - Fraction(avoid, total)
    return p1, p2


def _walk_count(graph: ExplicitGraph, n: int, src: int, dst: int,
                avoid: Optional[int]) -> int:
    """Number of length-n walks src -> dst never visiting `avoid`."""
    if avoid is not None and avoid in (src, dst):
        return 0
    w = [0] * len(graph)
    w[src] = 1
    for _ in range(n):
        nw = [0] * len(graph)
        for i, wi in enumerate(w):
            if not wi:
                continue
            for j in graph.adj[i]:
                nw[j] += wi
        if avoid is not None:
            nw[avoid] = 0
        w = nw
    return w[dst]


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
    if samples < 1:
        raise BridgeError("need samples >= 1")
    if seed is None:
        raise BridgeError("a seed is required")
    if chain is None:
        chain = model.collapse(n)
    P = chain.matrix()
    ns = len(chain.states)
    # backward tables G[m] = P[state -> root in m steps]
    G = np.zeros((n + 1, ns))
    G[0, chain.root] = 1.0
    Pt = P.T.tocsr()
    for m in range(1, n + 1):
        G[m] = Pt @ G[m - 1]
    if G[n, chain.root] <= 0:
        raise BridgeError(f"u_{n} = 0: no bridges")
    edges_t = [np.array([j for j, _ in row], dtype=np.int64)
               for row in chain.edges]
    edges_c = [np.array([c for _, c in row], dtype=float)
               for row in chain.edges]
    rng = np.random.default_rng(seed)
    traj = np.empty((samples, n + 1), dtype=np.int32)
    traj[:, 0] = chain.root
    cur = np.full(samples, chain.root, dtype=np.int64)
    for step in range(n):
        rem = n - step - 1
        nxt = np.empty_like(cur)
        for s in np.unique(cur):
            idx = np.nonzero(cur == s)[0]
            weights = edges_c[s] * G[rem, edges_t[s]]
            tot = weights.sum()
            if tot <= 0:
                raise BridgeError(f"stranded state {s} at step {step}")
            draws = rng.choice(len(weights), size=len(idx), p=weights / tot)
            nxt[idx] = edges_t[s][draws]
        cur = nxt
        traj[:, step + 1] = cur
    level_arr = np.array(chain.level, dtype=np.int32)
    lv_traj = level_arr[traj]
    t0 = chain.t0
    if k_grid is None:
        k_grid = range(-3, 9)
    visit_means = {}
    hit_upper = {}
    for k in k_grid:
        lo, hi = k * t0, (k + 1) * t0
        counts = ((lv_traj >= lo) & (lv_traj < hi)).sum(axis=1)
        visit_means[k] = (float(counts.mean()),
                          float(counts.std(ddof=1) / np.sqrt(samples)))
        hits = (lv_traj >= lo).any(axis=1)
        hit_upper[k] = float(hits.mean())
    max_levels = lv_traj.max(axis=1)
    uniq, cnt = np.unique(max_levels, return_counts=True)
    max_level_counts = {int(a): int(b) for a, b in zip(uniq, cnt)}
    distinct_means = _distinct_counts(model, chain, traj, k_grid, t0,
                                      min(distinct_subsample, samples), rng)
    return BridgeStatistics(n=n, samples=samples, seed=seed,
                            visit_means=visit_means, hit_upper=hit_upper,
                            distinct_means=distinct_means,
                            max_level_counts=max_level_counts)


def _distinct_counts(model, chain, traj, k_grid, t0, m, rng) -> dict:
    """Reconstruct vertex paths for a subsample and count distinct vertices
    per level window.  A vertex path consistent with the orbit trajectory
    is chosen uniformly, which is the correct conditional law because the
    walk is uniform over neighbors realizing each orbit move.

    A vertex in state s has c(s -> s') neighbors in state s', the collapse
    count, so a bridge's choices are drawn up front by one ``rng.integers``
    call over those counts, in the order a step-by-step rebuild draws them.
    """
    if not model.has_collapse:
        return {}
    index = {st: i for i, st in enumerate(chain.states)}
    counts = {}  # count rows of the visited states only: less peak memory

    def row_counts(s):
        if s not in counts:
            counts[s] = dict(chain.edges[s])
        return counts[s]

    out = {k: [] for k in k_grid}
    for row in traj[:m]:
        row = row.tolist()
        pick = rng.integers(
            0, [row_counts(s)[s2] for s, s2 in zip(row, row[1:])])
        memo = {}  # vertex -> {state: neighbors in it}, for this bridge
        v = model.root_vertex()
        path = [v]
        for s, s2, c in zip(row, row[1:], pick.tolist()):
            if v not in memo:
                memo[v] = _neighbor_groups(model, index, v, row_counts(s))
            v = memo[v][s2][c]
            path.append(v)
        windows = Counter(model.vertex_level(w) // t0 for w in set(path))
        for k in k_grid:
            out[k].append(windows[k])
    result = {}
    for k in k_grid:
        arr = np.array(out[k], dtype=float)
        result[k] = (float(arr.mean()),
                     float(arr.std(ddof=1) / np.sqrt(len(arr))), m)
    return result


def _neighbor_groups(model, index, v, expected: dict) -> dict:
    """Neighbors of v grouped by chain state, in `neighbors` order; the
    group sizes must be the collapse counts ``expected`` of v's state."""
    groups = {}
    for w in model.neighbors(v):
        j = index.get(model.vertex_orbit(w))
        if j is not None:
            groups.setdefault(j, []).append(w)
    sizes = {j: len(g) for j, g in groups.items()}
    if sizes != expected:
        raise BridgeError(f"vertex {v!r}: neighbors per state {sizes} "
                          f"differ from the collapse counts {expected}")
    return groups


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
    """
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


def limit_excursion_law(f: ProbabilitySeries, rho: SpectralRadius) -> dict:
    """Conjectured limit: alpha geometric with parameter 1 - F(1/rho),
    excursion lengths with law f_k rho^{-k} / F(1/rho)."""
    Fval = evaluate_generating(f, 1 / rho.value, rho, tail="power")
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
                if N > 0 and 2 * N > n:
                    inner = 0.0
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
          if n % step == 0 and float(u[n]) > 0 and float(f[n]) > 0]
    if not ns:
        raise BridgeError("empty range")
    ratios = {n: float(f[n]) / float(u[n]) for n in ns}
    cprime = 0.0
    for n, ratio in ratios.items():
        if ratio < margin:
            cprime = max(cprime, log(margin / ratio) / log(n))
    return {"c_prime": cprime, "min_ratio": min(ratios.values()),
            "max_ratio": max(ratios.values()), "margin": margin}
