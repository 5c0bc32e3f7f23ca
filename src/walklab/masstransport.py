"""Exact verification of the modular-function identities.

The level labels on a ball encode log of the stabilizer-orbit ratio in
lattice units, so the neighbor identity and the mass-transport balance
can be checked with rational arithmetic.  At the neighbors it is the
count balance N_{j,i,1/q} = q N_{i,j,q}: `unbalanced_counts`, which
`walklab.quasi` runs on orbit schemas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .chains import CollapsedChain
from .models import LevelProfile


@dataclass
class CheckReport:
    name: str
    passed: bool
    details: list = field(default_factory=list)
    witnesses: list = field(default_factory=list)


def unbalanced_counts(counts: dict) -> list:
    """The keys (i, j, q) of ``counts`` = N, in order, at which
    N_{j,i,1/q} != q N_{i,j,q}, a missing key counting 0."""
    return [(i, j, q) for (i, j, q), n in counts.items()
            if counts.get((j, i, 1 / q), 0) != q * n]


def check_neighbor_mtp(profile: LevelProfile) -> CheckReport:
    """Neighbor count balance: t_{1/q} = q * t_q for every ratio q, by
    `unbalanced_counts` on the L = 1 counts of the profile."""
    counts = {(1, 1, Fraction(q)): t for q, t in profile.entries}
    bad = unbalanced_counts(counts)
    details = [f"q={q}: t_1/q={q * t} = q*t_q"
               for (_, _, q), t in counts.items() if (1, 1, q) not in bad]
    witnesses = [(q, f"t_1/q = {counts.get((1, 1, 1 / q), 'missing')} != "
                     f"q*t_q = {q * counts[1, 1, q]}") for _, _, q in bad]
    if sum(counts.values()) != profile.degree:
        witnesses.append(("degree", f"sum t_q = {sum(counts.values())}"))
    return CheckReport("neighbor_mtp", not witnesses, details, witnesses)


@dataclass
class ResidualReport:
    passed: bool
    rows: list  # (distance, level_diff, lhs, rhs, residual)


def check_mtp(graph: CollapsedChain, support_radius: int) -> ResidualReport:
    """Mass-transport balance for indicator test functions.

    For f(x,v) = 1[dist(x,v)=s, level(v)-level(x)=j] and x the root,
    sum_v f(x,v) must equal sum_v f(v,x) Delta(x,v), where Delta(x,v)
    is base**(level(v)).  Both sides are complete inside the ball when
    s <= support_radius.
    """
    if graph.level is None:
        raise ValueError("graph has no level labels")
    if support_radius + 1 > graph.radius:
        raise ValueError(
            f"support radius {support_radius} needs ball radius "
            f">= {support_radius + 1}, have {graph.radius}")
    base = graph.level_base
    counts: dict = {}
    for i in range(len(graph)):
        s = graph.depth[i]
        if s == 0 or s > support_radius:
            continue
        j = graph.level[i] - graph.level[graph.root]
        counts[(s, j)] = counts.get((s, j), 0) + 1
    rows = []
    passed = True
    for (s, j), lhs in sorted(counts.items()):
        rhs = counts.get((s, -j), 0) * Fraction(base) ** (-j)
        residual = lhs - rhs
        if residual != 0:
            passed = False
        rows.append((s, j, Fraction(lhs), rhs, residual))
    return ResidualReport(passed=passed, rows=rows)
