"""Exact verification of the modular-function identities.

The level labels on a ball encode log of the stabilizer-orbit ratio in
lattice units, so the neighbor identity, the cocycle telescoping and the
mass-transport balance can all be checked with rational arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .models import ExplicitGraph, LevelProfile


@dataclass
class CheckReport:
    name: str
    passed: bool
    details: list = field(default_factory=list)
    witnesses: list = field(default_factory=list)


def check_neighbor_mtp(profile: LevelProfile) -> CheckReport:
    """Neighbor count balance: t_{1/q} = q * t_q for every ratio q."""
    counts = {Fraction(q): t for q, t in profile.entries}
    details, witnesses = [], []
    for q, t in counts.items():
        inv = 1 / q
        t_inv = counts.get(inv)
        if t_inv is None:
            witnesses.append((q, "missing inverse ratio"))
            continue
        if t_inv != q * t:
            witnesses.append((q, f"t_1/q = {t_inv} != q*t_q = {q * t}"))
        else:
            details.append(f"q={q}: t_1/q={t_inv} = q*t_q")
    if sum(counts.values()) != profile.degree:
        witnesses.append(("degree", f"sum t_q = {sum(counts.values())}"))
    return CheckReport("neighbor_mtp", not witnesses, details, witnesses)


def check_cocycle(graph: ExplicitGraph, triples: int = 1000,
                  seed: int = 0) -> CheckReport:
    """Telescoping of level differences over sampled vertex triples."""
    if graph.levels is None:
        return CheckReport("cocycle", False,
                           witnesses=["graph has no level labels"])
    rng = random.Random(seed)
    lv = graph.levels
    n = len(graph)
    witnesses = []
    for _ in range(triples):
        x, y, z = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        if (lv[y] - lv[x]) + (lv[z] - lv[y]) != lv[z] - lv[x]:
            witnesses.append((x, y, z))
    return CheckReport("cocycle", not witnesses,
                       details=[f"{triples} triples checked"],
                       witnesses=witnesses)


@dataclass
class ResidualReport:
    passed: bool
    rows: list  # (distance, level_diff, lhs, rhs, residual)


def check_mtp(graph: ExplicitGraph, support_radius: int) -> ResidualReport:
    """Mass-transport balance for indicator test functions.

    For f(x,v) = 1[dist(x,v)=s, level(v)-level(x)=j] and x the root,
    sum_v f(x,v) must equal sum_v f(v,x) Delta(x,v), where Delta(x,v)
    is base**(level(v)).  Both sides are complete inside the ball when
    s <= support_radius.
    """
    if graph.levels is None:
        raise ValueError("graph has no level labels")
    if support_radius + 1 > graph.radius:
        raise ValueError(
            f"support radius {support_radius} needs ball radius "
            f">= {support_radius + 1}, have {graph.radius}")
    base = graph.level_base
    counts: dict = {}
    for i in range(len(graph)):
        s = graph.dist[i]
        if s == 0 or s > support_radius:
            continue
        j = graph.levels[i] - graph.levels[graph.root]
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
