"""Return and first-return series: exact DPs, renewal inversion, spectral
radius, normalization, generating functions and smoothness checks.  An
exact series is the walk kernel's integer numerators over d**n."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import accumulate
from math import comb
from typing import Optional, Sequence

import mpmath
import numpy as np

from .chains import CollapsedChain
from .models import WalkModel
from .qfield import QuadExt, sqrt_exact


class SeriesError(ValueError):
    pass


@dataclass
class ProbabilitySeries:
    """u_n or f_n as value_n = numerators[n] / denom**n: the walk kernel's
    integers (an object array) over the degree d, so renewal and every
    convolution run on integers, as d**k * d**(n-k) = d**n; float64 or
    Fractions over 1.  ``floats`` rounds each value; ``values`` and
    indexing give Fractions."""
    numerators: np.ndarray
    denom: int
    kind: str  # "u" (return) or "f" (first return)

    def __post_init__(self):
        nums = self.numerators
        # int / int is correctly rounded, as float(Fraction) is
        self.floats = nums if not self.exact else np.array(
            [float(x / self.denom ** n) for n, x in enumerate(nums)])
        self.period = 2 if len(nums) >= 4 and not any(nums[1::2]) else 1

    @classmethod
    def from_exact(cls, values: Sequence[Fraction], kind: str) -> "ProbabilitySeries":
        return cls(np.array(values, dtype=object), 1, kind)

    @classmethod
    def from_float(cls, floats: np.ndarray, kind: str) -> "ProbabilitySeries":
        return cls(np.asarray(floats, dtype=float), 1, kind)

    @property
    def exact(self) -> bool:
        return self.numerators.dtype == object

    @property
    def values(self) -> Optional[list]:
        """The exact values as Fractions, None for a float series."""
        return [self[n] for n in range(len(self))] if self.exact else None

    @property
    def n_max(self) -> int:
        return len(self.numerators) - 1

    def __len__(self):
        return len(self.numerators)

    def __getitem__(self, n):
        if self.exact:
            return Fraction(self.numerators[n], self.denom ** n)
        return self.floats[n]


def return_probabilities(chain: CollapsedChain, n_max: int,
                         mode: str = "exact") -> ProbabilitySeries:
    if mode == "exact":
        return ProbabilitySeries(np.array([1, *chain.root_walk(n_max)],
                                          dtype=object), chain.denom, "u")
    if mode == "float":
        return ProbabilitySeries.from_float(chain.return_series_float(n_max), "u")
    raise SeriesError(f"unknown mode {mode!r}")


def first_return_probabilities(u: ProbabilitySeries) -> ProbabilitySeries:
    """Renewal inversion: f_n = u_n - sum_{k=1}^{n-1} f_k u_{n-k}, on the
    numerators, exact or float alike."""
    if u.kind != "u":
        raise SeriesError("expected a return series")
    U = u.numerators
    if U[0] != 1:
        raise SeriesError("return series must start at u_0 = 1")
    F = np.zeros_like(U)
    for n in range(1, len(U)):
        F[n] = U[n] - np.dot(F[1:n], U[n - 1:0:-1])
    return ProbabilitySeries(F, u.denom, "f")


def taboo_first_return(chain: CollapsedChain, n_max: int,
                       mode: str = "exact") -> ProbabilitySeries:
    if mode == "exact":
        return ProbabilitySeries(np.array(
            [0, *chain.root_walk(n_max, taboo=True)], dtype=object),
            chain.denom, "f")
    if mode == "float":
        return ProbabilitySeries.from_float(chain.taboo_series_float(n_max), "f")
    raise SeriesError(f"unknown mode {mode!r}")


def renewal_residuals(u: ProbabilitySeries, f: ProbabilitySeries) -> list:
    """u_n - sum_k f_k u_{n-k} for n >= 1, as numerators over denom**n;
    all zero when consistent."""
    if u.denom != f.denom:
        raise SeriesError("u and f must share a denominator")
    U, F = u.numerators, f.numerators
    return [U[n] - np.dot(F[1:n + 1], U[n - 1::-1])
            for n in range(1, min(len(U), len(F)))]


# ---------------------------------------------------------------------------
# Spectral radius
# ---------------------------------------------------------------------------

@dataclass
class SpectralRadius:
    value: float
    provenance: str  # "closed-form" or "ratio-limit"
    exact: Optional[QuadExt] = None          # closed form when available
    uncertainty: Optional[float] = None
    rho_squared = cached_property(
        lambda self: None if self.exact is None else self.exact * self.exact)

    def rho_squared_rational(self) -> Optional[Fraction]:
        rs = self.rho_squared
        if rs is not None and rs.is_rational():
            return rs.as_fraction()
        return None


def closed_form_rho(model: WalkModel) -> Optional[SpectralRadius]:
    fam = model.spec.family
    if fam in ("tree", "fixed_end_tree"):
        b = model.spec.b
        rho = sqrt_exact(b) * Fraction(2, b + 1)
    elif fam == "grandparent":
        # (1/d) * sum over the profile of t_q sqrt(q) = (2b + 2 sqrt(b)) / d
        b, d = model.spec.b, model.degree
        rho = (2 * b + 2 * sqrt_exact(b)) * Fraction(1, d)
    elif fam == "diestel_leader":
        q, r = model.spec.q, model.spec.r
        rho = sqrt_exact(q * r) * Fraction(2, q + r)
    elif fam == "cartesian":
        r1 = closed_form_rho(model.f1)
        r2 = closed_form_rho(model.f2)
        if r1 is None or r2 is None:
            return None
        d1, d2 = model.f1.degree, model.f2.degree
        try:
            rho = (d1 * r1.exact + d2 * r2.exact) / (d1 + d2)
        except ValueError:  # incompatible quadratic fields
            val = (d1 * r1.value + d2 * r2.value) / (d1 + d2)
            return SpectralRadius(value=val, provenance="closed-form")
    else:
        return None
    return SpectralRadius(value=float(rho), provenance="closed-form",
                          exact=rho)


def profile_rho(model: WalkModel) -> QuadExt:
    """Evaluate (1/d) sum_q t_q sqrt(q) from the level profile exactly.

    Valid when the walk admits a square-root-of-modular harmonic function,
    which holds for the fixed-end tree, grandparent and DL families.
    """
    profile = model.level_profile()
    if profile.base is None:
        raise SeriesError("profile formula needs a nontrivial level structure")
    acc = None
    for q, t in profile.entries:
        term = t * sqrt_exact(q)
        acc = term if acc is None else acc + term
    return acc * Fraction(1, profile.degree)


def ratio_limit_rho(u: ProbabilitySeries, window: int = 40,
                    dl_mode: bool = False) -> SpectralRadius:
    """Estimate rho from ratios u_{2m+2}/u_{2m} by fitting the decay shape.

    Standard mode assumes a_n behaves like a power of n, so log of the
    ratio is fitted against {1, 1/m, 1/m^2}.  DL mode adds the increment
    of m^{1/3} to the basis for the stretched-exponential profile.
    """
    uf = u.floats
    even = np.arange(0, len(uf), 2)
    even = even[uf[even] > 0]
    if len(even) < 10:
        raise SeriesError("series too short for the ratio estimator")
    m = even[:-1] // 2
    ratios = uf[even[1:]] / uf[even[:-1]]
    keep = m >= 1
    m, ratios = m[keep], ratios[keep]
    if window < len(m):
        m, ratios = m[-window:], ratios[-window:]
    y = np.log(ratios)
    cols = [np.ones_like(m, dtype=float), 1.0 / m, 1.0 / m ** 2]
    if dl_mode:
        d3 = (m + 1.0) ** (1 / 3) - m ** (1 / 3)
        cols.insert(1, d3)
        cols.append(d3 / m)
        cols.append(d3 / m ** 2)
    X = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    rho = float(np.exp(coef[0] / 2))
    # crude uncertainty: residual scale plus the size of the smallest
    # basis correction at the end of the window
    unc = rho * (np.abs(resid).max() + abs(coef[-1] * X[-1, -1]))
    return SpectralRadius(value=rho, provenance="ratio-limit",
                          uncertainty=float(unc))


def spectral_radius(model: WalkModel,
                    u: Optional[ProbabilitySeries] = None) -> SpectralRadius:
    closed = closed_form_rho(model)
    if closed is not None:
        return closed
    if u is None:
        raise SeriesError("no closed form for this model; supply a series")
    return ratio_limit_rho(u)


# ---------------------------------------------------------------------------
# Normalization and fits
# ---------------------------------------------------------------------------

@dataclass
class NormalizedSeries:
    """a_n = u_n / rho^n with exact even-index values when rho^2 is exact."""
    floats: np.ndarray
    period: int
    exact_even: Optional[list] = None  # a_{2m} for m = 0.., Fraction or QuadExt

    @property
    def n_max(self) -> int:
        return len(self.floats) - 1


def normalized_series(u: ProbabilitySeries, rho: SpectralRadius) -> NormalizedSeries:
    floats = u.floats / rho.value ** np.arange(len(u.floats))
    exact_even = None
    if u.exact and rho.rho_squared is not None:
        # a_{2m} = U_{2m} / (denom**2 rho**2)**m
        step = rho.rho_squared * u.denom ** 2
        exact_even, power = [Fraction(1)], step
        for x in u.numerators[2::2]:
            exact_even.append(x / power)
            power = power * step
    return NormalizedSeries(floats=floats, period=u.period, exact_even=exact_even)


def fit_exponent(a: NormalizedSeries, n_lo: int, n_hi: int,
                 half_index: bool = False, correction: int = 0):
    """Least-squares slope of log a_n against log n over [n_lo, n_hi].

    Returns (slope, stderr, intercept).  Uses the even subsequence when
    the period is 2.  With ``half_index`` the window indexes the even
    subsequence itself (fit of log a_{2n} against log n for n in the
    window).  ``correction`` adds 1/n (and 1/n^2) nuisance columns, which
    removes the leading finite-size bias of the plain log-log fit.
    """
    if half_index:
        ns = np.arange(n_lo, n_hi + 1)
        idx = 2 * ns
        idx = idx[idx <= a.n_max]
        ns = ns[: len(idx)]
    else:
        step = a.period
        start = n_lo if n_lo % step == 0 or step == 1 else n_lo + 1
        idx = ns = np.arange(start, min(n_hi, a.n_max) + 1, step)
    vals = a.floats[idx]
    _check_fit_cells(idx, vals)
    if len(ns) < 3 + correction:
        raise SeriesError("degenerate fit window")
    x, y = np.log(ns), np.log(vals)
    cols = [np.ones_like(x), x]
    for k in range(1, correction + 1):
        cols.append(1.0 / ns.astype(float) ** k)
    X = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    dof = max(len(ns) - X.shape[1], 1)
    cov = np.linalg.inv(X.T @ X) * float(resid @ resid) / dof
    return float(coef[1]), float(np.sqrt(cov[1, 1])), float(coef[0])


def _check_fit_cells(ns, vals) -> None:
    """Raise on the first a_n of ``ns`` that is not finite and positive
    (an underflow to 0, a NaN): a log fit must not drop it silently."""
    bad = np.flatnonzero(~(np.isfinite(vals) & (vals > 0)))
    if len(bad):
        raise SeriesError(f"cannot fit log a_n: a_{ns[bad[0]]} = "
                          f"{float(vals[bad[0]])!r} in the window")


def stretched_exponential_fit(a: NormalizedSeries, n_lo: int, n_hi: int):
    """Fit log a_n against n^{1/3} (even n); returns (slope, intercept, r2)."""
    ns = np.arange(n_lo + n_lo % 2, min(n_hi, a.n_max) + 1, 2)
    vals = a.floats[ns]
    _check_fit_cells(ns, vals)
    x, y = ns ** (1 / 3), np.log(vals)
    coef = np.polyfit(x, y, 1)
    pred = np.polyval(coef, x)
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return float(coef[0]), float(coef[1]), 1.0 - ss_res / ss_tot


# ---------------------------------------------------------------------------
# Generating functions
# ---------------------------------------------------------------------------

@dataclass
class GeneratingValue:
    value: float
    lower: float
    upper: float


def evaluate_generating(series: ProbabilitySeries, z: float,
                        rho: SpectralRadius,
                        tail: str = "power") -> GeneratingValue:
    """Sum_n series_n z^n for |z| <= 1/rho with a tail interval.

    The tail beyond the computed range is modeled as C n^{-3/2} rho^n
    (fitted over the last window); "geometric" instead bounds the tail by
    a geometric series from the last computed term.
    """
    vals = series.floats
    n = np.arange(len(vals))
    zr = z * rho.value
    if zr > 1 + 1e-12:
        raise SeriesError("evaluation point beyond 1/rho")
    partial = float(np.sum(vals * z ** n))
    a = vals / rho.value ** n
    step = series.period
    N = len(vals) - 1
    window = [k for k in range(max(2, N - 40 * step), N + 1)
              if a[k] > 0 and (step == 1 or k % 2 == 0)]
    if not window:
        return GeneratingValue(partial, partial, partial)
    if tail == "power":
        C = max(a[k] * k ** 1.5 for k in window)
        tail_hi = _power_tail(C, N, zr, step)
        return GeneratingValue(partial + tail_hi / 2, partial, partial + tail_hi)
    if tail == "geometric":
        last = window[-1]
        q = zr ** step
        if q >= 1:
            raise SeriesError("geometric tail diverges at z = 1/rho")
        tail_hi = a[last] * q / (1 - q)
        return GeneratingValue(partial + tail_hi / 2, partial, partial + tail_hi)
    raise SeriesError(f"unknown tail model {tail!r}")


def _power_tail(C: float, N: int, zr: float, step: int) -> float:
    if zr >= 1 - 1e-12:
        # sum of C n^{-3/2} over n > N in the residue class mod step
        return C * step ** -1.5 * float(mpmath.zeta(1.5, N / step + 1))
    total = 0.0
    n = N + step
    while True:
        term = C * n ** -1.5 * zr ** n
        total += term
        if term < 1e-17 * max(total, 1e-300):
            break
        n += step
    return total


def cartesian_series(u1: ProbabilitySeries, d1: int,
                     u2: ProbabilitySeries, d2: int,
                     n_max: int) -> ProbabilitySeries:
    """Exact return series of a Cartesian product from its factors.

    Each step picks the first factor with probability d1/(d1+d2), so
    u_n of the product is the binomial mixture of the factor series.
    Over the factors' degrees the weights d1**k d2**(n-k) cancel: the
    numerators are sum_k C(n, k) U1_k U2_{n-k} over (d1+d2)**n.
    """
    if u1.n_max < n_max or u2.n_max < n_max:
        raise SeriesError("factor series too short")
    if (u1.denom, u2.denom) != (d1, d2) or not (u1.exact and u2.exact):
        raise SeriesError("factor series must be exact numerators over "
                          "their degrees")
    U1, U2 = u1.numerators, u2.numerators
    return ProbabilitySeries(np.array(
        [sum(comb(n, k) * U1[k] * U2[n - k] for k in range(n + 1))
         for n in range(n_max + 1)], dtype=object), d1 + d2, "u")


# ---------------------------------------------------------------------------
# Smoothness suite
# ---------------------------------------------------------------------------

@dataclass
class SmoothnessReport:
    ratio_lower_ok: bool          # u_2 <= u_{2k+2} / u_{2k}
    ratio_upper_ok: bool          # u_{2k+2} / u_{2k} <= rho^2
    odd_le_even_ok: bool          # u_{2m+1} <= u_{2m}
    even_c1: object               # min of u_{n-2k} rho^{2k} / u_n over even n
    even_c1_ge_1: bool
    odd_c1: Optional[float]       # same over odd n (float report)
    ratio_trajectory: list        # u_{n+d}/u_n along the period class
    violations: list

    @property
    def ok(self) -> bool:
        return (self.ratio_lower_ok and self.ratio_upper_ok
                and self.odd_le_even_ok and self.even_c1_ge_1)


def check_smoothness(u: ProbabilitySeries, rho: SpectralRadius) -> SmoothnessReport:
    """The inequalities on the numerators U_n = u_n d**n: ratio-lower
    U_{2k+2} >= U_2 U_{2k}, odd-le-even U_{2m+1} <= d U_{2m}.  With rho^2
    exact, on a_m = u_{2m} / rho^{2m}: ratio-upper a_{k+1} <= a_k, and as
    u_{n-2k} rho^{2k} / u_n = a_{n/2-k} / a_{n/2}, even_c1 is the least
    (min_{j<m} a_j) / a_m over m >= 1 with a_m != 0.  Only a violation's
    value is a Fraction; odd_c1 and ratio_trajectory are floats."""
    if not u.exact:
        raise SeriesError("smoothness suite needs the exact series")
    U, dd = u.numerators, u.denom ** 2
    if len(U) < 21:
        raise SeriesError("series too short (need n_max >= 20)")
    a = normalized_series(u, rho).exact_even
    violations = []
    for k in range(1, (len(U) - 1) // 2):
        if U[2 * k + 2] < U[2] * U[2 * k]:
            violations.append(("ratio-lower", 2 * k,
                               Fraction(U[2 * k + 2], U[2 * k] * dd)))
        if a is not None and a[k + 1] > a[k]:
            violations.append(("ratio-upper", 2 * k,
                               Fraction(U[2 * k + 2], U[2 * k] * dd)))
    violations += [("odd-le-even", 2 * m + 1, u[2 * m + 1])
                   for m in range(len(U) // 2)
                   if U[2 * m + 1] > u.denom * U[2 * m]]

    even_c1 = None if a is None else min(
        (low / x for low, x, X in zip(accumulate(a, min), a[1:], U[2::2])
         if X), default=None)

    rho2, uf, odd_c1 = rho.rho_squared, u.floats.tolist(), None
    if rho2 is not None:
        r2, odds = float(rho2), [n for n in range(1, len(U), 2) if U[n] > 0]
        odd_c1 = min((uf[n - 2 * k] * r2 ** k / uf[n] for n in odds
                      for k in range(1, (n - odds[0]) // 2 + 1)), default=None)

    d = u.period
    traj = [uf[n + d] / uf[n] for n in range(d, len(U) - d, d) if U[n] > 0]

    kinds = {kind for kind, _, _ in violations}
    return SmoothnessReport(
        ratio_lower_ok="ratio-lower" not in kinds,
        ratio_upper_ok="ratio-upper" not in kinds,
        odd_le_even_ok="odd-le-even" not in kinds, even_c1=even_c1,
        even_c1_ge_1=even_c1 is None or not (even_c1 < 1), odd_c1=odd_c1,
        ratio_trajectory=traj, violations=violations)
