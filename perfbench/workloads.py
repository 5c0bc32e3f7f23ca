"""The three workloads: job lists, input sizes and output checks.

Each job runs in-process, through `walklab.cli.main(argv)` where the
CLI offers the computation and through the public library calls of the
acceptance suite otherwise.  Every computation and every check is one
operation; an operation fails on a nonzero exit code, a raised
exception, a NaN or empty output cell, or a check miss.  A failure is
recorded and the run goes on.

Modules of walklab are looked up as attributes at call time (never
imported by name here), so the wrappers a traced pass installs see
every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction
from time import perf_counter, process_time

import mpmath
import numpy as np

from walklab import bridges, cli, doob, models, quasi, series

# float vs exact return probabilities: ROADMAP 4(g) measured a relative
# error of at most 4e-14 up to n = 600
FLOAT_EXACT_RTOL = 4e-14
# one-sided risk per Monte Carlo comparison; a pass makes at most 48,
# so a correct sampler misses less than once in 10^4 runs under any seed
MC_DELTA = 1e-8

# Failures the parent commit is known to have, as (operation, detail)
# pairs: the detail pins the outcome measured there, so any other
# outcome of the same operation is a new failure.  Known failures still
# count as failed operations; they only leave `correct` true.
KNOWN_DEFECTS = {
    ("float/tree10-series: a_n cells are numbers",
     "54 NaN a_n cells, first at n=1347"):
        "ROADMAP 4(a): float u_n underflows to 0 for the tree with b=10 "
        "past n=1328, so a_n = 0/0 is NaN",
}

SIZES = {
    "exact": {
        "full": dict(series_nmax=200, renewal_n=200, smooth_n=60,
                     hwalk_n=40, compl_pm1_n=40, compl_gp_n=24),
        "bench": dict(series_nmax=120, renewal_n=140, smooth_n=60,
                      hwalk_n=30, compl_pm1_n=30, compl_gp_n=16),
        "smoke": dict(series_nmax=24, renewal_n=30, smooth_n=24,
                      hwalk_n=10, compl_pm1_n=10, compl_gp_n=6),
    },
    "float": {
        "full": dict(gp_n=1000, dl_n=240, tree_n=2000,
                     ballot_grid="200,500,1000", ballot_rmax=20,
                     compl_n=500, tree10_nmax=1400),
        "bench": dict(gp_n=500, dl_n=240, tree_n=2000,
                      ballot_grid="200,400,600", ballot_rmax=20,
                      compl_n=200, tree10_nmax=1400),
        "smoke": dict(gp_n=200, dl_n=240, tree_n=2000,
                      ballot_grid="100,200", ballot_rmax=5,
                      compl_n=60, tree10_nmax=1400),
    },
    "bridges": {
        "full": dict(gp_n=100, gp_samples=100_000, dl_n=100,
                     dl_samples=50_000),
        "bench": dict(gp_n=48, gp_samples=10_000, dl_n=48,
                      dl_samples=5_000),
        "smoke": dict(gp_n=20, gp_samples=2_000, dl_n=20, dl_samples=2_000),
    },
}

class Pass:
    """Operation and failure accounting for one pass of a workload."""

    def __init__(self, name, reference, record=None):
        self.name = name            # workload name, prefixes op names
        self.reference = reference  # digest name -> hex digest
        self.record = record        # dict to fill instead of comparing
        self.attempted = 0
        self.failures = []          # (op name, detail)
        self.cli_commands = []      # "command" fields seen in CLI headers
        self.job_walls = {}         # job -> wall seconds
        self.job_cpus = {}          # job -> process CPU seconds
        self.job = ""

    def fail(self, op, detail):
        self.failures.append((f"{self.name}/{self.job}: {op}", detail))

    def call(self, op, fn, *args, **kwargs):
        """One library call; returns its result, or None on an exception."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed operation, not a harness error
            self.fail(op, f"raised {exc!r}")
            return None

    def cli(self, argv):
        """One in-process CLI job; returns its stdout, or None on failure."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception as exc:
            self.fail(" ".join(argv), f"raised {exc!r}")
            return None
        if code != 0:
            self.fail(" ".join(argv),
                      f"exit code {code}: {err.getvalue().strip()[:200]}")
            return None
        return out.getvalue()

    def check(self, op, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.fail(op, detail or "check missed")
        return ok

    def digest(self, op, lines):
        """Compare the sha256 of `lines` with the committed reference."""
        key = f"{self.name}/{self.job}/{op}"
        value = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        if self.record is not None:
            self.record[key] = value
            return
        expected = self.reference.get(key)
        self.check(f"{op} digest", value == expected,
                   f"digest {value[:16]} != reference {str(expected)[:16]}")

    def csv(self, text):
        """Split CLI CSV output into its provenance header and data rows."""
        lines = text.splitlines()
        header = json.loads(lines[0][2:]) if lines[0].startswith("# ") else {}
        self.cli_commands.append(header.get("command"))
        return header, [ln.split(",") for ln in lines[2:]]


def _number(cell):
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _close(a, b, rtol):
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


def derived_seed(seed, index, job):
    """Seed handed to one job of one pass; a function of the run seed."""
    return random.Random(f"{seed}/{index}/{job}").randrange(1, 2 ** 31)


def _model(family, **kw):
    return models.build_model(models.ModelSpec(family, **kw))


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------

def _exact_series(p, argv, rho):
    """CLI `series` in exact mode: digest of the exact columns; a_n
    against u_n / rho^n with the closed-form rho (a callable, evaluated
    at 40 digits); f_over_u consistent with the digested u_n and f_n."""
    text = p.cli(argv)
    if text is None:
        return
    _, rows = p.csv(text)
    nmax = int(argv[argv.index("--nmax") + 1])
    p.check("row count", len(rows) == nmax + 1, f"{len(rows)} rows")
    p.digest("n,u_n,f_n", [",".join(r[:3]) for r in rows])
    bad, worst = [], 0.0
    with mpmath.workdps(40):
        rho = rho()
        for r in rows:
            n, u, f, a, ratio = r
            if not all(_number(c) for c in (u, f, a)) or \
                    (ratio == "") != (float(u) == 0):
                bad.append(n)
                continue
            if float(u) > 0:
                ref = mpmath.mpf(float(u)) / rho ** int(n)
                worst = max(worst, float(abs(mpmath.mpf(float(a)) / ref - 1)))
                if not _close(float(ratio), float(f) / float(u),
                              FLOAT_EXACT_RTOL):
                    bad.append(n)
    p.check("cells are numbers", not bad, f"bad rows n={bad[:5]}")
    p.check("a_n = u_n / rho^n", worst <= FLOAT_EXACT_RTOL,
            f"relative error {worst:.2e}")


def job_series_dl(p, s, seeds):
    _exact_series(p, ["series", "--family", "diestel_leader", "--q", "2",
                      "--r", "3", "--nmax", str(s["series_nmax"])],
                  lambda: 2 * mpmath.sqrt(6) / 5)


def job_series_gp(p, s, seeds):
    _exact_series(p, ["series", "--family", "grandparent", "--b", "2",
                      "--nmax", str(s["series_nmax"])],
                  lambda: (2 + mpmath.sqrt(2)) / 4)


def job_check(p, s, seeds):
    text = p.cli(["check"])
    if text is None:
        return
    lines = text.splitlines()
    p.check("all PASS", lines and all(ln.startswith("PASS") for ln in lines),
            "; ".join(ln for ln in lines if not ln.startswith("PASS")))
    p.digest("stdout", lines)


def job_renewal_taboo(p, s, seeds):
    n = s["renewal_n"]
    for family, kw in (("tree", {"b": 2}), ("grandparent", {"b": 2})):
        chain = p.call(f"{family} collapse", _model(family, **kw).collapse, n)
        u = p.call(f"{family} u exact", series.return_probabilities, chain, n)
        f1 = p.call(f"{family} renewal", series.first_return_probabilities, u)
        f2 = p.call(f"{family} taboo", series.taboo_first_return, chain, n)
        p.check(f"{family} renewal == taboo, n<={n}",
                f1 is not None and f2 is not None and f1.values == f2.values)


def job_smoothness(p, s, seeds):
    n = s["smooth_n"]
    for family, kw in (("tree", {"b": 2}), ("fixed_end_tree", {"b": 2}),
                       ("grandparent", {"b": 2}),
                       ("diestel_leader", {"q": 2, "r": 3})):
        model = _model(family, **kw)
        chain = p.call(f"{family} collapse", model.collapse, n)
        u = p.call(f"{family} u exact", series.return_probabilities, chain, n)
        rep = p.call(f"{family} smoothness", series.check_smoothness, u,
                     series.spectral_radius(model))
        p.check(f"{family} smooth, n<={n}", rep is not None and rep.ok
                and not rep.violations,
                str(rep and rep.violations[:3]))


def job_hwalk(p, s, seeds):
    n = s["hwalk_n"]
    model = _model("grandparent", b=2)
    rho = series.spectral_radius(model)
    chain = p.call("collapse", model.collapse, n)
    dc = p.call("doob_chain", doob.doob_chain, chain, rho)
    p.check("row sums == 1", dc is not None and dc.row_sum_check() == [])
    rev = p.call("reversibility", dc.reversibility_check)
    p.check("reversible", rev is not None and rev["ok"])
    u = p.call("u exact", series.return_probabilities, chain, n)
    a = p.call("normalize", series.normalized_series, u, rho)
    ret = p.call("h-walk series", dc.return_series_exact, n)
    p.check(f"h-walk return == a_2m, n<={n}",
            a is not None and ret is not None and
            all(ret[2 * m] == a.exact_even[m] for m in range(n // 2 + 1)))


def _laws():
    fe, gp = _model("fixed_end_tree", b=2), _model("grandparent", b=2)
    return (doob.increment_law(fe.level_profile(), series.spectral_radius(fe)),
            doob.increment_law(gp.level_profile(), series.spectral_radius(gp)))


def job_completeness_exact(p, s, seeds):
    pm1, gp = _laws()
    for name, law, n in (("pm1", pm1, s["compl_pm1_n"]),
                         ("grandparent", gp, s["compl_gp_n"])):
        res = p.call(f"{name} completeness", doob.completeness_residual,
                     law, n, mode="exact")
        p.check(f"{name} completeness == 0 exactly, n={n}",
                res is not None and res == 0, repr(res))


def job_quasi_mb(p, s, seeds):
    fe = _model("fixed_end_tree", b=2)
    profile = fe.level_profile()
    law = doob.increment_law(profile, series.spectral_radius(fe))
    schema = quasi.schema_from_profile(profile)
    chain = p.call("induced chain", quasi.induced_chain, schema,
                   quasi.perron(quasi.a_matrix(schema)), exact=True)
    for n, r in ((6, 0), (7, 1), (9, 3), (12, 2)):
        mb = p.call("mb ballot", quasi.mb_ballot_probability, chain, n, r)
        dp = p.call("ballot", doob.ballot_probability, law, n, r, mode="exact")
        p.check(f"mb ballot == doob ballot (n={n}, r={r})",
                mb is not None and mb == dp)
        mb = p.call("mb max", quasi.mb_max_and_return, chain, n, r)
        dp = p.call("max", doob.max_and_return, law, n, r, mode="exact")
        p.check(f"mb max_and_return == doob (n={n}, r={r})",
                mb is not None and mb == dp)
    mb = p.call("mb tau", quasi.mb_hitting_time_law, chain, 2, 10)
    dp = p.call("tau", doob.hitting_time_law, law, 2, 10, mode="exact")
    p.check("mb hitting law == doob, r=2, n<=10", mb is not None and mb == dp)


# ---------------------------------------------------------------------------
# float
# ---------------------------------------------------------------------------

def _float_vs_exact(p, u, exact):
    """Float u_n against exact values computed at the reference commit."""
    worst = 0.0
    for n, ref in enumerate(exact):
        ref = float(Fraction(ref))
        got = float(u.floats[n])
        if ref == 0:
            worst = max(worst, float(got != 0))
        else:
            worst = max(worst, abs(got / ref - 1))
    p.check(f"float u_n == exact, n<={len(exact) - 1}",
            worst <= FLOAT_EXACT_RTOL, f"relative error {worst:.2e}")


def job_gp_rho(p, s, seeds):
    n = s["gp_n"]
    chain = p.call("collapse", _model("grandparent", b=2).collapse, n)
    u = p.call("u float", series.return_probabilities, chain, n, mode="float")
    if u is None:
        return
    _float_vs_exact(p, u, p.reference["float/exact_u/grandparent"])
    est = p.call("ratio-limit rho", series.ratio_limit_rho, u, window=60)
    err = abs(est.value - (2 + math.sqrt(2)) / 4) if est else math.inf
    p.check("ratio-limit rho within 1e-4 of closed form", err < 1e-4,
            f"error {err:.2e}")


def job_dl_stretched(p, s, seeds):
    n = s["dl_n"]
    model = _model("diestel_leader", q=2, r=3)
    chain = p.call("collapse", model.collapse, n)
    u = p.call("u float", series.return_probabilities, chain, n, mode="float")
    if u is None:
        return
    _float_vs_exact(p, u, p.reference["float/exact_u/diestel_leader"])
    est = p.call("dl-mode rho", series.ratio_limit_rho, u, window=40,
                 dl_mode=True)
    err = abs(est.value - 2 * math.sqrt(6) / 5) if est else math.inf
    p.check("dl-mode rho within 1e-4 of closed form", err < 1e-4,
            f"error {err:.2e}")
    a = p.call("normalize", series.normalized_series, u,
               series.spectral_radius(model))
    fit = p.call("stretched fit", series.stretched_exponential_fit, a, 30, 150)
    p.check("stretched fit R^2 >= 0.99", fit is not None and fit[2] >= 0.99,
            str(fit))


def job_tree_fit_cli(p, s, seeds):
    text = p.cli(["fit", "--family", "tree", "--b", "2",
                  "--window", "100:1000", "--mode", "float"])
    if text is not None:
        rep = json.loads(text)
        p.cli_commands.append(rep["provenance"]["command"])
        p.check("rho == 2 sqrt(2)/3",
                abs(rep["rho"] - 2 * math.sqrt(2) / 3) < 1e-15)
        p.check("slope within 0.1 of -3/2", abs(rep["slope"] + 1.5) < 0.1,
                str(rep["slope"]))
    text = p.cli(["excursions", "--family", "tree", "--b", "2", "--n", "400"])
    if text is not None:
        rep = json.loads(text)
        p.check("excursion mass == 1", abs(rep["total_mass"] - 1) < 1e-9,
                str(rep["total_mass"]))
        p.check("excursion fields are numbers",
                all(map(math.isfinite, rep["alpha_law"] + [
                    rep["tv_to_geometric"], rep["geometric_parameter"]])))


def job_tree_renewal(p, s, seeds):
    n = s["tree_n"]
    model = _model("tree", b=2)
    chain = p.call("collapse", model.collapse, n)
    u = p.call("u float", series.return_probabilities, chain, n, mode="float")
    f = p.call("renewal", series.first_return_probabilities, u)
    if f is None:
        return
    rho = series.spectral_radius(model)
    a = p.call("normalize", series.normalized_series, u, rho)
    fit = p.call("fit", series.fit_exponent, a, 100, 1000, half_index=True,
                 correction=1)
    p.check("tree slope within 0.05 of -3/2",
            fit is not None and abs(fit[0] + 1.5) < 0.05, str(fit))
    amp = a.floats[n] * (n // 2) ** 1.5
    p.check("amplitude within 10% of b(b+1)/((b-1)^2 sqrt(pi))",
            abs(amp / (6 / math.sqrt(math.pi)) - 1) < 0.10, str(amp))
    gv = p.call("generating value", series.evaluate_generating, f,
                1 / rho.value, rho)
    ratio = f.floats[300] / u.floats[300]
    p.check("f/u at n=300 inside the generating-value interval",
            gv is not None and (1 - gv.upper) ** 2 * 0.95 <= ratio
            <= (1 - gv.lower) ** 2 * 1.05, str(ratio))
    lim = p.call("limit law", bridges.limit_excursion_law, f, rho)
    tvs = []
    for m in (100, 200, 400):
        law = p.call(f"excursion law n={m}", bridges.excursion_record_law,
                     u, f, m)
        p.check(f"excursion mass == 1, n={m}",
                law is not None and abs(float(law.total_mass) - 1) < 1e-9)
        if law is not None and lim is not None:
            tvs.append(bridges.geometric_tv_distance(
                law.alpha_law, lim["geometric_parameter"]))
    p.check("TV to geometric decreases", tvs == sorted(tvs, reverse=True)
            and len(tvs) == 3, str(tvs))
    eps = [0.5, 0.2, 0.1]
    got = p.call("CNW scan", bridges.cnw_condition_scan,
                 np.asarray(a.floats), eps, n)
    p.check("CNW scan finds N(eps)", got is not None and
            all(got[e] is not None for e in eps), str(got))


def job_ballot_cli(p, s, seeds):
    grid, rmax = s["ballot_grid"], s["ballot_rmax"]
    text = p.cli(["ballot", "--family", "grandparent", "--b", "2",
                  "--n-grid", grid, "--rmax", str(rmax)])
    if text is None:
        return
    head, rows = p.csv(text)
    p.check("row count", len(rows) == len(grid.split(",")) * (rmax + 1))
    p.check("cells are numbers", all(_number(c) for r in rows for c in r))
    p.check("probabilities in [0, 1]",
            all(0 <= float(r[i]) <= 1 for r in rows for i in (2, 3)))
    sups = [head.get(k) for k in ("sup_ballot", "sup_tau",
                                  "sup_max_and_return")]
    p.check("bound ratios < 10", all(x is not None and x < 10 for x in sups),
            str(sups))


def job_completeness_float(p, s, seeds):
    n = s["compl_n"]
    pm1, _ = _laws()
    res = p.call("completeness", doob.completeness_residual, pm1, n,
                 mode="float")
    p.check(f"float completeness < 1e-12, n={n}",
            res is not None and abs(res) < 1e-12, repr(res))


def job_tree10_series(p, s, seeds):
    nmax = s["tree10_nmax"]
    text = p.cli(["series", "--family", "tree", "--b", "10",
                  "--nmax", str(nmax), "--mode", "float"])
    if text is None:
        return
    _, rows = p.csv(text)
    p.check("row count", len(rows) == nmax + 1)
    p.check("u_n, f_n cells are numbers",
            all(_number(r[1]) and _number(r[2]) for r in rows))
    nan = [r[0] for r in rows if not _number(r[3])]
    p.check("a_n cells are numbers", not nan,
            f"{len(nan)} NaN a_n cells, first at n={nan[0] if nan else None}")


# ---------------------------------------------------------------------------
# bridges
# ---------------------------------------------------------------------------

def _eb_bound(se, samples, value_range, delta=MC_DELTA):
    """Empirical Bernstein deviation bound (Maurer and Pontil, 2009).

    With probability at least 1 - delta the sample mean of `samples`
    i.i.d. values in an interval of length `value_range` lies within
    this distance of the true mean; `se` is the reported standard error
    (sample std / sqrt(samples)).
    """
    log_term = math.log(2 / delta)
    return (se * math.sqrt(2 * log_term)
            + 7 * value_range * log_term / (3 * (samples - 1)))


def _levels(p, family_args, n, samples, seed, t0):
    argv = ["levels", *family_args, "--n", str(n), "--samples", str(samples),
            "--seed", str(seed)]
    text = p.cli(argv)
    if text is None:
        return
    head, rows = p.csv(text)
    p.check("seed reached the job", head.get("seed") == seed,
            f"header seed {head.get('seed')} != {seed}")
    p.check("windows k = -3..8",
            [int(r[1]) for r in rows] == list(range(-3, 9)))
    p.digest("n,k,exact_visits", [",".join(r[:3]) for r in rows])
    sub = min(2000, samples)  # the CLI's distinct-vertex subsample
    for r in rows:
        k = int(r[1])
        cells_ok = all(_number(c) for c in r[2:7]) and \
            ((r[7] == "") if k < 1 else _number(r[7]))
        if not p.check(f"k={k} cells are numbers", cells_ok, ",".join(r)):
            continue
        exact, mean, se, dmean, dse = (float(c) for c in r[2:7])
        tol = _eb_bound(se, samples, n + 1)
        p.check(f"k={k} MC visit mean vs exact", abs(mean - exact) <= tol,
                f"|{mean} - {exact}| > {tol:.3g}")
        dtol = _eb_bound(dse, sub, n + 1)
        p.check(f"k={k} distinct mean <= exact visits", dmean <= exact + dtol,
                f"{dmean} > {exact} + {dtol:.3g}")
        if k >= 1:
            p.check(f"k={k} bound == n exp(-k t0)",
                    _close(float(r[7]), n * math.exp(-t0 * k), 1e-12))


def job_levels_gp(p, s, seeds):
    _levels(p, ["--family", "grandparent", "--b", "2"], s["gp_n"],
            s["gp_samples"], seeds("levels-gp"), 2 * math.log(2))


def job_levels_dl(p, s, seeds):
    _levels(p, ["--family", "diestel_leader", "--q", "2", "--r", "3"],
            s["dl_n"], s["dl_samples"], seeds("levels-dl"), math.log(1.5))


JOBS = {
    "exact": [("series-dl", job_series_dl), ("series-gp", job_series_gp),
              ("check", job_check), ("renewal-taboo", job_renewal_taboo),
              ("smoothness", job_smoothness), ("hwalk", job_hwalk),
              ("completeness-exact", job_completeness_exact),
              ("quasi-mb", job_quasi_mb)],
    "float": [("gp-rho", job_gp_rho), ("dl-stretched", job_dl_stretched),
              ("tree-fit-cli", job_tree_fit_cli),
              ("tree-renewal", job_tree_renewal),
              ("ballot-cli", job_ballot_cli),
              ("completeness-float", job_completeness_float),
              ("tree10-series", job_tree10_series)],
    "bridges": [("levels-gp", job_levels_gp), ("levels-dl", job_levels_dl)],
}


def exact_u_reference(n=60):
    """Exact u_n used by the float workload's float-vs-exact checks."""
    out = {}
    for family, kw in (("grandparent", {"b": 2}),
                       ("diestel_leader", {"q": 2, "r": 3})):
        chain = _model(family, **kw).collapse(n)
        out[f"float/exact_u/{family}"] = [
            str(v) for v in series.return_probabilities(chain, n).values]
    return out


def run_pass(workload, size, seed, index, reference, tracer=None, record=None,
             probe=None):
    """Run every job of `workload` once; returns the filled `Pass`.

    `probe`, if given, is called before each job and after the last,
    outside the jobs' timing; `p.job_walls` and `p.job_cpus` hold each
    job's wall and process CPU seconds.
    """
    s = SIZES[workload][size]
    p = Pass(workload, reference, record)
    for job, fn in JOBS[workload]:
        p.job = job
        if tracer is not None:
            tracer.job = job
        if probe is not None:
            probe()
        t0, c0 = perf_counter(), process_time()
        try:
            fn(p, s, lambda name: derived_seed(seed, index, name))
        except Exception as exc:  # a job that cannot go on counts once
            p.attempted += 1
            p.fail("job", f"aborted: {exc!r}")
        p.job_walls[job] = perf_counter() - t0
        p.job_cpus[job] = process_time() - c0
    if probe is not None:
        probe()
    return p
