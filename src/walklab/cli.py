"""Batch command-line front end.

Subcommands build a model, run the requested computation and write CSV
or JSON with a provenance header.  Exit codes: 0 ok, 1 usage error,
2 computation error, 3 invariant failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import platform
import sys

import numpy as np
import scipy

from . import __version__
from . import bridges, doob, masstransport, quasi, series
from .models import ModelError, ModelSpec, build_model, validate_collapse

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTE = 2
EXIT_INVARIANT = 3


def _provenance(args, extra=None) -> dict:
    head = {
        "tool": "walklab",
        "version": __version__,
        "command": " ".join(args.argv),
        "arithmetic": getattr(args, "mode", "exact"),
        "seed": getattr(args, "seed", None),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    if extra:
        head.update(extra)
    return head


def _model_from_args(args):
    spec = ModelSpec(family=args.family, b=args.b, q=args.q, r=args.r,
                     alpha=args.alpha, beta=args.beta)
    return build_model(spec)


# cartesian needs two factor specs and free_product has no collapsed
# chain, so both are library-only
CLI_FAMILIES = [f for f in ModelSpec.FAMILIES
                if f not in ("cartesian", "free_product")]


def _add_model_args(p):
    p.add_argument("--family", required=True, choices=CLI_FAMILIES)
    p.add_argument("--b", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--alpha", type=int)
    p.add_argument("--beta", type=int)


@contextlib.contextmanager
def _out(args):
    """The --output stream; a named file is closed when the block ends."""
    if args.output == "-":
        yield sys.stdout
    else:
        with open(args.output, "w") as fh:
            yield fh


def cmd_series(args) -> int:
    model = _model_from_args(args)
    chain = model.collapse(args.nmax)
    u = series.return_probabilities(chain, args.nmax, mode=args.mode)
    f = series.first_return_probabilities(u)
    rho = series.spectral_radius(model, u)
    a = series.normalized_series(u, rho)
    with _out(args) as out:
        out.write("# " + json.dumps(_provenance(args, {"rho": rho.value}))
                  + "\n")
        out.write("n,u_n,f_n,a_n,f_over_u\n")
        for n, un, fn, an in zip(range(args.nmax + 1), u.floats.tolist(),
                                 f.floats.tolist(), a.floats.tolist()):
            ratio = repr(fn / un) if un > 0 else ""
            out.write(f"{n},{un!r},{fn!r},{an!r},{ratio}\n")
    return EXIT_OK


def cmd_fit(args) -> int:
    model = _model_from_args(args)
    lo, hi = (int(x) for x in args.window.split(":"))
    chain = model.collapse(hi)
    u = series.return_probabilities(chain, hi, mode=args.mode)
    rho = series.spectral_radius(model, u)
    a = series.normalized_series(u, rho)
    slope, stderr, intercept = series.fit_exponent(a, lo, hi)
    report = {"provenance": _provenance(args),
              "rho": rho.value, "window": [lo, hi],
              "slope": slope, "stderr": stderr, "intercept": intercept}
    with _out(args) as out:
        out.write(json.dumps(report, indent=2) + "\n")
    return EXIT_OK


def cmd_ballot(args) -> int:
    model = _model_from_args(args)
    rho = series.spectral_radius(model)
    law = doob.increment_law(model.level_profile(), rho)
    n_grid = [int(x) for x in args.n_grid.split(",")]
    r_grid = list(range(0, args.rmax + 1))
    scan = doob.bound_constant_scan(law, n_grid, r_grid)
    with _out(args) as out:
        out.write("# " + json.dumps(_provenance(args, {
            "arithmetic": "float", "sup_ballot": scan["sup_ballot"],
            "sup_tau": scan["sup_tau"],
            "sup_max_and_return": scan["sup_max_and_return"]})) + "\n")
        out.write("n,r,ballot,max_and_return,ballot_norm,max_norm\n")
        for n, r, bp, mr, nb, nm in scan["table"]:
            out.write(f"{n},{r},{bp!r},{mr!r},{nb!r},{nm!r}\n")
    return EXIT_OK


def cmd_levels(args) -> int:
    model = _model_from_args(args)
    chain = model.collapse(args.n)
    u = series.return_probabilities(chain, args.n)
    stats = bridges.mc_bridge_statistics(model, args.n, args.samples,
                                         args.seed, chain=chain)
    profile = model.level_profile()
    t0 = profile.t0
    with _out(args) as out:
        out.write("# " + json.dumps(_provenance(
            args, {"mc_arithmetic": "float"})) + "\n")
        out.write("n,k,exact_visits,mc_visit_mean,mc_visit_se,"
                  "mc_distinct_mean,mc_distinct_se,bound\n")
        for k, (mean, se) in sorted(stats.visit_means.items()):
            ev = float(bridge_visits_safe(chain, u, args.n, k))
            dm, dse, _ = stats.distinct_means.get(k, (float("nan"),
                                                      float("nan"), 0))
            # n e^{-k t0} bounds P[w reaches H_k+] only for a level family
            bound = (repr(float(args.n * np.exp(-t0 * k)))
                     if k >= 1 and profile.base is not None else "")
            out.write(f"{args.n},{k},{ev!r},{mean!r},{se!r},{dm!r},"
                      f"{dse!r},{bound}\n")
    return EXIT_OK


def bridge_visits_safe(chain, u, n, k):
    try:
        return bridges.bridge_level_visits(chain, u, n, k)
    except bridges.BridgeError:
        return float("nan")


def cmd_excursions(args) -> int:
    model = _model_from_args(args)
    chain = model.collapse(args.n)
    mode = "exact" if args.n <= 60 else "float"
    u = series.return_probabilities(chain, args.n, mode=mode)
    f = series.first_return_probabilities(u)
    rho = series.spectral_radius(model, u)
    law = bridges.excursion_record_law(u, f, args.n)
    limit = bridges.limit_excursion_law(f, rho)
    tv = bridges.geometric_tv_distance(law.alpha_law,
                                       limit["geometric_parameter"])
    report = {
        "provenance": _provenance(args, {"arithmetic": mode}),
        "n": args.n,
        "alpha_law": [float(x) for x in law.alpha_law[:20]],
        "total_mass": float(law.total_mass),
        "f_over_u": float(law.f_over_u),
        "geometric_parameter": limit["geometric_parameter"],
        "target_ratio": limit["target_ratio"],
        "tv_to_geometric": tv,
        "note": "geometric limit is a conjecture; tv is a trend diagnostic",
    }
    with _out(args) as out:
        out.write(json.dumps(report, indent=2) + "\n")
    return EXIT_OK


def cmd_quasi(args) -> int:
    with open(args.schema) as fh:
        schema = quasi.parse_schema(fh.read())
    A = quasi.a_matrix(schema)
    pd = quasi.perron(A)
    checks = quasi.stationary_and_mean_checks(schema, pd)
    report = {
        "provenance": _provenance(args, {"arithmetic": "float"}),
        "L": schema.L,
        "degrees": schema.degrees,
        "rho": pd.rho,
        "v": pd.v.tolist(),
        "pi": pd.pi.tolist(),
        "eigen_residual": pd.residual,
        "checks": checks,
    }
    with _out(args) as out:
        out.write(json.dumps(report, indent=2) + "\n")
    if not checks["pairwise_cancellation_exact"]:
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_check(args) -> int:
    failures = []
    n_check = 8 if args.quick else 12
    fams = [ModelSpec("tree", b=2), ModelSpec("fixed_end_tree", b=2),
            ModelSpec("grandparent", b=2),
            ModelSpec("diestel_leader", q=2, r=3)]
    for spec in fams:
        model = build_model(spec)
        rep = validate_collapse(model, n_check)
        line = f"collapse-vs-ball {model.name()} n<={n_check}"
        if rep.ok:
            print(f"PASS {line}")
        else:
            print(f"FAIL {line}: mismatches at {rep.mismatches}")
            failures.append(line)
        if model.level_base is not None:
            prof = model.level_profile()
            r1 = masstransport.check_neighbor_mtp(prof)
            if r1.passed:
                print(f"PASS neighbor-mtp {model.name()}")
            else:
                print(f"FAIL neighbor-mtp {model.name()}")
                failures.append("neighbor-mtp " + model.name())
        chain = model.collapse(40)
        u = series.return_probabilities(chain, 40)
        f1 = series.first_return_probabilities(u)
        f2 = series.taboo_first_return(chain, 40)
        if np.array_equal(f1.numerators, f2.numerators):
            print(f"PASS renewal-vs-taboo {model.name()} n<=40")
        else:
            print(f"FAIL renewal-vs-taboo {model.name()}")
            failures.append("renewal " + model.name())
    if failures:
        return EXIT_INVARIANT
    return EXIT_OK


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = argparse.ArgumentParser(prog="walklab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", help="u, f, a series as CSV")
    _add_model_args(p)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--mode", choices=["exact", "float"], default="exact")
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("fit", help="power-law exponent of a_n")
    _add_model_args(p)
    p.add_argument("--window", required=True, help="lo:hi")
    p.add_argument("--mode", choices=["exact", "float"], default="float")
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("ballot", help="level-walk ballot tables")
    _add_model_args(p)
    p.add_argument("--n-grid", default="200,500,1000")
    p.add_argument("--rmax", type=int, default=10)
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_ballot)

    p = sub.add_parser("levels", help="bridge level statistics (MC + exact)")
    _add_model_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_levels)

    p = sub.add_parser("excursions", help="bridge excursion record law")
    _add_model_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_excursions)

    p = sub.add_parser("quasi", help="orbit schema analysis")
    p.add_argument("--schema", required=True)
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_quasi)

    p = sub.add_parser("check", help="run invariant suites")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=cmd_check)

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0,) else 0
    args.argv = list(argv)
    try:
        return args.func(args)
    except (ModelError, series.SeriesError, doob.DoobError,
            quasi.SchemaError, bridges.BridgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
