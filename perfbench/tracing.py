"""Span recorder and wrappers installed around walklab's public calls.

The wrappers live here, in the benchmark, and are installed only for a
traced pass; `Tracer.uninstall` puts every original object back, so
untraced passes run the unmodified program.

A span is recorded for each call of a wrapped function or method:
name, layer, start, end, parent span and job id.  Spans stay in memory
and are written out by the caller when the run ends.  `QuadExt`
operators are too fine-grained for one span each; the outermost
operator call is counted and timed instead, and its time is charged to
the enclosing span as child time.

Self time of a span is its duration minus the time its child spans and
outermost `QuadExt` operators cover.
"""

from __future__ import annotations

import functools
import inspect
from time import perf_counter

LAYERS = ("models", "chains", "series", "qfield", "doob", "quasi",
          "bridges", "masstransport", "cli")

# Methods that do a whole computation.  Per-state helpers such as
# `orbit_moves`, `neighbors` or `step_numerators` run inside those and
# are left unwrapped: a span per call would cost more than their work.
METHODS = {
    "models": {"WalkModel": ("enumerate_ball", "collapse")},
    "chains": {"CollapsedChain": ("return_series_exact", "taboo_series_exact",
                                  "return_series_float", "taboo_series_float",
                                  "matrix")},
    "doob": {"DoobChain": ("row_sum_check", "reversibility_check",
                           "return_series_exact", "return_series_float"),
             "LevelIncrementLaw": ("validate",)},
    "quasi": {"OrbitSchema": ("validate",),
              "MarkovAdditiveChain": ("validate",)},
}

QUAD_OPS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
            "__mul__", "__rmul__", "inverse", "__truediv__", "__rtruediv__",
            "__pow__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
            "sign", "__float__", "to_mpf")

BALLOT_DPS = ("ballot_probability", "hitting_time_law", "max_and_return",
              "return_to_zero")
DP_SPANS = {f"doob.{f}[{m}]" for f in BALLOT_DPS for m in ("exact", "float")}
TABLE_SPANS = {"doob.completeness_residual", "doob.bound_constant_scan"}

# name of a per-layer time metric -> the spans whose self time it sums
TIME_METRICS = {
    "models.collapse_s": ("models.WalkModel.collapse",),
    "models.ball_s": ("models.WalkModel.enumerate_ball",
                      "models.validate_collapse",
                      "models.ball_return_series"),
    "chains.exact_dp_s": ("chains.CollapsedChain.return_series_exact",
                          "chains.CollapsedChain.taboo_series_exact"),
    "chains.float_dp_s": ("chains.CollapsedChain.return_series_float",
                          "chains.CollapsedChain.taboo_series_float"),
    "chains.matrix_s": ("chains.CollapsedChain.matrix",),
    "series.renewal_exact_s": ("series.first_return_probabilities[exact]",),
    "series.renewal_float_s": ("series.first_return_probabilities[float]",),
    "series.normalize_s": ("series.normalized_series",),
    "series.fit_s": ("series.fit_exponent", "series.stretched_exponential_fit",
                     "series.ratio_limit_rho"),
    "series.smoothness_s": ("series.check_smoothness",),
    "series.generating_s": ("series.evaluate_generating",),
    "doob.hwalk_build_s": ("doob.doob_chain",),
    "doob.hwalk_check_s": ("doob.DoobChain.row_sum_check",
                           "doob.DoobChain.reversibility_check"),
    "doob.hwalk_dp_s": ("doob.DoobChain.return_series_exact",
                        "doob.DoobChain.return_series_float"),
    "doob.ballot_exact_s": tuple(f"doob.{f}[exact]" for f in BALLOT_DPS),
    "doob.ballot_float_s": tuple(f"doob.{f}[float]" for f in BALLOT_DPS),
    "quasi.perron_s": ("quasi.perron",),
    "quasi.mb_dp_s": ("quasi.mb_ballot_probability", "quasi.mb_max_and_return",
                      "quasi.mb_hitting_time_law"),
    "bridges.mc_s": ("bridges.mc_bridge_statistics",),
    "bridges.visits_s": ("bridges.bridge_level_visits",),
    "bridges.excursion_s": ("bridges.excursion_record_law",
                            "bridges.limit_excursion_law"),
    "bridges.cnw_s": ("bridges.cnw_condition_scan",),
    "masstransport.check_s": ("masstransport.check_neighbor_mtp",
                              "masstransport.check_mtp"),
}

MIB = 2 ** 20

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    [("models.collapse_s", "s"), ("models.collapse_states", "count"),
     ("models.collapse_edges", "count"), ("models.ball_s", "s"),
     ("chains.exact_dp_s", "s"), ("chains.exact_state_steps", "count"),
     ("chains.exact_max_bits", "bits"), ("chains.float_dp_s", "s"),
     ("chains.float_nnz_steps", "count"), ("chains.float_bytes", "bytes"),
     ("chains.matrix_s", "s"),
     ("series.renewal_exact_s", "s"), ("series.renewal_float_s", "s"),
     ("series.normalize_s", "s"), ("series.fit_s", "s"),
     ("series.smoothness_s", "s"), ("series.generating_s", "s"),
     ("qfield.ops", "count"), ("qfield.busy_s", "s"),
     ("doob.hwalk_build_s", "s"), ("doob.hwalk_check_s", "s"),
     ("doob.hwalk_dp_s", "s"), ("doob.ballot_exact_s", "s"),
     ("doob.ballot_float_s", "s"), ("doob.ballot_calls_per_table", "1"),
     ("quasi.perron_s", "s"), ("quasi.perron_iters", "count"),
     ("quasi.mb_dp_s", "s"),
     ("bridges.mc_s", "s"), ("bridges.mc_sample_steps", "count"),
     ("bridges.mc_traj_mb", "MB"), ("bridges.visits_s", "s"),
     ("bridges.visits_tables_per_len", "1"), ("bridges.excursion_s", "s"),
     ("bridges.cnw_s", "s"),
     ("masstransport.check_s", "s"),
     ("cli.self_s", "s"), ("cli.jobs", "count"),
     ("cli.nonzero_exits", "count")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS
       if layer not in ("qfield", "cli")]
    + [(f"{layer}.errors", "count") for layer in LAYERS]
    + [("bench.other_s", "s"), ("trace.coverage", "1"),
       ("trace.overhead_s", "s")]
)


class Tracer:
    """Records spans for one traced pass; install, run, uninstall."""

    def __init__(self):
        # [name, layer, start, end, parent, job, child time, error]
        self.spans = []
        self.stack = []
        self.job = None
        self.quad_depth = 0
        self.quad_ops = 0
        self.quad_busy = 0.0
        self.quad_top = 0.0    # operator time outside every span
        self.quad_errors = 0
        self.counts = {}
        self._patches = []

    # ---- counters -------------------------------------------------

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key, value):
        self.counts[key] = max(self.counts.get(key, 0), value)

    # ---- wrappers -------------------------------------------------

    def _span(self, layer, name, fn, mode=None, on_exit=None):
        sig = inspect.signature(fn) if mode else None
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            label = name
            if mode:
                label = f"{name}[{mode(sig, args, kwargs)}]"
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [label, layer, perf_counter(), 0.0, parent, tracer.job,
                    0.0, False]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[7] = True
                raise
            finally:
                span[3] = perf_counter()
                tracer.stack.pop()
                if parent >= 0:
                    tracer.spans[parent][6] += span[3] - span[2]
            if on_exit is not None:
                on_exit(tracer, args, kwargs, result)
            return result

        return wrapped

    def _quad(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if tracer.quad_depth:
                return fn(*args, **kwargs)
            tracer.quad_depth = 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.quad_errors += 1
                raise
            finally:
                dt = perf_counter() - t0
                tracer.quad_depth = 0
                tracer.quad_ops += 1
                tracer.quad_busy += dt
                if tracer.stack:
                    tracer.spans[tracer.stack[-1]][6] += dt
                else:
                    tracer.quad_top += dt

        return wrapped

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, walklab):
        """Wrap the public calls of every walklab module."""
        modules = {layer: getattr(walklab, layer) for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                if layer == "qfield":
                    replaced[obj] = self._quad(obj)
                else:
                    replaced[obj] = self._span(
                        layer, f"{layer}.{attr}", obj,
                        mode=_MODES.get(f"{layer}.{attr}"),
                        on_exit=_HOOKS.get(f"{layer}.{attr}"))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    name = f"{layer}.{cls_name}.{meth}"
                    self._set(cls, meth, self._span(
                        layer, name, cls.__dict__[meth],
                        on_exit=_HOOKS.get(name)))
        quad = modules["qfield"].QuadExt
        for op in QUAD_OPS:
            self._set(quad, op, self._quad(quad.__dict__[op]))
        # rebind every module-level reference, including names imported
        # with `from .x import f` into other walklab modules
        for mod in [walklab, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._set(mod, attr, replaced[obj])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---- results --------------------------------------------------

    def span_records(self):
        return [{"name": s[0], "layer": s[1], "start": s[2], "end": s[3],
                 "parent": s[4], "job": s[5],
                 "self": s[3] - s[2] - s[6], "error": s[7]}
                for s in self.spans]

    def metrics(self, wall, overhead):
        """Per-layer metrics of this pass; `wall` is the traced pass time."""
        by_name, by_layer = {}, {layer: 0.0 for layer in LAYERS}
        errors = {layer: 0 for layer in LAYERS}
        errors["qfield"] = self.quad_errors
        top = self.quad_top
        table_spans = set()
        dp_in_tables = 0
        for idx, s in enumerate(self.spans):
            own = s[3] - s[2] - s[6]
            by_name[s[0]] = by_name.get(s[0], 0.0) + own
            by_layer[s[1]] += own
            parent = s[4]
            if parent < 0:
                top += s[3] - s[2]
            if s[7] and (parent < 0 or self.spans[parent][1] != s[1]):
                errors[s[1]] += 1
            if s[0] in TABLE_SPANS:
                table_spans.add(idx)
            elif s[0] in DP_SPANS:
                p = parent
                while p >= 0 and p not in table_spans:
                    p = self.spans[p][4]
                dp_in_tables += p >= 0
        by_layer["qfield"] = self.quad_busy
        c = self.counts
        out = {m: sum(by_name.get(n, 0.0) for n in names)
               for m, names in TIME_METRICS.items()}
        tables = c.get("doob.tables", 0)
        visit_lens = len(c.get("bridges.visit_keys", ()))
        out.update({
            "models.collapse_states": c.get("models.collapse_states", 0),
            "models.collapse_edges": c.get("models.collapse_edges", 0),
            "chains.exact_state_steps": c.get("chains.exact_state_steps", 0),
            "chains.exact_max_bits": c.get("chains.exact_max_bits", 0),
            "chains.float_nnz_steps": c.get("chains.float_nnz_steps", 0),
            "chains.float_bytes": c.get("chains.float_bytes", 0),
            "qfield.ops": self.quad_ops,
            "qfield.busy_s": self.quad_busy,
            "doob.ballot_calls_per_table":
                dp_in_tables / tables if tables else 0.0,
            "quasi.perron_iters": c.get("quasi.perron_iters", 0),
            "bridges.mc_sample_steps": c.get("bridges.mc_sample_steps", 0),
            "bridges.mc_traj_mb": c.get("bridges.mc_traj_bytes", 0) / MIB,
            "bridges.visits_tables_per_len":
                c.get("bridges.visit_calls", 0) / visit_lens
                if visit_lens else 0.0,
            "cli.self_s": by_layer["cli"],
            "cli.jobs": c.get("cli.jobs", 0),
            "cli.nonzero_exits": c.get("cli.nonzero_exits", 0),
            "bench.other_s": wall - top,
            "trace.coverage": top / wall if wall > 0 else 0.0,
            "trace.overhead_s": overhead,
        })
        for layer in LAYERS:
            if layer not in ("qfield", "cli"):
                out[f"{layer}.self_s"] = by_layer[layer]
            out[f"{layer}.errors"] = errors[layer]
        return out


# ---- per-call labels and counters ----------------------------------

def _mode_of(sig, args, kwargs):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments["mode"]


def _renewal_mode(sig, args, kwargs):
    u = args[0] if args else kwargs["u"]
    return "exact" if u.exact else "float"


def _on_collapse(tr, args, kwargs, chain):
    tr.add("models.collapse_states", len(chain.states))
    tr.add("models.collapse_edges", sum(len(row) for row in chain.edges))


def _on_exact_dp(tr, args, kwargs, values):
    chain, n_max = args[0], args[1] if len(args) > 1 else kwargs["n_max"]
    tr.add("chains.exact_state_steps", len(chain.states) * n_max)
    tr.peak("chains.exact_max_bits",
            max(v.numerator.bit_length() for v in values))


def _on_float_dp(tr, args, kwargs, values):
    chain, n_max = args[0], args[1] if len(args) > 1 else kwargs["n_max"]
    nnz, ns = chain._matrix.nnz, len(chain.states)
    tr.add("chains.float_nnz_steps", nnz * n_max)
    # computed, not measured: per step one CSR matvec reads 8-byte values
    # and 4-byte column indices, the row pointers, the input vector, and
    # writes the output vector
    tr.add("chains.float_bytes", n_max * (12 * nnz + 4 * (ns + 1) + 16 * ns))


def _on_perron(tr, args, kwargs, pd):
    tr.add("quasi.perron_iters", pd.iterations)


def _on_mc(tr, args, kwargs, stats):
    tr.add("bridges.mc_sample_steps", stats.samples * stats.n)
    tr.add("bridges.mc_traj_bytes", stats.samples * (stats.n + 1) * 4)


def _on_visits(tr, args, kwargs, value):
    chain, n = args[0], args[2] if len(args) > 2 else kwargs["n"]
    tr.counts.setdefault("bridges.visit_keys", set()).add((id(chain), n))
    tr.add("bridges.visit_calls", 1)


def _on_completeness(tr, args, kwargs, value):
    tr.add("doob.tables", 1)


def _on_scan(tr, args, kwargs, value):
    n_grid = args[1] if len(args) > 1 else kwargs["n_grid"]
    tr.add("doob.tables", len(n_grid))


def _on_main(tr, args, kwargs, code):
    tr.add("cli.jobs", 1)
    tr.add("cli.nonzero_exits", int(code != 0))


_MODES = {"series.first_return_probabilities": _renewal_mode,
          **{f"doob.{f}": _mode_of for f in BALLOT_DPS}}

_HOOKS = {
    "models.WalkModel.collapse": _on_collapse,
    "chains.CollapsedChain.return_series_exact": _on_exact_dp,
    "chains.CollapsedChain.taboo_series_exact": _on_exact_dp,
    "chains.CollapsedChain.return_series_float": _on_float_dp,
    "chains.CollapsedChain.taboo_series_float": _on_float_dp,
    "quasi.perron": _on_perron,
    "bridges.mc_bridge_statistics": _on_mc,
    "bridges.bridge_level_visits": _on_visits,
    "doob.completeness_residual": _on_completeness,
    "doob.bound_constant_scan": _on_scan,
    "cli.main": _on_main,
}
