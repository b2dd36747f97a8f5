"""Per-layer tracing from outside the program.

:class:`Tracer` wraps public functions and methods of the censearch modules
(the layers) so that each call records a span: group name, start, end,
parent span and job id.  Spans stay in memory (compact arrays) and are
written when the run ends.  A span's self time is its duration minus the
time covered by its child spans; self times and call counts are summed per
group as calls finish.  A child covers its parent from the wrapper's entry
to its exit, while its own span runs from just before the wrapped call to
just after it, so the wrappers' bookkeeping lands in no layer's self time.
It shows in the traced round's latency instead.

Nothing under ``src/`` changes: wrappers are installed by rebinding module
and class attributes, in every censearch module that imported the
function, and :meth:`Tracer.uninstall` puts the originals back.  Untraced
runs never install them.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import defaultdict
from time import perf_counter


def _pp(cls: str, *methods: str) -> list[str]:
    return [f"{cls}.{m}" for m in methods]


# group -> (module, attribute path) targets; a group's metrics sum its targets
SPAN_GROUPS = {
    "cli": ("cli", ["main"]),
    "dists.scalar": ("dists", _pp("PiecewisePolyDist", "cdf", "cdf_left", "pdf",
                                   "cdf_integral", "tail_gap")),
    "dists.quantile": ("dists", ["PiecewisePolyDist.quantile"]),
    "dists.tail_vec": ("dists", ["PiecewisePolyDist.tail_vec"]),
    "dists.reservation_value": ("dists", ["reservation_value"]),
    "dists.other": ("dists", _pp("PiecewisePolyDist", "cdf_vec", "pdf_vec", "max_supp",
                                  "min_supp", "mixture") + ["truncated_mean_above", "mpc_check"]),
    "costshape": ("costshape", ["average_slope", "slope_derivative", "concavity_tail_start",
                                "critical_min_set", "smallest_local_min", "crossing_solution",
                                "assumption_diag_check", "global_min_slope", "classify_case",
                                "cost_shape_report", "scan_table"]),
    "demand.DemandCurve": ("demand", ["DemandCurve.__init__"]),
    "demand.value": ("demand", ["DemandCurve.value"]),
    "demand.expected_payoff": ("demand", ["expected_payoff"]),
    "demand.other": ("demand", _pp("DemandCurve", "margins", "cutoff_cost", "stop_component")
                     + ["type_demand", "interim_demand", "demand_margins", "jump_size"]),
    "censorship.verify_uce": ("censorship", ["verify_uce"]),
    "censorship.solve_a_max": ("censorship", ["solve_a_max"]),
    "censorship.verify_price_function": ("censorship", ["verify_price_function"]),
    "censorship.other": ("censorship", ["upper_censorship", "equilibrium_set", "virtual_demand",
                                        "threshold_from_cost", "demand_second_derivative"]),
    "welfare.consumer_surplus": ("welfare", ["consumer_surplus"]),
    "welfare.other": ("welfare", ["consumer_surplus_type", "expected_search_length",
                                  "alpha_stretch", "uniform_interpolate"]),
    "oracle.build_problem": ("oracle", ["build_problem"]),
    "oracle.solve_br": ("oracle", ["solve_br"]),
    "oracle.dump_triplets": ("oracle", ["BRProblem.dump_triplets"]),
    "simulate.simulate_market": ("simulate", ["simulate_market"]),
    "simulate.simulate_deviation": ("simulate", ["simulate_deviation"]),
}
# counted only (no span): called too often inside other spans to time
COUNT_GROUPS = {"poly.polyint": ("_poly", ["polyint"])}
PACKAGE = "censearch"


class Tracer:
    def __init__(self):
        self.groups = list(SPAN_GROUPS)
        self.on = False
        self.job = -1
        self._stack: list[list] = []
        # one entry per span
        self.group = array("i")
        self.parent = array("q")
        self.job_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.facts = defaultdict(float)    # counts and maxima the hooks record
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def _holders(self):
        return [m for name, m in sorted(sys.modules.items())
                if name == PACKAGE or name.startswith(PACKAGE + ".")]

    def _patch(self, module: str, path: str, make):
        mod = sys.modules[f"{PACKAGE}.{module}"]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(make(original.__func__))
            else:
                wrapped = make(original)
            self._restore.append((cls, attr, original))
            setattr(cls, attr, wrapped)
            return
        original = getattr(mod, path)
        wrapped = make(original)
        for holder in self._holders():
            for name, value in list(vars(holder).items()):
                if value is original:
                    self._restore.append((holder, name, original))
                    setattr(holder, name, wrapped)

    def install(self):
        for gid, (module, paths) in SPAN_GROUPS.items():
            hook = _HOOKS.get(gid)
            for path in paths:
                self._patch(module, path,
                            lambda fn, g=self.groups.index(gid), h=hook: self._span(g, fn, h))
        for gid, (module, paths) in COUNT_GROUPS.items():
            for path in paths:
                self._patch(module, path, lambda fn, g=gid: self._count(g, fn))

    def uninstall(self):
        for holder, name, original in reversed(self._restore):
            setattr(holder, name, original)
        self._restore.clear()

    # -- wrappers ----------------------------------------------------------

    def _span(self, gid: int, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            enter = perf_counter()
            stack = tracer._stack
            parent = stack[-1] if stack else None
            idx = len(tracer.start)
            frame = [idx, 0.0]
            tracer.group.append(gid)
            tracer.parent.append(parent[0] if parent else -1)
            tracer.job_id.append(tracer.job)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(frame)
            t1 = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                t1 = perf_counter()
                if hook is not None:
                    hook(tracer.facts, args, result, t1 - t0)
                return result
            finally:
                if t1 is None:
                    t1 = perf_counter()
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
                name = tracer.groups[gid]
                tracer.calls[name] += 1
                tracer.self_s[name] += t1 - t0 - frame[1]
                if parent is not None:  # the whole call, bookkeeping included
                    parent[1] += perf_counter() - enter

        return traced

    def _count(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.on:
                tracer.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- output ------------------------------------------------------------

    def save(self, path):
        import numpy as np

        np.savez_compressed(
            path,
            groups=np.array(self.groups),
            group=np.array(self.group, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int64),
            job=np.array(self.job_id, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
        )


def _hook_quantile(facts, args, result, dur):
    facts["dists.quantile.elems"] += len(result)


def _hook_build(facts, args, result, dur):
    facts["oracle.grid_m"] = max(facts["oracle.grid_m"], len(result.grid))


def _hook_solve(facts, args, result, dur):
    facts["oracle.duality_gap_max"] = max(facts["oracle.duality_gap_max"], result.duality_gap)


def _hook_dump(facts, args, result, dur):
    facts["oracle.lp_nnz"] += result.count("\n") - 1


def _hook_sim(facts, args, result, dur):
    cfg = args[0]
    facts[f"sim_s.n{cfg.n}"] += dur
    facts[f"sim_consumers.n{cfg.n}"] += cfg.consumers


_HOOKS = {
    "dists.quantile": _hook_quantile,
    "oracle.build_problem": _hook_build,
    "oracle.solve_br": _hook_solve,
    "oracle.dump_triplets": _hook_dump,
    "simulate.simulate_market": _hook_sim,
    "simulate.simulate_deviation": _hook_sim,
}


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced phase, as name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    calls, self_s, facts = tracer.calls, tracer.self_s, tracer.facts
    for gid in SPAN_GROUPS:
        if gid not in ("cli", "oracle.dump_triplets") and not gid.endswith(".other"):
            out[f"{gid}.calls"] = (calls[gid], "count")
        out[f"{gid}.self_s"] = (self_s[gid], "s")
    out["poly.polyint.calls"] = (calls["poly.polyint"], "count")
    out["dists.quantile.elems"] = (facts["dists.quantile.elems"], "count")
    for key in ("oracle.grid_m", "oracle.lp_nnz"):
        out[key] = (facts[key], "count")
    out["oracle.duality_gap_max"] = (facts["oracle.duality_gap_max"], "ratio")
    for n in (2, 50):
        consumers = facts[f"sim_consumers.n{n}"]
        per_m = facts[f"sim_s.n{n}"] / (consumers / 1e6) if consumers else 0.0
        out[f"simulate.s_per_Mconsumer_n{n}"] = (per_m, "s")
    return out
