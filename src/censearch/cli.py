"""Command-line surface: JSON experiment specs in, JSON/CSV results out.

Subcommands: solve, verify, oracle, simulate, compstat, welfare, emit-plot.
Every command is deterministic given the spec; the spec holds every input,
the simulation seed and the LP dump switch included, and the command line
adds only where the outputs go.  Exit codes: 0 ok, 2 config error,
3 numeric non-convergence, 4 verification failed (for CI gating).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .censorship import (
    equilibrium_set,
    solve_a_max,
    upper_censorship,
    verify_uce,
    verify_price_function,
    virtual_demand,
)
from .costshape import average_slope, cost_shape_report, scan_table
from .demand import DemandCurve
from .dists import MarketConfig, PiecewisePolyDist, Tolerances, dist_from_json
from .oracle import GRID_N, build_problem, solve_br
from .simulate import SimConfig, simulate_deviation, simulate_market
from .welfare import (
    alpha_stretch,
    consumer_surplus,
    consumer_surplus_type,
    expected_search_length,
    uniform_interpolate,
)

SCHEMA_VERSION = 1
PLOT_POINTS = 513  # emit-plot's default grid size

_KNOWN_TOP = {"version", "market", "verify", "oracle", "simulate",
              "compstat", "welfare", "emit_plot", "output"}


class ConfigError(ValueError):
    pass


def _require_keys(block: dict, allowed: set, where: str):
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown fields in {where}: {sorted(unknown)}")


def load_spec(path: str) -> dict:
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read spec: {exc}") from exc
    if spec.get("version") != SCHEMA_VERSION:
        raise ConfigError(f"spec version must be {SCHEMA_VERSION}")
    _require_keys(spec, _KNOWN_TOP, "spec")
    return spec


def load_market(spec: dict) -> MarketConfig:
    blk = spec.get("market")
    if not isinstance(blk, dict):
        raise ConfigError("spec needs a 'market' block")
    _require_keys(blk, {"prior", "costs", "n", "tol"}, "market")
    with _config_errors():
        prior = dist_from_json(blk["prior"])
        costs = dist_from_json(blk["costs"])
        tol = Tolerances(**blk.get("tol", {}))
        return MarketConfig(prior, costs, blk["n"], tol=tol)


@contextmanager
def _config_errors():
    """Report a missing or malformed spec field as a config error."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _count(blk: dict, key: str, default: int, where: str, least: int | None = None) -> int:
    """An integer spec field (a whole float such as 5.0 counts), never
    truncated, and at least ``least`` when that is given."""
    v = blk.get(key, default)
    whole = not isinstance(v, bool) and (isinstance(v, int)
                                         or isinstance(v, float) and v.is_integer())
    if not whole or (least is not None and v < least):
        bound = "" if least is None else f" >= {least}"
        raise ConfigError(f"{where}.{key} must be an integer{bound}, got {v!r}")
    return int(v)


def _exclusive(blk: dict, mode: str, unread: set, where: str) -> None:
    """Reject keys that the block's ``mode`` never reads."""
    clash = sorted(unread & set(blk)) if mode in blk else []
    if clash:
        raise ConfigError(f"{where}.{mode} does not read {clash}")


def _write_json(out: Path | None, name: str, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out is None:
        print(text)
    else:
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text + "\n")


def _write_csv(out: Path | None, name: str, header: list[str], rows) -> None:
    if out is None:
        w = csv.writer(sys.stdout)
        w.writerow(header)
        w.writerows(rows)
    else:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / name, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)


def cmd_solve(spec: dict, out: Path | None) -> int:
    mc = load_market(spec)
    rep = cost_shape_report(mc.costs, mc.mu, mc.tol.ineq)
    a_max, case, attained = solve_a_max(mc.prior, mc.costs, mc.tol, report=rep)
    payload = {
        "a_max": a_max,
        "case": case,
        "attained": attained,
        "cost_shape": rep.to_json(),
        "prior_mean": mc.mu,
    }
    _write_json(out, "solve.json", payload)
    if out is not None:
        tab = scan_table(mc.costs)
        _write_csv(out, "cost_scan.csv", ["c", "H", "h", "S", "Sprime"], tab.tolist())
    return 0


def cmd_verify(spec: dict, out: Path | None) -> int:
    mc = load_market(spec)
    blk = spec.get("verify", {})
    _require_keys(blk, {"a", "a_grid", "n_sweep", "price_function"}, "verify")
    _exclusive(blk, "a_grid", {"a", "price_function"}, "verify")
    _exclusive(blk, "n_sweep", {"a_grid", "price_function"}, "verify")
    gate_failed = False
    if "n_sweep" in blk or "a_grid" not in blk:
        with _config_errors():
            a = float(blk["a"])
    if "n_sweep" in blk:
        with _config_errors():  # each market size passes the market's own check
            sweep = [replace(mc, n=n).n for n in blk["n_sweep"]]
        rows = []
        smallest = None
        for n in sweep:
            rep = verify_uce(mc.prior, mc.costs, a, n, mc.tol)
            ok = rep.verdict == "equilibrium"
            rows.append({"n": n, "verdict": rep.verdict, "checks": rep.checks})
            if ok and smallest is None:
                smallest = n
        payload = {"a": a, "sweep": rows, "smallest_passing_n": smallest}
        gate_failed = smallest is None
    elif "a_grid" in blk:
        res = equilibrium_set(mc.prior, mc.costs, blk["a_grid"], mc.n, mc.tol)
        payload = {"n": mc.n, "sweep": [{"a": a, "equilibrium": ok} for a, ok in res]}
    else:
        rep = verify_uce(mc.prior, mc.costs, a, mc.n, mc.tol)
        payload = rep.to_json()
        gate_failed = rep.verdict != "equilibrium"
        if blk.get("price_function"):
            pf = verify_price_function(upper_censorship(mc.prior, a), mc.prior, mc.costs, mc.n, mc.tol)
            payload["price_function"] = pf.to_json()
            gate_failed = gate_failed or not pf.passed
    _write_json(out, "verify.json", payload)
    return 4 if gate_failed else 0


def cmd_oracle(spec: dict, out: Path | None) -> int:
    mc = load_market(spec)
    blk = spec.get("oracle", {})
    _require_keys(blk, {"a", "grid_n", "dump_lp"}, "oracle")
    a = float(blk.get("a", 0.0))
    grid_n = _count(blk, "grid_n", GRID_N, "oracle")
    G = upper_censorship(mc.prior, a)
    prob = build_problem(G, mc.prior, mc.costs, mc.n, grid_n)
    sol = solve_br(prob)
    sup_x, sup_m = sol.support()
    payload = {
        "a": a,
        "n": mc.n,
        "grid_n": grid_n,
        "value": sol.value,
        "baseline": prob.baseline,
        "gap": sol.gap,
        "equilibrium_gap": max(0.0, sol.value - 1.0 / mc.n),
        "duality_gap": sol.duality_gap,
        "support": [{"x": float(x), "mass": float(m)} for x, m in zip(sup_x, sup_m)],
    }
    _write_json(out, "oracle.json", payload)
    if blk.get("dump_lp"):
        target = out or Path(".")
        target.mkdir(parents=True, exist_ok=True)
        (target / "lp_triplets.txt").write_text(prob.dump_triplets())
    return 0


def cmd_simulate(spec: dict, out: Path | None) -> int:
    mc = load_market(spec)
    blk = spec.get("simulate", {})
    _require_keys(blk, {"a", "consumers", "bins", "seed", "deviation", "deviation_atom"}, "simulate")
    _exclusive(blk, "deviation", {"deviation_atom"}, "simulate")
    a = float(blk.get("a", 0.0))
    G = upper_censorship(mc.prior, a)
    cfg = SimConfig(
        prior_mean_strategy=G,
        costs=mc.costs,
        n=mc.n,
        consumers=_count(blk, "consumers", 100000, "simulate", least=1),
        seed=_count(blk, "seed", 0, "simulate"),
        bins=_count(blk, "bins", 50, "simulate", least=1),
    )
    payload: dict
    if "deviation" in blk or "deviation_atom" in blk:
        if "deviation" in blk:
            with _config_errors():
                G_dev = dist_from_json(blk["deviation"])
        else:
            G_dev = PiecewisePolyDist.point_mass(float(blk["deviation_atom"]))
        pay, se, outcome = simulate_deviation(cfg, G_dev)
        payload = {"deviating_payoff": pay, "payoff_se": se, "baseline": 1.0 / mc.n,
                   "outcome": outcome.to_json()}
    else:
        outcome = simulate_market(cfg)
        payload = outcome.to_json()
        seen = np.isfinite(outcome.empirical_demand)
        mids = outcome.bin_mids[seen]
        rows = zip(mids, outcome.empirical_demand[seen], outcome.demand_se[seen],
                   DemandCurve(G, mc.n, mc.costs).value(mids))
        _write_csv(out, "demand_emp.csv", ["bin_mid", "D_emp", "se", "D_analytic"], rows)
    _write_json(out, "simulate.json", payload)
    return 0


def cmd_welfare(spec: dict, out: Path | None) -> int:
    mc = load_market(spec)
    blk = spec.get("welfare", {})
    _require_keys(blk, {"a_grid", "cost_quantiles"}, "welfare")
    a_grid = blk.get("a_grid", [0.0, 0.1, 0.2, 0.3, 0.4])
    qs = blk.get("cost_quantiles", [0.1, 0.25, 0.5, 0.75, 0.9])
    with _config_errors():
        in_range = all(0.0 < q <= 1.0 for q in qs)
    if not in_range:
        raise ConfigError(f"welfare.cost_quantiles must lie in (0, 1], got {qs!r}")
    rows = []
    for a in a_grid:
        total = consumer_surplus(mc.prior, mc.costs, float(a), mc.n)
        slen = expected_search_length(mc.prior, float(a), mc.n)
        for q in qs:
            c = float(mc.costs.quantile([q])[0])
            b, cost, cs = consumer_surplus_type(mc.prior, float(a), c, mc.n)
            rows.append((a, q, c, b, cost, cs, total, slen))
    _write_csv(out, "welfare.csv",
               ["a", "cost_quantile", "c", "value", "search_cost", "surplus",
                "CS_total", "search_length"], rows)
    return 0


def cmd_compstat(spec: dict, out: Path | None) -> int:
    mc = load_market(spec)
    blk = spec.get("compstat", {})
    _require_keys(blk, {"family", "alphas", "lambdas", "halvings", "ramp_ks", "base_costs"}, "compstat")
    family = blk.get("family", "alpha_stretch")
    with _config_errors():
        H0 = dist_from_json(blk["base_costs"]) if "base_costs" in blk else mc.costs
    members: list[tuple[float, PiecewisePolyDist]] = []
    if family == "alpha_stretch":
        for al in blk.get("alphas", [1.1, 1.3, 1.5]):
            members.append((float(al), alpha_stretch(H0, float(al), prior_mean=mc.mu)))
    elif family == "uniform_mix":
        for lam in blk.get("lambdas", [0.0, 0.25, 0.5, 0.75, 1.0]):
            members.append((float(lam), uniform_interpolate(H0, float(lam), H0.support_hi)))
    elif family == "support_halving":
        for k in blk.get("halvings", range(0, 7)):
            members.append((float(k), PiecewisePolyDist.uniform(0.0, H0.support_hi / 2**int(k))))
    elif family == "ramp_to_top":
        for k in blk.get("ramp_ks", range(2, 7)):
            members.append((float(k), _ramp_family(H0.support_hi, int(k))))
    else:
        raise ConfigError(f"unknown compstat family {family!r}")
    rows = []
    for param, Hk in members:
        rep = cost_shape_report(Hk, mc.mu, mc.tol.ineq)
        a_max, case, attained = solve_a_max(mc.prior, Hk, mc.tol, report=rep)
        cs = consumer_surplus(mc.prior, Hk, a_max, mc.n)
        rows.append((param, a_max, case, attained, rep.min_slope, cs))
    _write_csv(out, "compstat.csv",
               ["family_param", "a_max", "case", "attained", "min_avg_slope", "CS_at_a_max"],
               rows)
    return 0


def _ramp_family(cbar: float, k: int) -> PiecewisePolyDist:
    """Costs concentrating near the top: mass 1-1/k uniform on the last
    (1/k)-fraction of the support, the rest uniform below."""
    cut = cbar * (1.0 - 1.0 / k)
    lo_mass = 1.0 / k
    return PiecewisePolyDist(
        [0.0, cut, cbar],
        [np.array([lo_mass / cut]), np.array([(1.0 - lo_mass) / (cbar - cut)])],
    )


def cmd_emit_plot(spec: dict, out: Path | None) -> int:
    mc = load_market(spec)
    blk = spec.get("emit_plot", {})
    _require_keys(blk, {"a", "points"}, "emit_plot")
    rep = cost_shape_report(mc.costs, mc.mu, mc.tol.ineq)
    a = float(blk["a"]) if "a" in blk else solve_a_max(mc.prior, mc.costs, mc.tol, report=rep)[0]
    pts = _count(blk, "points", PLOT_POINTS, "emit_plot", least=1)
    # cost panel with the tangent line through the origin at slope min S
    smin = rep.min_slope
    # at the cost top both one-sided densities are the last piece's
    cs = np.linspace(0.0, mc.cbar, pts)
    cost_rows = np.column_stack([cs, mc.costs.cdf(cs), mc.costs.pdf(cs),
                                 average_slope(mc.costs, cs), smin * cs])
    _write_csv(out, "plot_costs.csv", ["c", "H", "h", "S", "tangent"], cost_rows.tolist())
    G = upper_censorship(mc.prior, a)
    curve = DemandCurve(G, mc.n, mc.costs)
    xs = np.linspace(0.0, 1.0, pts)
    phi = virtual_demand(mc.prior, mc.costs, a, mc.n, xs, curve)
    rows = np.column_stack([xs, curve.value(xs), phi, *curve.margins(xs), G.cdf(xs),
                            curve.cutoff_cost(xs)])
    _write_csv(out, "plot_demand.csv", ["x", "D", "phi", "extensive", "intensive", "G", "c_G"],
               rows.tolist())
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "verify": cmd_verify,
    "oracle": cmd_oracle,
    "simulate": cmd_simulate,
    "compstat": cmd_compstat,
    "welfare": cmd_welfare,
    "emit-plot": cmd_emit_plot,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="censearch",
        description="Upper-censorship equilibria of competitive information "
                    "disclosure in consumer-search markets",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--spec", required=True, help="experiment spec (JSON)")
    parser.add_argument("--out", default=None, help="output directory (default: stdout)")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored (nothing reads it)")
    args = parser.parse_args(argv)
    out = Path(args.out) if args.out else None
    try:
        spec = load_spec(args.spec)
        return _COMMANDS[args.command](spec, out)
    except (ArithmeticError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
