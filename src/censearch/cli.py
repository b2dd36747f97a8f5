"""Command-line surface: JSON experiment specs in, JSON/CSV results out.

Subcommands: solve, verify, oracle, simulate, compstat, welfare, emit-plot.
Every command is deterministic given the spec; the spec holds every input,
the simulation seed and the LP dump switch included, and the command line
adds only where the outputs go.  Exit codes: 0 ok, 2 config error,
3 numeric non-convergence, 4 verification failed (for CI gating).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from itertools import chain, islice
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
              "compstat", "welfare", "emit_plot"}


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
    if _object(spec, "spec").get("version") != SCHEMA_VERSION:
        raise ConfigError(f"spec version must be {SCHEMA_VERSION}")
    _require_keys(spec, _KNOWN_TOP, "spec")
    for key in sorted(set(spec) - {"version"}):
        _object(spec[key], key)
    return spec


def load_market(spec: dict) -> MarketConfig:
    blk = spec.get("market")
    if not isinstance(blk, dict):
        raise ConfigError("spec needs a 'market' block")
    _require_keys(blk, {"prior", "costs", "n", "tol"}, "market")
    with _config_errors():
        prior = dist_from_json(blk["prior"])
        costs = dist_from_json(blk["costs"])
        tol = {k: _number(v, f"market.tol.{k}")
               for k, v in _object(blk.get("tol", {}), "market.tol").items()}
        for k, v in tol.items():
            if v <= 0:
                raise ConfigError(f"market.tol.{k} must be > 0, got {v!r}")
        return MarketConfig(prior, costs, blk["n"], tol=Tolerances(**tol))


@contextmanager
def _config_errors():
    """Report a missing or malformed spec field as a config error."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _count(v, where: str, least: int | None = None) -> int:
    """The integer value v of spec field ``where`` (a whole float such as
    5.0 counts), never truncated, and at least ``least`` when that is given."""
    whole = not isinstance(v, bool) and (isinstance(v, int)
                                         or isinstance(v, float) and v.is_integer())
    if not whole or (least is not None and v < least):
        bound = "" if least is None else f" >= {least}"
        raise ConfigError(f"{where} must be an integer{bound}, got {v!r}")
    return int(v)


def _number(v, where: str) -> float:
    """The value v of spec field ``where``: a finite JSON number (not a
    bool, a string, null or a list)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ConfigError(f"{where} must be a finite number, got {v!r}")
    return float(v)


def _threshold(v, where: str) -> float:
    """The threshold v of spec field ``where``: a number in the prior's support [0, 1]."""
    a = _number(v, where)
    if not 0.0 <= a <= 1.0:
        raise ConfigError(f"{where} must lie in [0, 1], got {v!r}")
    return a


def _flag(v, where: str) -> bool:
    """The switch v of spec field ``where``: a JSON boolean, true or false."""
    if not isinstance(v, bool):
        raise ConfigError(f"{where} must be true or false, got {v!r}")
    return v


def _numbers(v, where: str, read=_number) -> list[float]:
    """The list v of spec field ``where``, each entry read by ``read``."""
    if not isinstance(v, list):
        raise ConfigError(f"{where} must be a list of numbers, got {v!r}")
    return [read(x, where) for x in v]


def _object(v, where: str) -> dict:
    """The JSON object v of spec block ``where``."""
    if not isinstance(v, dict):
        raise ConfigError(f"{where} must be a JSON object, got {v!r}")
    return v


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
    """The bytes ``csv.writer`` writes for rows that need no quoting: each
    field's ``str()``, joined by commas, and ``\\r\\n`` row ends.  The rows
    go out 1024 at a time through one open file, so no file is held whole."""
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    rows = chain([header], rows)
    with nullcontext(sys.stdout) if out is None else open(out / name, "w", newline="") as fh:
        while chunk := list(islice(rows, 1024)):
            fh.write("".join(",".join(map(str, row)) + "\r\n" for row in chunk))


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
    price_function = _flag(blk.get("price_function", False), "verify.price_function")
    gate_failed = False
    if "n_sweep" in blk or "a_grid" not in blk:
        a = _threshold(blk.get("a"), "verify.a")
    if "n_sweep" in blk:
        with _config_errors():  # each market size passes the market's own check
            sweep = [replace(mc, n=n).n for n in blk["n_sweep"]]
        rows = []
        for n in sweep:
            rep = verify_uce(mc.prior, mc.costs, a, n, mc.tol)
            rows.append({"n": n, "verdict": rep.verdict, "checks": rep.checks})
        smallest = min((r["n"] for r in rows if r["verdict"] == "equilibrium"), default=None)
        payload = {"a": a, "sweep": rows, "smallest_passing_n": smallest}
        gate_failed = smallest is None
    elif "a_grid" in blk:
        res = equilibrium_set(mc.prior, mc.costs, _numbers(blk["a_grid"], "verify.a_grid", _threshold),
                              mc.n, mc.tol)
        payload = {"n": mc.n, "sweep": [{"a": a, "equilibrium": ok} for a, ok in res]}
    else:
        rep = verify_uce(mc.prior, mc.costs, a, mc.n, mc.tol)
        payload = rep.to_json()
        gate_failed = rep.verdict != "equilibrium"
        if price_function:
            pf = verify_price_function(upper_censorship(mc.prior, a), mc.prior, mc.costs, mc.n, mc.tol)
            payload["price_function"] = pf.to_json()
            gate_failed = gate_failed or not pf.passed
    _write_json(out, "verify.json", payload)
    return 4 if gate_failed else 0


def cmd_oracle(spec: dict, out: Path | None) -> int:
    mc = load_market(spec)
    blk = spec.get("oracle", {})
    _require_keys(blk, {"a", "grid_n", "dump_lp"}, "oracle")
    a = _threshold(blk.get("a", 0.0), "oracle.a")
    grid_n = _count(blk.get("grid_n", GRID_N), "oracle.grid_n")
    dump_lp = _flag(blk.get("dump_lp", False), "oracle.dump_lp")
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
    if dump_lp:
        target = out or Path(".")
        target.mkdir(parents=True, exist_ok=True)
        (target / "lp_triplets.txt").write_text(prob.dump_triplets())
    return 0


def cmd_simulate(spec: dict, out: Path | None) -> int:
    mc = load_market(spec)
    blk = spec.get("simulate", {})
    _require_keys(blk, {"a", "consumers", "bins", "seed", "deviation", "deviation_atom"}, "simulate")
    _exclusive(blk, "deviation", {"deviation_atom"}, "simulate")
    a = _threshold(blk.get("a", 0.0), "simulate.a")
    G = upper_censorship(mc.prior, a)
    cfg = SimConfig(
        prior_mean_strategy=G,
        costs=mc.costs,
        n=mc.n,
        consumers=_count(blk.get("consumers", 100000), "simulate.consumers", least=1),
        seed=_count(blk.get("seed", 0), "simulate.seed"),
        bins=_count(blk.get("bins", 50), "simulate.bins", least=1),
    )
    payload: dict
    if "deviation" in blk or "deviation_atom" in blk:
        if "deviation" in blk:
            with _config_errors():
                G_dev = dist_from_json(blk["deviation"])
        else:
            atom = _number(blk["deviation_atom"], "simulate.deviation_atom")
            G_dev = PiecewisePolyDist.point_mass(atom)
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
    a_grid = _numbers(blk.get("a_grid", [0.0, 0.1, 0.2, 0.3, 0.4]), "welfare.a_grid", _threshold)
    qs = _numbers(blk.get("cost_quantiles", [0.1, 0.25, 0.5, 0.75, 0.9]), "welfare.cost_quantiles")
    if not all(0.0 < q <= 1.0 for q in qs):
        raise ConfigError(f"welfare.cost_quantiles must lie in (0, 1], got {qs!r}")
    rows = []
    for a in a_grid:
        total = consumer_surplus(mc.prior, mc.costs, a, mc.n)
        slen = expected_search_length(mc.prior, a, mc.n)
        for q in qs:
            c = float(mc.costs.quantile([q])[0])
            b, cost, cs = consumer_surplus_type(mc.prior, a, c, mc.n)
            rows.append((a, q, c, b, cost, cs, total, slen))
    _write_csv(out, "welfare.csv",
               ["a", "cost_quantile", "c", "value", "search_cost", "surplus",
                "CS_total", "search_length"], rows)
    return 0


# the member list each compstat family reads
_FAMILY_KEY = {"alpha_stretch": "alphas", "uniform_mix": "lambdas",
               "support_halving": "halvings", "ramp_to_top": "ramp_ks"}


def cmd_compstat(spec: dict, out: Path | None) -> int:
    mc = load_market(spec)
    blk = spec.get("compstat", {})
    family = blk.get("family", "alpha_stretch")
    if not isinstance(family, str) or family not in _FAMILY_KEY:
        raise ConfigError(f"unknown compstat family {family!r}")
    _require_keys(blk, {"family", _FAMILY_KEY[family]}, f"compstat (family {family!r})")
    with _config_errors():  # a member list that is not a list included
        if family == "alpha_stretch":
            members = [(al, alpha_stretch(mc.costs, al, prior_mean=mc.mu))
                       for al in _numbers(blk.get("alphas", [1.1, 1.3, 1.5]), "compstat.alphas")]
        elif family == "uniform_mix":
            lams = _numbers(blk.get("lambdas", [0.0, 0.25, 0.5, 0.75, 1.0]), "compstat.lambdas")
            members = [(lam, uniform_interpolate(mc.costs, lam, mc.cbar)) for lam in lams]
        elif family == "support_halving":
            ks = [_count(k, "compstat.halvings", least=0) for k in blk.get("halvings", range(0, 7))]
            members = [(float(k), PiecewisePolyDist.uniform(0.0, mc.cbar / 2**k)) for k in ks]
        else:
            ks = [_count(k, "compstat.ramp_ks", least=2) for k in blk.get("ramp_ks", range(2, 7))]
            members = [(float(k), _ramp_family(mc.cbar, k)) for k in ks]
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
    a = (_threshold(blk["a"], "emit_plot.a") if "a" in blk
         else solve_a_max(mc.prior, mc.costs, mc.tol, report=rep)[0])
    pts = _count(blk.get("points", PLOT_POINTS), "emit_plot.points", least=1)
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


# built once: constructing it costs several times what parsing does
_PARSER = argparse.ArgumentParser(
    prog="censearch",
    description="Upper-censorship equilibria of competitive information "
                "disclosure in consumer-search markets",
)
_PARSER.add_argument("command", choices=sorted(_COMMANDS))
_PARSER.add_argument("--spec", required=True, help="experiment spec (JSON)")
_PARSER.add_argument("--out", default=None, help="output directory (default: stdout)")
_PARSER.add_argument("--threads", type=int, default=1,
                     help="accepted and ignored (nothing reads it)")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
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
