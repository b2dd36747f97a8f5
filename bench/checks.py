"""Output checks, one per job kind; they run after the timed rounds.

Each check reads a job's exit code and output files and returns a
:class:`Verdict`: hard errors (wrong exit code, broken contract) plus the
p-values of the statistical tests on simulated outputs.  The p-values are
judged together at the end of a run (see :func:`alpha_for`), so the chance
that a correct program fails a whole run stays below ``RUN_FALSE_ALARM``.

The contract checked here is written out in ``bench/README.md``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

import numpy as np

RUN_FALSE_ALARM = 1e-3
ORACLE_DUALITY_GAP = 1e-8
ORACLE_RESOLUTION = 1e-6   # at the benchmark's 801-point grid


def oracle_resolution(grid_n: int) -> float:
    """Gap below which the LP cannot separate a verdict: the grid relaxation
    bias, which shrinks with the square of the grid spacing."""
    return ORACLE_RESOLUTION * max(1.0, (801.0 / grid_n) ** 2)


@dataclass
class Verdict:
    errors: list = field(default_factory=list)
    pvalues: list = field(default_factory=list)   # (label, p, z)
    facts: dict = field(default_factory=dict)      # what later checks read


def alpha_for(tests: int) -> float:
    """Per-test level of a Bonferroni bound on the run's false-alarm rate."""
    return RUN_FALSE_ALARM / max(tests, 1)


def z_for(tests: int) -> float:
    """The same level in standard errors of a normal approximation."""
    return NormalDist().inv_cdf(1.0 - alpha_for(tests) / 2.0)


def binomial_test(k: int, trials: int, p: float) -> tuple[float, float]:
    """Exact two-sided binomial tail probability of k successes, and the
    standardized deviation (k - trials p) / sqrt(trials p (1 - p))."""
    from scipy.special import bdtr, bdtrc

    p = min(max(p, 0.0), 1.0)
    lower = float(bdtr(k, trials, p)) if k < trials else 1.0
    upper = float(bdtrc(k - 1, trials, p)) if k > 0 else 1.0
    var = trials * p * (1.0 - p)
    z = (k - trials * p) / math.sqrt(var) if var > 0 else (0.0 if k == trials * p else math.inf)
    return min(1.0, 2.0 * min(lower, upper)), z


def _json(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())


def _csv(out: Path, name: str) -> tuple[list[str], list[list[str]]]:
    with open(out / name, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _expect_rc(v: Verdict, rc: int, want: int):
    if rc != want:
        v.errors.append(f"exit code {rc}, expected {want}")


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# -- analytic commands ---------------------------------------------------------


def check_solve_golden(job, rc, out: Path, ctx) -> Verdict:
    v = Verdict()
    _expect_rc(v, rc, 0)
    if (out / "solve.json").read_bytes() != ctx.golden_solve:
        v.errors.append("solve.json differs from tests/golden/solve_uniform.json")
    return v


def check_solve(job, rc, out: Path, ctx) -> Verdict:
    v = Verdict()
    _expect_rc(v, rc, 0)
    got = _json(out, "solve.json")
    a_max = float(got["a_max"])
    if not 0.0 <= a_max <= 1.0 or got["case"] not in ("a", "b", "c", "d"):
        v.errors.append(f"a_max {a_max} / case {got['case']!r} out of range")
    known = job.info.get("a_max")
    if known is not None and not _close(a_max, known, 1e-9):
        v.errors.append(f"a_max {a_max!r}, scaling law gives {known!r}")
    header, rows = _csv(out, "cost_scan.csv")
    if header != ["c", "H", "h", "S", "Sprime"] or len(rows) < 100:
        v.errors.append("cost_scan.csv malformed")
    return v


def check_verify_single(job, rc, out: Path, ctx) -> Verdict:
    v = Verdict()
    got = _json(out, "verify.json")
    eq = got["verdict"] == "equilibrium"
    v.facts["verdict"] = got["verdict"]
    gate_ok = eq
    if "a" in job.info and not _close(float(got["threshold"]), job.info["a"], 1e-12):
        v.errors.append("reported threshold differs from the spec")
    if "price_function" in got:
        passed = bool(got["price_function"]["passed"])
        gate_ok = gate_ok and passed
        if passed != eq:
            v.errors.append(
                f"price function passed={passed} but verify_uce says {got['verdict']!r}"
                f" ({got['price_function'].get('detail', '')})")
    # the gate follows verify_uce: exit 0 exactly when it finds an equilibrium
    _expect_rc(v, rc, 0 if eq else 4)
    if rc != (0 if gate_ok else 4):
        v.errors.append(f"exit code {rc} contradicts the written verdicts")
    return v


def check_verify_sweep(job, rc, out: Path, ctx) -> Verdict:
    v = Verdict()
    got = _json(out, "verify.json")
    smallest = None
    for row in got["sweep"]:
        n = int(row["n"])
        ref = ctx.fact(f"verify-{job.info['shape']}-{job.info['ref']}-n{n}", "verdict")
        if row["verdict"] != ref:
            v.errors.append(f"n={n}: sweep says {row['verdict']!r}, single-a job {ref!r}")
        if row["verdict"] == "equilibrium" and smallest is None:
            smallest = n
    if got["smallest_passing_n"] != smallest:
        v.errors.append(f"smallest_passing_n {got['smallest_passing_n']} != {smallest}")
    _expect_rc(v, rc, 4 if smallest is None else 0)
    return v


def check_verify_grid(job, rc, out: Path, ctx) -> Verdict:
    v = Verdict()
    _expect_rc(v, rc, 0)
    got = _json(out, "verify.json")
    grid = job.spec["verify"]["a_grid"]
    if [r["a"] for r in got["sweep"]] != grid:
        v.errors.append("a_grid sweep does not list the requested thresholds")
    ref = ctx.job(job.info["ref"])
    ref_eq = ctx.fact(ref.name, "verdict") == "equilibrium"
    for row in got["sweep"]:
        if row["a"] == ref.info["a"] and bool(row["equilibrium"]) != ref_eq:
            v.errors.append(f"a={row['a']}: grid says {row['equilibrium']}, single-a job {ref_eq}")
    return v


def check_welfare(job, rc, out: Path, ctx) -> Verdict:
    v = Verdict()
    _expect_rc(v, rc, 0)
    header, rows = _csv(out, "welfare.csv")
    col = {h: i for i, h in enumerate(header)}
    n = job.info["n"]
    if len(rows) != len(job.info["a_grid"]) * job.info["quantiles"]:
        v.errors.append(f"{len(rows)} welfare rows")
    totals: dict[float, set] = {}
    for r in rows:
        a = float(r[col["a"]])
        value, cost, surplus = (float(r[col[k]]) for k in ("value", "search_cost", "surplus"))
        if not _close(surplus, value - cost, 1e-12):
            v.errors.append(f"a={a}: surplus != value - search_cost")
        # uniform prior: F(a) = a, expected searches (1 - a^n) / (1 - a)
        want = 1.0 if a == 0.0 else (1.0 - a**n) / (1.0 - a)
        if not _close(float(r[col["search_length"]]), want, 1e-12):
            v.errors.append(f"a={a}: search_length {r[col['search_length']]} != {want}")
        totals.setdefault(a, set()).add(r[col["CS_total"]])
    if any(len(s) != 1 for s in totals.values()):
        v.errors.append("CS_total differs within one threshold")
    return v


def check_compstat(job, rc, out: Path, ctx) -> Verdict:
    v = Verdict()
    _expect_rc(v, rc, 0)
    header, rows = _csv(out, "compstat.csv")
    col = {h: i for i, h in enumerate(header)}
    params = job.info["params"]
    if [float(r[col["family_param"]]) for r in rows] != [float(p) for p in params]:
        v.errors.append("family parameters do not match the spec")
        return v
    a_max = [float(r[col["a_max"]]) for r in rows]
    if any(not 0.0 <= a <= 1.0 for a in a_max) or any(
            r[col["case"]] not in ("a", "b", "c", "d") for r in rows):
        v.errors.append(f"a_max/case out of range: {a_max}")
    if not all(math.isfinite(float(r[col["CS_at_a_max"]])) for r in rows):
        v.errors.append("non-finite surplus")
    fam = job.info["family"]
    if fam == "support_halving":
        # uniform prior and uniform costs on [0, cbar/2^k]: 1 - sqrt(2 cbar / 2^k)
        for k, a in zip(params, a_max):
            want = 1.0 - math.sqrt(2.0 * job.info["cbar"] / 2**k)
            if not _close(a, want, 1e-9):
                v.errors.append(f"halving k={k}: a_max {a!r}, closed form {want!r}")
    elif fam == "alpha_stretch":
        # stretching scales the threshold cost image: (1 - a)/sqrt(alpha) is fixed
        inner = [a for a in a_max if 0.0 < a < 1.0 - 1e-9]
        if len(inner) == len(a_max):
            ratios = [(1.0 - a) / math.sqrt(al) for a, al in zip(a_max, params)]
            if not all(_close(r, ratios[0], 1e-8) for r in ratios):
                v.errors.append(f"stretch a_max {a_max} break the scaling law")
        elif any(a_max[i] < a_max[i + 1] for i in range(len(a_max) - 1)):
            v.errors.append(f"stretching raised a_max: {a_max}")
    return v


def check_emit_plot(job, rc, out: Path, ctx) -> Verdict:
    v = Verdict()
    _expect_rc(v, rc, 0)
    points = job.info["points"]
    header, rows = _csv(out, "plot_costs.csv")
    if header != ["c", "H", "h", "S", "tangent"] or len(rows) != points:
        v.errors.append("plot_costs.csv malformed")
    else:
        c = np.array([float(r[0]) for r in rows[1:]])
        t = np.array([float(r[4]) for r in rows[1:]])
        slope = t[-1] / c[-1]
        if not np.allclose(t, slope * c, rtol=1e-9, atol=1e-12):
            v.errors.append("tangent column is not a line through the origin")
    header, rows = _csv(out, "plot_demand.csv")
    if header != ["x", "D", "phi", "extensive", "intensive", "G", "c_G"] or len(rows) != points:
        v.errors.append("plot_demand.csv malformed")
        return v
    a = job.info["a"]
    xs = np.array([float(r[0]) for r in rows])
    d = np.array([float(r[1]) for r in rows])
    phi = np.array([float(r[2]) for r in rows])
    if np.any(phi[xs <= a] != d[xs <= a]):
        v.errors.append("certificate differs from demand below the threshold")
    up = xs >= a
    if up.sum() >= 3:
        x0, x1, y0, y1 = xs[up][0], xs[up][-1], phi[up][0], phi[up][-1]
        line = y0 + (y1 - y0) * (xs[up] - x0) / (x1 - x0)
        if not np.allclose(phi[up], line, rtol=0.0, atol=1e-9):
            v.errors.append("certificate is not affine above the threshold")
    return v


# -- LP oracle ---------------------------------------------------------------


def check_oracle(job, rc, out: Path, ctx) -> Verdict:
    v = Verdict()
    _expect_rc(v, rc, 0)
    got = _json(out, "oracle.json")
    if got["duality_gap"] > ORACLE_DUALITY_GAP:
        v.errors.append(f"duality gap {got['duality_gap']:.3g} > {ORACLE_DUALITY_GAP}")
    masses = np.array([s["mass"] for s in got["support"]])
    locs = np.array([s["x"] for s in got["support"]])
    if abs(masses.sum() - 1.0) > 1e-6 or abs(float(masses @ locs) - 0.5) > 1e-6:
        v.errors.append("optimal deviation violates mass or mean")
    gap = float(got["gap"])
    if abs(gap) > oracle_resolution(int(got["grid_n"])):
        from censearch import verify_uce
        from censearch.cli import load_market

        mc = load_market(job.spec)
        ref = verify_uce(mc.prior, mc.costs, float(got["a"]), mc.n, mc.tol).verdict
        oracle = "fails" if gap > 0 else "equilibrium"
        if ref != oracle:
            v.errors.append(f"oracle gap {gap:.3g} says {oracle!r}, verify_uce {ref!r}")
    if job.info.get("dump"):
        path = out / "lp_triplets.txt"
        with open(path) as fh:
            head = fh.readline().rstrip("\n")
            nnz = sum(1 for _ in fh)
        if head != "# row col value" or nnz == 0:
            v.errors.append("lp_triplets.txt malformed")
    return v


# -- Monte Carlo -------------------------------------------------------------


def _bin_mean_demand(curve, lo: float, hi: float, kinks) -> float:
    """Average of D over [lo, hi] (the probe draws firm 0's signal uniformly),
    by Gauss-Legendre on the pieces between demand kinks."""
    xg, wg = np.polynomial.legendre.leggauss(24)
    cuts = [lo] + sorted(k for k in kinks if lo < k < hi) + [hi]
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        total += half * sum(w * curve.value(float(mid + half * x)) for x, w in zip(xg, wg))
    return total / (hi - lo)


def _payoff_tests(v: Verdict, payoffs, consumers: int, expected):
    if abs(sum(payoffs) - 1.0) > 1e-9:
        v.errors.append(f"firm payoffs sum to {sum(payoffs)!r}")
    for j, (p, e) in enumerate(zip(payoffs, expected)):
        k = round(p * consumers)
        pv, z = binomial_test(k, consumers, e)
        v.pvalues.append((f"payoff[{j}]", pv, z))


def check_sim_market(job, rc, out: Path, ctx) -> Verdict:
    v = Verdict()
    _expect_rc(v, rc, 0)
    got = _json(out, "simulate.json")
    n, consumers = job.info["n"], job.info["consumers"]
    if got["consumers"] != consumers:
        v.errors.append("consumer count differs from the spec")
    _payoff_tests(v, got["firm_payoffs"], consumers, [1.0 / n] * n)
    from censearch import DemandCurve, upper_censorship
    from censearch.cli import load_market

    mc = load_market(job.spec)
    G = upper_censorship(mc.prior, job.info["a"])
    curve = DemandCurve(G, n, mc.costs)
    kinks = set(float(x) for x in curve.x_breaks) | set(float(b) for b in G.breaks)
    header, rows = _csv(out, "demand_emp.csv")
    if header != ["bin_mid", "D_emp", "se", "D_analytic"]:
        v.errors.append("demand_emp.csv malformed")
    edges = np.linspace(0.0, 1.0, len(got["bin_counts"]) + 1)
    mids = [float(r[0]) for r in rows]
    for r in rows:
        mid, d_emp, d_an = float(r[0]), float(r[1]), float(r[3])
        if not _close(d_an, curve.value(mid), 1e-12):
            v.errors.append(f"D_analytic at {mid} differs from DemandCurve.value")
        j = int(np.argmin(np.abs(0.5 * (edges[:-1] + edges[1:]) - mid)))
        count = int(got["bin_counts"][j])
        expected = _bin_mean_demand(curve, edges[j], edges[j + 1], kinks)
        pv, z = binomial_test(round(d_emp * count), count, expected)
        v.pvalues.append((f"demand bin {mid:.3f}", pv, z))
    if len(mids) != len(got["bin_counts"]):
        v.errors.append("empty demand bins with a uniform probe")
    return v


def check_sim_deviation(job, rc, out: Path, ctx) -> Verdict:
    v = Verdict()
    _expect_rc(v, rc, 0)
    got = _json(out, "simulate.json")
    n, consumers = job.info["n"], job.info["consumers"]
    payoffs = got["outcome"]["firm_payoffs"]
    if got["deviating_payoff"] != payoffs[0]:
        v.errors.append("deviating_payoff is not firm 0's payoff")
    from censearch import PiecewisePolyDist, dist_from_json, expected_payoff, upper_censorship
    from censearch.cli import load_market

    mc = load_market(job.spec)
    G = upper_censorship(mc.prior, job.info["a"])
    blk = job.spec["simulate"]
    if "deviation_atom" in blk:
        G_dev = PiecewisePolyDist.point_mass(float(blk["deviation_atom"]))
    else:
        G_dev = dist_from_json(blk["deviation"])
    e0 = expected_payoff(G_dev, G, n, mc.costs)
    _payoff_tests(v, payoffs, consumers, [e0] + [(1.0 - e0) / (n - 1)] * (n - 1))
    return v


CHECKS = {
    "solve_golden": check_solve_golden,
    "solve": check_solve,
    "verify_single": check_verify_single,
    "verify_sweep": check_verify_sweep,
    "verify_grid": check_verify_grid,
    "welfare": check_welfare,
    "compstat": check_compstat,
    "emit_plot": check_emit_plot,
    "oracle": check_oracle,
    "sim_market": check_sim_market,
    "sim_deviation": check_sim_deviation,
}
