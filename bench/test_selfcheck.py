"""Self-check of the benchmark at tiny sizes.

Every job generator must emit specs the CLI accepts (exit 0, or 4 where a
verification gate fails), the only failing checks on correct output must be
the named known defects, and every output check must fire on a deliberately
corrupted output.

    PYTHONPATH=src python3 -m pytest -q bench/test_selfcheck.py
"""

import copy
import csv
import json
import shutil
import sys

import pytest

import checks as C
import jobs as J
import run

SEED = 0


def _tiny_round(workload, runner):
    rng = J.round_rng(workload, SEED, 0)
    if workload == "lp-oracle":
        runner.run_all(J.lp_jobs(rng, grid_n=101), 0)
    elif workload == "monte-carlo":
        runner.run_all(J.mc_jobs(rng, threads=1, scale=0.05), 0)
    else:
        runner.run_all(J.certify_fixed(), "fixed")
        run.run_round(runner, workload, SEED, 0, threads=1)


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    run.import_program()
    import censearch.cli as cli

    out = {}
    for workload in J.WORKLOADS:
        runner = run.Runner(cli, tmp_path_factory.mktemp(workload))
        _tiny_round(workload, runner)
        stats = run.check_all(runner.records)
        out[workload] = (runner.records, stats)
    return out


@pytest.mark.parametrize("workload", J.WORKLOADS)
def test_specs_accepted_and_only_known_defects_fail(records, workload):
    recs, _ = records[workload]
    assert recs
    for rec in recs:
        assert rec["error"] is None, rec["error"]
        assert rec["rc"] in (0, 4), (rec["job"].name, rec["rc"])
    failing = {r["job"].name for r in recs if r["verdict"].errors}
    known = {r["job"].name for r in recs if r["job"].info.get("known_defect")}
    assert failing <= known, {r["job"].name: r["verdict"].errors
                              for r in recs if r["job"].name in failing - known}


def test_traced_round_reports_every_layer_metric(tmp_path):
    """A tiny traced round: the wrappers fire, uninstall restores every
    original, and the metrics are exactly BENCHMARK.json's per-layer names."""
    run.import_program()
    import censearch.cli as cli
    from spans import COUNT_GROUPS, PACKAGE, SPAN_GROUPS, Tracer

    def snapshot():
        tracer = Tracer()
        attrs = {}
        for holder in tracer._holders():
            attrs.update({(holder.__name__, k): v for k, v in vars(holder).items()})
        for module, paths in list(SPAN_GROUPS.values()) + list(COUNT_GROUPS.values()):
            mod = sys.modules[f"{PACKAGE}.{module}"]
            for path in paths:
                if "." in path:
                    cls, attr = path.split(".")
                    attrs[(module, path)] = getattr(mod, cls).__dict__[attr]
        return attrs

    before = snapshot()
    runner = run.Runner(cli, tmp_path)
    tracer = Tracer()
    tracer.install()
    assert snapshot() != before
    runner.tracer = tracer
    tracer.on = True
    try:
        traced = runner.run_all(J.certify_fixed()[:2], 0)
        traced += runner.run_all(J.lp_jobs(J.round_rng("lp-oracle", SEED, 0), grid_n=101)[:1], 0)
        traced += runner.run_all(J.mc_jobs(J.round_rng("monte-carlo", SEED, 0), threads=1,
                                           scale=0.02)[:1], 0)
    finally:
        tracer.on = False
        tracer.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    for rec in runner.records:
        rec["verdict"] = run.check_one(rec, run.CheckContext(runner.records,
                                                             run.GOLDEN.read_bytes()))
    metrics = run.per_layer_metrics(tracer, runner.records, traced, 0.0)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    for name in ("cli", "censorship.solve_a_max", "oracle.build_problem", "oracle.solve_br",
                 "oracle.dump_triplets", "dists.quantile", "simulate.simulate_market"):
        assert tracer.calls[name] >= 1, name
    assert metrics["oracle.grid_m"][0] > 0 and metrics["oracle.lp_nnz"][0] > 0
    assert metrics["dists.quantile.elems"][0] > 0 and metrics["poly.polyint.calls"][0] > 0
    assert metrics["simulate.s_per_Mconsumer_n2"][0] > 0
    # self times are disjoint pieces of the top-level CLI spans
    self_total = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    cli_spans = sum(e - s for g, s, e in zip(tracer.group, tracer.start, tracer.end)
                    if tracer.groups[g] == "cli")
    assert all(v >= 0 for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    assert self_total <= cli_spans


def test_same_seed_same_specs():
    for workload in ("lp-oracle", "monte-carlo"):
        a = run.round_jobs_for_setup(workload, 7, 2)
        b = run.round_jobs_for_setup(workload, 7, 2)
        assert [j.spec for j in a] == [j.spec for j in b]
    a, _ = J.certify_stage1(J.round_rng("certify", 7, 0))
    b, _ = J.certify_stage1(J.round_rng("certify", 7, 1))
    assert [j.spec for j in a] != [j.spec for j in b]


def test_scaling_law_matches_solver():
    """The corpus a_max table and its scaling law, against the solver."""
    run.import_program()
    from censearch import PiecewisePolyDist, dist_from_json, solve_a_max

    F = PiecewisePolyDist.uniform(0.0, 1.0)
    for costs, a_max in J.CORPUS.values():
        for s in (J.SCALE[0], J.SCALE[1], J.SCALE[1] * 1.3):
            if costs["support"][1] * s >= 0.5:
                continue  # costs must stay below the prior mean
            got = solve_a_max(F, dist_from_json(J.scale_costs(costs, s)))[0]
            assert got == pytest.approx(J.scaled_a_max(a_max, s), abs=1e-9)


# -- every check fires on a corrupted output ---------------------------------


def _edit_json(name, edit):
    def corrupt(out):
        payload = json.loads((out / name).read_text())
        edit(payload)
        (out / name).write_text(json.dumps(payload))
    return corrupt


def _edit_csv(name, edit):
    def corrupt(out):
        with open(out / name, newline="") as fh:
            rows = list(csv.reader(fh))
        edit(rows)
        with open(out / name, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    return corrupt


def _flip_verdict(p):
    p["verdict"] = "fails" if p["verdict"] == "equilibrium" else "equilibrium"


def _flip_pf(p):
    p["price_function"]["passed"] = not p["price_function"]["passed"]


def _flip_sweep(p):
    row = p["sweep"][-1]
    row["verdict"] = "fails" if row["verdict"] == "equilibrium" else "equilibrium"


def _flip_grid(p):
    for row in p["sweep"]:
        row["equilibrium"] = not row["equilibrium"]


def _shift_col(col, delta, row=1):
    def edit(rows):
        i = rows[0].index(col)
        rows[row][i] = repr(float(rows[row][i]) + delta)
    return edit


def _shift_phi_top(rows):
    i = rows[0].index("phi")
    rows[-2][i] = repr(float(rows[-2][i]) + 1e-6)


def _shift_payoffs(key_path, se_mult):
    """Move firm 0's payoff by se_mult standard errors, firm 1 the other way
    (so the payoffs still sum to 1 and only the statistical test can fire)."""
    def edit(p):
        pay = p
        for k in key_path:
            pay = pay[k]
        n = len(pay["firm_payoffs"])
        se = (pay["firm_payoffs"][0] * (1 - pay["firm_payoffs"][0]) / pay["consumers"]) ** 0.5
        shift = round(se_mult * se * pay["consumers"]) / pay["consumers"]
        pay["firm_payoffs"][0] += shift
        pay["firm_payoffs"][1 % n] -= shift
        if "deviating_payoff" in p:
            p["deviating_payoff"] = pay["firm_payoffs"][0]
    return edit


def _push_bin_to_edge(rows):
    """Set the bin whose analytic demand is nearest 1/2 to the far edge,
    many standard errors away even at the self-check's tiny sizes."""
    i, j = rows[0].index("D_emp"), rows[0].index("D_analytic")
    row = min(rows[1:], key=lambda r: abs(float(r[j]) - 0.5))
    row[i] = "1.0" if float(row[j]) < 0.5 else "0.0"


CORRUPTIONS = [
    ("certify", "readme-solve", _edit_json("solve.json", lambda p: p.update(case="c"))),
    ("certify", "solve-bimodal", _edit_json("solve.json",
                                            lambda p: p.update(a_max=p["a_max"] + 1e-6))),
    ("certify", "verify-uniform-lo0-n2", _edit_json("verify.json", _flip_verdict)),
    ("certify", "pf-rand-lin", _edit_json("verify.json", _flip_pf)),
    ("certify", "sweep-uniform-lo0", _edit_json("verify.json", _flip_sweep)),
    ("certify", "grid-threestep", _edit_json("verify.json", _flip_grid)),
    ("certify", "welfare-rand-const", _edit_csv("welfare.csv", _shift_col("surplus", 1e-6))),
    ("certify", "compstat-halving", _edit_csv("compstat.csv", _shift_col("a_max", 1e-6, 2))),
    ("certify", "compstat-alpha-convex", _edit_csv("compstat.csv", _shift_col("a_max", 1e-6))),
    ("certify", "plot-bimodal-n2", _edit_csv("plot_demand.csv", _shift_phi_top)),
    ("lp-oracle", "oracle-uniform-below-n2",
     _edit_json("oracle.json", lambda p: p.update(duality_gap=1e-6))),
    ("lp-oracle", "oracle-uniform-below-n2",
     _edit_json("oracle.json", lambda p: p.update(gap=1e-3))),
    ("monte-carlo", "sim-market-n2", _edit_json("simulate.json",
                                                 _shift_payoffs([], 10))),
    ("monte-carlo", "sim-market-n2", _edit_csv("demand_emp.csv", _push_bin_to_edge)),
    ("monte-carlo", "sim-atom-n5", _edit_json("simulate.json",
                                               _shift_payoffs(["outcome"], 10))),
    ("monte-carlo", "sim-pieces-n5", _edit_json("simulate.json",
                                                 lambda p: p.update(deviating_payoff=0.0))),
]


@pytest.mark.parametrize("workload,name,corrupt", CORRUPTIONS,
                         ids=[f"{w}:{n}:{i}" for i, (w, n, _) in enumerate(CORRUPTIONS)])
def test_check_fires_on_corrupted_output(records, tmp_path, workload, name, corrupt):
    recs, stats = records[workload]
    rec = next(r for r in recs if r["job"].name == name)
    assert not rec["verdict"].errors, rec["verdict"].errors
    bad = copy.copy(rec)
    bad["out"] = tmp_path / name
    shutil.copytree(rec["out"], bad["out"])
    corrupt(bad["out"])
    ctx = run.CheckContext(recs, run.GOLDEN.read_bytes())
    verdict = run.check_one(bad, ctx)
    alpha = C.alpha_for(stats["tests"])
    assert verdict.errors or any(p < alpha for _, p, _ in verdict.pvalues)
