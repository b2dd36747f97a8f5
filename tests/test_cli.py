"""Command-line surface: spec validation, exit codes, output artifacts,
golden-file regression, determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from censearch import costshape
from censearch.cli import main

GOLDEN = Path(__file__).parent / "golden"


def write_spec(tmp_path, name="spec.json", n=50, cbar=0.18, extra=None):
    spec = {
        "version": 1,
        "market": {
            "prior": {"kind": "uniform", "support": [0, 1]},
            "costs": {"kind": "uniform", "support": [0, cbar]},
            "n": n,
        },
    }
    spec.update(extra or {})
    p = tmp_path / name
    p.write_text(json.dumps(spec))
    return p


def test_solve_golden(tmp_path):
    spec = write_spec(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--spec", str(spec), "--out", str(out)]) == 0
    got = (out / "solve.json").read_text()
    assert got == (GOLDEN / "solve_uniform.json").read_text()
    rows = list(csv.reader(open(out / "cost_scan.csv")))
    assert rows[0] == ["c", "H", "h", "S", "Sprime"]
    assert len(rows) > 100


def test_solve_deterministic(tmp_path):
    spec = write_spec(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["solve", "--spec", str(spec), "--out", str(out1)])
    main(["solve", "--spec", str(spec), "--out", str(out2)])
    assert (out1 / "solve.json").read_bytes() == (out2 / "solve.json").read_bytes()


def test_config_error_exit_codes(tmp_path, capsys):
    bad = write_spec(tmp_path, "bad.json", cbar=0.7)
    assert main(["solve", "--spec", str(bad)]) == 2
    assert "below the prior mean" in capsys.readouterr().err
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"version": 1, "market": {}, "mystery": 1}))
    assert main(["solve", "--spec", str(unknown)]) == 2
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps({"version": 99}))
    assert main(["solve", "--spec", str(stale)]) == 2
    missing = tmp_path / "nope.json"
    assert main(["solve", "--spec", str(missing)]) == 2


def test_missing_required_fields_exit_2(tmp_path, capsys):
    no_support = {"kind": "uniform"}
    cases = {
        "verify-empty": ("verify", {"verify": {}}),
        "verify-sweep": ("verify", {"verify": {"n_sweep": [2, 5]}}),
        "verify-null": ("verify", {"verify": {"a": None}}),
        "deviation": ("simulate", {"simulate": {"a": 0.4, "consumers": 1000,
                                                "deviation": no_support}}),
        "base-costs": ("compstat", {"compstat": {"base_costs": no_support}}),
    }
    for name, (cmd, extra) in cases.items():
        spec = write_spec(tmp_path, f"{name}.json", n=2, extra=extra)
        assert main([cmd, "--spec", str(spec), "--out", str(tmp_path / name)]) == 2, name
        assert "config error" in capsys.readouterr().err, name


def test_unread_grid_knobs_rejected(tmp_path, capsys):
    # the certificate grids and the cost scan are constants, so the market
    # has no grid block: a spec setting one is a config error
    for knob in ("curvature", "margin", "scan_per_segment"):
        spec = write_spec(tmp_path, f"{knob}.json")
        payload = json.loads(spec.read_text())
        payload["market"]["grid"] = {knob: 513}
        spec.write_text(json.dumps(payload))
        assert main(["solve", "--spec", str(spec)]) == 2
        assert "'grid'" in capsys.readouterr().err


def test_lp_grid_knobs_rejected(tmp_path, capsys):
    # the oracle block's grid_n is the one LP grid size; the cost quantiles
    # are a constant of the oracle
    for knob in ("lp", "cost_quantiles"):
        spec = write_spec(tmp_path, f"{knob}.json", extra={"oracle": {"a": 0.4, "grid_n": 101}})
        payload = json.loads(spec.read_text())
        payload["market"]["grid"] = {knob: 201}
        spec.write_text(json.dumps(payload))
        assert main(["oracle", "--spec", str(spec)]) == 2
        assert "'grid'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--spec", str(spec), "--grid", "201"])
    assert exc.value.code == 2


def test_unread_tolerance_rejected(tmp_path, capsys):
    # the LP runs at HiGHS's own tolerances, so no spec tolerance reaches it
    spec = write_spec(tmp_path, "lp_tol.json", extra={"oracle": {"a": 0.4, "grid_n": 101}})
    payload = json.loads(spec.read_text())
    payload["market"]["tol"] = {"lp": 1e-8}
    spec.write_text(json.dumps(payload))
    for cmd in ("solve", "oracle"):
        assert main([cmd, "--spec", str(spec)]) == 2
        assert "'lp'" in capsys.readouterr().err


def test_verify_gating(tmp_path):
    ok = write_spec(tmp_path, "ok.json", extra={"verify": {"a": 0.3, "price_function": True}})
    phi = tmp_path / "phi.csv"
    assert main(["verify", "--spec", str(ok), "--out", str(tmp_path / "v1"),
                 "--emit-phi", str(phi)]) == 0
    payload = json.loads((tmp_path / "v1" / "verify.json").read_text())
    assert payload["price_function"]["passed"]
    rows = list(csv.reader(open(phi)))
    assert rows[0] == ["x", "D", "phi"]
    gaps = [float(r[2]) - float(r[1]) for r in rows[1:]]
    assert min(gaps) >= -1e-9  # certificate dominates demand
    bad = write_spec(tmp_path, "bad.json", extra={"verify": {"a": 0.45}})
    assert main(["verify", "--spec", str(bad), "--out", str(tmp_path / "v2")]) == 4
    payload = json.loads((tmp_path / "v2" / "verify.json").read_text())
    assert payload["verdict"] == "fails"


def test_verify_full_disclosure_and_edges(tmp_path, capsys):
    # full disclosure gets a verdict (it fails the convexity check); just
    # below it the pooled signal is not resolvable, a numeric failure
    full = write_spec(tmp_path, "full.json", n=5, extra={"verify": {"a": 1.0}})
    assert main(["verify", "--spec", str(full), "--out", str(tmp_path / "f")]) == 4
    payload = json.loads((tmp_path / "f" / "verify.json").read_text())
    assert payload["verdict"] == "fails" and not payload["checks"]["virtual_convex"]
    edge = write_spec(tmp_path, "edge.json", n=5, extra={"verify": {"a": 1 - 1e-10}})
    assert main(["verify", "--spec", str(edge)]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_verify_atomic_costs_config_error(tmp_path, capsys):
    atomic = {"kind": "poly-pieces", "support": [0, 0.18],
              "pieces": [{"to": 0.18, "coef": [0.5 / 0.18]}], "atoms": [{"at": 0.09, "mass": 0.5}]}
    for a, code in ((0.0, 0), (0.2, 2), (0.5, 2), (0.8, 2)):
        spec = write_spec(tmp_path, f"atomic{a}.json", n=5, extra={"verify": {"a": a}})
        payload = json.loads(spec.read_text())
        payload["market"]["costs"] = atomic
        spec.write_text(json.dumps(payload))
        assert main(["verify", "--spec", str(spec)]) == code, a
        if code == 2:
            assert "atom-free cost distribution" in capsys.readouterr().err


def test_verify_n_sweep(tmp_path):
    spec = write_spec(tmp_path, extra={"verify": {"a": 0.4, "n_sweep": [2, 3, 5, 10]}})
    out = tmp_path / "s"
    assert main(["verify", "--spec", str(spec), "--out", str(out)]) == 0
    payload = json.loads((out / "verify.json").read_text())
    assert payload["smallest_passing_n"] == 2


def test_fractional_firm_count_rejected(tmp_path, capsys):
    # a market size that is not an integer is a config error, in the market
    # block and in every sweep entry alike, never truncated to a smaller n
    cases = {"n": write_spec(tmp_path, "n.json", n=2.7, extra={"verify": {"a": 0.4}}),
             "sweep": write_spec(tmp_path, "sweep.json", extra={"verify": {"a": 0.4,
                                                                           "n_sweep": [2, 2.5]}}),
             "small": write_spec(tmp_path, "small.json", extra={"verify": {"a": 0.4,
                                                                           "n_sweep": [1, 2]}})}
    for name, spec in cases.items():
        assert main(["verify", "--spec", str(spec), "--out", str(tmp_path / name)]) == 2, name
        assert "integer number of firms" in capsys.readouterr().err, name
        assert not (tmp_path / name).exists(), name
    whole = write_spec(tmp_path, "whole.json", n=5.0, extra={"verify": {"a": 0.4,
                                                                       "n_sweep": [2.0, 3]}})
    assert main(["verify", "--spec", str(whole), "--out", str(tmp_path / "whole")]) == 0
    payload = json.loads((tmp_path / "whole" / "verify.json").read_text())
    assert [row["n"] for row in payload["sweep"]] == [2, 3]


def test_oracle_and_dump(tmp_path):
    spec = write_spec(tmp_path, n=2, extra={"oracle": {"a": 0.4, "grid_n": 201}})
    out = tmp_path / "o"
    dump = tmp_path / "lp.txt"
    assert main(["oracle", "--spec", str(spec), "--out", str(out), "--dump-lp", str(dump)]) == 0
    payload = json.loads((out / "oracle.json").read_text())
    assert payload["equilibrium_gap"] <= 1e-6
    assert dump.exists() and dump.read_text().startswith("# row col value")


def test_simulate_outputs(tmp_path):
    spec = write_spec(
        tmp_path, n=2,
        extra={"simulate": {"a": 0.4, "consumers": 20000, "bins": 20, "seed": 3}},
    )
    out = tmp_path / "sim"
    assert main(["simulate", "--spec", str(spec), "--out", str(out)]) == 0
    payload = json.loads((out / "simulate.json").read_text())
    assert abs(payload["search_length_mean"] - 1.4) < 0.05
    rows = list(csv.reader(open(out / "demand_emp.csv")))
    assert rows[0] == ["bin_mid", "D_emp", "se", "D_analytic"]
    emp = np.array([[float(v) for v in r] for r in rows[1:]])
    assert np.all(np.abs(emp[:, 1] - emp[:, 3]) <= 6 * np.maximum(emp[:, 2], 1e-3))


def test_simulate_deviation_spec(tmp_path):
    spec = write_spec(
        tmp_path, n=2,
        extra={"simulate": {"a": 0.4, "consumers": 20000, "seed": 3, "deviation_atom": 0.7}},
    )
    out = tmp_path / "dev"
    assert main(["simulate", "--spec", str(spec), "--out", str(out)]) == 0
    payload = json.loads((out / "simulate.json").read_text())
    assert abs(payload["deviating_payoff"] - 0.7) <= 5 * payload["payoff_se"]


def test_welfare_csv(tmp_path):
    spec = write_spec(tmp_path, n=2, extra={"welfare": {"a_grid": [0.0, 0.2, 0.4]}})
    out = tmp_path / "w"
    assert main(["welfare", "--spec", str(spec), "--out", str(out)]) == 0
    rows = list(csv.reader(open(out / "welfare.csv")))
    header, data = rows[0], rows[1:]
    cs_col = header.index("CS_total")
    totals = sorted({float(r[cs_col]) for r in data})
    assert len(totals) == 3 and totals[0] == pytest.approx(0.41, abs=1e-9)


def test_compstat_families(tmp_path):
    spec = write_spec(tmp_path, n=2, extra={"compstat": {"family": "alpha_stretch", "alphas": [1.1, 1.3, 1.5]}})
    out = tmp_path / "c"
    assert main(["compstat", "--spec", str(spec), "--out", str(out)]) == 0
    rows = list(csv.reader(open(out / "compstat.csv")))
    a_col = rows[0].index("a_max")
    vals = [float(r[a_col]) for r in rows[1:]]
    assert vals == sorted(vals, reverse=True)  # stretching reduces disclosure


def test_one_cost_shape_analysis_per_cost_law(tmp_path, monkeypatch):
    """solve, compstat and emit-plot analyse each cost law once: solve_a_max
    reads the cost-shape report its caller already built."""
    built = []

    class Counting(costshape._SlopeAnalysis):
        def __init__(self, H, tol=1e-9):
            built.append(H)
            super().__init__(H, tol)

    monkeypatch.setattr(costshape, "_SlopeAnalysis", Counting)
    jobs = [("solve", None, 1),
            ("compstat", {"compstat": {"family": "alpha_stretch", "alphas": [1.1, 1.3]}}, 2),
            ("emit-plot", {"emit_plot": {"points": 65}}, 1),
            ("emit-plot", {"emit_plot": {"a": 0.3, "points": 65}}, 1)]
    for i, (cmd, extra, laws) in enumerate(jobs):
        built.clear()
        spec = write_spec(tmp_path, f"{i}.json", n=2, extra=extra)
        assert main([cmd, "--spec", str(spec), "--out", str(tmp_path / str(i))]) == 0
        assert len(built) == laws, (cmd, len(built))


def test_emit_plot_given_threshold_skips_solver(tmp_path):
    """A given threshold needs no threshold solve, so costs the solver rejects
    (support not starting at 0) still plot."""
    spec = write_spec(tmp_path, n=2, extra={"emit_plot": {"a": 0.3, "points": 65}})
    payload = json.loads(spec.read_text())
    payload["market"]["costs"]["support"] = [0.02, 0.18]
    spec.write_text(json.dumps(payload))
    out = tmp_path / "p"
    assert main(["emit-plot", "--spec", str(spec), "--out", str(out)]) == 0
    assert (out / "plot_costs.csv").exists() and (out / "plot_demand.csv").exists()


def test_emit_plot_panels(tmp_path):
    spec = write_spec(tmp_path, n=2, extra={"emit_plot": {"a": 0.4, "points": 129}})
    out = tmp_path / "p"
    assert main(["emit-plot", "--spec", str(spec), "--out", str(out)]) == 0
    cost_rows = list(csv.reader(open(out / "plot_costs.csv")))
    c_i = cost_rows[0].index("c")
    t_i = cost_rows[0].index("tangent")
    for r in cost_rows[1:]:
        # tangent line through the origin with the evenness slope
        assert float(r[t_i]) == pytest.approx((1 / 0.18) * float(r[c_i]), rel=1e-9, abs=1e-12)
    dem = list(csv.reader(open(out / "plot_demand.csv")))
    x_i, phi_i = dem[0].index("x"), dem[0].index("phi")
    pts = [(float(r[x_i]), float(r[phi_i])) for r in dem[1:] if float(r[x_i]) >= 0.4]
    # the certificate is affine above the threshold
    (x0, y0), (x1, y1), (x2, y2) = pts[0], pts[len(pts) // 2], pts[-1]
    interp = y0 + (y2 - y0) * (x1 - x0) / (x2 - x0)
    assert y1 == pytest.approx(interp, abs=1e-9)


def test_cli_import_leaves_test_references_out():
    # mpmath, sympy and hypothesis serve the tests only; the command line
    # tool's start-up must not pay for importing them
    code = ("import sys, censearch.cli; "
            "print(' '.join(m for m in ('mpmath', 'sympy', 'hypothesis') if m in sys.modules))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
