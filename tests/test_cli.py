"""Command-line surface: spec validation, exit codes, output artifacts,
golden-file regression, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from censearch import costshape
from censearch.cli import _write_csv, main

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


@pytest.mark.parametrize("flag", [["--dump-lp", "lp.txt"], ["--emit-phi", "phi.csv"],
                                  ["--seed", "3"]], ids=lambda f: f[0])
def test_retired_flags_rejected(tmp_path, flag):
    # the LP dump is oracle.dump_lp, the (x, D, phi) panel is emit-plot's
    # plot_demand.csv and the simulation seed is simulate.seed
    spec = write_spec(tmp_path, n=2)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--spec", str(spec), *flag])
    assert exc.value.code == 2


def test_base_costs_knob_rejected(tmp_path, capsys):
    # compstat varies the market's own cost law, market.costs: a base law of
    # its own is an unknown field
    base = {"kind": "uniform", "support": [0, 0.18]}
    spec = write_spec(tmp_path, n=2, extra={"compstat": {"base_costs": base}})
    assert main(["compstat", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert "unknown fields in compstat" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_scan_csv_key_rejected(tmp_path, capsys):
    # cost_scan.csv is written exactly when --out is set, and solve reads no
    # block of its own
    spec = write_spec(tmp_path, n=2, extra={"solve": {"scan_csv": True}})
    assert main(["solve", "--spec", str(spec)]) == 2
    assert "'solve'" in capsys.readouterr().err


BAD_COUNTS = {
    "bins-0": ("simulate", {"simulate": {"a": 0.4, "consumers": 1000, "bins": 0}}),
    "consumers-0": ("simulate", {"simulate": {"a": 0.4, "consumers": 0}}),
    "consumers-fraction": ("simulate", {"simulate": {"a": 0.4, "consumers": 1000.7}}),
    "seed-fraction": ("simulate", {"simulate": {"a": 0.4, "consumers": 1000, "seed": 3.7}}),
    "grid_n-fraction": ("oracle", {"oracle": {"a": 0.4, "grid_n": 101.9}}),
    "points-0": ("emit-plot", {"emit_plot": {"a": 0.4, "points": 0}}),
    "cost_quantile-above-1": ("welfare", {"welfare": {"a_grid": [0.2], "cost_quantiles": [1.5]}}),
}


@pytest.mark.parametrize("case", sorted(BAD_COUNTS))
def test_bad_counts_exit_2(tmp_path, capsys, case):
    # counts are whole numbers, never truncated; consumers, bins and points
    # are at least 1, and cost quantiles lie in (0, 1]
    cmd, extra = BAD_COUNTS[case]
    spec = write_spec(tmp_path, n=2, extra=extra)
    assert main([cmd, "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


_UNIFORM = {"kind": "uniform", "support": [0, 1]}
MALFORMED = {
    "spec-list": ("solve", [1]),
    "oracle-null": ("oracle", {"oracle": None}),
    "oracle.a-null": ("oracle", {"oracle": {"a": None, "grid_n": 101}}),
    "simulate.a-list": ("simulate", {"simulate": {"a": [1], "consumers": 1000}}),
    "deviation_atom-null": ("simulate", {"simulate": {"a": 0.4, "consumers": 1000,
                                                      "deviation_atom": None}}),
    "emit_plot.a-null": ("emit-plot", {"emit_plot": {"a": None}}),
    "welfare.a_grid-null": ("welfare", {"welfare": {"a_grid": [None]}}),
    "welfare.a_grid-number": ("welfare", {"welfare": {"a_grid": 3}}),
    "verify.a_grid-null": ("verify", {"verify": {"a_grid": [None]}}),
    "compstat.family-list": ("compstat", {"compstat": {"family": [1]}}),
    "market.tol": ("verify", {"verify": {"a": 0.3},
                              "market": {"prior": _UNIFORM, "n": 2, "tol": {"root": 1e-10, "ineq": 1e-9},
                                         "costs": {"kind": "uniform", "support": [0, 0.18]}}}),
    "verify.n_sweep-empty": ("verify", {"verify": {"a": 0.3, "n_sweep": []}}),
    "verify.a_grid-empty": ("verify", {"verify": {"a_grid": []}}),
    "dump_lp-string": ("oracle", {"oracle": {"a": 0.4, "grid_n": 101, "dump_lp": "no"}}),
    "dump_lp-null": ("oracle", {"oracle": {"a": 0.4, "grid_n": 101, "dump_lp": None}}),
    "price_function-string": ("verify", {"verify": {"a": 0.3, "price_function": "false"}}),
    "verify.a-negative": ("verify", {"verify": {"a": -0.3}}),
    "verify.a-above-1-sweep": ("verify", {"verify": {"a": 1.2, "n_sweep": [2, 5]}}),
    "verify.a_grid-above-1": ("verify", {"verify": {"a_grid": [0.2, 1.5]}}),
    "oracle.a-above-1": ("oracle", {"oracle": {"a": 1.7, "grid_n": 101}}),
    "simulate.a-negative": ("simulate", {"simulate": {"a": -0.1, "consumers": 1000}}),
    "emit_plot.a-above-1": ("emit-plot", {"emit_plot": {"a": 1.01}}),
    "welfare.a_grid-negative": ("welfare", {"welfare": {"a_grid": [-0.5, 0.2]}}),
    "welfare.a_grid-above-1": ("welfare", {"welfare": {"a_grid": [0.2, 1.5]}}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_spec_exit_2(tmp_path, capsys, case):
    # a spec or block that is not a JSON object, a number field holding
    # null, a list or a string, a switch that is not a JSON boolean, a
    # threshold outside the prior's support [0, 1], a verify sweep over
    # nothing and a tolerance (the verifiers' are fixed) are config errors,
    # not crashes, clamped thresholds or failed verifications
    cmd, extra = MALFORMED[case]
    if isinstance(extra, dict):
        spec = write_spec(tmp_path, n=2, extra=extra)
    else:
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(extra))
    assert main([cmd, "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_whole_float_counts_accepted(tmp_path):
    spec = write_spec(tmp_path, n=2, extra={"simulate": {"a": 0.4, "consumers": 2000.0,
                                                         "bins": 10.0, "seed": 3.0}})
    assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "s")]) == 0
    payload = json.loads((tmp_path / "s" / "simulate.json").read_text())
    assert payload["consumers"] == 2000 and payload["seed"] == 3
    assert len(payload["bin_mids"]) == 10


UNREAD_KEYS = {
    "a-with-a_grid": ("verify", {"verify": {"a": 0.4, "a_grid": [0.2, 0.4]}}),
    "price_function-with-a_grid": ("verify", {"verify": {"a_grid": [0.2], "price_function": True}}),
    "a_grid-with-n_sweep": ("verify", {"verify": {"a": 0.4, "n_sweep": [2], "a_grid": [0.2]}}),
    "price_function-with-n_sweep": ("verify", {"verify": {"a": 0.4, "n_sweep": [2],
                                                          "price_function": True}}),
    "deviation-with-atom": ("simulate", {"simulate": {"a": 0.4, "consumers": 1000,
                                                      "deviation_atom": 0.7,
                                                      "deviation": {"kind": "uniform",
                                                                    "support": [0, 1]}}}),
}


@pytest.mark.parametrize("case", sorted(UNREAD_KEYS))
def test_keys_the_mode_never_reads_rejected(tmp_path, capsys, case):
    cmd, extra = UNREAD_KEYS[case]
    spec = write_spec(tmp_path, n=2, extra=extra)
    assert main([cmd, "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert "does not read" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unread_tolerance_rejected(tmp_path, capsys):
    # the verifiers' slacks are fixed (dists.TOL) and the LP's tolerances are
    # fixed in oracle.solve_br, so a spec sets no tolerance, not even a valid one
    spec = write_spec(tmp_path, "tol.json", extra={"verify": {"a": 0.3},
                                                   "oracle": {"a": 0.4, "grid_n": 101}})
    payload = json.loads(spec.read_text())
    for tol in ({"root": 1e-10, "ineq": 1e-9}, {"lp": 1e-8}):
        payload["market"]["tol"] = tol
        spec.write_text(json.dumps(payload))
        for cmd in ("solve", "verify", "oracle"):
            assert main([cmd, "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
            assert "unknown fields in market: ['tol']" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()


def test_verify_gating(tmp_path):
    ok = write_spec(tmp_path, "ok.json", extra={"verify": {"a": 0.3, "price_function": True},
                                               "emit_plot": {"a": 0.3}})
    assert main(["verify", "--spec", str(ok), "--out", str(tmp_path / "v1")]) == 0
    payload = json.loads((tmp_path / "v1" / "verify.json").read_text())
    assert payload["price_function"]["passed"]
    # the (x, D, phi) panel of the verified threshold comes from emit-plot
    assert main(["emit-plot", "--spec", str(ok), "--out", str(tmp_path / "p1")]) == 0
    rows = list(csv.reader(open(tmp_path / "p1" / "plot_demand.csv")))
    assert rows[0][:3] == ["x", "D", "phi"]
    gaps = [float(r[2]) - float(r[1]) for r in rows[1:]]
    assert len(gaps) == 513
    assert min(gaps) >= -1e-9  # certificate dominates demand
    bad = write_spec(tmp_path, "bad.json", extra={"verify": {"a": 0.45}})
    assert main(["verify", "--spec", str(bad), "--out", str(tmp_path / "v2")]) == 4
    payload = json.loads((tmp_path / "v2" / "verify.json").read_text())
    assert payload["verdict"] == "fails"


def test_verify_full_disclosure_and_edges(tmp_path, capsys):
    # full disclosure gets a verdict (it fails the convexity check), and so
    # does a threshold just below it, whose pooled signal is a + (1 - a) / 2
    full = write_spec(tmp_path, "full.json", n=5, extra={"verify": {"a": 1.0}})
    assert main(["verify", "--spec", str(full), "--out", str(tmp_path / "f")]) == 4
    payload = json.loads((tmp_path / "f" / "verify.json").read_text())
    assert payload["verdict"] == "fails" and not payload["checks"]["virtual_convex"]
    a = 1 - 1e-10
    edge = write_spec(tmp_path, "edge.json", n=5, extra={"verify": {"a": a}})
    assert main(["verify", "--spec", str(edge), "--out", str(tmp_path / "e")]) == 4
    payload = json.loads((tmp_path / "e" / "verify.json").read_text())
    assert payload["verdict"] == "fails" and not payload["checks"]["virtual_convex"]
    assert payload["pooled_signal"] == a + (1 - a) / 2
    assert "numeric failure" not in capsys.readouterr().err


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
    # every size passes at a = 0.3: the smallest is reported, not the first listed
    spec = write_spec(tmp_path, "desc.json", extra={"verify": {"a": 0.3, "n_sweep": [50, 5, 2]}})
    assert main(["verify", "--spec", str(spec), "--out", str(tmp_path / "d")]) == 0
    payload = json.loads((tmp_path / "d" / "verify.json").read_text())
    assert [r["verdict"] for r in payload["sweep"]] == ["equilibrium"] * 3
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
    spec = write_spec(tmp_path, n=2, extra={"oracle": {"a": 0.4, "grid_n": 201, "dump_lp": True}})
    out = tmp_path / "o"
    assert main(["oracle", "--spec", str(spec), "--out", str(out)]) == 0
    payload = json.loads((out / "oracle.json").read_text())
    assert payload["equilibrium_gap"] <= 1e-6
    dump = out / "lp_triplets.txt"
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


def test_csv_bytes_match_csv_writer(tmp_path, capsys):
    # the rows every command writes: Python and numpy floats (repr-length
    # digits, nan, inf), ints, bools and unquoted strings
    header = ["x", "y", "case", "ok", "k"]
    rows = [(0.1, np.float64(1 / 3), "b", True, 7),
            (1e-300, np.float64(-2.5e17), "interior", False, -1),
            (float("nan"), np.float64("inf"), "a", np.bool_(True), np.int64(3))]
    ref = io.StringIO(newline="")
    w = csv.writer(ref)
    w.writerow(header)
    w.writerows(rows)
    _write_csv(tmp_path, "t.csv", header, iter(rows))
    assert (tmp_path / "t.csv").read_bytes() == ref.getvalue().encode()
    _write_csv(None, "t.csv", header, rows)
    assert capsys.readouterr().out == ref.getvalue()


def test_csv_bytes_match_csv_writer_across_slices(tmp_path, capsys):
    # more rows than the 1024 written at a time, from a generator
    header = ["i", "x"]
    rows = [(i, np.float64(i) / 7) for i in range(2500)]
    ref = io.StringIO(newline="")
    csv.writer(ref).writerows([header, *rows])
    _write_csv(tmp_path, "t.csv", header, (row for row in rows))
    assert (tmp_path / "t.csv").read_bytes() == ref.getvalue().encode()
    _write_csv(None, "t.csv", header, rows)
    assert capsys.readouterr().out == ref.getvalue()


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


BAD_FAMILY_MEMBERS = {
    "halving-fraction": {"family": "support_halving", "halvings": [1.5]},
    "halving-negative": {"family": "support_halving", "halvings": [-1]},
    "ramp-fraction": {"family": "ramp_to_top", "ramp_ks": [2.5]},
    "ramp-below-2": {"family": "ramp_to_top", "ramp_ks": [1]},
    "lambdas-with-alpha_stretch": {"family": "alpha_stretch", "lambdas": [0.5]},
    "ramp_ks-with-default-family": {"ramp_ks": [2, 4]},
    "halvings-not-a-list": {"family": "support_halving", "halvings": 3},
}


@pytest.mark.parametrize("case", sorted(BAD_FAMILY_MEMBERS))
def test_compstat_members_never_truncated_or_ignored(tmp_path, capsys, case):
    # halvings are integers >= 0 and ramp_ks integers >= 2 (a row labelled
    # 1.5 was computed at k = 1, and k = 1 divided by zero); a family reads
    # its own member list only
    spec = write_spec(tmp_path, n=2, extra={"compstat": BAD_FAMILY_MEMBERS[case]})
    assert main(["compstat", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unread_output_block_rejected(tmp_path, capsys):
    spec = write_spec(tmp_path, n=2, extra={"output": {"dir": "results"}})
    assert main(["solve", "--spec", str(spec)]) == 2
    assert "'output'" in capsys.readouterr().err


def test_verify_threshold_next_to_a_prior_atom(tmp_path):
    # 0.8 U[0, 1] plus 0.2 at 0.5: a threshold 1e-13 below the atom pools it
    # (the censored law's mass read 1.2 there, a config error)
    spec = write_spec(tmp_path, n=2, extra={"verify": {"a": 0.5 - 1e-13}})
    payload = json.loads(spec.read_text())
    payload["market"]["prior"] = {"kind": "mixture", "components": [
        {"weight": 0.8, "kind": "uniform", "support": [0, 1]},
        {"weight": 0.2, "kind": "atoms", "atoms": [{"at": 0.5, "mass": 1.0}]}]}
    spec.write_text(json.dumps(payload))
    assert main(["verify", "--spec", str(spec), "--out", str(tmp_path / "v")]) in (0, 4)
    report = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert report["pooled_signal"] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_one_cost_shape_analysis_per_cost_law(tmp_path, monkeypatch):
    """solve, compstat and emit-plot analyse each cost law once: solve_a_max
    reads the cost-shape report its caller already built."""
    built = []

    class Counting(costshape._SlopeAnalysis):
        def __init__(self, H):
            built.append(H)
            super().__init__(H)

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


def _fresh_python(code, cwd=None):
    """Run ``code`` in a new interpreter that imports censearch from this
    checkout and return its stdout: only a fresh process shows which modules
    an import or a command loads."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                         capture_output=True, text=True, check=True)
    return out.stdout


def test_cli_import_leaves_test_references_out():
    # mpmath, sympy and hypothesis serve the tests only and scipy only the
    # oracle's LP; the command line tool's start-up must not pay for
    # importing them (importing censearch.cli imports the package first)
    code = ("import sys, censearch.cli; "
            "print(' '.join(m for m in ('mpmath', 'sympy', 'hypothesis', 'scipy') if m in sys.modules))")
    assert _fresh_python(code).split() == []


def test_non_oracle_commands_leave_scipy_out(tmp_path):
    """Every command but oracle runs without scipy: a later scipy import in
    one of them would bring the start-up cost back to every run."""
    spec = write_spec(tmp_path, n=2, extra={
        "verify": {"a": 0.3},
        "welfare": {"a_grid": [0.0, 0.2, 0.4]},
        "simulate": {"a": 0.4, "consumers": 2000, "seed": 3},
        "compstat": {"family": "alpha_stretch", "alphas": [1.1, 1.3]},
        "emit_plot": {"a": 0.4, "points": 65},
    })
    commands = ("solve", "verify", "welfare", "simulate", "compstat", "emit-plot")
    code = ("import sys\n"
            "from censearch.cli import main\n"
            f"codes = [main([c, '--spec', {str(spec)!r}, '--out', c]) for c in {commands!r}]\n"
            "print(*codes, 'scipy' in sys.modules)")
    assert _fresh_python(code, cwd=tmp_path).split() == ["0"] * len(commands) + ["False"]


def test_oracle_cold_start_matches_in_process(tmp_path):
    """The oracle command writes the same bytes whether its first LP loads
    scipy (a fresh interpreter) or finds it loaded (this process)."""
    spec = write_spec(tmp_path, n=2, extra={"oracle": {"a": 0.4, "grid_n": 201, "dump_lp": True}})
    code = ("import sys\n"
            "from censearch.cli import main\n"
            "cold = 'scipy' not in sys.modules\n"
            f"code = main(['oracle', '--spec', {str(spec)!r}, '--out', 'cold'])\n"
            "print(cold, code, 'scipy.optimize' in sys.modules)")
    assert _fresh_python(code, cwd=tmp_path).split() == ["True", "0", "True"]
    import scipy.optimize  # noqa: F401  (the in-process run starts with scipy loaded)
    assert main(["oracle", "--spec", str(spec), "--out", str(tmp_path / "warm")]) == 0
    for name in ("oracle.json", "lp_triplets.txt"):
        assert (tmp_path / "cold" / name).read_bytes() == (tmp_path / "warm" / name).read_bytes(), name
