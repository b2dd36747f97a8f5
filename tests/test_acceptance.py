"""Acceptance suite: the nine headline criteria, one test each, printing a
pass/fail line per criterion (run with ``pytest -s tests/test_acceptance.py``).

Numbers here are frozen desk-scale values derived from closed forms and
independently cross-checked by the LP best-response oracle and the Monte
Carlo simulator.
"""

import time

import numpy as np
import pytest

from censearch.censorship import (
    equilibrium_set,
    is_downward_closed,
    solve_a_max,
    upper_censorship,
    verify_price_function,
    verify_uce,
)
from censearch.dists import PiecewisePolyDist, mpc_check, truncated_mean_above
from censearch.demand import expected_payoff
from censearch.simulate import SimConfig, simulate_deviation, simulate_market
from censearch.welfare import (
    alpha_stretch,
    classify_density_shape,
    consumer_surplus,
    consumer_surplus_type,
    expected_search_length,
    uniform_interpolate,
)

from conftest import quasi_concave_pair, quasi_convex_pair, ramp_costs
from test_demand import _random_contraction
from test_oracle import equilibrium_gap

GAP_TOL = 1e-6  # LP resolution: grid-relaxation bias plus solver tolerance


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def corpus(F, H_uniform, H_convex, H_step, H_bimodal):
    return {
        "a_step": H_step,
        "b_uniform": H_uniform,
        "c_bimodal": H_bimodal,
        "d_convex": H_convex,
    }


@pytest.fixture(scope="module")
def sim_million(F, H_uniform):
    U4 = upper_censorship(F, 0.4)
    return simulate_market(SimConfig(U4, H_uniform, 2, 1_000_000, seed=20260810))


def test_criterion_1_uniform_benchmark(F, H_uniform):
    t0 = time.time()
    a_max, case, attained = solve_a_max(F, H_uniform)
    assert a_max == pytest.approx(0.4, abs=1e-6) and case == "b" and attained
    for a in (0.0, 0.2, 0.4):
        assert verify_uce(F, H_uniform, a, 50).verdict == "equilibrium", a
    assert verify_uce(F, H_uniform, 0.45, 50).verdict == "fails"
    # oracle gaps at the duopoly instance the oracle examples are pinned to:
    # at higher n the failure above the threshold is real but exponentially
    # small (the certificate's kink deficit carries F(a)^(n-2)), below what
    # any grid LP can resolve
    gap_eq = equilibrium_gap(upper_censorship(F, 0.4), F, H_uniform, 2, 801)
    gap_dev = equilibrium_gap(upper_censorship(F, 0.45), F, H_uniform, 2, 801)
    assert gap_eq <= 1e-6
    assert gap_dev >= 1e-3
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(1, True, f"a_max=0.4 case b; verify 0/0.2/0.4 pass, 0.45 fails at n=50; "
                    f"LP gaps {gap_eq:.1e} / {gap_dev:.3e}; {elapsed:.1f}s")


def test_criterion_2_case_coverage(F, corpus):
    expected = {
        "a_step": (0.0, "a"),
        "b_uniform": (0.4, "b"),
        "c_bimodal": (1 - np.sqrt(2 * 0.875 / (0.82 / 0.15 - 0.5)), "c"),
        "d_convex": (1 - np.sqrt(0.6), "d"),
    }
    n = 5
    grid = np.arange(0.0, 0.5001, 0.05)
    lines = []
    for name, H in corpus.items():
        a_exp, case_exp = expected[name]
        a_max, case, _ = solve_a_max(F, H)
        assert a_max == pytest.approx(a_exp, abs=1e-3), name
        assert case == case_exp, name
        verify_bd = max(
            (float(a) for a in grid if verify_uce(F, H, float(a), n).verdict == "equilibrium"),
            default=None,
        )
        oracle_bd = max(
            (float(a) for a in grid
             if equilibrium_gap(upper_censorship(F, float(a)), F, H, n, 801) <= GAP_TOL),
            default=None,
        )
        # the two independent equilibrium judgments bracket the same boundary
        assert verify_bd is not None and oracle_bd is not None
        assert abs(verify_bd - oracle_bd) <= 0.05 + 1e-12, (name, verify_bd, oracle_bd)
        if case in ("a", "b", "c"):
            # formula threshold sits within one grid step of the boundary
            assert oracle_bd - 0.05 - 1e-9 <= a_max <= oracle_bd + 0.05 + 1e-9, name
            lines.append(f"{name}: a_max={a_max:.5f} boundary=[{oracle_bd:.3f}]")
        else:
            # the no-critical-set formula intentionally reports the
            # concavity-tail value; the equilibrium boundary itself is 0
            # (both judges agree), which the report surfaces side by side
            lines.append(
                f"{name}: formula a_max={a_max:.5f} vs equilibrium boundary={oracle_bd:.3f} "
                f"(judges agree; formula follows the tail rule)"
            )
    report(2, True, "; ".join(lines))


def test_criterion_3_payoff_identity(F, H_uniform, H_bimodal, sim_million):
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(20):
        G = _random_contraction(F, rng)
        ok, _ = mpc_check(G, F)
        assert ok
        H = H_uniform if rng.random() < 0.5 else H_bimodal
        for n in (2, 5, 20):
            err = abs(expected_payoff(G, G, n, H) - 1.0 / n)
            worst = max(worst, err)
            assert err <= 1e-9
    # Monte Carlo cross-check at a million consumers
    for p, se in zip(sim_million.firm_payoffs, sim_million.payoff_se):
        assert abs(p - 0.5) <= 4 * se
    report(3, True, f"identity worst error {worst:.2e} over 60 cases; MC within 4 s.e.")


def test_criterion_4_nestedness(F, corpus):
    grid = np.linspace(0.0, 1.0, 41)[:-1]  # thresholds below full disclosure
    for name, H in corpus.items():
        res = equilibrium_set(F, H, grid, 50)
        assert is_downward_closed(res), name
        assert res[0][1], name  # no disclosure always passes
    report(4, True, "verdicts downward-closed on 41-point grids, all four instances")


def test_criterion_5_welfare(F, H_uniform):
    grid = [0.0, 0.1, 0.2, 0.3, 0.4]
    cs = [consumer_surplus(F, H_uniform, a, 2) for a in grid]
    assert all(b > a for a, b in zip(cs[:-1], cs[1:]))
    for c in (0.05, 0.12, 0.18):
        _, _, cs0 = consumer_surplus_type(F, 0.0, c, 2)
        assert cs0 == pytest.approx(0.5 - c, abs=1e-12)
    b, k, s = consumer_surplus_type(F, 0.4, 0.18, 2)
    assert b == pytest.approx(0.63067, abs=1e-5)
    assert k == pytest.approx(0.25200, abs=1e-5)
    assert s == pytest.approx(0.37867, abs=1e-5)
    assert expected_search_length(F, 0.4, 2) == pytest.approx(1.4, abs=1e-12)
    report(5, True, f"CS strictly increasing {np.round(cs, 5).tolist()}; "
                    f"type row ({b:.5f}, {k:.5f}, {s:.5f}); search length 1.4")


def test_criterion_6_comparative_statics(F, H_uniform, H_threestep):
    stretched = alpha_stretch(H_uniform, 1.5, prior_mean=0.5)
    a_s = solve_a_max(F, stretched)[0]
    assert a_s == pytest.approx(0.2652, abs=1e-4)
    # first-order shift: wider uniform support dominates (higher costs)
    a_base = solve_a_max(F, H_uniform)[0]
    assert a_s < a_base
    # spreads of dip densities polarize: informativeness strictly falls
    D1, D2 = quasi_convex_pair()
    assert mpc_check(D1, D2)[0]
    assert classify_density_shape(D1) == "quasi_convex_interior_dip"
    d1, d2 = solve_a_max(F, D1)[0], solve_a_max(F, D2)[0]
    assert d2 < d1
    # spreads of peak densities even out: informativeness weakly rises
    P1, P2 = quasi_concave_pair()
    assert mpc_check(P1, P2)[0]
    assert classify_density_shape(P1) == "quasi_concave_interior_peak"
    p1, p2 = solve_a_max(F, P1)[0], solve_a_max(F, P2)[0]
    assert p2 >= p1
    # mixing toward the uniform strictly raises the threshold for a base
    # distribution with an interior critical minimum
    lam_grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    lam_vals = [solve_a_max(F, uniform_interpolate(H_threestep, lam, 0.18))[0] for lam in lam_grid]
    assert all(b > a for a, b in zip(lam_vals[:-1], lam_vals[1:]))
    report(6, True, f"stretch 0.4->{a_s:.4f}; FOSD down; MPS directions "
                    f"({d1:.4f}->{d2:.4f} dip, {p1:.4f}->{p2:.4f} peak); "
                    f"mixing path {np.round(lam_vals, 4).tolist()}")


def test_criterion_7_convergence(F):
    # support-halving walk toward the frictionless benchmark
    vals = [solve_a_max(F, PiecewisePolyDist.uniform(0.0, 0.18 / 2**k))[0] for k in range(9)]
    assert all(b > a for a, b in zip(vals[:-1], vals[1:]))
    crossing = next(k for k, v in enumerate(vals) if v > 0.95)
    # ramp walk toward homogeneous costs: disclosure dies from some stage on
    ramp_vals = [solve_a_max(F, ramp_costs(0.18, k))[0] for k in range(2, 8)]
    assert all(v == 0.0 for v in ramp_vals[2:])
    assert any(v > 0 for v in ramp_vals[:2])
    ok = crossing <= 7
    report(
        7,
        ok,
        f"halving thresholds {np.round(vals, 4).tolist()} cross 0.95 at step {crossing}; "
        f"ramp collapses to 0 from stage 4 on"
        + ("" if ok else "  [the exact closed form 1 - sqrt(2 * 0.18 / 2^k) gives "
                         "0.92500 at step 6 and 0.94697 at step 7, so the stated "
                         "0.95-within-7 bound is unattainable; first crossing is step 8]"),
    )
    assert ok, (
        "the halving sequence must exceed 0.95 within 7 steps; measured "
        f"values {np.round(vals, 5).tolist()} first cross at step {crossing} "
        "(the bound conflicts with the exact threshold formula; see the "
        "printed analysis)"
    )


def _pooling_deviation(F, a, dm=0.2, c_target=0.09):
    """Mean-preserving deviation off the censored strategy: collapse the top
    slice of the disclosed region together with part of the pool into one
    atom at their barycenter (a partial-purchase signal)."""
    Ua = upper_censorship(F, a)
    k = Ua.max_supp()
    cfa = float(F.tail_gap(a))
    frac = min(c_target / cfa, 0.9)
    m_lo = frac * dm
    m_hi = dm - m_lo
    x_lo = float(F.quantile(np.array([F.cdf(a) - m_lo]))[0])
    mean_lo = (
        truncated_mean_above(F, x_lo) * (1 - F.cdf(x_lo))
        - truncated_mean_above(F, a) * (1 - F.cdf(a))
    ) / m_lo
    bary = (m_lo * mean_lo + m_hi * k) / dm
    breaks = [b for b in map(float, Ua.breaks) if b < x_lo] + [x_lo, float(a), k]
    coefs = [Ua.coefs[i] for i in range(len(breaks) - 3)] + [np.zeros(1), np.zeros(1)]
    atoms = [(bary, dm), (k, float(Ua.atom_masses[0]) - m_hi)]
    # restore the disclosed density below the removed slice
    coefs = []
    pos = 0
    for i in range(len(breaks) - 1):
        midpt = 0.5 * (breaks[i] + breaks[i + 1])
        if midpt < x_lo:
            coefs.append(F.coefs[F._locate(midpt)[2]])
        else:
            coefs.append(np.zeros(1))
    return PiecewisePolyDist(breaks, coefs, atoms=sorted(atoms))


def test_criterion_8_simulation_agreement(F, H_uniform, sim_million):
    from censearch.demand import DemandCurve

    t0 = time.time()
    U4 = upper_censorship(F, 0.4)
    curve = DemandCurve(U4, 2, H_uniform)
    out = sim_million
    checked = 0
    for m, d, se, cnt in zip(out.bin_mids, out.empirical_demand, out.demand_se, out.bin_counts):
        if cnt < 100:
            continue
        assert abs(d - curve.value(float(m))) <= 4 * max(se, 1e-7), m
        checked += 1
    assert checked >= 45
    # deviation signs at a duopoly: pooling into a partial-purchase signal
    # gains above the maximal threshold, loses below it
    n = 2
    results = {}
    for a in (0.45, 0.35):
        G_dev = _pooling_deviation(F, a)
        ok, _ = mpc_check(G_dev, F)
        assert ok
        Ua = upper_censorship(F, a)
        analytic = expected_payoff(G_dev, Ua, n, H_uniform) - 1.0 / n
        pay, se, _ = simulate_deviation(
            SimConfig(Ua, H_uniform, n, 1_000_000, seed=5), G_dev
        )
        results[a] = (analytic, pay - 1.0 / n, se)
    an45, mc45, se45 = results[0.45]
    an35, mc35, se35 = results[0.35]
    assert an45 > 0 and mc45 > 4 * se45
    assert an35 < 0 and mc35 < -4 * se35
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(8, True, f"{checked} demand bins within 4 s.e.; deviation gains "
                    f"{mc45:+.4f} at a=0.45 and {mc35:+.4f} at a=0.35 "
                    f"(analytic {an45:+.4f} / {an35:+.4f}); {elapsed:.0f}s")


def test_criterion_9_price_function(F, H_uniform):
    n = 50
    delta = upper_censorship(F, 0.0)
    a_max = solve_a_max(F, H_uniform)[0]
    candidates = {
        "no disclosure": delta,
        "maximal censorship": upper_censorship(F, a_max),
        "full disclosure": F,
    }
    verdicts = {}
    for name, G in candidates.items():
        rep = verify_price_function(G, F, H_uniform, n)
        gap = equilibrium_gap(G, F, H_uniform, n, 801)
        verdicts[name] = (rep.passed, gap)
    assert verdicts["no disclosure"] == (True, pytest.approx(0.0, abs=GAP_TOL))
    assert verdicts["maximal censorship"][0]
    assert verdicts["maximal censorship"][1] <= GAP_TOL
    assert not verdicts["full disclosure"][0]
    assert verdicts["full disclosure"][1] > GAP_TOL
    report(9, True, "; ".join(f"{k}: cert={'pass' if p else 'fail'} gap={g:.1e}"
                              for k, (p, g) in verdicts.items()))
