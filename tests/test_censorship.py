"""Censorship construction, the certificate identities, verification, the
maximal threshold, and the generic price-function test."""

import numpy as np
import pytest

from censearch import censorship
from censearch._poly import gauss_nodes, nodes_for_degree, polyval
from censearch.censorship import (
    deviation_net_gain,
    equilibrium_set,
    is_downward_closed,
    solve_a_max,
    threshold_from_cost,
    upper_censorship,
    verify_price_function,
    verify_uce,
    virtual_demand,
)
from censearch.demand import DemandCurve
from censearch.dists import PiecewisePolyDist, incremental_benefit, mean
from censearch.oracle import build_problem, solve_br

from conftest import corpus_thresholds, quasi_concave_pair, quasi_convex_pair


def test_upper_censorship_structure(F):
    U0 = upper_censorship(F, 0.0)
    assert U0.max_supp() == pytest.approx(0.5) and U0.atom_masses[0] == pytest.approx(1.0)
    assert upper_censorship(F, 1.0) is F
    U4 = upper_censorship(F, 0.4)
    assert U4.pdf(0.2) == pytest.approx(1.0)
    assert U4.pdf(0.55) == pytest.approx(0.0)
    assert U4.atom_locs[0] == pytest.approx(0.7) and U4.atom_masses[0] == pytest.approx(0.6)
    # a prior's atoms below a stay where they are; one at a joins the pool
    P = PiecewisePolyDist([0.0, 1.0], [np.array([0.5])], atoms=[(0.2, 0.5)])
    P4 = upper_censorship(P, 0.4)
    assert P4.atom_locs.tolist() == pytest.approx([0.2, 0.7])
    assert P4.atom_masses.tolist() == pytest.approx([0.5, 0.3])
    P2 = upper_censorship(P, 0.2)
    assert P2.atom_locs.tolist() == pytest.approx([0.2 + 0.16 / 0.9]) and P2.atom_masses[0] == pytest.approx(0.9)
    assert mean(P4) == pytest.approx(mean(P), abs=1e-14) and mean(P2) == pytest.approx(mean(P), abs=1e-14)


def test_virtual_demand_examples(F, H_uniform):
    assert virtual_demand(F, H_uniform, 0.4, 2, 0.55) == pytest.approx(0.55, abs=1e-12)
    assert virtual_demand(F, H_uniform, 0.4, 2, 0.2) == pytest.approx(0.2, abs=1e-12)
    assert virtual_demand(F, H_uniform, 0.4, 2, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_virtual_demand_takes_arrays(F, H_uniform):
    a = 0.4
    curve = DemandCurve(upper_censorship(F, a), 2, H_uniform)
    xs = np.linspace(0.0, 1.0, 65)
    got = virtual_demand(F, H_uniform, a, 2, xs, curve)
    points = [virtual_demand(F, H_uniform, a, 2, float(x), curve) for x in xs]
    assert all(type(v) is float for v in points)
    assert got.tobytes() == np.array(points).tobytes()
    # the secant formula the CLI panels wrote before
    k = curve.G.max_supp()
    da = curve.value(a)
    slope = (curve.value(k) - da) / (k - a)
    d = curve.value(xs)
    assert got.tobytes() == np.where(xs <= a, d, da + slope * (xs - a)).tobytes()


def test_net_gain_examples(F, H_uniform):
    assert deviation_net_gain(F, H_uniform, 0.4, 0.09, 2) == pytest.approx(0.0, abs=1e-12)
    val = deviation_net_gain(F, H_uniform, 0.3, 0.09, 2)
    assert val == pytest.approx(0.35 * (0.09 / 0.245 - 0.5), abs=1e-12)
    assert val < 0
    assert deviation_net_gain(F, H_uniform, 0.3, 0.0, 2) == 0.0


def test_net_gain_matches_certificate_gap(F, H_uniform):
    rng = np.random.default_rng(3)
    for a in (0.15, 0.3, 0.4):
        Ua = upper_censorship(F, a)
        curve = DemandCurve(Ua, 2, H_uniform)
        pool = Ua.max_supp()
        for c in rng.uniform(1e-3, 0.1799, 32):
            x = pool - float(c) / (1.0 - F.cdf(a))
            gain = deviation_net_gain(F, H_uniform, a, float(c), 2)
            gap = virtual_demand(F, H_uniform, a, 2, x, curve) - curve.value(x)
            assert gain == pytest.approx(-gap, abs=1e-8)


def test_verify_uniform_benchmark(F, H_uniform):
    r = verify_uce(F, H_uniform, 0.3, 50)
    assert r.verdict == "equilibrium" and r.checks["cost_condition"]
    r = verify_uce(F, H_uniform, 0.45, 50)
    assert r.verdict == "fails" and not r.checks["cost_condition"]
    r = verify_uce(F, H_uniform, 0.4, 50)
    assert r.verdict == "equilibrium"
    assert r.margin == pytest.approx(0.0, abs=1e-12)  # binding
    assert r.pooled_signal == pytest.approx(0.7)
    r = verify_uce(F, H_uniform, 0.0, 50)
    assert r.verdict == "equilibrium"


def test_solve_a_max_corpus(F, H_uniform, H_convex, H_step, H_bimodal):
    assert solve_a_max(F, H_uniform) == (pytest.approx(0.4, abs=1e-10), "b", True)
    a, case, att = solve_a_max(F, H_convex)
    assert (a, case, att) == (pytest.approx(1 - np.sqrt(0.6), abs=1e-10), "d", True)
    assert solve_a_max(F, H_step) == (0.0, "a", True)
    a, case, att = solve_a_max(F, H_bimodal)
    expect = 1 - np.sqrt(2 * 0.875 / (0.82 / 0.15 - 0.5))
    assert (a, case, att) == (pytest.approx(expect, abs=1e-9), "c", True)


def test_solve_rejects_bad_configs(F):
    with pytest.raises(ValueError, match="below the prior mean"):
        solve_a_max(F, PiecewisePolyDist.uniform(0, 0.7))
    with pytest.raises(ValueError, match="starting at 0"):
        solve_a_max(F, PiecewisePolyDist.uniform(0.05, 0.18))


def test_solve_concave_supremum_sentinel(F):
    # strictly decreasing density: every threshold below full disclosure
    # passes; the solver reports the open-edge sentinel, unattained
    Hcc = PiecewisePolyDist([0, 0.2], [np.array([10.0, -50.0])])
    a, case, att = solve_a_max(F, Hcc)
    assert case == "d" and not att and a == pytest.approx(1.0, abs=1e-9)


def test_equilibrium_set_nestedness(F, H_uniform, H_bimodal):
    grid = np.linspace(0.0, 0.6, 25)
    for H, n in ((H_uniform, 50), (H_uniform, 5), (H_bimodal, 5), (H_bimodal, 50)):
        res = equilibrium_set(F, H, grid, n)
        assert is_downward_closed(res)
        assert res[0][1]  # no disclosure always passes


def test_tangency_at_maximal_threshold(F, H_uniform, H_bimodal):
    for H in (H_uniform, H_bimodal):
        a_max, case, _ = solve_a_max(F, H)
        assert case in ("b", "c")
        rep = verify_uce(F, H, a_max, 50)
        assert rep.verdict == "equilibrium"
        assert abs(rep.margin) <= 1e-6  # binding at the top
        rep_lo = verify_uce(F, H, a_max - 0.05, 50)
        assert rep_lo.verdict == "equilibrium"
        assert rep_lo.margin > 0.0  # strictly slack below the top
        assert rep.binding_signals  # tangency point reported


def test_monotone_kink_in_threshold(F, H_uniform):
    # the certificate's right-hand slope at the threshold grows with it
    slopes = []
    for b in np.linspace(0.05, 0.4, 8):
        Ub = upper_censorship(F, float(b))
        curve = DemandCurve(Ub, 50, H_uniform)
        k = Ub.max_supp()
        slopes.append((curve.value(k) - curve.value(float(b))) / (k - float(b)))
    assert all(s2 >= s1 - 1e-12 for s1, s2 in zip(slopes[:-1], slopes[1:]))


def test_threshold_monotone_in_evenness(F):
    # uniform cost families with evenness 2.5, 4, 5.5: the maximal threshold
    # strictly increases
    thresholds = []
    for h in (2.5, 4.0, 5.5):
        H = PiecewisePolyDist.uniform(0.0, 1.0 / h)
        a, case, _ = solve_a_max(F, H)
        assert case == "b"
        assert a == pytest.approx(1 - np.sqrt(2.0 / h), abs=1e-10)
        thresholds.append(a)
    assert thresholds[0] < thresholds[1] < thresholds[2]


def test_threshold_cost_inversion_roundtrip(F, F_tilted):
    for prior in (F, F_tilted):
        for a in np.linspace(0.05, 0.95, 10):
            cost = incremental_benefit(prior, float(a))
            assert threshold_from_cost(prior, cost) == pytest.approx(float(a), abs=1e-8)
    assert threshold_from_cost(F, 0.6) == 0.0
    assert threshold_from_cost(F, 0.0) == pytest.approx(1.0)


def test_price_function_trio(F, H_uniform):
    delta = upper_censorship(F, 0.0)
    rep = verify_price_function(delta, F, H_uniform, 50)
    assert rep.passed, rep.detail
    a_max, _, _ = solve_a_max(F, H_uniform)
    rep = verify_price_function(upper_censorship(F, a_max), F, H_uniform, 50)
    assert rep.passed, rep.detail
    assert rep.min_margin == pytest.approx(0.0, abs=1e-7)  # tangency
    rep = verify_price_function(F, F, H_uniform, 50)
    assert not rep.passed and not rep.convex_ok


def _integrate_certificate_reference(cert, W):
    """The mass-balance integral with its own node loop: pieces narrower than
    1e-14 are skipped, and each piece is summed by its own dot product."""
    total = 0.0
    for m, v in zip(W.atom_masses, cert.value(W.atom_locs)):
        if m > 0:
            total += m * v
    cuts = sorted(
        set(map(float, W.breaks))
        | {lo for lo, _, _ in cert.segments}
        | {hi for _, hi, _ in cert.segments}
        | set(map(float, cert.curve.x_breaks))
    )
    cuts = [c for c in cuts if W.breaks[0] - 1e-12 <= c <= W.breaks[-1] + 1e-12]
    xg, wg = gauss_nodes(nodes_for_degree(cert.curve._gl_deg + 12))
    pieces = []  # (half width, nodes, density coefficients) per piece with density
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        coefs = W.coefs[W._segment_index(0.5 * (lo + hi))]
        if hi - lo >= 1e-14 and np.max(np.abs(coefs)) != 0.0:
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            pieces.append((half, mid + half * xg, coefs))
    vals = cert.value(np.array([ts for _, ts, _ in pieces]))
    for (half, ts, coefs), v in zip(pieces, vals):
        total += half * float(np.dot(wg, polyval(coefs, ts) * v))
    return total


def test_certificate_integral_matches_reference(F, F_tilted, H_uniform, H_step, H_bimodal,
                                                H_threestep, H_convex, monkeypatch):
    """Both sides of the price-function mass balance keep the bits of the
    reference loop, for upper censorship at the certify corpus thresholds
    (n = 50 at a_max only, where the certificate is tangent: it is the
    costly market size)."""
    seen = []
    integrate = censorship._integrate_certificate

    def spy(cert, W):
        seen.append((cert, W, integrate(cert, W)))
        return seen[-1][2]

    monkeypatch.setattr(censorship, "_integrate_certificate", spy)
    laws = [H_uniform, H_step, H_bimodal, H_threestep, H_convex,
            quasi_convex_pair()[0], quasi_concave_pair()[0]]
    for prior in (F, F_tilted):
        for H in laws:
            for a, n in zip(corpus_thresholds(solve_a_max(prior, H)[0]), (2, 5, 50, 2, 5)):
                seen.clear()
                verify_price_function(upper_censorship(prior, a), prior, H, n)
                assert len(seen) == 2
                for cert, W, got in seen:
                    assert got == _integrate_certificate_reference(cert, W), (a, n)


def test_price_function_rejects_above_maximal(F, H_uniform):
    rep = verify_price_function(upper_censorship(F, 0.45), F, H_uniform, 5)
    assert not rep.passed


def test_verify_fails_below_mean_floor(F, H_step):
    # smallest-critical-minimum below 1/mean: every positive threshold fails
    for a in (0.05, 0.2, 0.35):
        assert verify_uce(F, H_step, a, 50).verdict == "fails"
    assert verify_uce(F, H_step, 0.0, 50).verdict == "equilibrium"


def test_verify_full_disclosure(F, H_uniform, H_step, H_bimodal):
    # nothing is pooled at a = 1: the kink and domination checks are vacuous,
    # the verdict is the convexity of demand on [r_lo, 1], and the threshold
    # solver never attains full disclosure
    for H in (H_uniform, H_step, H_bimodal):
        for n in (2, 5, 50):
            rep = verify_uce(F, H, 1.0, n)
            assert rep.checks == {"virtual_convex": False, "kink_increasing": True,
                                  "virtual_dominates": True, "cost_condition": False}
            assert rep.verdict == "fails" and rep.threshold == 1.0 and rep.pooled_signal == 1.0
        for n in (2, 5):  # the LP finds the profitable deviation too
            assert solve_br(build_problem(F, F, H, n, 201)).gap > 0.02


def test_censorship_pool_below_resolution_is_numeric(F):
    # just below full disclosure the computed tail beyond a cancels to 0, so
    # the pooled signal k = a + tail / (1 - F(a)) lands on a itself
    for a in (1 - 1e-9, 1 - 1e-10, 1 - 2e-12):
        with pytest.raises(ArithmeticError, match="double precision"):
            upper_censorship(F, a)
    assert upper_censorship(F, 1 - 1e-12) is F
    assert upper_censorship(F, 1 - 1e-8).atom_masses[-1] == pytest.approx(1e-8)


def test_verify_rejects_atomic_costs_at_every_threshold(F):
    H = PiecewisePolyDist([0.0, 0.18], [np.array([0.5 / 0.18])], atoms=[(0.09, 0.5)])
    for a in (0.2, 0.5, 0.8):  # pooled signal stopping every type (0.2) or not
        with pytest.raises(ValueError, match="atom-free cost distribution"):
            verify_uce(F, H, a, 5)
    assert verify_uce(F, H, 0.0, 5).verdict == "equilibrium"
