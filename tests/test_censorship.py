"""Censorship construction, the certificate identities, verification, the
maximal threshold, and the generic price-function test."""

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from censearch import censorship
from censearch._poly import gauss_nodes, polyval
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
from censearch.demand import DemandCurve, power_sum, type_demand
from censearch.dists import PiecewisePolyDist, _density_integrals, incremental_benefit, mean, mpc_check
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
    # demand up to a, the chord from (a, D(a)) to (k, D(k)), its line beyond k
    k = curve.G.max_supp()
    v0, v1 = curve.value(a), curve.value(k)
    slope = (v1 - v0) / (k - a)
    chord = v0 + ((xs - a) / (k - a)) * (v1 - v0)
    ref = np.where(xs <= a, curve.value(xs), np.where(xs <= k, chord, v1 + slope * (xs - k)))
    assert got.tobytes() == ref.tobytes()


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
        | set(map(float, cert.knots))
        | set(map(float, cert.curve.x_breaks))
    )
    cuts = [c for c in cuts if W.breaks[0] - 1e-12 <= c <= W.breaks[-1] + 1e-12]
    xg, wg = gauss_nodes(cert.curve.integral_nodes(W))
    pieces = []  # (half width, nodes, density coefficients) per piece with density
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        coefs = W.coefs[W._locate(0.5 * (lo + hi))[2]]
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


def test_price_function_checks_demand_kinks(F, H_step):
    # step costs at a = 0.3: demand has a concave kink at 0.2254, the image of
    # the cost breakpoint 0.1, inside the disclosure segment [0, 0.3]
    G = upper_censorship(F, 0.3)
    curve = DemandCurve(G, 5, H_step)
    x = float(curve.x_breaks[(0.2 < curve.x_breaks) & (curve.x_breaks < 0.25)][0])
    assert sum(curve.margins(x, side=+1)) < sum(curve.margins(x, side=-1)) - 0.5
    assert verify_uce(F, H_step, 0.3, 5).verdict == "fails"
    rep = verify_price_function(G, F, H_step, 5)
    assert not rep.passed and not rep.convex_ok, rep.detail
    assert rep.detail == "not convex"


def test_support_elements_read_the_left_limit_below_an_atom(F):
    # G = F on [0, 0.4), an atom of 0.2 at 0.4, then flat density 2/3 up to
    # 1: G - F is 0 on [0, 0.4) and jumps at 0.4, so [0, 0.4) is disclosure
    # and the atom is its own element, not the end of one pooling stretch
    G = PiecewisePolyDist([0.0, 0.4, 1.0], [np.array([1.0]), np.array([2.0 / 3.0])],
                          atoms=[(0.4, 0.2)])
    assert censorship._support_elements(G, F, 1e-9) == [
        ("disclosure", 0.0, 0.4), ("atom", 0.4, 0.4), ("pooling", 0.4, 1.0)]


def test_price_function_judges_an_atom_inside_a_pool(F, H_uniform):
    # F on [0, 0.2) and [0.6, 1], half of F's density on [0.2, 0.6) and the
    # removed mass 0.2 as an atom at 0.4: a contraction whose atom sits inside
    # a pooling interval, so the certificate's chord must pass through D(0.4)
    G = PiecewisePolyDist([0.0, 0.2, 0.6, 1.0], [np.array([1.0]), np.array([0.5]), np.array([1.0])],
                          atoms=[(0.4, 0.2)])
    assert mpc_check(G, F)[0]
    for n in (2, 5):
        rep = verify_price_function(G, F, H_uniform, n)
        assert solve_br(build_problem(G, F, H_uniform, n, 401)).gap > 1e-6
        assert not rep.passed, n


def test_price_function_agrees_with_the_lp_on_partial_pools(F, F_tilted, H_uniform, H_step):
    # each law halves the prior's density on a random interval and puts the
    # removed mass as an atom at its conditional mean; wherever the LP
    # resolves the sign, the certificate's verdict agrees with it
    rng = np.random.default_rng(34)
    resolved = 0
    for trial in range(12):
        prior = (F, F_tilted)[trial % 2]
        H = (H_uniform, H_step)[trial // 2 % 2]
        n = (2, 5)[trial // 4 % 2]
        lo, hi = np.sort(rng.uniform(0.02, 0.98, 2))
        half = prior.coefs[0] / 2
        cum = npoly.polyint(half)
        mass = npoly.polyval(hi, cum) - npoly.polyval(lo, cum)
        first = npoly.polyint(npoly.polymulx(half))
        at = (npoly.polyval(hi, first) - npoly.polyval(lo, first)) / mass
        G = PiecewisePolyDist([0.0, lo, hi, 1.0], [prior.coefs[0], half, prior.coefs[0]],
                              atoms=[(at, mass)])
        assert mpc_check(G, prior)[0], (lo, hi)
        rep = verify_price_function(G, prior, H, n)
        gap = solve_br(build_problem(G, prior, H, n, 401)).gap
        if abs(gap) > 1e-6:
            resolved += 1
            assert rep.passed == (gap < 0), (lo, hi, n, gap, rep.detail)
    assert resolved >= 6


def test_verify_pools_prior_atom_at_threshold():
    # upper_censorship pools an atom of F at a; the verifier's jump, kink and
    # pooled mass read F(a-), so thresholds at the atom and just below it,
    # which censor the same way, give the same margin
    F = PiecewisePolyDist([0.0, 0.3, 1.0], [np.array([0.9]), np.array([0.9])], atoms=[(0.3, 0.1)])
    H = PiecewisePolyDist.uniform(0.0, 0.05)
    for n in (2, 5):
        at, below = verify_uce(F, H, 0.3, n), verify_uce(F, H, 0.3 - 1e-9, n)
        assert at.margin == pytest.approx(below.margin, rel=1e-7), n
        assert at.verdict == below.verdict and at.checks == below.checks


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


def test_censorship_pool_near_full_disclosure_is_exact(F):
    # just below full disclosure the tail beyond a, computed in w = 1 - x,
    # keeps its relative accuracy, so the pooled signal k = a + tail / (1 - F(a))
    # is the uniform law's a + (1 - a) / 2 to the bit, with the mass 1 - a
    for a in (1 - 1e-8, 1 - 1e-9, 1 - 1e-10, 1 - 1e-11, 1 - 2e-12):
        pooled = upper_censorship(F, a)
        assert pooled.max_supp() == a + (1 - a) / 2 > a, a
        assert pooled.atom_masses[-1] == 1 - a, a
    assert upper_censorship(F, 1 - 1e-12) is F
    assert upper_censorship(F, 1 - 1e-8).atom_masses[-1] == pytest.approx(1e-8)


def test_no_disclosure_margin_is_exact(F, H_uniform, monkeypatch):
    # the constant certificate 1/n = D(k) touches demand at the pool: the
    # margin is exactly 0, read without building a demand curve
    built = []
    monkeypatch.setattr(censorship, "DemandCurve", lambda *args: built.append(args))
    rep = verify_uce(F, H_uniform, 0.0, 2)
    assert rep.margin == 0.0 and rep.binding_signals == [0.5] and not built
    assert rep.verdict == "equilibrium" and all(rep.checks.values())
    assert rep.r_lo == 0.5 - 0.18 and type(rep.r_lo) is float


def test_one_no_disclosure_rule(F, H_uniform):
    # upper_censorship's F(a-) <= 1e-14 alone decides that a threshold
    # discloses nothing; verify_uce reads it off that law and reports the
    # threshold it was given either way
    for a, nothing in ((1e-14, True), (2e-14, False), (1e-11, False)):
        U = upper_censorship(F, a)
        rep = verify_uce(F, H_uniform, a, 2)
        assert rep.threshold == a and rep.pooled_signal == U.max_supp(), a
        assert (U.min_supp() == U.max_supp()) is nothing, a
        assert (rep.margin == 0.0 and rep.binding_signals == [U.max_supp()]) is nothing, a
        assert rep.verdict == "equilibrium", a


def test_threshold_in_a_bottom_gap_discloses_nothing(H_step):
    # no prior mass below 0.2: every threshold up to 0.2 censors to the point
    # mass at 0.6, which the constant certificate proves an equilibrium and
    # the LP oracle finds no deviation from.  With the full check on that
    # law, step costs read "fails" at 0.1 and 0.19 (margins -0.02 and
    # -0.086 at n = 2) but "equilibrium" at 0.05; at 0.25 the law discloses
    # [0.2, 0.25) and both judges find a profitable deviation.
    H = H_step
    for F in (PiecewisePolyDist([0.0, 0.2, 1.0], [np.zeros(1), np.array([1.25])]),
              PiecewisePolyDist.uniform(0.2, 1.0)):
        for a in (0.05, 0.1, 0.19):
            rep = verify_uce(F, H, a, 2)
            assert (rep.verdict, rep.margin, rep.threshold) == ("equilibrium", 0.0, a), a
            assert rep.pooled_signal == pytest.approx(0.6, abs=1e-15), a
            assert abs(solve_br(build_problem(upper_censorship(F, a), F, H, 2)).gap) <= 1e-6, a
        assert verify_uce(F, H, 0.25, 2).verdict == "fails"
        assert solve_br(build_problem(upper_censorship(F, 0.25), F, H, 2)).gap > 1e-3


@pytest.mark.parametrize("mass", [5e-16, 5e-15, 5e-14])
def test_tiny_atoms_are_atoms_to_every_reader(F, H_uniform, mass):
    # U[0, 1] with an atom at 0.5: a tie for demand, an element of the
    # price-function certificate; and the top of the support on [0, 1.5]
    G = PiecewisePolyDist([0.0, 1.0], [np.ones(1)], atoms=[(0.5, mass)])
    tie = power_sum(G.cdf_left(0.5), G.cdf(0.5), 3) / 3
    assert DemandCurve(G, 3, H_uniform).max_win_prob(0.5) == tie
    assert type_demand(G, 0.5, 0.01, 3) == tie
    assert ("atom", 0.5, 0.5) in censorship._support_elements(G, F, 1e-9)
    top = PiecewisePolyDist([0.0, 1.0, 1.5], [np.ones(1), np.zeros(1)], atoms=[(1.5, mass)])
    assert top.max_supp() == 1.5


def test_one_rule_for_where_a_law_has_density():
    # density 5e-15 on [1, 2]: a live segment for the support top, the
    # price-function certificate and the integrals alike
    G = PiecewisePolyDist([0.0, 1.0, 2.0], [np.array([1.0 - 5e-15]), np.array([5e-15])])
    assert G.max_supp() == 2.0 and G.min_supp() == 0.0
    assert censorship._support_elements(G, G, 1e-9) == [("disclosure", 0.0, 2.0)]
    pieces = _density_integrals(G, np.ones_like, G.breaks, 2)
    assert len(pieces) == 2 and pieces[1] == pytest.approx(5e-15, rel=1e-12)


def test_verify_rejects_atomic_costs_at_every_threshold(F):
    H = PiecewisePolyDist([0.0, 0.18], [np.array([0.5 / 0.18])], atoms=[(0.09, 0.5)])
    for a in (0.2, 0.5, 0.8):  # pooled signal stopping every type (0.2) or not
        with pytest.raises(ValueError, match="atom-free cost distribution"):
            verify_uce(F, H, a, 5)
    assert verify_uce(F, H, 0.0, 5).verdict == "equilibrium"


@pytest.mark.parametrize("n", [2, 5])
@pytest.mark.parametrize("a", [0.6, 0.7])
def test_both_verifiers_see_prior_kinks_below_r_lo(a, n):
    # below r_lo nobody stops and D = F^(n-1), so the prior's density drop at
    # 0.5 is a concave kink of demand (the slope falls by 1.0 at n = 2 and by
    # 1.69 at n = 5) that lies below every breakpoint of the demand curve
    F = PiecewisePolyDist([0.0, 0.5, 1.0], [np.array([1.5]), np.array([0.5])])
    H = PiecewisePolyDist.uniform(0.0, 0.02)
    G = upper_censorship(F, a)
    curve = DemandCurve(G, n, H)
    assert curve.r_lo > 0.5 and sum(curve.margins(0.5, +1)) < sum(curve.margins(0.5, -1)) - 0.9
    rep = verify_uce(F, H, a, n)
    assert rep.verdict == "fails" and not rep.checks["virtual_convex"]
    pf = verify_price_function(G, F, H, n)
    assert not pf.passed and pf.detail == "not convex"
    assert solve_br(build_problem(G, F, H, n, 201)).gap > 1e-6  # the LP agrees


def test_binding_signals_are_the_ends_of_a_flat_margin(F, H_uniform):
    # uniform costs at their tangency threshold 0.4: H(c) - beta c is 0 on the
    # whole stretch, and the binding signals are its two ends, not grid points
    rep = verify_uce(F, H_uniform, 0.4, 5)
    floor = 0.18 / (censorship.MARGIN_GRID - 1)
    k, mass = rep.pooled_signal, 1.0 - F.cdf(0.4)
    assert rep.binding_signals == pytest.approx([k - 0.18 / mass, k - floor / mass], abs=1e-12)
