"""Welfare accounting and the comparative-statics families."""

import csv
import json

import numpy as np
import pytest

from censearch import welfare
from censearch._poly import gauss_nodes, nodes_for_degree, polyval
from censearch.censorship import solve_a_max, upper_censorship
from censearch.cli import main
from censearch.costshape import assumption_diag_check, global_min_slope
from censearch.demand import power_sum
from censearch.dists import (
    PiecewisePolyDist,
    incremental_benefit,
    mean,
    mpc_check,
    reservation_value,
    truncated_mean_above,
)
from censearch.welfare import (
    alpha_stretch,
    classify_density_shape,
    consumer_surplus,
    consumer_surplus_type,
    expected_search_length,
    fosd_compare,
    uniform_interpolate,
)

from conftest import corpus_thresholds, quasi_concave_pair, quasi_convex_pair, ramp_costs


def test_surplus_type_examples(F):
    b, c, cs = consumer_surplus_type(F, 0.0, 0.18, 2)
    assert cs == pytest.approx(0.5 - 0.18, abs=1e-12)  # mean minus one search
    b, c, cs = consumer_surplus_type(F, 0.4, 0.18, 2)
    assert b == pytest.approx(0.63067, abs=1e-5)
    assert c == pytest.approx(0.25200, abs=1e-5)
    assert cs == pytest.approx(0.37867, abs=1e-5)
    assert cs > 0.32  # disclosure helps this type


def test_surplus_type_frozen_exact(F):
    # closed form: int_0^0.4 x d(x^2) + 0.7 (1 - 0.16) and 1.4 * 0.18
    b, c, cs = consumer_surplus_type(F, 0.4, 0.18, 2)
    assert b == pytest.approx(2 * 0.4**3 / 3 + 0.7 * 0.84, abs=1e-12)
    assert c == pytest.approx(0.84 / 0.6 * 0.18, abs=1e-12)


def test_surplus_constant_above_branch_cost(F):
    # once the threshold exceeds the type's cutoff image, the consumer's
    # behavior (and surplus) freezes
    base = consumer_surplus_type(F, 0.4, 0.18, 2)
    higher = consumer_surplus_type(F, 0.55, 0.18, 2)
    assert higher == pytest.approx(base, abs=1e-12)


def _surplus_type_reference(F, a, c, n):
    """Per-type surplus through the cutoff image a_c of every cost."""
    a_c = reservation_value(F, c) if c < mean(F) else 0.0
    m = min(a, a_c)
    Fm = F.cdf(m)
    k_m = truncated_mean_above(F, m)
    best = welfare._value_of_best_of_n(F, m, n) if m > F.support_lo else 0.0
    value = best + k_m * (1.0 - Fm**n)
    searches = power_sum(Fm, 1.0, n)
    cost = searches * c
    return float(value), float(cost), float(value - cost)


def test_surplus_type_inverts_only_above_branch_cost(
    F, H_uniform, H_step, H_bimodal, H_threestep, H_convex, monkeypatch
):
    """Below the branch cost incremental_benefit(F, a) the type's cutoff image
    lies above a, so no cutoff is inverted there; at the quadrature nodes of
    consumer_surplus on both sides of it the result keeps the bits of the
    formula that inverts every cost."""
    laws = [H_uniform, H_step, H_bimodal, H_threestep, H_convex,
            quasi_convex_pair()[0], quasi_concave_pair()[0]]
    inverted = []
    surplus_type, invert = welfare.consumer_surplus_type, welfare.reservation_value

    def spy_invert(G, c, *args):
        inverted.extend(np.atleast_1d(c))
        return invert(G, c, *args)

    monkeypatch.setattr(welfare, "reservation_value", spy_invert)
    sides = set()
    for li, H in enumerate(laws):
        for a in (0.2, solve_a_max(F, H)[0], 0.7):
            cfa = incremental_benefit(F, a)
            nodes = [float(c) for _, cs, _ in _quadrature_pieces(F, H, a) for c in cs]
            inverted.clear()
            welfare.consumer_surplus(F, H, a, 2)
            assert all(c >= cfa for c in inverted), (li, a)
            for n in (2, 5, 50):
                for c in nodes[::5]:
                    sides.add(c < cfa)
                    inverted.clear()
                    got = surplus_type(F, a, c, n)
                    assert c >= cfa or not inverted, (li, a, n, c)
                    assert got == _surplus_type_reference(F, a, c, n), (li, a, n, c)
    assert sides == {True, False}


def _quadrature_pieces(F, H, a):
    """(half width, node costs, cost segment) of each piece consumer_surplus
    integrates: 64 Gauss-Legendre nodes per cost piece, split at the branch
    cost."""
    cfa = incremental_benefit(F, a)
    cuts = sorted({float(b) for b in H.breaks} | ({cfa} if 0 < cfa < H.support_hi else set()))
    xg, _ = gauss_nodes(64)
    pieces = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo < 1e-15:
            continue
        i = H._segment_index(0.5 * (lo + hi))
        if np.max(np.abs(H.coefs[i])) == 0.0:
            continue
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        pieces.append((half, mid + half * xg, i))
    return pieces


def _consumer_surplus_reference(F, H, a, n):
    """consumer_surplus with one consumer_surplus_type call, and so one
    cutoff inversion, per quadrature node."""
    _, wg = gauss_nodes(64)
    total = 0.0
    for half, cs, i in _quadrature_pieces(F, H, a):
        dens = polyval(H.coefs[i], cs)
        vals = np.array([consumer_surplus_type(F, a, float(c), n)[2] for c in cs])
        total += half * float(np.dot(wg, dens * vals))
    return float(total)


def test_surplus_inverts_all_nodes_in_one_call(F, F_tilted, H_uniform, H_step, H_bimodal,
                                               H_convex, monkeypatch):
    calls = []
    invert = welfare.reservation_value

    def counting(G, c, *args):
        calls.append(c)
        return invert(G, c, *args)

    monkeypatch.setattr(welfare, "reservation_value", counting)
    for prior in (F, F_tilted):
        for H in (H_uniform, H_step, H_bimodal, H_convex, quasi_concave_pair()[0]):
            for a in (0.0, 0.2, solve_a_max(prior, H)[0], 0.7, 1.0):
                for n in (2, 5, 50):
                    calls.clear()
                    got = consumer_surplus(prior, H, a, n)
                    made = len(calls)
                    calls.clear()
                    assert got == _consumer_surplus_reference(prior, H, a, n), (a, n)
                    # one call where the reference inverts any node (those above
                    # the branch cost), and none where it inverts none
                    assert made == min(len(calls), 1), (a, n, made, len(calls))


def _value_of_best_of_n_reference(F, m, n):
    """The best-of-n value with its own node loop over F's pieces below m:
    no piece is skipped, and each is summed by its own dot product, onto the
    atoms at or below m."""
    total = sum((x * (F.cdf(x) ** n - F.cdf_left(x) ** n) for x in F.atom_locs.tolist() if x <= m), 0.0)
    deg = 4 * n + 4
    xg, wg = gauss_nodes(nodes_for_degree(deg))
    for i in range(len(F.coefs)):
        lo, hi = float(F.breaks[i]), float(F.breaks[i + 1])
        hi = min(hi, m)
        if hi <= lo:
            break
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        ts = mid + half * xg
        dens = polyval(F.coefs[i], ts)
        cdfs = F.cdf_vec(ts)
        total += half * float(np.dot(wg, ts * n * cdfs ** (n - 1) * dens))
    return total


def test_best_of_n_matches_reference(F, F_tilted, H_uniform, H_step, H_bimodal, H_threestep,
                                     H_convex, monkeypatch):
    """Every best-of-n value consumer_surplus asks for, at the certify corpus
    thresholds, keeps the bits of the reference loop."""
    seen = []
    best = welfare._value_of_best_of_n

    def spy(F_, m, n):
        seen.append((F_, m, n, best(F_, m, n)))
        return seen[-1][3]

    monkeypatch.setattr(welfare, "_value_of_best_of_n", spy)
    laws = [H_uniform, H_step, H_bimodal, H_threestep, H_convex,
            quasi_convex_pair()[0], quasi_concave_pair()[0]]
    for prior in (F, F_tilted):
        for H in laws:
            for a in corpus_thresholds(solve_a_max(prior, H)[0]):
                for n in (2, 5, 50):
                    consumer_surplus(prior, H, a, n)
    assert len({m for _, m, _, _ in seen}) > 100
    for F_, m, n, got in seen:
        assert got == _value_of_best_of_n_reference(F_, m, n), (m, n)
    # priors of several pieces, one of them without density, cut at, between
    # and beyond their breakpoints
    mixed = PiecewisePolyDist.mixture([F_tilted, PiecewisePolyDist.uniform(0.2, 0.6)], [0.5, 0.5])
    for prior in (mixed, upper_censorship(F_tilted, 0.3)):
        for m in [*np.linspace(0.05, 0.95, 19).tolist(), *prior.breaks.tolist(), 1.2]:
            for n in (2, 5, 50):
                got = welfare._value_of_best_of_n(prior, m, n)
                assert got == _value_of_best_of_n_reference(prior, m, n), (m, n)


def _atomic_prior():
    """0.5 x uniform[0, 1] plus an atom of 0.5 at 0.2."""
    return {"kind": "mixture", "components": [
        {"weight": 0.5, "kind": "uniform", "support": [0, 1]},
        {"weight": 0.5, "kind": "atoms", "support": [0, 1], "atoms": [{"at": 0.2, "mass": 1.0}]}]}


def test_best_of_n_counts_prior_atoms(tmp_path):
    """On an atomic prior the purchased value of the types that stop only at
    the pooled signal (costs below the branch cost 0.09 at a = 0.4) matches
    an mpmath reference, atom term included."""
    mpmath = pytest.importorskip("mpmath")
    spec = {"version": 1,
            "market": {"prior": _atomic_prior(), "costs": {"kind": "uniform", "support": [0, 0.18]}, "n": 2},
            "welfare": {"a_grid": [0.4], "cost_quantiles": [0.1, 0.25]}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["welfare", "--spec", str(path), "--out", str(tmp_path / "out")]) == 0
    rows = list(csv.DictReader(open(tmp_path / "out" / "welfare.csv")))
    with mpmath.workdps(30):
        half, n, m = mpmath.mpf(1) / 2, 2, mpmath.mpf("0.4")
        atom = mpmath.mpf(0.2)

        def cdf(x):
            return half * x + (half if x >= atom else 0)

        best = mpmath.quad(lambda x: x * n * cdf(x) ** (n - 1) * half, [0, atom, m])
        best += atom * (cdf(atom) ** n - (half * atom) ** n)
        k_m = mpmath.quad(lambda x: x * half, [m, 1]) / (1 - cdf(m))
        value = float(best + k_m * (1 - cdf(m) ** n))
    assert value == pytest.approx(0.46767, abs=5e-6)
    assert len(rows) == 2
    for row in rows:
        assert float(row["c"]) < 0.09
        assert float(row["value"]) == pytest.approx(value, rel=1e-13, abs=0.0), row


def test_surplus_over_many_cost_pieces(F):
    """Over 256 cost pieces the 64-node rule runs in more than one block of
    pieces; the blocks keep the bits of the per-type reference."""
    rng = np.random.default_rng(7)
    breaks = np.linspace(0.0, 0.18, 261)
    dens = rng.uniform(0.2, 5.0, 260)
    dens /= np.sum(dens * np.diff(breaks))
    H = PiecewisePolyDist(breaks, [np.array([d]) for d in dens])
    a = 0.42  # branch cost 0.1682: the last pieces invert their cutoffs
    assert len(_quadrature_pieces(F, H, a)) > 256
    assert consumer_surplus(F, H, a, 5) == _consumer_surplus_reference(F, H, a, 5)


def test_surplus_cutoff_terms_once_per_cutoff(F, F_tilted, H_uniform, H_bimodal, monkeypatch):
    """consumer_surplus evaluates the cutoff-only terms (the best-of-n value
    among them) once per distinct cutoff m, not once per quadrature node."""
    seen = []
    best = welfare._value_of_best_of_n

    def counting(F_, m, n):
        seen.append(m)
        return best(F_, m, n)

    monkeypatch.setattr(welfare, "_value_of_best_of_n", counting)
    for prior in (F, F_tilted):
        for H in (H_uniform, H_bimodal):
            for a in (0.2, 0.4, 0.7):
                seen.clear()
                consumer_surplus(prior, H, a, 5)
                assert len(seen) == len(set(seen)), (a, len(seen), len(set(seen)))
    # below the branch cost every node's cutoff is a itself
    seen.clear()
    consumer_surplus(F, H_bimodal, 0.2, 5)
    assert seen == [0.2]


def test_total_surplus_examples(F, H_uniform):
    assert consumer_surplus(F, H_uniform, 0.0, 2) == pytest.approx(0.41, abs=1e-10)
    grid = [0.0, 0.1, 0.2, 0.3, 0.4]
    vals = [consumer_surplus(F, H_uniform, a, 2) for a in grid]
    assert all(b > a for a, b in zip(vals[:-1], vals[1:]))


def test_surplus_ranking_equal_means(F, H_uniform):
    # equal-mean pair: symmetric peak density vs uniform; thresholds ranked,
    # hypothesis satisfied, surplus follows the thresholds
    Hpeak = quasi_concave_pair(0.18)[0]
    assert mean(Hpeak) == pytest.approx(mean(H_uniform), abs=1e-12)
    a1 = solve_a_max(F, Hpeak)[0]
    a2 = solve_a_max(F, H_uniform)[0]
    lo, hi = min(a1, a2), max(a1, a2)
    # both thresholds at or below the top cost's cutoff image: every type
    # stops only at the pooled signal, so value and search terms separate
    if hi <= reservation_value(F, 0.18) + 1e-12:
        assert consumer_surplus(F, Hpeak, lo, 2) == pytest.approx(
            consumer_surplus(F, H_uniform, lo, 2), abs=1e-9
        )
        assert consumer_surplus(F, H_uniform, hi, 2) >= consumer_surplus(F, H_uniform, lo, 2)


def test_search_length_examples(F):
    assert expected_search_length(F, 0.0, 2) == pytest.approx(1.0)
    assert expected_search_length(F, 0.4, 2) == pytest.approx(1.4, abs=1e-12)
    assert expected_search_length(F, 1 - 1e-12, 2) == pytest.approx(2.0, abs=1e-6)


def test_alpha_stretch(F, H_uniform):
    H2 = alpha_stretch(H_uniform, 1.5, prior_mean=0.5)
    assert H2.support_hi == pytest.approx(0.27)
    assert H2.pdf(0.1) == pytest.approx(1 / 0.27, abs=1e-12)
    assert solve_a_max(F, H2)[0] == pytest.approx(1 - np.sqrt(0.54), abs=1e-4)
    assert alpha_stretch(H_uniform, 1.0) is H_uniform
    with pytest.raises(ValueError, match="below the prior mean"):
        alpha_stretch(H_uniform, 3.0, prior_mean=0.5)
    with pytest.raises(ValueError, match="at least 1"):
        alpha_stretch(H_uniform, 0.8)


def test_stretch_chain_strictly_decreases_threshold(F, H_uniform):
    base = solve_a_max(F, H_uniform)[0]
    prev = base
    for al in (1.1, 1.3, 1.5):
        a = solve_a_max(F, alpha_stretch(H_uniform, al, prior_mean=0.5))[0]
        assert a < prev or (base == 0 and a == 0)
        prev = a


def test_fosd_examples(F, H_uniform):
    H27 = alpha_stretch(H_uniform, 1.5, prior_mean=0.5)
    H_uni_ext = PiecewisePolyDist([0, 0.18, 0.27], [np.array([1 / 0.18]), np.zeros(1)])
    assert fosd_compare(H_uni_ext, H27) == "H2_dominates"
    assert fosd_compare(H27, H_uni_ext) == "H1_dominates"
    assert fosd_compare(H_uniform, H_uniform) == "equal"
    # crossing CDFs: a mean-preserving pair is incomparable
    H1, H2 = quasi_convex_pair()
    assert fosd_compare(H1, H2) == "incomparable"


def test_fosd_pairs_move_threshold_down(F, H_uniform, H_threestep):
    pairs = [
        (H_uniform, alpha_stretch(H_uniform, 1.5, prior_mean=0.5)),
        (H_uniform, alpha_stretch(H_uniform, 1.2, prior_mean=0.5)),
        (H_threestep, alpha_stretch(H_threestep, 1.3, prior_mean=0.5)),
    ]
    for H1, H2 in pairs:
        a1 = solve_a_max(F, H1)[0]
        a2 = solve_a_max(F, H2)[0]
        assert a2 < a1


def test_uniform_interpolate_endpoints(F, H_threestep):
    assert uniform_interpolate(H_threestep, 0.0, 0.18) is H_threestep
    uni = uniform_interpolate(H_threestep, 1.0, 0.18)
    assert uni.pdf(0.1) == pytest.approx(1 / 0.18, abs=1e-12)
    lam = uniform_interpolate(H_threestep, 0.5, 0.18)
    assert lam.pdf(0.01) == pytest.approx(0.5 / 0.18 + 0.5 * 8.0, abs=1e-12)
    with pytest.raises(ValueError, match="mixing weight"):
        uniform_interpolate(H_threestep, 1.5, 0.18)


def test_interpolation_monotone_thresholds(F, H_step, H_threestep):
    # weakly increasing for a base failing the evenness check region,
    # strictly increasing for a base satisfying it with an interior minimum
    weak = [solve_a_max(F, uniform_interpolate(H_step, lam, 0.4))[0]
            for lam in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(b >= a - 1e-12 for a, b in zip(weak[:-1], weak[1:]))
    assert assumption_diag_check(H_threestep)[0]
    strict = [solve_a_max(F, uniform_interpolate(H_threestep, lam, 0.18))[0]
              for lam in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(b > a for a, b in zip(strict[:-1], strict[1:]))
    assert strict[-1] == pytest.approx(0.4, abs=1e-9)


def test_density_shape_classification(H_uniform):
    tri = PiecewisePolyDist(
        [0, 0.09, 0.18],
        [np.array([0.0, 2 / 0.09 / 0.18]), np.array([2 / 0.09, -2 / 0.09 / 0.18])],
    )
    assert classify_density_shape(tri) == "quasi_concave_interior_peak"
    vee = quasi_convex_pair()[0]
    assert classify_density_shape(vee) == "quasi_convex_interior_dip"
    assert classify_density_shape(H_uniform) == "neither"


def test_mps_check_examples(H_uniform):
    assert mpc_check(H_uniform, H_uniform)[0]
    H1, H2 = quasi_convex_pair()
    assert mpc_check(H1, H2)[0]
    assert not mpc_check(H2, H1)[0]
    shifted = PiecewisePolyDist.uniform(0.01, 0.19)
    assert not mpc_check(H_uniform, shifted)[0]  # means differ


def test_mps_directions(F):
    # dips polarize under a spread: informativeness falls strictly
    H1, H2 = quasi_convex_pair()
    assert classify_density_shape(H1) == "quasi_convex_interior_dip"
    assert classify_density_shape(H2) == "quasi_convex_interior_dip"
    assert mpc_check(H1, H2)[0]
    a1, case1, _ = solve_a_max(F, H1)
    a2, case2, _ = solve_a_max(F, H2)
    assert a2 < a1
    # peaks even out under a spread: informativeness weakly rises, and the
    # evenness statistic strictly rises
    P1, P2 = quasi_concave_pair()
    assert classify_density_shape(P1) == "quasi_concave_interior_peak"
    assert mpc_check(P1, P2)[0]
    b1 = solve_a_max(F, P1)[0]
    b2 = solve_a_max(F, P2)[0]
    assert b2 >= b1
    assert global_min_slope(P2)[0] > global_min_slope(P1)[0]


def test_support_halving_convergence(F):
    # halving the cost support walks the threshold to full disclosure
    vals = [solve_a_max(F, PiecewisePolyDist.uniform(0, 0.18 / 2**k))[0] for k in range(9)]
    assert all(b > a for a, b in zip(vals[:-1], vals[1:]))
    for k, v in enumerate(vals):
        assert v == pytest.approx(1 - np.sqrt(2 * 0.18 / 2**k), abs=1e-10)
    assert vals[8] > 0.95


def test_ramp_to_homogeneous_collapse(F):
    # concentrating costs at the top kills disclosure from some stage on
    vals = [solve_a_max(F, ramp_costs(0.18, k))[0] for k in range(2, 8)]
    assert vals[0] == pytest.approx(0.4, abs=1e-9)  # k=2 is uniform
    assert all(b <= a + 1e-12 for a, b in zip(vals[:-1], vals[1:]))
    assert all(v == 0.0 for v in vals[2:])  # k >= 4


def test_surplus_positive_across_types(F, H_uniform):
    for a in (0.0, 0.2, 0.4):
        for c in (0.01, 0.09, 0.18):
            assert consumer_surplus_type(F, a, c, 2)[2] > 0.0
