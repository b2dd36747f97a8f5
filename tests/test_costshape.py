"""Average-slope analysis of the cost distribution: critical sets, tails,
crossings, the evenness check."""

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from censearch import costshape
from censearch._poly import poly_range_on, polyval
from censearch.costshape import (
    assumption_diag_check,
    average_slope,
    classify_case,
    concavity_tail_start,
    cost_shape_report,
    critical_min_set,
    crossing_solution,
    global_min_slope,
    scan_table,
    slope_derivative,
    smallest_local_min,
)
from censearch.dists import PiecewisePolyDist


@pytest.fixture(scope="module")
def H_smoothstep():
    # density peaking mid-support on [0, 0.4]: h(c) = 37.5 c - 93.75 c^2
    return PiecewisePolyDist([0.0, 0.4], [np.array([0.0, 37.5, -93.75])])


def test_average_slope_examples(H_uniform, H_convex):
    assert average_slope(H_uniform, 0.09) == pytest.approx(1 / 0.18, abs=1e-9)
    assert average_slope(H_uniform, 0.0) == pytest.approx(H_uniform.pdf(0.0), abs=1e-12)
    assert average_slope(H_convex, 0.15) == pytest.approx(0.15 / 0.09, abs=1e-9)


def test_slope_at_top_is_inverse_support(H_uniform, H_convex, H_step, H_bimodal):
    for H in (H_uniform, H_convex, H_step, H_bimodal):
        cbar = H.support_hi
        assert average_slope(H, cbar) == pytest.approx(1.0 / cbar, abs=1e-12)


def test_slope_derivative_identity_vs_fd(H_bimodal, H_smoothstep):
    for H in (H_bimodal, H_smoothstep):
        for c in np.linspace(0.02, H.support_hi - 0.02, 23):
            c = float(c)
            if min(abs(c - b) for b in H.breaks) < 5e-3:
                continue
            h = 1e-7
            fd = (average_slope(H, c + h) - average_slope(H, c - h)) / (2 * h)
            assert slope_derivative(H, c) == pytest.approx(fd, abs=1e-6, rel=1e-5)


def test_concavity_tail_examples(H_uniform, H_convex, H_smoothstep, H_bimodal):
    assert concavity_tail_start(H_uniform) == pytest.approx(0.0, abs=1e-12)
    assert concavity_tail_start(H_smoothstep) == pytest.approx(0.2, abs=1e-10)
    assert concavity_tail_start(H_convex) == pytest.approx(0.3, abs=1e-12)
    # density jumps close the window conservatively
    assert concavity_tail_start(H_bimodal) == pytest.approx(0.17, abs=1e-12)


def test_critical_set_examples(H_uniform, H_convex, H_step):
    assert critical_min_set(H_uniform) == [(0.0, 0.18)]
    assert critical_min_set(H_convex) == []
    crit = critical_min_set(H_step)
    # the kink minimum at 0.3 is the decisive element; the flat run of the
    # average slope over the first piece is also stationary-and-running-min
    assert any(abs(lo - 0.3) < 1e-9 and abs(hi - 0.3) < 1e-9 for lo, hi in crit)
    assert min(average_slope(H_step, 0.5 * (lo + hi)) for lo, hi in crit) == pytest.approx(
        1.8666666666666667, abs=1e-9
    )


def _bump_costs(eps):
    """Costs with density 4 on [0, 0.1], 4 + eps g(c - 0.1) on [0.1, 0.2]
    and the rest uniform on [0.2, 0.4], where g(0) = 0 and
    g'(t) = (t - 0.05625)(t + 1.1).  W = c h - H is 0 on the first segment;
    on the second W' = c h' = eps c g', so W is 0 at both ends and its one
    extremum, at t = 0.05625, lies between two of 9 equally spaced samples
    (0.05 and 0.0625)."""
    g = Polynomial([0.0, -0.061875, 0.521875, 1.0 / 3.0])(Polynomial([-0.1, 1.0]))
    mass = 0.4 + eps * float(g.integ(lbnd=0.1)(0.2))
    return PiecewisePolyDist([0.0, 0.1, 0.2, 0.4],
                             [np.array([4.0]), (4.0 + eps * g).coef, np.array([(0.6 - mass) / 0.2])])


@pytest.mark.parametrize("eps", [0.0, 3.7e-9])
def test_flat_segment_is_a_plateau(eps):
    # S = 4 on [0, 0.2]: at eps = 3.7e-9 W's exact range on [0.1, 0.2] is
    # 0.97 of the plateau bound 1e-12 * H(0.2)
    assert critical_min_set(_bump_costs(eps)) == [(0.0, 0.2)]


def test_segment_just_clearing_the_plateau_bound_is_not_flat():
    # eps = 3.85e-9: W's exact range on [0.1, 0.2] is 1.013 times the plateau
    # bound, its 9 equally spaced samples only 0.996 times (a sampled test
    # took the segment for a plateau and reported [0, 0.2])
    H = _bump_costs(3.85e-9)
    w = costshape._stationary_poly(H, 1)
    low, high = poly_range_on(w, 0.0, 0.1)
    bound = 1e-12 * H.cdf(0.2)
    assert np.max(np.abs(polyval(w, np.linspace(0.0, 0.1, 9)))) <= bound < max(-low, high)
    assert critical_min_set(H) == [(0.0, 0.1)]


def test_smallest_local_min_examples(H_uniform, H_convex, H_step):
    assert smallest_local_min(H_uniform) == pytest.approx(0.18, abs=1e-12)
    assert smallest_local_min(H_convex) == pytest.approx(0.3, abs=1e-12)
    c_loc = smallest_local_min(H_step)
    assert c_loc == pytest.approx(0.3, abs=1e-9)
    assert average_slope(H_step, c_loc) == pytest.approx(1.866667, abs=1e-5)


def test_crossing_solution_examples(H_uniform, H_step, H_bimodal):
    assert crossing_solution(H_uniform) == pytest.approx(0.18, abs=1e-12)
    assert crossing_solution(H_step) is None
    c_sol = crossing_solution(H_bimodal)
    # brute-scan oracle: S(c) = 0.5 + 0.875/c meets S(c_loc) = 0.82/0.15
    expect = 0.875 / (0.82 / 0.15 - 0.5)
    assert c_sol == pytest.approx(expect, abs=1e-10)


def test_crossing_properties(H_bimodal):
    c_sol = crossing_solution(H_bimodal)
    c_loc = smallest_local_min(H_bimodal)
    s_loc = average_slope(H_bimodal, c_loc)
    # decreasing beyond the crossing point
    for c in np.linspace(c_sol + 1e-6, H_bimodal.support_hi, 64):
        assert slope_derivative(H_bimodal, float(c), side=-1) < 1e-9
    # the crossing value floors the slope below it, equality only at the
    # critical minimum and the crossing itself
    for c in np.linspace(1e-4, c_sol, 512):
        s = average_slope(H_bimodal, float(c))
        assert s >= s_loc - 1e-9
        if s <= s_loc + 1e-9:
            assert min(abs(c - c_loc), abs(c - c_sol)) < 2e-3 or c <= c_loc


def test_assumption_check_examples(H_uniform, H_step, H_bimodal):
    ok, cm, hcm = assumption_diag_check(H_uniform)
    assert ok and hcm == pytest.approx(1 / 0.18, abs=1e-9)
    ok, cm, hcm = assumption_diag_check(H_step)
    assert ok and cm == pytest.approx(0.3, abs=1e-9) and hcm == pytest.approx(0.8, abs=1e-9)
    ok, cm, hcm = assumption_diag_check(H_bimodal)
    assert not ok and cm is None and hcm is None


def test_case_labels(F, H_uniform, H_convex, H_step, H_bimodal):
    mu = 0.5
    assert classify_case(H_uniform, mu) == "b"
    assert classify_case(H_convex, mu) == "d"
    assert classify_case(H_step, mu) == "a"
    assert classify_case(H_bimodal, mu) == "c"


def test_report_and_scan(H_bimodal):
    rep = cost_shape_report(H_bimodal, 0.5)
    js = rep.to_json()
    assert js["case"] == "c"
    assert js["crossing"] == pytest.approx(0.1761745, abs=1e-6)
    scan = scan_table(H_bimodal, 256)
    assert scan.shape[1] == 5
    cs, Hs, hs, Ss, Sps = scan.T
    assert np.all(np.diff(cs) >= 0)
    assert Hs[-1] == pytest.approx(1.0, abs=1e-12)
    mid = len(cs) // 2
    assert Ss[mid] == pytest.approx(average_slope(H_bimodal, float(cs[mid])), abs=1e-12)


def test_atoms_rejected(H_uniform):
    atomic = PiecewisePolyDist([0, 0.18], [np.array([0.5 / 0.18])], atoms=[(0.09, 0.5)])
    with pytest.raises(ValueError, match="atom-free"):
        global_min_slope(atomic)
    with pytest.raises(ValueError, match="atom-free"):
        scan_table(atomic, 8)


# -- array forms against the per-point formulas they replaced -----------------


def _ref_average_slope(H, c):
    lo = H.support_lo
    if c <= lo + 1e-15:
        return H.pdf(lo, side=+1)
    return H.cdf(c) / c


def _ref_slope_derivative(H, c, side=1):
    if c <= H.support_lo + 1e-15:
        return 0.5 * H.pdf_derivative(H.support_lo, side=+1)
    return (H.pdf(c, side=side) - _ref_average_slope(H, c)) / c


def _ref_scan_table(H, per_segment):
    rows = []
    for i in range(len(H.coefs)):
        lo, hi = float(H.breaks[i]), float(H.breaks[i + 1])
        cs = np.linspace(lo, hi, per_segment, endpoint=(i == len(H.coefs) - 1))
        for c in cs:
            side = +1 if c < hi else -1
            rows.append((c, H.cdf(c), H.pdf(c, side=side), _ref_average_slope(H, c),
                         _ref_slope_derivative(H, c, side=side)))
    return np.asarray(rows)


def _same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def test_slopes_match_point_formulas(H_uniform, H_convex, H_step, H_bimodal, H_threestep,
                                     H_smoothstep):
    rng = np.random.default_rng(5)
    for H in (H_uniform, H_convex, H_step, H_bimodal, H_threestep, H_smoothstep):
        pts = [-0.05, H.support_hi + 0.05] + list(rng.uniform(0.0, H.support_hi, 100))
        for b in H.breaks:
            pts += [b, b - 1e-14, b - 4e-15, b - 1e-15, b + 1e-15, b + 4e-15, b + 1e-14]
        cs = np.array(pts)
        queries = {
            "average_slope": (lambda c: average_slope(H, c), lambda c: _ref_average_slope(H, c)),
            "slope_derivative+": (lambda c: slope_derivative(H, c),
                                  lambda c: _ref_slope_derivative(H, c)),
            "slope_derivative-": (lambda c: slope_derivative(H, c, side=-1),
                                  lambda c: _ref_slope_derivative(H, c, side=-1)),
        }
        for name, (query, ref) in queries.items():
            expect = [ref(float(c)) for c in cs]
            scalars = [query(float(c)) for c in cs]
            assert all(type(v) is float for v in scalars), name
            assert _same_bits(scalars, expect), name
            assert _same_bits(query(cs), expect), name
        for per_segment in (1, 2, 33):
            assert _same_bits(scan_table(H, per_segment), _ref_scan_table(H, per_segment))
