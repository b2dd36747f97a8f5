"""The one-table average-slope analysis against the per-call sweeps it
replaced, and the one walk over the density's trend against the two global-x
walks it replaced.

The reference functions below are the earlier implementations: every
public cost-shape statistic rebuilt the critical set on its own, and the
segment minimum of S was re-root-found for each cut.  The analysis must
reproduce their results bit for bit, including three details that a plain
``min`` gets wrong: a running minimum moves only when a later value is lower
by more than 1e-15; a segment cut at its own lower end has minimum inf, not
S(lo); and a cut set clips roots lying within 1e-12 above the cut onto it.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from censearch import costshape
from censearch._poly import polyder, polyshift, polyval, real_roots_in
from censearch.censorship import solve_a_max, threshold_from_cost, verify_uce
from censearch.costshape import (
    _SlopeAnalysis,
    _stationary_poly,
    assumption_diag_check,
    average_slope,
    classify_case,
    concavity_tail_start,
    cost_shape_report,
    critical_min_set,
    crossing_solution,
    global_min_slope,
    slope_derivative,
    smallest_local_min,
)
from censearch.dists import PiecewisePolyDist, Tolerances, incremental_benefit, mean
from censearch.welfare import alpha_stretch, classify_density_shape
from conftest import quasi_concave_pair, quasi_convex_pair, ramp_costs

# -- the reference: one sweep per call ----------------------------------------


def _ref_is_plateau(H, i):
    w = _stationary_poly(H, i)
    lo, hi = float(H.breaks[i]), float(H.breaks[i + 1])
    scale = max(np.max(np.abs(w)), H.cdf(hi), 1e-30)
    return bool(np.all(np.abs(polyval(w, np.linspace(0.0, hi - lo, 9))) <= 1e-12 * scale))


def _ref_segment_slope_candidates(H, i, upto=None):
    lo, hi = float(H.breaks[i]), float(H.breaks[i + 1])
    if upto is not None:
        hi = min(hi, upto)
        if hi <= lo:
            return []
    pts = {lo, hi}
    for r in real_roots_in(_stationary_poly(H, i), lo, hi, origin=float(H.breaks[i])):
        if r > H.support_lo + 1e-13:
            pts.add(float(r))
    cs = sorted(pts)
    return list(zip(cs, average_slope(H, np.array(cs)).tolist()))


def _ref_segment_min_slope(H, i, upto=None):
    best_v, best_c = np.inf, float(H.breaks[i + 1])
    for c, v in _ref_segment_slope_candidates(H, i, upto):
        if v < best_v - 1e-15:
            best_v, best_c = v, c
    return float(best_v), float(best_c)


def _ref_global_min_slope(H):
    best = min(_ref_segment_min_slope(H, i)[0] for i in range(len(H.coefs)))
    args = [
        c
        for i in range(len(H.coefs))
        for c, v in _ref_segment_slope_candidates(H, i)
        if v <= best + 1e-11 * max(1.0, best)
    ]
    return float(best), float(min(args))


@dataclass
class _Crit:
    lo: float
    hi: float
    value: float


def _ref_criticals(H, tol=1e-9):
    out = []
    prefix = np.inf
    lo0, top = H.support_lo, H.support_hi
    for i in range(len(H.coefs)):
        lo, hi = float(H.breaks[i]), float(H.breaks[i + 1])
        if _ref_is_plateau(H, i):
            val = average_slope(H, 0.5 * (lo + hi))
            if val <= prefix + tol:
                out.append(_Crit(lo, hi, val))
            prefix = min(prefix, val)
            continue
        bounds = [lo] if i == 0 else []
        bounds.append(hi)
        for b in bounds:
            at_lo_edge = b <= lo0 + 1e-15
            at_hi_edge = b >= top - 1e-15
            sl_l = slope_derivative(H, b, side=+1 if at_lo_edge else -1)
            sl_r = slope_derivative(H, b, side=-1 if at_hi_edge else +1)
            stol = tol * (1.0 + abs(sl_l) + abs(sl_r))
            if at_lo_edge or at_hi_edge:
                is_crit = abs(sl_l) <= stol and abs(sl_r) <= stol
            else:
                is_crit = sl_l <= stol and sl_r >= -stol
            if not is_crit:
                continue
            val = average_slope(H, b)
            if val <= min(prefix, _ref_segment_min_slope(H, i, upto=b)[0]) + tol:
                out.append(_Crit(b, b, val))
        for r in real_roots_in(_stationary_poly(H, i), lo, hi, origin=lo):
            c0 = float(r)
            if c0 <= lo + 1e-13 or c0 >= hi - 1e-13 or c0 <= lo0 + 1e-13:
                continue
            val = average_slope(H, c0)
            if val <= min(prefix, _ref_segment_min_slope(H, i, upto=c0)[0]) + tol:
                out.append(_Crit(c0, c0, val))
        prefix = min(prefix, _ref_segment_min_slope(H, i)[0])
    out.sort(key=lambda c: (c.lo, c.hi))
    merged = []
    for c in out:
        if merged and c.lo <= merged[-1].hi + 1e-12:
            merged[-1].hi = max(merged[-1].hi, c.hi)
            merged[-1].value = min(merged[-1].value, c.value)
        else:
            merged.append(_Crit(c.lo, c.hi, c.value))
    return merged


def _ref_top_only(crit, top):
    return len(crit) == 0 or (len(crit) == 1 and crit[0].lo >= top - 1e-12)


def _ref_smallest_local_min(H, tol=1e-9):
    crit = _ref_criticals(H, tol)
    if _ref_top_only(crit, H.support_hi):
        return concavity_tail_start(H)
    best = min(c.value for c in crit)
    return float(max(c.hi for c in crit if c.value <= best + tol))


def _ref_crossing_solution(H, tol=1e-9):
    if not _ref_criticals(H, tol):
        return None
    cbar = H.support_hi
    c_loc = _ref_smallest_local_min(H, tol)
    s_loc = average_slope(H, c_loc)
    s_top = 1.0 / cbar
    if abs(s_loc - s_top) <= tol * max(1.0, s_top):
        return cbar
    if s_loc < s_top:
        return None
    for i in range(len(H.coefs)):
        lo, hi = float(H.breaks[i]), float(H.breaks[i + 1])
        if hi <= c_loc + 1e-12:
            continue
        g = H.cdf_poly(i)
        g[0] -= s_loc * lo
        g[1] -= s_loc
        for r in real_roots_in(g, max(lo, c_loc), hi, origin=lo):
            if float(r) > c_loc + 1e-10:
                return float(r)
    return cbar


def _ref_assumption_diag_check(H):
    _, arg = _ref_global_min_slope(H)
    cbar = H.support_hi
    if arg >= cbar - max(1e-12, 1e-9 * cbar):
        return False, None, None
    side = -1 if arg > H.support_lo + 1e-15 else +1
    return True, float(arg), float(H.pdf(arg, side=side))


def _ref_classify_case(H, mu, tol=1e-9):
    if _ref_top_only(_ref_criticals(H, tol), H.support_hi):
        return "d"
    s_loc = average_slope(H, _ref_smallest_local_min(H, tol))
    if s_loc <= 1.0 / mu + tol:
        return "a"
    if s_loc <= 1.0 / H.support_hi + tol:
        return "b"
    return "c"


def _ref_report_json(H, mu, tol=1e-9):
    even_ok, cm, hcm = _ref_assumption_diag_check(H)
    c_loc = _ref_smallest_local_min(H, tol)
    return {
        "even_point": cm,
        "even_density": hcm,
        "even_ok": even_ok,
        "concave_from": concavity_tail_start(H),
        "critical_set": [[c.lo, c.hi] for c in _ref_criticals(H, tol)],
        "best_min": c_loc,
        "best_min_slope": average_slope(H, c_loc),
        "crossing": _ref_crossing_solution(H, tol),
        "min_slope": _ref_global_min_slope(H)[0],
        "case": _ref_classify_case(H, mu, tol),
        "support_hi": H.support_hi,
    }


def _ref_solve_a_max(F, H, tol=Tolerances()):
    case = _ref_classify_case(H, mean(F), tol.ineq)
    if case == "a":
        return 0.0, "a", True
    if case == "b":
        s_loc = average_slope(H, _ref_smallest_local_min(H, tol.ineq))
        return threshold_from_cost(F, 1.0 / s_loc), "b", True
    c_cav = concavity_tail_start(H)
    if case == "c":
        c_sol = _ref_crossing_solution(H, tol.ineq)
        target = max(c_cav, c_sol if c_sol is not None else 0.0)
        if target <= tol.root:
            return F.support_hi - 1e-12, "c", False
        return threshold_from_cost(F, target), "c", True
    if c_cav <= tol.root:
        return F.support_hi - 1e-12, "d", False
    return threshold_from_cost(F, c_cav), "d", True


def _ref_min_below(H, c):
    return min(_ref_segment_min_slope(H, i, upto=c)[0]
               for i in range(len(H.coefs)) if H.breaks[i] < c)


def _ref_cost_condition(F, H, a, tol=Tolerances()):
    if F.cdf_left(a) <= 1e-14:  # upper_censorship's no-disclosure rule
        return True
    cfa = incremental_benefit(F, a)
    if cfa >= H.support_hi - tol.ineq:
        return _ref_global_min_slope(H)[0] >= 1.0 / cfa - tol.ineq
    s_at = average_slope(H, cfa)
    return (
        _ref_min_below(H, cfa) >= s_at - tol.ineq
        and s_at > H.pdf(cfa, side=-1) + tol.ineq
        and cfa >= concavity_tail_start(H) - tol.ineq
    )


def _ref_last_positive_point(coefs, lo, hi):
    cuts = [lo] + [float(r) for r in real_roots_in(np.asarray(coefs, float), lo, hi)] + [hi]
    cuts = sorted(set(cuts))
    last = None
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b - a < 1e-15:
            continue
        if polyval(np.asarray(coefs, float), 0.5 * (a + b)) > costshape.RISE_TOL:
            last = b
    return last


def _ref_concavity_tail_start(H):
    """The walk from the top over the density pieces in global x."""
    start = H.support_hi
    for i in range(len(H.coefs) - 1, -1, -1):
        lo, hi = float(H.breaks[i]), float(H.breaks[i + 1])
        last_pos = _ref_last_positive_point(polyder(H.coefs[i]), lo, hi)
        if last_pos is not None:
            return last_pos
        start = lo
        if i > 0:
            left = polyval(H.coefs[i - 1], lo)
            right = polyval(H.coefs[i], lo)
            if abs(left - right) > 1e-10 * max(1.0, abs(left), abs(right)):
                return start
    return start


def _ref_classify_density_shape(H):
    """The walk from the bottom over the density pieces in global x, with
    an absolute 1e-11 threshold on slopes and jumps."""
    signs = []

    def push(s):
        if s != 0 and (not signs or signs[-1] != s):
            signs.append(s)

    for i in range(len(H.coefs)):
        a, b = float(H.breaks[i]), float(H.breaks[i + 1])
        if i > 0:
            jump = polyval(H.coefs[i], a) - polyval(H.coefs[i - 1], a)
            if abs(jump) > 1e-11:
                push(1 if jump > 0 else -1)
        d = polyder(H.coefs[i])
        cuts = [a] + [float(r) for r in real_roots_in(d, a, b)] + [b]
        for u, v in zip(cuts[:-1], cuts[1:]):
            if v - u < 1e-14:
                continue
            val = polyval(d, 0.5 * (u + v))
            push(1 if val > 1e-11 else (-1 if val < -1e-11 else 0))
    if signs == [-1, 1]:
        return "quasi_convex_interior_dip"
    if signs == [1, -1]:
        return "quasi_concave_interior_peak"
    return "neither"


# -- the corpus ------------------------------------------------------------------


def _random_law(seed: int) -> PiecewisePolyDist:
    """Piecewise-constant (even seeds) or piecewise-linear (odd seeds)
    density with 2-6 pieces on [0, cbar], jumps allowed at the breaks."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 7))
    cbar = rng.uniform(0.12, 0.3)
    breaks = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, k - 1)) * cbar, [cbar]])
    ends = rng.uniform(0.2, 5.0, size=(k, 2))
    if seed % 2 == 0:
        ends[:, 1] = ends[:, 0]
    mass = float(np.sum(0.5 * (ends[:, 0] + ends[:, 1]) * np.diff(breaks)))
    coefs = []
    for (y0, y1), lo, hi in zip(ends / mass, breaks[:-1], breaks[1:]):
        m = (y1 - y0) / (hi - lo)
        coefs.append(np.array([y0 - m * lo, m]) if seed % 2 else np.array([y0]))
    return PiecewisePolyDist(breaks, coefs)


def _random_cubic_law(seed: int) -> PiecewisePolyDist:
    """Piecewise-cubic density with 2-5 pieces on [0, cbar] whose slope
    changes sign inside the pieces: continuous (even seeds) or with jumps at
    the breaks (odd seeds).  Each piece is drawn in t = c - lo and stored in
    global c, as the constructor takes it."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    cbar = rng.uniform(0.12, 0.3)
    widths = rng.uniform(0.5, 1.5, k)
    breaks = np.concatenate([[0.0], np.cumsum(widths) / widths.sum() * cbar])
    breaks[-1] = cbar
    local, start = [], rng.uniform(1.0, 3.0)
    for w in np.diff(breaks):
        # each of the three terms stays within 0.3 * start on [0, w]
        c = np.concatenate([[start], rng.uniform(-0.3, 0.3, 3) * start / w ** np.arange(1.0, 4.0)])
        local.append(c)
        start = polyval(c, w) if seed % 2 == 0 else rng.uniform(1.0, 3.0)
    mass = sum(float(polyval(c / np.arange(1.0, 5.0), w) * w) for c, w in zip(local, np.diff(breaks)))
    return PiecewisePolyDist(breaks, [polyshift(c / mass, -lo) for c, lo in zip(local, breaks[:-1])])


@pytest.fixture(scope="module")
def laws(H_uniform, H_convex, H_step, H_bimodal, H_threestep):
    base = [H_uniform, H_convex, H_step, H_bimodal, H_threestep,
            *quasi_convex_pair(), *quasi_concave_pair(), ramp_costs(0.18, 4)]
    # seed 60 holds a segment whose running minimum beats a later candidate
    # by rounding alone (test_corpus_exercises_the_traps)
    return (base + [alpha_stretch(H, 1.03) for H in base]
            + [_random_law(seed) for seed in (*range(10), 60)])


def _bits(x):
    # repr of a float round-trips, so equal reprs mean equal bits (and types)
    return repr(x)


def test_public_statistics_match_reference(laws, F, F_tilted):
    for H in laws:
        assert _bits(global_min_slope(H)) == _bits(_ref_global_min_slope(H))
        assert _bits(assumption_diag_check(H)) == _bits(_ref_assumption_diag_check(H))
        # every statistic at the slope tolerance it is fixed to (TOL.ineq)
        crit = [(c.lo, c.hi) for c in _ref_criticals(H, 1e-9)]
        assert _bits(critical_min_set(H)) == _bits(crit)
        assert _bits(smallest_local_min(H)) == _bits(_ref_smallest_local_min(H, 1e-9))
        assert _bits(crossing_solution(H)) == _bits(_ref_crossing_solution(H, 1e-9))
        for mu in (0.5, mean(F_tilted)):
            assert classify_case(H, mu) == _ref_classify_case(H, mu, 1e-9)
            assert (_bits(cost_shape_report(H, mu).to_json())
                    == _bits(_ref_report_json(H, mu, 1e-9)))
        for prior in (F, F_tilted):
            assert _bits(solve_a_max(prior, H)) == _bits(_ref_solve_a_max(prior, H))


def test_prefix_minimum_matches_reference(laws):
    for H in laws:
        an = _SlopeAnalysis(H)
        for i in range(len(H.coefs)):
            lo, hi = float(H.breaks[i]), float(H.breaks[i + 1])
            cuts = [lo, hi, 0.5 * (lo + hi), lo + 1e-13, hi - 1e-13, hi + 1.0]
            for c in an.table[i][0].tolist():
                cuts += [c, c - 1e-12, c - 5e-13, c + 1e-13, np.nextafter(c, -1.0)]
            for upto in cuts:
                assert _bits(an.prefix_min(i, upto)) == _bits(_ref_segment_min_slope(H, i, upto)[0])
        for c in np.linspace(0.0, H.support_hi, 41)[1:].tolist() + an.table[-1][0].tolist()[1:]:
            assert _bits(an.min_below(c)) == _bits(_ref_min_below(H, c))


def test_cost_condition_matches_reference(laws, F):
    for H in laws:
        a_max = solve_a_max(F, H)[0]
        for a in (0.0, 0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95, a_max):
            got = verify_uce(F, H, a, 5).checks["cost_condition"]
            assert got == _ref_cost_condition(F, H, a), (H, a)


def test_corpus_exercises_the_traps(laws):
    # a running minimum held against a later value lower by at most 1e-15
    held = [
        (H, i) for H in laws for i in range(len(H.coefs))
        if min(v for _, v in _ref_segment_slope_candidates(H, i)) < _ref_segment_min_slope(H, i)[0]
    ]
    assert held
    # a segment cut at its lower end is empty
    H = laws[0]
    assert _SlopeAnalysis(H).prefix_min(0, float(H.breaks[0])) == np.inf
    assert _ref_segment_min_slope(H, 0, upto=float(H.breaks[0]))[0] == np.inf


def test_report_and_solve_root_finding_work(monkeypatch, F, H_bimodal, H_step, H_threestep):
    # solve_a_max plus a cost_shape_report made 203 real_roots_in calls on
    # these laws when each statistic rebuilt the critical set
    calls = []
    orig = costshape.real_roots_in
    monkeypatch.setattr(costshape, "real_roots_in", lambda *a, **k: calls.append(1) or orig(*a, **k))
    for H in (H_bimodal, H_step, H_threestep):
        solve_a_max(F, H)
        cost_shape_report(H, 0.5)
    assert len(calls) <= 203 // 3


def test_density_walk_matches_global_walks(laws):
    cubics = [_random_cubic_law(seed) for seed in range(300)]
    for H in laws + cubics:
        assert classify_density_shape(H) == _ref_classify_density_shape(H), H
        assert concavity_tail_start(H) == pytest.approx(_ref_concavity_tail_start(H), abs=1e-12)
    # the random laws reach every branch of the walk: interior turning
    # points of the slope, rising tails, and both jump directions
    assert len({round(_ref_concavity_tail_start(H) / H.support_hi, 6) for H in cubics}) > 100
    assert {classify_density_shape(H) for H in laws} == {
        "neither", "quasi_convex_interior_dip", "quasi_concave_interior_peak"}


@pytest.mark.parametrize("rel, seen", [(1e-9, True), (1e-11, False), (1e-12, False)])
def test_one_jump_rule_for_both_walks(rel, seen):
    # falling density on [0, 0.09], then flat from 0.09 at (1 + rel) times
    # the value it fell to: the jump alone makes the law a dip and ends the
    # nonincreasing tail at 0.09
    slope = 100.0
    base = (1.0 + slope * 0.09**2 / 2 + slope * 0.09**2 * (1.0 + rel)) / (0.09 * (2.0 + rel))
    H = PiecewisePolyDist([0.0, 0.09, 0.18], [np.array([base, -slope]),
                                             np.array([(base - slope * 0.09) * (1.0 + rel)])])
    assert classify_density_shape(H) == ("quasi_convex_interior_dip" if seen else "neither")
    assert concavity_tail_start(H) == (0.09 if seen else 0.0)
