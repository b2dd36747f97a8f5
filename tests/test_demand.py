"""Interim demand, its margins, and expected payoffs."""

import collections
import functools

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from conftest import quasi_convex_pair

from censearch import censorship, demand, oracle, welfare
from censearch._poly import gauss_nodes, nodes_for_degree
from censearch.censorship import _Certificate, demand_second_derivative, upper_censorship
from censearch.demand import (
    DemandCurve,
    demand_margins,
    expected_payoff,
    interim_demand,
    jump_size,
    pooled_jump,
    power_sum,
    type_demand,
)
from censearch.dists import PiecewisePolyDist, mean, mpc_check, truncated_mean_above
from censearch.oracle import build_problem
from censearch.welfare import expected_search_length


@pytest.fixture(scope="module")
def U4(F):
    return upper_censorship(F, 0.4)


def test_jump_size_examples(F):
    assert jump_size(F, 0.0, 3) == pytest.approx(1 / 3, abs=1e-14)
    assert jump_size(F, 0.5, 2) == pytest.approx(0.25, abs=1e-14)
    assert jump_size(F, 1.0, 2) == pytest.approx(0.0, abs=1e-14)


def test_type_demand_examples(F, U4):
    # cost 0.125 under full disclosure puts the cutoff at 0.5
    assert type_demand(F, 0.25, 0.125, 2) == pytest.approx(0.25, abs=1e-12)
    assert type_demand(F, 0.6, 0.125, 2) == pytest.approx(0.75, abs=1e-10)
    assert type_demand(U4, -0.01, 0.05, 2) == 0.0


def test_interim_demand_examples(F, H_uniform, U4):
    assert interim_demand(U4, 0.2, 2, H_uniform) == pytest.approx(0.2, abs=1e-12)
    assert interim_demand(U4, 0.55, 2, H_uniform) == pytest.approx(0.55, abs=1e-12)
    assert interim_demand(U4, 0.7, 2, H_uniform) == pytest.approx(0.7, abs=1e-12)


def test_demand_constant_above_pool(F, H_uniform, U4):
    curve = DemandCurve(U4, 2, H_uniform)
    upper = (1 - U4.cdf_left(0.7) ** 2) / (2 * (1 - U4.cdf_left(0.7)))
    for x in (0.7, 0.8, 0.95, 1.0):
        assert curve.value(x) == pytest.approx(upper, abs=1e-12)


def test_demand_nondecreasing(F, H_uniform, U4):
    curve = DemandCurve(U4, 2, H_uniform)
    xs = np.linspace(0, 1, 257)
    vals = [curve.value(float(x)) for x in xs]
    assert all(b >= a - 1e-11 for a, b in zip(vals[:-1], vals[1:]))


def test_partial_purchase_region_affine_under_uniform_costs(F, H_uniform, U4):
    curve = DemandCurve(U4, 2, H_uniform)
    v = [curve.value(x) for x in (0.45, 0.55, 0.65)]
    assert v[1] == pytest.approx(0.5 * (v[0] + v[2]), abs=1e-12)


def test_margins_examples(F, H_uniform, U4):
    ext, inten = demand_margins(U4, 0.55, 2, H_uniform)
    assert inten == pytest.approx(0.0, abs=1e-14)  # flat conjecture piece
    assert ext == pytest.approx(0.6 * (1 / 0.18) * 0.3, rel=1e-12)
    # both margins die out at the top under full disclosure
    e1, i1 = demand_margins(F, 0.98, 2, H_uniform)
    e2, i2 = demand_margins(F, 0.999, 2, H_uniform)
    assert e1 < 0.02 and i1 < 0.02
    assert e2 < e1 and i2 < i1


def test_margins_match_finite_differences(F, H_uniform, H_bimodal, U4):
    cases = [
        (U4, 2, H_uniform, [0.45, 0.55, 0.65]),
        (F, 2, H_uniform, [0.7, 0.85, 0.95]),
        (F, 5, H_bimodal, [0.8, 0.9]),
    ]
    for G, n, H, xs in cases:
        curve = DemandCurve(G, n, H)
        for x in xs:
            h = 1e-6
            fd = (curve.value(x + h) - curve.value(x - h)) / (2 * h)
            total = sum(curve.margins(x))
            assert total == pytest.approx(fd, rel=1e-5, abs=1e-5)


def test_expected_payoff_examples(F, H_uniform, U4):
    assert expected_payoff(U4, U4, 2, H_uniform) == pytest.approx(0.5, abs=1e-12)
    atom = PiecewisePolyDist.point_mass(0.7)
    expect = (1 - 0.4**2) / (2 * (1 - 0.4))  # visit probability at the pool
    assert expected_payoff(atom, U4, 2, H_uniform) == pytest.approx(expect, abs=1e-12)
    zero = PiecewisePolyDist.point_mass(0.0)
    assert expected_payoff(zero, U4, 2, H_uniform) == pytest.approx(0.0, abs=1e-12)


def _random_contraction(F, rng):
    """Pool a few random subintervals of the prior to their conditional
    means: always a mean-preserving contraction with atoms and gaps."""
    cuts = np.sort(rng.uniform(0.05, 0.95, size=rng.integers(1, 4) * 2))
    breaks = [0.0]
    coefs = []
    atoms = []
    pos = 0.0
    for lo, hi in zip(cuts[::2], cuts[1::2]):
        if hi - lo < 0.03:
            continue
        breaks.append(float(lo))
        coefs.append(np.array([1.0]))
        mass = F.cdf(hi) - F.cdf(lo)
        bary = (truncated_mean_above(F, lo) * (1 - F.cdf(lo)) - truncated_mean_above(F, hi) * (1 - F.cdf(hi))) / mass
        breaks.append(float(hi))
        coefs.append(np.zeros(1))
        atoms.append((float(bary), float(mass)))
        pos = hi
    breaks.append(1.0)
    coefs.append(np.array([1.0]))
    return PiecewisePolyDist(breaks, coefs, atoms=atoms)


def test_payoff_identity_battery(F, H_uniform, H_bimodal):
    rng = np.random.default_rng(42)
    for k in range(6):
        G = _random_contraction(F, rng)
        ok, _ = mpc_check(G, F)
        assert ok
        for n, H in ((2, H_uniform), (5, H_bimodal)):
            assert abs(expected_payoff(G, G, n, H) - 1 / n) <= 1e-10


def test_payoff_identity_named_cases(F, H_uniform, U4):
    delta = upper_censorship(F, 0.0)
    assert abs(expected_payoff(delta, delta, 3, H_uniform) - 1 / 3) <= 1e-10
    assert abs(expected_payoff(U4, U4, 2, H_uniform) - 1 / 2) <= 1e-10
    assert abs(expected_payoff(F, F, 2, H_uniform) - 1 / 2) <= 1e-10


def test_tie_value_at_interior_atom(F, H_uniform):
    # pooling [0.2, 0.4] to its barycenter leaves an interior atom; the
    # demand there must sit strictly between the one-sided limits
    rng = np.random.default_rng(1)
    G = _random_contraction(F, rng)
    assert len(G.atom_locs)
    x0 = float(G.atom_locs[0])
    curve = DemandCurve(G, 3, H_uniform)
    left = curve.value(x0, side=-1)
    right = curve.value(x0, side=+1)
    mid = curve.value(x0)
    assert left - 1e-12 <= mid <= right + 1e-12
    assert right > left


def test_tie_window_off_the_atom():
    # within atom_mass_at's 1e-12 window but off the atom, G(x-) = G(x): the
    # tie value there is the one-sided max-win value, not 0
    G = PiecewisePolyDist([0.0, 0.5, 1.0], [np.array([0.8]), np.array([0.8])], atoms=[(0.5, 0.2)])
    curve = DemandCurve(G, 2, PiecewisePolyDist.uniform(0.0, 0.05))
    assert curve.value(0.5 - 5e-13) == pytest.approx(0.4, abs=1e-11)
    assert curve.value(0.5 + 5e-13) == pytest.approx(0.6, abs=1e-11)
    assert curve.value(0.5) == pytest.approx(0.5, abs=1e-12)  # (0.6^2 - 0.4^2) / (2 * 0.2)


@pytest.mark.parametrize("n", [2, 3, 5, 50, 200])
def test_power_sums_match_mpmath(F, n):
    """The visit probability, search length, tie value and jump within n eps
    (relative), and the jump's slope within n^2 eps (absolute), of 200-bit
    references, up to g = 1 - 1e-15."""
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    gs = [0.0, *np.random.default_rng(7).uniform(0.0, 1.0, 40), *(1.0 - 10.0**-k for k in range(1, 16))]

    def rel(got, ref):
        return abs(mpmath.mpf(got) - ref) / ref if ref else abs(got)

    with mpmath.workprec(200):
        def psum(lo, hi, m):
            lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
            return mpmath.fsum(hi**k * lo ** (m - 1 - k) for k in range(m))

        def jump(g):
            g = mpmath.mpf(g)
            return (1 - g) / n * mpmath.fsum((m + 1) * g**m for m in range(n - 1))

        for g in gs:
            assert rel(power_sum(g, 1.0, n) / n, psum(g, 1.0, n) / n) <= n * eps, g
            Fg = F.cdf(g)
            assert rel(expected_search_length(F, g, n), psum(Fg, 1.0, n)) <= n * eps, g
            for hi in (g + (1.0 - g) * 1e-9, g + (1.0 - g) / 2, 1.0):
                tie = psum(g, hi, n) / n
                if hi > g and tie > 1e-300:  # not an underflow
                    assert rel(power_sum(g, hi, n) / n, tie) <= n * eps, (g, hi)
            J, dJ = pooled_jump(g, n)
            assert rel(J, jump(g)) <= n * eps, g
            # visit(G(x-)) - G(x)^(n-1); cdf_left snaps onto the top within 1e-14
            gl, gr = mpmath.mpf(F.cdf_left(g)), mpmath.mpf(F.cdf(g))
            assert rel(jump_size(F, g, n), jump(gl) - (gr - gl) * psum(gl, gr, n - 1)) <= n * eps, g
            assert abs(dJ - mpmath.diff(jump, mpmath.mpf(g))) <= n * n * eps, g
    assert pooled_jump(1.0, n) == (0.0, -(n - 1) / 2)
    assert jump_size(F, 1.0, n) == 0.0 and power_sum(1.0, 1.0, n) == n


# -- array queries against the per-point formulas they replaced ---------------
#
# The point-by-point bodies below are the reference.  Every query must return
# the same bits for an array, and for a scalar, as the reference does point
# by point, the Gauss-Legendre sums included (each point keeps its own dot
# product).


def _ref_stop_piece(curve, lo, hi):
    if hi <= lo:
        return 0.0
    xg, wg = gauss_nodes(nodes_for_degree(curve._gl_deg))
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return float(half * np.dot(wg, curve._stop_integrand(mid + half * xg)))


@functools.lru_cache(maxsize=None)
def _ref_cum(curve):
    cum = np.zeros(len(curve.x_breaks))
    for i in range(len(cum) - 1):
        cum[i + 1] = cum[i] + _ref_stop_piece(curve, curve.x_breaks[i], curve.x_breaks[i + 1])
    return cum


def _ref_cutoff_cost(curve, x):
    G = curve.G
    return G.tail_gap(x) if x >= G.support_lo else mean(G) - x


def _ref_stop(curve, x):
    out = 0.0
    if x > curve.r_lo:
        xe = min(x, curve.r_hi)
        i = int(np.clip(np.searchsorted(curve.x_breaks, xe, side="right") - 1, 0, len(curve.x_breaks) - 2))
        out = float(_ref_cum(curve)[i] + _ref_stop_piece(curve, curve.x_breaks[i], xe))
    if curve._cost_atoms:
        cg = _ref_cutoff_cost(curve, x)
        out += sum(v for c0, v in curve._cost_atoms if c0 >= cg - 1e-12)
    return out


def _ref_atom_mass(G, x):
    # the atoms on the breakpoint x sits on: the first at or above x, when x
    # lies in the support within 1e-14 of it
    if not len(G.atom_locs) or not G.breaks[0] <= x <= G.breaks[-1]:
        return 0.0
    j = int(np.searchsorted(G.breaks, x))
    if G.breaks[j] - x > 1e-14:
        return 0.0
    return float(G.atom_masses[np.abs(G.atom_locs - G.breaks[j]) <= 1e-14].sum())


def _ref_max_win(curve, x, side):
    G, n = curve.G, curve.n
    alpha = _ref_atom_mass(G, x)
    if side == 0 and alpha > 0:  # an atom is a point of positive mass
        return power_sum(G.cdf_left(x), G.cdf(x), n) / n
    g = G.cdf_left(x) if side < 0 else G.cdf(x)
    return g ** (n - 1)


def _ref_continue(curve, x):
    H = curve.H
    cg = _ref_cutoff_cost(curve, x)
    if cg <= 1e-15:
        return H.cdf(H.support_lo) if len(H.atom_locs) else 0.0
    return H.cdf_left(cg)


def _ref_value(curve, x, side=0):
    return _ref_max_win(curve, x, side) * _ref_continue(curve, x) + _ref_stop(curve, x)


def _ref_jump(G, x, n):
    gl = G.cdf_left(x)
    gr = G.cdf(x)
    return pooled_jump(gl, n)[0] - (gr - gl) * power_sum(gl, gr, n - 1)


def _ref_snap(value, knots, tol=1e-9):
    j = int(np.argmin(np.abs(knots - value)))
    return float(knots[j]) if abs(knots[j] - value) <= tol else value


def _ref_margins(curve, x, side):
    G, H, n = curve.G, curve.H, curve.n
    g = G.cdf_left(x) if side < 0 else G.cdf(x)
    gdens = G.pdf(x, side=side)
    cg = _ref_snap(_ref_cutoff_cost(curve, x), H.breaks)
    inside = curve.r_lo < x < curve.r_hi
    hd = H.pdf(cg, side=-side if cg < curve.cbar else -1) if inside else 0.0
    extensive = (1.0 - g) * hd * _ref_jump(G, x, n) if inside else 0.0
    hfrac = H.cdf_left(cg) if cg > 1e-15 else 0.0
    intensive = (n - 1) * g ** (n - 2) * gdens * hfrac
    return float(extensive), float(intensive)


def _ref_second_derivative(curve, x, side):
    G, H, n = curve.G, curve.H, curve.n
    u = G.cdf(x)
    g = G.pdf(x, side=side)
    gp = G.pdf_derivative(x, side=side)
    cg = _ref_cutoff_cost(curve, x)
    inside = 0 < cg < curve.cbar
    Hc = H.cdf_left(cg) if cg > 1e-15 else 0.0
    hc = H.pdf(cg, side=-side) if inside else (H.pdf(curve.cbar, side=-1) if cg >= curve.cbar else 0.0)
    hpc = H.pdf_derivative(cg, side=-side) if inside else 0.0
    if cg >= curve.cbar:
        Hc, hc, hpc = 1.0, 0.0, 0.0
    J, dJdu = pooled_jump(u, n)
    pow3 = (n - 1) * (n - 2) * u ** (n - 3) if n > 2 else 0.0
    return float(
        -g * hc * J
        - (1.0 - u) ** 2 * hpc * J
        + (1.0 - u) * hc * g * dJdu
        + pow3 * g**2 * Hc
        + (n - 1) * u ** (n - 2) * gp * Hc
        - (n - 1) * u ** (n - 2) * g * hc * (1.0 - u)
    )


def _ref_expected_payoff(G_dev, curve, n):
    total = 0.0
    for a, m in zip(G_dev.atom_locs, G_dev.atom_masses):
        if m > 0:
            total += m * _ref_value(curve, float(a))
    lo0, hi0 = G_dev.breaks[0], G_dev.breaks[-1]
    cuts = set(G_dev.breaks)
    cuts.update(float(b) for b in curve.x_breaks if lo0 < b < hi0)
    cuts.update(float(b) for b in curve.G.breaks if lo0 < b < hi0)
    cuts.update(float(a) for a in curve.G.atom_locs if lo0 < a < hi0)
    cuts = sorted(cuts)
    xg, wg = gauss_nodes(curve.integral_nodes(G_dev))
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo < 1e-15:
            continue
        coefs = G_dev.coefs[G_dev._locate(0.5 * (lo + hi))[2]]
        if np.max(np.abs(coefs)) == 0.0:
            continue
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        ts = mid + half * xg
        dvals = np.array([_ref_value(curve, float(t)) for t in ts])
        total += half * float(np.dot(wg, npoly.polyval(ts, coefs) * dvals))
    return float(total)


def _cost_law_with_atoms():
    # atoms at the bottom (zero-cost consumers), at a breakpoint and at the top
    return PiecewisePolyDist([0.0, 0.06, 0.18], [np.array([5.0]), np.array([2.5])],
                             atoms=[(0.0, 0.1), (0.06, 0.2), (0.18, 0.1)])


def _demand_cases(F, F_tilted, H_uniform, H_bimodal):
    H_atoms = _cost_law_with_atoms()
    contraction = _random_contraction(F, np.random.default_rng(1))
    return {
        "pool-uniform": (upper_censorship(F, 0.4), H_uniform),
        "pool-atoms": (upper_censorship(F, 0.4), H_atoms),
        "pool-tilted-bimodal": (upper_censorship(F_tilted, 0.3), H_bimodal),
        "no-disclosure": (upper_censorship(F, 0.0), H_uniform),
        "contraction-atoms": (contraction, H_atoms),
        "full-atoms": (F, H_atoms),
    }


def _curve_points(curve):
    G = curve.G
    marks = np.concatenate([curve.x_breaks, [curve.r_lo, curve.r_hi], G.breaks, G.atom_locs])
    pts = [-0.1, 0.0, 1.0, 1.2]
    for b in marks:
        pts += [b, b - 1e-14, b - 4e-15, b + 4e-15, b + 1e-14,
                np.nextafter(b, -np.inf), np.nextafter(b, np.inf)]
    pts += list(np.linspace(-0.05, 1.05, 41)) + list(np.random.default_rng(3).uniform(0.0, 1.0, 100))
    return np.array(pts)


def _same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@pytest.mark.parametrize("n", [2, 5, 50])
@pytest.mark.parametrize("case", ["pool-uniform", "pool-atoms", "pool-tilted-bimodal",
                                  "no-disclosure", "contraction-atoms", "full-atoms"])
def test_array_queries_match_point_formulas(case, n, F, F_tilted, H_uniform, H_bimodal):
    G, H = _demand_cases(F, F_tilted, H_uniform, H_bimodal)[case]
    curve = DemandCurve(G, n, H)
    xs = _curve_points(curve)
    queries = {
        "cutoff_cost": (curve.cutoff_cost, lambda x: _ref_cutoff_cost(curve, x)),
        "continue_fraction": (curve.continue_fraction, lambda x: _ref_continue(curve, x)),
        "atom_mass_at": (G.atom_mass_at, lambda x: _ref_atom_mass(G, x)),
        "jump_size": (lambda x: jump_size(G, x, n), lambda x: _ref_jump(G, x, n)),
    }
    for side in (-1, 0, 1):
        queries[f"max_win_prob{side:+d}"] = (lambda x, s=side: curve.max_win_prob(x, s),
                                           lambda x, s=side: _ref_max_win(curve, x, s))
    for side in (-1, 1):
        for k, part in enumerate(("extensive", "intensive")):
            queries[f"{part}{side:+d}"] = (lambda x, s=side, k=k: curve.margins(x, s)[k],
                                         lambda x, s=side, k=k: _ref_margins(curve, x, s)[k])
        queries[f"second_derivative{side:+d}"] = (
            lambda x, s=side: demand_second_derivative(curve, x, s),
            lambda x, s=side: _ref_second_derivative(curve, x, s))
    queries["stop_component"] = (curve.stop_component, lambda x: _ref_stop(curve, x))
    for side in (-1, 0, 1):
        queries[f"value{side:+d}"] = (lambda x, s=side: curve.value(x, s),
                                      lambda x, s=side: _ref_value(curve, x, s))
    for name, (query, ref) in queries.items():
        expect = np.array([ref(float(x)) for x in xs])
        scalars = [query(float(x)) for x in xs[::3]]
        assert all(type(v) is float for v in scalars), name
        assert _same_bits(scalars, expect[::3]), name
        assert _same_bits(query(xs), expect), name
        assert _same_bits(query(xs[:, None]), expect[:, None]), name


@pytest.mark.parametrize("case", ["pool-atoms", "pool-tilted-bimodal", "contraction-atoms"])
def test_expected_payoff_matches_point_formula(case, F, F_tilted, H_uniform, H_bimodal):
    G, H = _demand_cases(F, F_tilted, H_uniform, H_bimodal)[case]
    for n in (2, 5):
        curve = DemandCurve(G, n, H)
        for G_dev in (G, F, PiecewisePolyDist.point_mass(0.55)):
            got = expected_payoff(G_dev, G, n, H, curve=curve)
            assert _same_bits(got, _ref_expected_payoff(G_dev, curve, n))


def test_certificate_matches_point_formula(F, H_uniform):
    curve = DemandCurve(upper_censorship(F, 0.4), 2, H_uniform)
    cases = [
        ([0.0, 0.4, 0.7], [True, False]),
        ([0.1, 0.4, 0.7, 0.9], [True, False, True]),
        ([0.55], []),
    ]
    for knots, follows in cases:
        cert = _Certificate(knots, follows, curve)
        xs = np.array([-0.1, 0.05, 0.3, 0.5, 0.65, 0.8, 1.3]
                      + [e + d for e in knots for d in (-1e-14, -4e-15, 0.0, 4e-15, 1e-14)])
        expect = np.array([_ref_certificate(cert, float(x)) for x in xs])
        scalars = [cert.value(float(x)) for x in xs]
        assert all(type(v) is float for v in scalars)
        assert _same_bits(scalars, expect)
        assert _same_bits(cert.value(xs), expect)


def _ref_certificate(cert, x):
    knots = cert.knots.tolist()
    vals = [_ref_value(cert.curve, k) for k in knots]
    if x <= knots[0]:
        return vals[0]
    if x >= knots[-1]:
        if not len(cert.follows):
            s = 0.0
        elif cert.follows[-1]:
            s = sum(_ref_margins(cert.curve, knots[-1], -1))
        else:
            s = (vals[-1] - vals[-2]) / (knots[-1] - knots[-2])
        return vals[-1] + s * (x - knots[-1])
    for lo, hi, v0, v1, follows in zip(knots, knots[1:], vals, vals[1:], cert.follows):
        if lo - 1e-14 <= x <= hi + 1e-14:  # the first interval holding x
            if follows:
                return _ref_value(cert.curve, x)
            t = (x - lo) / (hi - lo)
            return v0 + t * (v1 - v0)
    raise AssertionError("knot intervals must cover the knots' span")


def test_scans_do_not_call_per_point(monkeypatch, F, H_bimodal):
    """The certificate scans and the LP objective evaluate demand and the
    distributions in array calls: the number of calls (demand values, and
    scalar cdf/pdf/tail queries) does not grow with the grids."""
    counts = collections.Counter()

    def counting(name, fn):
        def wrapped(self, x, *args, **kwargs):
            if name == "value" or np.ndim(x) == 0:
                counts[name] += 1
            return fn(self, x, *args, **kwargs)
        return wrapped

    for name in ("cdf", "pdf", "tail_gap", "cdf_vec", "pdf_vec", "tail_vec"):
        monkeypatch.setattr(PiecewisePolyDist, name, counting(name, getattr(PiecewisePolyDist, name)))
    monkeypatch.setattr(DemandCurve, "value", counting("value", DemandCurve.value))

    def verify_counts(scale):
        monkeypatch.setattr(demand, "CURVATURE_GRID", 512 * scale)
        monkeypatch.setattr(censorship, "MARGIN_GRID", 257 * scale)
        counts.clear()
        censorship.verify_uce(F, H_bimodal, 0.3, 5)
        return dict(counts)

    def problem_counts(grid_n):
        counts.clear()
        build_problem(upper_censorship(F, 0.3), F, H_bimodal, 5, grid_n)
        return dict(counts)

    assert verify_counts(1) == verify_counts(2)
    assert problem_counts(201) == problem_counts(401)


def test_one_cutoff_inversion_per_curve(monkeypatch, F, H_bimodal):
    """A demand curve inverts its cost top, inner cost breakpoints and cost
    atoms in one call, the LP grid its cost quantiles in one more, and the
    iteration reads the segment tables, calling ``tail_gap`` only once for
    the tails at the breakpoints."""
    counts = collections.Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for module in (demand, oracle):
        monkeypatch.setattr(module, "reservation_value", counting("invert", module.reservation_value))
    H_atoms = PiecewisePolyDist(H_bimodal.breaks, H_bimodal.coefs[:3] + [H_bimodal.coefs[3] / 2],
                                atoms=[(0.12, 0.01), (0.2, 0.01)])
    U3 = upper_censorship(F, 0.3)
    for H in (H_bimodal, H_atoms):
        counts.clear()
        DemandCurve(U3, 5, H)
        assert counts["invert"] == 1
        counts.clear()
        build_problem(U3, F, H, 5, 201)
        assert counts["invert"] == 2
    monkeypatch.setattr(PiecewisePolyDist, "tail_gap", counting("tail", PiecewisePolyDist.tail_gap))
    for c in (0.05, np.linspace(0.01, 0.2, 9)):
        counts.clear()
        demand.reservation_value(U3, c)
        assert counts["tail"] == 1  # the tails at the breakpoints


def _degree_corpus(F, F_tilted, H_uniform, H_convex):
    """Priors of density degree 0-3 (the quadratic one with an atom) and costs
    of density degree 0-3, each law's degree as its key."""
    priors = {
        0: F,
        1: F_tilted,
        2: PiecewisePolyDist([0.0, 1.0], [np.array([0.0, 4.8, -4.8])], atoms=[(0.25, 0.2)]),
        3: PiecewisePolyDist([0.0, 0.5, 1.0], [np.array([0.0, 0.0, 12.0, -12.0])] * 2),
    }
    costs = {
        0: H_uniform,
        1: H_convex,
        2: quasi_convex_pair()[0],
        3: PiecewisePolyDist([0.0, 0.2], [np.array([0.0, 0.0, 0.0, 4.0 / 0.2**4])]),
    }
    return priors, costs


def _degree_cases(priors, costs):
    for d_F, prior in priors.items():
        for d_H, H in costs.items():
            for n in (2, 5, 50):
                for a in (0.3, 0.6):
                    yield (d_F, d_H, n, a), prior, H, n, a


def _sized_integrals(prior, H, n, a):
    """D on a grid, the payoff of G and of the prior against G = the prior
    censored at a, the certificate integral against both, and the best-of-n
    value of the prior below a and in full."""
    G = upper_censorship(prior, a)
    curve = DemandCurve(G, n, H)
    cert = _Certificate([0.1, a, 0.9], [True, False], curve)
    return {
        "D": curve.value(np.linspace(0.0, 1.0, 201)),
        "payoff": np.array([expected_payoff(W, G, n, H, curve=curve) for W in (G, prior)]),
        "certificate": np.array([censorship._integrate_certificate(cert, W) for W in (G, prior)]),
        "best_of_n": np.array([welfare._value_of_best_of_n(prior, m, n) for m in (a, 1.0)]),
    }


def test_density_degrees_size_rules_as_exactly_as_the_cubic_rule(
    F, F_tilted, H_uniform, H_convex, monkeypatch
):
    """Every rule sized by the laws' degrees agrees with the rule sized for
    cubic densities, which covers every law here: D, the payoffs and the
    certificate integrals within 8 ulps relative, the best-of-n value (a
    sum over n F^(n-1)) within 8 + n."""
    priors, costs = _degree_corpus(F, F_tilted, H_uniform, H_convex)
    assert [law.density_degree() for law in (*priors.values(), *costs.values())] == [0, 1, 2, 3] * 2
    cases = list(_degree_cases(priors, costs))
    sized = [_sized_integrals(*args) for _, *args in cases]
    monkeypatch.setattr(PiecewisePolyDist, "density_degree", lambda self: 3)
    eps = np.finfo(float).eps
    for (key, *args), got in zip(cases, sized):
        cubic = _sized_integrals(*args)
        n = key[2]
        for name, vals in got.items():
            ulps = 8 + n if name == "best_of_n" else 8
            assert np.all(np.abs(vals - cubic[name]) <= ulps * eps * np.abs(cubic[name])), (key, name)


def test_stop_integral_on_uniform_laws_takes_n_over_2_nodes(F, H_uniform, monkeypatch):
    """On the uniform prior censored at 0.4 with costs U[0, 0.18] at n = 50 the
    stop integrand has degree n = 50 on every cut piece: 26 nodes, where the
    cubic-density bound 4n + 16 took 109.  The payoff adds one degree (26)
    and the best-of-n value of the prior has degree n (26)."""
    sizes = []
    rule = demand.gauss_legendre

    def spy(f, lo, hi, npts):
        sizes.append(npts)
        return rule(f, lo, hi, npts)

    monkeypatch.setattr(demand, "gauss_legendre", spy)
    curve = DemandCurve(upper_censorship(F, 0.4), 50, H_uniform)
    curve.value(np.linspace(0.0, 1.0, 11))
    assert sizes and set(sizes) == {26}
    assert curve._gl_deg == 50
    assert curve.integral_nodes(curve.G) == curve.integral_nodes(F) == 26
    assert welfare._best_of_n_nodes(F, 50) == 26


def test_payoff_identity_on_the_degree_corpus(F, F_tilted, H_uniform, H_convex):
    """A strategy against itself earns 1/n: max |n payoff - 1| over the
    corpus is no worse than the 1.55e-15 (7 ulps) it read with every rule
    sized for cubic densities (stop integral 4n + 16, payoff 4n + 19)."""
    priors, costs = _degree_corpus(F, F_tilted, H_uniform, H_convex)
    worst = 0.0
    for _, prior, H, n, a in _degree_cases(priors, costs):
        G = upper_censorship(prior, a)
        worst = max(worst, abs(n * expected_payoff(G, G, n, H) - 1.0))
    assert worst <= 7 * np.finfo(float).eps
