"""Distribution calculus: means, incremental benefit, reservation values,
truncated means, contraction checks, serialization."""

import sys

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from censearch import _poly
from censearch import dists as dists_module
from censearch.dists import (
    MarketConfig,
    PiecewisePolyDist,
    dist_from_json,
    incremental_benefit,
    mean,
    mpc_check,
    reservation_value,
    truncated_mean_above,
)
from censearch.censorship import upper_censorship
from censearch.demand import expected_payoff

from conftest import tail_noise


def test_mean_examples(F):
    assert mean(F) == pytest.approx(0.5, abs=1e-14)
    assert mean(PiecewisePolyDist.point_mass(0.5)) == pytest.approx(0.5, abs=1e-12)
    rising = PiecewisePolyDist([0, 1], [np.array([0.0, 2.0])])
    assert mean(rising) == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_incremental_benefit_examples(F):
    assert incremental_benefit(F, 0.0) == pytest.approx(0.5, abs=1e-14)
    assert incremental_benefit(F, 0.5) == pytest.approx(0.125, abs=1e-14)
    delta = PiecewisePolyDist.point_mass(0.5)
    assert incremental_benefit(delta, 0.3) == pytest.approx(0.2, abs=1e-12)


def test_reservation_value_examples(F):
    delta = PiecewisePolyDist.point_mass(0.5)
    assert reservation_value(delta, 0.1) == pytest.approx(0.4, abs=1e-10)
    assert reservation_value(F, 0.125) == pytest.approx(0.5, abs=1e-10)
    Ua = upper_censorship(F, 0.4)  # c_F(0.4) = 0.18
    assert reservation_value(Ua, 0.18) == pytest.approx(0.4, abs=1e-9)
    with pytest.raises(ValueError, match="exceeds prior mean"):
        reservation_value(F, 0.6)
    with pytest.raises(ValueError, match="exceeds prior mean"):
        reservation_value(F, np.array([0.1, 0.6]))


def test_truncated_mean_examples(F):
    assert truncated_mean_above(F, 0.0) == pytest.approx(0.5, abs=1e-14)
    assert truncated_mean_above(F, 0.5) == pytest.approx(0.75, abs=1e-14)
    assert truncated_mean_above(F, 0.4) == pytest.approx(0.7, abs=1e-14)
    with pytest.raises(ValueError, match="empty upper tail"):
        truncated_mean_above(F, 1.0)


def test_truncated_mean_monotone(F, F_tilted):
    for prior in (F, F_tilted):
        mu = mean(prior)
        vals = [truncated_mean_above(prior, a) for a in np.linspace(0, 0.95, 20)]
        assert vals[0] == pytest.approx(mu, abs=1e-12)
        assert all(b >= a - 1e-12 for a, b in zip(vals[:-1], vals[1:]))


def test_mpc_check_examples(F):
    ok, viol = mpc_check(F, F)
    assert ok and viol <= 0.0 + 1e-15
    ok, viol = mpc_check(PiecewisePolyDist.point_mass(0.5), F)
    assert ok and viol <= 1e-12
    ok, viol = mpc_check(PiecewisePolyDist.point_mass(0.6), F)
    assert not ok and viol == np.inf


def test_upper_censorship_is_contraction(F, F_tilted):
    for prior in (F, F_tilted):
        for a in np.linspace(0.0, 1.0, 11):
            ok, viol = mpc_check(upper_censorship(prior, float(a)), prior)
            assert ok, f"a={a}: violation {viol}"


def test_incremental_benefit_shape(F, F_tilted):
    dists = [F, F_tilted, upper_censorship(F, 0.4), PiecewisePolyDist.point_mass(0.5)]
    for G in dists:
        mu = mean(G)
        xs = np.linspace(0.0, G.max_supp(), 64)
        vals = np.array([incremental_benefit(G, float(x)) for x in xs])
        assert vals[0] == pytest.approx(mu - xs[0], abs=1e-12)
        assert incremental_benefit(G, G.max_supp()) == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.diff(vals) <= 1e-12)  # decreasing
        second = np.diff(vals, 2)
        assert np.min(second) >= -1e-10  # convex


def test_reservation_inverts_benefit(F, F_tilted):
    for G in (F, F_tilted, upper_censorship(F, 0.35)):
        lo, hi = G.min_supp(), G.max_supp()
        for x in np.linspace(lo + 1e-3, hi - 1e-3, 17):
            c = incremental_benefit(G, float(x))
            if c <= 1e-12:
                continue
            assert reservation_value(G, c) == pytest.approx(float(x), abs=1e-8)


def test_validation_rejects_bad_inputs():
    with pytest.raises(ValueError, match="total mass"):
        PiecewisePolyDist([0, 1], [np.array([0.5])])
    with pytest.raises(ValueError, match="negative"):
        PiecewisePolyDist([0, 1], [np.array([2.0, -3.0])], atoms=[(1.0, 0.5)])
    with pytest.raises(ValueError, match="strictly increasing"):
        PiecewisePolyDist([0, 0, 1], [np.zeros(1), np.ones(1)])
    with pytest.raises(ValueError, match="duplicate atom"):
        PiecewisePolyDist([0, 1], [np.zeros(1)], atoms=[(0.5, 0.5), (0.5, 0.5)])


def test_market_config_validation(F, H_uniform):
    mc = MarketConfig(F, H_uniform, 2)
    assert mc.mu == pytest.approx(0.5) and mc.cbar == pytest.approx(0.18)
    with pytest.raises(ValueError, match="below the prior mean"):
        MarketConfig(F, PiecewisePolyDist.uniform(0, 0.6), 2)
    with pytest.raises(ValueError, match="n >= 2"):
        MarketConfig(F, H_uniform, 1)
    gapped = PiecewisePolyDist([0, 0.5, 1.0], [np.array([2.0]), np.zeros(1)])
    with pytest.raises(ValueError, match="positive density"):
        MarketConfig(gapped, H_uniform, 2)


def test_json_roundtrip_and_kinds(F, H_bimodal):
    spec = H_bimodal.to_json()
    back = dist_from_json(spec)
    for c in np.linspace(0, 0.25, 40):
        assert back.cdf(float(c)) == pytest.approx(H_bimodal.cdf(float(c)), abs=1e-14)
    uni = dist_from_json({"kind": "uniform", "support": [0, 0.18]})
    assert mean(uni) == pytest.approx(0.09)
    atoms = dist_from_json({"kind": "atoms", "support": [0, 1], "atoms": [{"at": 0.5, "mass": 1.0}]})
    assert mean(atoms) == pytest.approx(0.5)
    mix = dist_from_json(
        {
            "kind": "mixture",
            "components": [
                {"weight": 0.5, "kind": "uniform", "support": [0, 0.18]},
                {"weight": 0.5, "kind": "poly-pieces", "support": [0, 0.18],
                 "pieces": [{"to": 0.18, "coef": [0.0, 2.0 / 0.18**2]}]},
            ],
        }
    )
    assert mix.pdf(0.01) == pytest.approx(0.5 / 0.18 + 0.5 * 2 * 0.01 / 0.18**2, abs=1e-12)
    with pytest.raises(ValueError, match="unknown distribution kind"):
        dist_from_json({"kind": "cauchy"})


def test_atom_next_to_a_breakpoint_sits_on_it(H_uniform):
    # from either side, with no sliver segment; the queries at the atom then
    # see its jump, and the payoff identity holds
    for x in (0.5 + 1e-15, 0.5 - 1e-15):
        d = PiecewisePolyDist([0, 0.5, 1], [[0.0], [1.8]], atoms=[(x, 0.1)])
        assert d.breaks.tolist() == [0.0, 0.5, 1.0], x
        assert d.atom_locs.tolist() == [0.5], x
        assert d.cdf_left(0.5) == 0.0 and d.cdf(0.5) == pytest.approx(0.1, abs=1e-15)
    # two atoms closer than 1e-14 merge into one
    d = PiecewisePolyDist([0.0, 1.0], [np.array([0.8])], atoms=[(0.0, 0.15), (1.1e-308, 0.05)])
    assert d.breaks.tolist() == [0.0, 1.0] and d.atom_locs.tolist() == [0.0]
    assert d.atom_masses == pytest.approx([0.2], abs=1e-16)
    for G in (d, PiecewisePolyDist([0, 0.5, 1], [[0.8], [0.8]], atoms=[(0.5 - 1e-15, 0.2)])):
        for n in (2, 5):
            assert abs(expected_payoff(G, G, n, H_uniform) - 1 / n) <= 1e-10


def test_atoms_load_in_any_listed_order():
    # the support ends come from the smallest and largest atom, wherever listed
    atoms = [{"at": 0.7, "mass": 0.4}, {"at": 0.2, "mass": 0.6}]
    for support in ({}, {"support": [0.3, 1]}):
        listed = dist_from_json({"kind": "atoms", "atoms": atoms, **support})
        ordered = dist_from_json({"kind": "atoms", "atoms": atoms[::-1], **support})
        assert listed.to_json() == ordered.to_json()
        assert mean(listed) == pytest.approx(0.4 * 0.7 + 0.6 * 0.2, abs=1e-12)


def test_quantile_cdf_consistency(F, H_bimodal):
    Ua = upper_censorship(F, 0.4)
    for d in (F, H_bimodal, Ua):
        us = np.linspace(1e-6, 1 - 1e-9, 301)
        xs = d.quantile(us)
        assert np.all(np.diff(xs) >= -1e-12)
        for u, x in zip(us[::25], xs[::25]):
            assert d.cdf(float(x)) >= u - 1e-9
            assert d.cdf_left(float(x)) <= u + 1e-9


# -- the table path against the per-call formulas ------------------------------
#
# The reference below integrates each density piece with npoly.polyint on every
# call and evaluates with npoly.polyval, the way every query used to.  The
# precomputed tables must reproduce it bit for bit.


def _cubic_law(pieces=11, seed=5):
    rng = np.random.default_rng(seed)
    breaks = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, pieces - 1)), [1.0]])
    coefs = []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        c = rng.normal(size=4) * np.array([1.0, 2.0, 4.0, 8.0])
        xs = np.linspace(lo, hi, 257)
        c[0] += 0.2 - min(0.0, npoly.polyval(xs, c).min())  # positive on the piece
        coefs.append(c)
    mass = sum(npoly.polyval(hi, npoly.polyint(c)) - npoly.polyval(lo, npoly.polyint(c))
               for lo, hi, c in zip(breaks[:-1], breaks[1:], coefs))
    return PiecewisePolyDist(breaks, [c / mass for c in coefs])


def _atom_law():
    # atoms at the support ends, at a breakpoint (0.3) and inside a piece (0.45)
    atoms = [(0.0, 0.05), (0.3, 0.1), (0.45, 0.15), (1.0, 0.1)]
    dens = [np.array([0.6, 1.0]), np.array([0.9]), np.array([1.2, -0.6, 0.3, -0.1])]
    breaks = [0.0, 0.3, 0.6, 1.0]
    mass = sum(npoly.polyval(hi, npoly.polyint(c)) - npoly.polyval(lo, npoly.polyint(c))
               for lo, hi, c in zip(breaks[:-1], breaks[1:], dens))
    scale = (1.0 - sum(m for _, m in atoms)) / mass
    return PiecewisePolyDist(breaks, [c * scale for c in dens], atoms=atoms)


def _laws():
    cubic = _cubic_law()
    return {"cubic": cubic, "atoms": _atom_law(), "censored": upper_censorship(cubic, 0.55),
            "uniform": PiecewisePolyDist.uniform(0.0, 0.18)}


def _probe_points(d):
    rng = np.random.default_rng(11)
    lo, hi = d.support_lo, d.support_hi
    pts = [lo - 0.25, lo - 1e-9, hi + 1e-15, hi + 1e-9, hi + 0.25]
    for b in d.breaks:
        pts += [b, b - 1e-14, b - 4e-15, b - 1e-15, b + 1e-15, b + 4e-15, b + 1e-14,
                np.nextafter(b, -np.inf), np.nextafter(b, np.inf)]
    pts += list(rng.uniform(lo, hi, 200))
    return np.array(pts)


def _ref_seg(d, x):
    i = int(np.searchsorted(d.breaks, x, side="right") - 1)
    return min(max(i, 0), len(d.coefs) - 1)


def _ref_tables(d):
    nseg = len(d.coefs)
    seg_mass = np.empty(nseg)
    for i, c in enumerate(d.coefs):
        ci = npoly.polyint(c)
        seg_mass[i] = npoly.polyval(d.breaks[i + 1], ci) - npoly.polyval(d.breaks[i], ci)
    atom_at_break = np.zeros(nseg + 1)
    for a, m in zip(d.atom_locs, d.atom_masses):
        atom_at_break[int(np.argmin(np.abs(d.breaks - a)))] += m
    cdf = np.zeros(nseg + 1)
    cdf[0] = atom_at_break[0]
    for i in range(nseg):
        cdf[i + 1] = cdf[i] + seg_mass[i] + atom_at_break[i + 1]
    kint = np.zeros(nseg + 1)
    for i, c in enumerate(d.coefs):
        lo, hi = d.breaks[i], d.breaks[i + 1]
        ci = npoly.polyint(c)
        cii = npoly.polyint(ci)
        seg = (cdf[i] * (hi - lo) + (npoly.polyval(hi, cii) - npoly.polyval(lo, cii))
               - npoly.polyval(lo, ci) * (hi - lo))
        kint[i + 1] = kint[i] + seg
    tail = (d.breaks[-1] - d.breaks) - kint[-1] + kint
    return cdf, cdf - atom_at_break, kint, tail


def _ref_piece_cdf(d, x):
    cdf = _ref_tables(d)[0]
    i = _ref_seg(d, x)
    ci = npoly.polyint(d.coefs[i])
    return float(cdf[i] + npoly.polyval(x, ci) - npoly.polyval(d.breaks[i], ci))


def _ref_cdf(d, x):
    if x < d.breaks[0]:
        return 0.0
    if x >= d.breaks[-1]:
        return 1.0
    return _ref_piece_cdf(d, x)


def _ref_cdf_left(d, x):
    if x <= d.breaks[0]:
        return 0.0
    if x > d.breaks[-1]:
        return 1.0
    j = np.searchsorted(d.breaks, x)
    if j < len(d.breaks) and abs(d.breaks[j] - x) <= 1e-14:
        return float(_ref_tables(d)[1][j])
    return _ref_piece_cdf(d, x)


def _ref_density(d, x, side, deriv=False):
    if x < d.breaks[0] or x > d.breaks[-1]:
        return 0.0
    j = np.searchsorted(d.breaks, x)
    if j < len(d.breaks) and abs(d.breaks[j] - x) <= 1e-14:
        i = min(max(j if side > 0 else j - 1, 0), len(d.coefs) - 1)
    else:
        i = _ref_seg(d, x)
    c = d.coefs[i]
    if deriv:
        c = npoly.polyder(c) if len(c) > 1 else np.zeros(1)
    return float(npoly.polyval(x, c))


def _ref_cdf_integral(d, x):
    cdf, _, kint, _ = _ref_tables(d)
    if x <= d.breaks[0]:
        return 0.0
    if x >= d.breaks[-1]:
        return float(kint[-1] + (x - d.breaks[-1]))
    i = _ref_seg(d, x)
    lo = d.breaks[i]
    ci = npoly.polyint(d.coefs[i])
    cii = npoly.polyint(ci)
    part = (cdf[i] * (x - lo) + (npoly.polyval(x, cii) - npoly.polyval(lo, cii))
            - npoly.polyval(lo, ci) * (x - lo))
    return float(kint[i] + part)


def _ref_tail_gap(d, x):
    cdf, _, _, tail = _ref_tables(d)
    if x >= d.breaks[-1]:
        return 0.0
    if x <= d.breaks[0]:
        return float(tail[0] + (d.breaks[0] - x))
    i = _ref_seg(d, x)
    lo, hi = d.breaks[i], d.breaks[i + 1]
    ci = npoly.polyint(d.coefs[i])
    cii = npoly.polyint(ci)
    kpart = (cdf[i] * (hi - x) + (npoly.polyval(hi, cii) - npoly.polyval(x, cii))
             - npoly.polyval(lo, ci) * (hi - x))
    return float(tail[i + 1] + (hi - x) - kpart)


def _ref_quantile(d, u):
    cdfR, cdfL, _, _ = _ref_tables(d)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.empty_like(u)
    j = np.clip(np.searchsorted(cdfR, np.clip(u, 0.0, 1.0), side="left"), 0, len(d.breaks) - 1)
    in_jump = u >= cdfL[j]
    out[in_jump] = d.breaks[j[in_jump]]
    rest = ~in_jump
    seg = np.clip(j[rest] - 1, 0, len(d.coefs) - 1)
    target = u[rest]
    res = np.empty_like(target)
    for i in np.unique(seg):
        sel = seg == i
        lo, hi = d.breaks[i], d.breaks[i + 1]
        ci = npoly.polyint(d.coefs[i])
        base = cdfR[i] - npoly.polyval(lo, ci)
        a, b = np.full(sel.sum(), lo), np.full(sel.sum(), hi)
        for _ in range(64):
            m = 0.5 * (a + b)
            ge = base + npoly.polyval(m, ci) >= target[sel]
            b[ge] = m[ge]
            a[~ge] = m[~ge]
        res[sel] = 0.5 * (a + b)
    out[rest] = res
    return out


def _same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


QUERIES = {
    "cdf": (lambda d, x: d.cdf(x), _ref_cdf),
    "cdf_left": (lambda d, x: d.cdf_left(x), _ref_cdf_left),
    "pdf+": (lambda d, x: d.pdf(x), lambda d, x: _ref_density(d, x, +1)),
    "pdf-": (lambda d, x: d.pdf(x, side=-1), lambda d, x: _ref_density(d, x, -1)),
    "pdf_derivative+": (lambda d, x: d.pdf_derivative(x), lambda d, x: _ref_density(d, x, +1, True)),
    "pdf_derivative-": (lambda d, x: d.pdf_derivative(x, side=-1),
                        lambda d, x: _ref_density(d, x, -1, True)),
    "cdf_integral": (lambda d, x: d.cdf_integral(x), _ref_cdf_integral),
    "tail_gap": (lambda d, x: d.tail_gap(x), _ref_tail_gap),
    "cdf_vec": (lambda d, x: d.cdf_vec(x), _ref_cdf),
    "pdf_vec": (lambda d, x: d.pdf_vec(x), lambda d, x: _ref_density(d, x, +1)),
    "tail_vec": (lambda d, x: d.tail_vec(x), _ref_tail_gap),
}


@pytest.mark.parametrize("law", ["cubic", "atoms", "censored", "uniform"])
def test_tables_match_per_call_formulas(law):
    d = _laws()[law]
    cdf, cdf_left, kint, tail = _ref_tables(d)
    for got, ref in ((d._cdf_at, cdf), (d._cdf_left_at, cdf_left), (d._kint_at, kint),
                     (d._tail_at, tail)):
        assert _same_bits(got, ref)
    xs = _probe_points(d)
    for name, (query, ref) in QUERIES.items():
        expect = np.array([ref(d, float(x)) for x in xs])
        scalars = [query(d, float(x)) for x in xs]
        assert all(type(v) is float for v in scalars), name
        assert all(type(query(d, x)) is float for x in xs[:3]), name  # numpy scalars too
        assert _same_bits(scalars, expect), name
        assert _same_bits(query(d, xs), expect), name


def _ref_atom_mass_at_index(d, i):
    hit = np.abs(d.atom_locs - d.breaks[i]) <= 1e-14
    return float(d.atom_masses[hit].sum()) if len(d.atom_locs) else 0.0


def _ref_max_supp(d):
    for i in range(len(d.coefs) - 1, -1, -1):
        if _ref_atom_mass_at_index(d, i + 1) > 0:
            return float(d.breaks[i + 1])
        if _poly.poly_range_on(d.coefs[i], d.breaks[i], d.breaks[i + 1])[1] > 1e-13:
            return float(d.breaks[i + 1])
    return float(d.breaks[0] if _ref_atom_mass_at_index(d, 0) > 0 else d.breaks[-1])


def _ref_min_supp(d):
    if _ref_atom_mass_at_index(d, 0) > 0:
        return float(d.breaks[0])
    for i in range(len(d.coefs)):
        if _poly.poly_range_on(d.coefs[i], d.breaks[i], d.breaks[i + 1])[1] > 1e-13:
            return float(d.breaks[i])
        if _ref_atom_mass_at_index(d, i + 1) > 0:
            return float(d.breaks[i + 1])
    return float(d.breaks[0])


def test_support_ends_match_per_segment_loops(F, F_tilted, H_uniform, H_convex, H_step,
                                              H_bimodal, H_threestep):
    # max_supp, min_supp and the prior's positivity check read the density
    # range and atom tables built with the law; the per-segment loops they
    # replaced are the reference, bit for bit
    laws = _reservation_laws(F, F_tilted, H_uniform, H_convex, H_step, H_bimodal, H_threestep,
                             (0.0, 0.3, 0.55, 0.9))
    laws.update(_laws(), point=PiecewisePolyDist.point_mass(0.5),
                atoms_only=dist_from_json({"kind": "atoms", "atoms": [{"at": 0.2, "mass": 0.5},
                                                                      {"at": 0.7, "mass": 0.5}]}),
                gap_top=PiecewisePolyDist([0.0, 0.5, 1.0], [np.array([2.0]), np.zeros(1)]),
                gap_bottom=PiecewisePolyDist([0.0, 0.5, 1.0], [np.zeros(1), np.array([2.0])]),
                gap_inside=PiecewisePolyDist([0.0, 0.2, 0.6, 1.0],
                                             [np.array([2.5]), np.zeros(1), np.array([1.25])]),
                gap_ends_atoms=PiecewisePolyDist([0.0, 0.3, 0.6, 1.0],
                                                 [np.zeros(1), np.array([1.0]), np.zeros(1)],
                                                 atoms=[(0.0, 0.3), (0.6, 0.2), (1.0, 0.2)]),
                vanishing_ends=PiecewisePolyDist([0.0, 1.0], [np.array([0.0, 6.0, -6.0])]))
    for name, d in laws.items():
        assert type(d.max_supp()) is float and type(d.min_supp()) is float, name
        assert repr(d.max_supp()) == repr(_ref_max_supp(d)), name
        assert repr(d.min_supp()) == repr(_ref_min_supp(d)), name
        lows = [_poly.poly_range_on(c, lo, hi)[0]
                for c, lo, hi in zip(d.coefs, d.breaks[:-1], d.breaks[1:])]
        assert _same_bits(d._dens_min, lows), name
        if abs(d.support_lo) <= 1e-12 and abs(d.support_hi - 1.0) <= 1e-12 and mean(d) > 0.18:
            if min(lows) > 0:
                MarketConfig(d, H_uniform, 2)
            else:
                with pytest.raises(ValueError, match="positive density"):
                    MarketConfig(d, H_uniform, 2)


def test_closed_form_antiderivatives_match_numpy():
    # _poly makes numpy's divisions and products, on one polynomial or on
    # every column of a table, signed zeros and a single row of zeros included
    rng = np.random.default_rng(17)
    for shape in [(1,), (2,), (4,), (7,), (1, 5), (2, 5), (4, 9)]:
        for _ in range(50):
            c = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 6, size=shape)
            c[rng.random(shape) < 0.3] = 0.0
            c[rng.random(shape) < 0.2] = -0.0
            assert _poly.polyint(c).shape == npoly.polyint(c).shape
            assert _same_bits(_poly.polyint(c), npoly.polyint(c))
            if len(c) > 1:
                assert _same_bits(_poly.polyder(c), npoly.polyder(c))
    for zeros in (np.zeros(1), -np.zeros((1, 3))):
        assert _poly.polyint(zeros).shape == zeros.shape and _same_bits(_poly.polyint(zeros), npoly.polyint(zeros))


def test_cdf_poly_is_the_segment_cdf():
    for d in _laws().values():
        for i in range(len(d.coefs)):
            lo, hi = d.breaks[i], d.breaks[i + 1]
            xs = np.linspace(lo, hi, 9)[:-1]
            assert np.allclose(npoly.polyval(xs, d.cdf_poly(i)), d.cdf(xs), rtol=0, atol=1e-14)


def test_queries_make_no_antiderivatives(monkeypatch):
    calls = []
    original = _poly.polyint

    def counting(c):
        calls.append(1)
        return original(c)

    for name, module in list(sys.modules.items()):
        if name.startswith("censearch") and getattr(module, "polyint", None) is original:
            monkeypatch.setattr(module, "polyint", counting)
    laws = _laws()
    assert calls  # construction integrates the pieces, through the patched function
    calls.clear()
    for d in laws.values():
        xs = _probe_points(d)
        for query, _ in QUERIES.values():
            query(d, xs)
            query(d, float(xs[-1]))
        d.quantile(np.linspace(0.0, 1.0, 33))
        d.quantile(0.3)
        for i in range(len(d.coefs)):
            d.cdf_poly(i)
        reservation_value(d, 0.5 * d.tail_gap(d.support_lo))
    assert mpc_check(laws["censored"], laws["cubic"])[0]
    assert not calls


# -- the quantile iteration against the 64-round bisection ----------------------
#
# `_ref_quantile` is the bisection `quantile` used to run: 64 halvings of the
# containing segment, returning the midpoint.  The bracketed Newton iteration
# must return its bits wherever neither iterates, and elsewhere lie as close to
# the exact root of the segment CDF polynomial.


def _vanishing_law():
    return PiecewisePolyDist([0.0, 1.0], [np.array([0.0, 0.0, 0.0, 4.0])])  # CDF x^4


def _steep_law(w=1e-6):
    # half the mass on a piece of width w: density 5e5 there
    return PiecewisePolyDist([0.0, 0.4, 0.4 + w, 1.0],
                             [np.array([0.25 / 0.4]), np.array([0.5 / w]), np.array([0.25 / (0.6 - w)])])


def _quantile_laws():
    return dict(_laws(), vanishing=_vanishing_law(), steep=_steep_law(), cubic11=_cubic_law(seed=13))


def _quantile_points(d):
    """u = 0, 1e-12, 1 - 1e-12 and 1, each CDF value at a breakpoint and one
    ulp either side of it, the middle of each jump, and random u."""
    ends = np.concatenate([d._cdf_at, d._cdf_left_at])
    us = np.concatenate([[0.0, 1e-12, 1 - 1e-12, 1.0], ends, np.nextafter(ends, -1.0), np.nextafter(ends, 2.0),
                         (d._cdf_at + d._cdf_left_at) / 2,
                         np.random.default_rng(2).uniform(0.0, 1.0, 300)])
    return np.unique(us[(us >= 0.0) & (us <= 1.0)])


def _exact_root(mpmath, d, i, u, x0):
    """The 200-bit root near x0 of the segment CDF polynomial
    ``_cdf_off[i] + P_i(r) = u``, its float coefficients taken as exact."""
    coef = [mpmath.mpf(float(c)) for c in d._P[::-1, i]]
    with mpmath.workprec(200):
        g0 = mpmath.mpf(float(d._cdf_off[i])) - mpmath.mpf(float(u))
        r = mpmath.mpf(float(x0))
        for _ in range(200):
            g, dg = mpmath.polyval(coef, r, derivative=True)
            step = (g0 + g) / dg
            r -= step
            if abs(step) <= abs(r) * mpmath.mpf(2) ** -190:
                return r
    raise AssertionError(f"no 200-bit root for u={u!r}")


@pytest.mark.parametrize("law", ["cubic", "atoms", "censored", "uniform", "vanishing", "steep",
                                 "cubic11"])
def test_quantile_accuracy(law):
    mpmath = pytest.importorskip("mpmath")
    d = _quantile_laws()[law]
    us = _quantile_points(d)
    if law == "vanishing":
        us = np.concatenate([us, np.geomspace(1e-12, 1e-3, 40)])
    ref, got = _ref_quantile(d, us), d.quantile(us)
    scalars = [d.quantile(float(u)) for u in us]
    assert all(type(v) is float for v in scalars)
    assert all(type(d.quantile(u)) is float for u in us[:3])  # numpy scalars too
    assert _same_bits(scalars, got)
    # no iteration at u = 0 and 1, inside a jump, or at or above a jump's foot
    cdf, cdf_left, _, _ = _ref_tables(d)
    j = np.minimum(np.searchsorted(cdf, us, side="left"), len(d.breaks) - 1)
    direct = (us == 0.0) | (us == 1.0) | (us >= cdf_left[j])
    assert _same_bits(got[direct], ref[direct])
    # elsewhere: at most an ulp farther from the exact root than the bisection
    # (more where rounding leaves the sign of CDF(r) - u open, see below), and
    # no farther on average
    err_ref, err_got = [], []
    for u, xr, xg in zip(us[~direct], ref[~direct], got[~direct]):
        i = int(np.searchsorted(d._cdf_at, u, side="left")) - 1
        root = _exact_root(mpmath, d, i, u, xg)
        ulp = np.spacing(abs(float(root)))
        er, eg = (float(abs(mpmath.mpf(float(x)) - root)) / ulp for x in (xr, xg))
        # Evaluating _cdf_off[i] + P_i(r) - u in double precision (Horner)
        # errs by at most `noise` [Higham, Accuracy and Stability, 5.1], so
        # the computed sign is open within noise / density of the root: both
        # methods land somewhere in that band.
        rt = abs(float(root))
        noise = (2 * len(d._P) + 2) * 2.0**-53 * (
            abs(d._cdf_off[i]) + abs(u) + np.sum(np.abs(d._P[:, i]) * rt ** np.arange(len(d._P))))
        band = noise / npoly.polyval(float(root), d._pdf[:, i]) / ulp
        assert eg <= er + max(1.0, band), (u, xr, xg, er, eg, band)
        err_ref.append(er)
        err_got.append(eg)
    assert np.mean(err_got) <= np.mean(err_ref), (np.mean(err_got), np.mean(err_ref))
    # u is clipped to [0, 1]
    assert d.quantile(-1e-300) == d.quantile(0.0) == d.breaks[0]
    assert d.quantile(np.nextafter(1.0, 2.0)) == d.quantile(1.0)


def test_uniform_quantile_is_the_identity():
    # the demand probe draws firm 0's signals from uniform(0, 1)
    U = PiecewisePolyDist.uniform(0.0, 1.0)
    us = np.concatenate([np.random.default_rng(4).random(200_000), [5e-324, 1e-300, 0.5, 1 - 2**-53]])
    assert _same_bits(U.quantile(us), us)
    assert all(U.quantile(float(u)) == u for u in us[:1000])


def _cdf_evaluations(monkeypatch, d, draws):
    """Count quantile's segment-CDF evaluations (Horner calls on the P table)
    over `draws` elements.  Every element iterates on its own, so the rounds
    of one block of all draws are the most any block of them needs."""
    count = []
    inner = dists_module.polyval

    def counting(c, x):
        if len(c) == len(d._P):
            count.append(1)
        return inner(c, x)

    monkeypatch.setattr(dists_module, "polyval", counting)
    monkeypatch.setattr(dists_module, "QUANTILE_BLOCK", draws, raising=False)
    return count


def test_quantile_rounds(monkeypatch, F, F_tilted, H_uniform, H_convex, H_step, H_bimodal,
                         H_threestep):
    base = {"F": F, "F_tilted": F_tilted, "H_uniform": H_uniform, "H_convex": H_convex,
            "H_step": H_step, "H_bimodal": H_bimodal, "H_threestep": H_threestep}
    laws = dict(base)
    for name, d in base.items():
        for frac in (0.0, 0.3, 0.55, 0.9):
            laws[f"{name}@{frac}"] = upper_censorship(d, d.support_lo + frac * (d.support_hi - d.support_lo))
    us = np.random.default_rng(9).random(100_000)
    for name, d in laws.items():
        count = _cdf_evaluations(monkeypatch, d, len(us))
        d.quantile(us)
        assert len(count) <= 8, (name, len(count))  # the bisection made 64
    # a density vanishing at the root: the CDF x^4 has its root u^(1/4) up
    # to 243 orders of magnitude above the secant start u
    V = _vanishing_law()
    tiny = np.array([5e-324, 1e-300, 1e-100, 1e-12])
    count = _cdf_evaluations(monkeypatch, V, len(us) + len(tiny))
    x = V.quantile(np.concatenate([us, tiny]))
    assert len(count) < 64, len(count)
    assert np.allclose(x[-4:] ** 4, tiny, rtol=1e-12, atol=0.0), x[-4:] ** 4 / tiny - 1


# -- the cutoff inversion against the one-cost bisection -----------------------
#
# `_ref_reservation_value` is the bisection `reservation_value` used to run:
# halvings of the bracketing segment down to 1e-10 and one Newton polish.  The
# bracketed Newton iteration must return its bits wherever neither iterates,
# and elsewhere lie as close as it to the exact root of the segment tail.


def _ref_reservation_value(G, c, tol=1e-10):
    """The cutoff inversion for one cost, bisecting on scalar ``tail_gap``
    calls and polishing with one Newton step."""
    mu = mean(G)
    if c > mu + 1e-12:
        raise ValueError("cost exceeds prior mean")
    top = G.max_supp()
    if c <= tol:
        return top
    if c >= G.tail_gap(G.support_lo):
        return mu - c
    tails = G.tail_gap(G.breaks)
    j = int(np.searchsorted(-tails, -c, side="right") - 1)
    j = min(max(j, 0), len(G.breaks) - 2)
    a, b = float(G.breaks[j]), float(G.breaks[j + 1])
    while b - a > tol:
        m = 0.5 * (a + b)
        if G.tail_gap(m) - c >= 0:
            a = m
        else:
            b = m
    r = 0.5 * (a + b)
    slope = -(1.0 - G.cdf(r))
    if slope < -1e-14:
        r2 = r - (G.tail_gap(r) - c) / slope
        if a - tol <= r2 <= b + tol:
            r = r2
    return min(r, top)


def _reservation_laws(F, F_tilted, H_uniform, H_convex, H_step, H_bimodal, H_threestep, fracs):
    base = {"F": F, "F_tilted": F_tilted, "H_uniform": H_uniform, "H_convex": H_convex,
            "H_step": H_step, "H_bimodal": H_bimodal, "H_threestep": H_threestep}
    laws = dict(base)
    for name, d in base.items():
        for frac in fracs:
            laws[f"{name}@{frac}"] = upper_censorship(d, d.support_lo + frac * (d.support_hi - d.support_lo))
    return laws


def _exact_tail_root(mpmath, G, i, c, x0):
    """The 200-bit root near x0 of the segment tail ``_segment_tail(i, r) = c``,
    its float table entries taken as exact."""
    m = mpmath.mpf
    hi, above, cdf_lo, pp_hi, p_lo = (m(float(v)) for v in (
        G.breaks[i + 1], G._tail_at[i + 1], G._cdf_at[i], G._PP_hi[i], G._P_lo[i]))
    coef = [m(float(v)) for v in G._PP[::-1, i]]
    with mpmath.workprec(200):
        r = m(float(x0))
        for _ in range(200):
            w = hi - r
            pp, dpp = mpmath.polyval(coef, r, derivative=True)
            g = above + w - (cdf_lo * w + (pp_hi - pp) - p_lo * w) - m(float(c))
            dg = -1 + cdf_lo + dpp - p_lo
            step = g / dg
            r -= step
            # g cancels from terms of size `scale`, so 190 bits of them at most
            scale = abs(above) + abs(w) * (1 + abs(cdf_lo) + abs(p_lo)) + abs(pp_hi) + abs(pp)
            if abs(step) <= max(abs(r * dg), scale) * m(2) ** -190 / abs(dg):
                return r
    raise AssertionError(f"no 200-bit root for c={c!r}")


def test_reservation_value_accuracy(F, F_tilted, H_uniform, H_convex, H_step, H_bimodal, H_threestep):
    mpmath = pytest.importorskip("mpmath")
    laws = _reservation_laws(F, F_tilted, H_uniform, H_convex, H_step, H_bimodal, H_threestep,
                             (0.0, 0.3, 0.55, 0.9))
    laws.update(point=PiecewisePolyDist.point_mass(0.5), atoms=_atom_law(), cubic=_cubic_law())
    rng = np.random.default_rng(7)
    err_ref, err_got = [], []
    for name, G in laws.items():
        mu, tails = mean(G), G.tail_gap(G.breaks)
        cs = [0.0, 1e-10, np.nextafter(1e-10, 1.0), G.tail_gap(G.support_lo), mu]
        cs += [v for t in tails for v in (t, np.nextafter(t, 0.0), np.nextafter(t, 1.0))]
        cs = np.array([c for c in cs + list(rng.uniform(0.0, mu, 40)) if c <= mu + 1e-12])
        ref = np.array([_ref_reservation_value(G, float(c)) for c in cs])
        got = reservation_value(G, cs)
        pairs = cs[: len(cs) // 2 * 2].reshape(2, -1)
        assert _same_bits(reservation_value(G, pairs), got[: pairs.size].reshape(pairs.shape)), name
        scalars = [reservation_value(G, float(c)) for c in cs]
        assert all(type(v) is float for v in scalars), name
        assert _same_bits(scalars, got), name
        with pytest.raises(ValueError, match="exceeds prior mean"):
            reservation_value(G, mu + 1e-9)
        # no iteration at c <= 1e-10 (the top of the support) or at and
        # above the tail at the bottom of the support (mean - c)
        direct = (cs <= 1e-10) | (cs >= tails[0])
        assert _same_bits(got[direct], ref[direct]), name
        # elsewhere: at most an ulp farther from the exact root than the
        # bisection (more where rounding leaves the sign of tail(r) - c open,
        # see below), and no farther on average
        for c, xr, xg in zip(cs[~direct], ref[~direct], got[~direct]):
            i = int(np.clip(np.searchsorted(-tails, -c, side="right") - 1, 0, len(G.breaks) - 2))
            root = _exact_tail_root(mpmath, G, i, c, xg)
            rt = abs(float(root))
            ulp = np.spacing(rt)
            er, eg = (float(abs(mpmath.mpf(float(x)) - root)) / ulp for x in (xr, xg))
            # Evaluating the tail minus c in double precision errs by at most
            # tail_noise, so the computed sign is open within tail_noise /
            # (1 - G) of the root: both methods land somewhere in that band
            band = tail_noise(G, rt, c) / (1.0 - float(G.cdf(rt))) / ulp
            assert eg <= er + max(1.0, band), (name, c, xr, xg, er, eg, band)
            err_ref.append(er)
            err_got.append(eg)
    assert np.mean(err_got) <= np.mean(err_ref), (np.mean(err_got), np.mean(err_ref))


def _tail_evaluations(monkeypatch):
    """Count ``_segment_tail`` calls (the bracketing ``tail_gap`` call
    included)."""
    count = []
    inner = PiecewisePolyDist._segment_tail

    def counting(self, i, x):
        count.append(1)
        return inner(self, i, x)

    monkeypatch.setattr(PiecewisePolyDist, "_segment_tail", counting)
    return count


def test_reservation_value_rounds(monkeypatch, F, F_tilted, H_uniform, H_convex, H_step, H_bimodal,
                                  H_threestep):
    laws = _reservation_laws(F, F_tilted, H_uniform, H_convex, H_step, H_bimodal, H_threestep,
                             (0.3, 0.55, 0.9))
    rng = np.random.default_rng(3)
    count = _tail_evaluations(monkeypatch)
    for name, G in laws.items():
        mu = mean(G)
        rounds = []
        for c in np.concatenate([rng.uniform(0.0, mu, 60), [1e-9, 1e-8, 1e-7, 1e-6]]):
            count.clear()
            reservation_value(G, float(c))
            rounds.append(len(count))
        assert np.median(rounds) <= 6, (name, sorted(rounds))
        assert max(rounds) <= 36, (name, max(rounds))  # the bisection made 36
