"""Property tests over random piecewise-cubic laws with atoms.

Hypothesis draws the laws; ``derandomize=True`` fixes the examples, so the
suite stays deterministic."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from censearch._poly import poly_range_on, polyint, polyval  # noqa: E402
from censearch.censorship import upper_censorship  # noqa: E402
from censearch.demand import expected_payoff  # noqa: E402
from censearch.dists import PiecewisePolyDist, mean, mpc_check, reservation_value  # noqa: E402

from conftest import tail_noise  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)


@st.composite
def piecewise_laws(draw):
    """A law on [0, 1]: up to four cubic pieces, each positive on its
    interval, and up to three atoms (at breakpoints, inside pieces or at the
    support ends) carrying up to half the mass."""
    inner = draw(st.lists(st.floats(0.01, 0.99), max_size=3, unique=True))
    breaks = [0.0] + sorted(inner) + [1.0]
    if np.any(np.diff(breaks) < 1e-6):
        breaks = [0.0, 1.0]
    coef = st.floats(-8.0, 8.0)
    coefs = []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        c = np.array(draw(st.lists(coef, min_size=1, max_size=4)))
        c[0] += 0.1 - min(0.0, poly_range_on(c, lo, hi)[0])  # positive on the piece
        coefs.append(c)
    locs = draw(st.lists(st.sampled_from(breaks) | st.floats(0.0, 1.0), max_size=3, unique=True))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(locs), max_size=len(locs)))
    atom_mass = draw(st.floats(0.0, 0.5)) if locs else 0.0
    mass = sum(polyval(polyint(c), hi) - polyval(polyint(c), lo)
               for lo, hi, c in zip(breaks[:-1], breaks[1:], coefs))
    atoms = [(x, atom_mass * w / sum(weights)) for x, w in zip(locs, weights)]
    return PiecewisePolyDist(breaks, [c * (1.0 - atom_mass) / mass for c in coefs], atoms=atoms)


@PROPERTY_SETTINGS
@given(piecewise_laws(), st.floats(0.0, 1.0), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
       st.integers(0, 24))
def test_reservation_value_properties(law, a, fracs, run):
    for G in (law, upper_censorship(law, a)):
        mu, top = mean(G), G.max_supp()
        # the costs drawn, and a run of consecutive floats after the first
        c0 = fracs[0] * mu
        cs = np.sort(np.concatenate([np.array(fracs) * mu, c0 + np.spacing(c0) * np.arange(1, run + 1)]))
        cs = cs[cs <= mu]
        rs = reservation_value(G, cs)
        assert _bits(rs) == _bits([reservation_value(G, float(c)) for c in cs])
        # r lies in [support_lo, max_supp]
        assert np.all((G.support_lo <= rs) & (rs <= top)), (cs, rs)
        # tail_gap brackets c at r's neighbouring floats, to rounding.  Costs
        # c <= 1e-10 get max_supp, the limit as c -> 0.  Costs at or above
        # the tail at the bottom of the support get mean - c, which inverts
        # tail_gap's extension tail_gap(lo) + lo - x there, as the mean is
        # lo + tail_gap(lo).
        for c, r in zip(cs, rs):
            if c <= 1e-10:
                continue
            below, above = np.nextafter(r, -np.inf), np.nextafter(r, np.inf)
            assert G.tail_gap(below) >= c - tail_noise(G, below, c), (c, r)
            assert G.tail_gap(above) <= c + tail_noise(G, above, c), (c, r)
        # r does not increase with c, up to the rounding band of each root:
        # the tail noise over the slope 1 - G there
        band = np.array([tail_noise(G, r, c) / max(1.0 - G.cdf(r), 1e-300) if c > 1e-10 else 0.0
                         for c, r in zip(cs, rs)])
        assert np.all(np.diff(rs) <= band[:-1] + band[1:]), (cs, rs, band)


@PROPERTY_SETTINGS
@given(piecewise_laws(), st.floats(0.0, 1.0))
def test_mean_is_the_tail_at_the_bottom(law, a):
    """mean(G) is support_lo + tail_gap(support_lo), bit for bit: one table
    serves both (a separate integral of x f(x) once differed by 4.6e-15)."""
    for G in (law, upper_censorship(law, a)):
        assert _bits(mean(G)) == _bits(G.support_lo + G.tail_gap(G.support_lo)), a


@PROPERTY_SETTINGS
@given(piecewise_laws(), st.floats(0.0, 1.0), st.integers(2, 44), st.integers(0, 4))
def test_payoff_identity(H_uniform, H_step, H_bimodal, H_threestep, H_convex, law, a, n, k):
    """A strategy played against itself earns 1/n.  n stays below 45, where
    the payoff's quadrature starts to hit the node cap (NODE_CAP)."""
    H = (H_uniform, H_step, H_bimodal, H_threestep, H_convex)[k]
    for G in (law, upper_censorship(law, a)):
        if mean(G) <= H.support_hi:
            continue  # no market: the top cost would clear the prior mean
        assert abs(expected_payoff(G, G, n, H) - 1.0 / n) <= 1e-10, (n, k)


# every breakpoint and atom, moved onto it, just inside BREAK_TOL of it and
# well outside it, on either side
NEAR = (0.0, 4e-15, -4e-15, 1e-13, -1e-13, 1e-12, -1e-12)


def _near_marks(law, free):
    marks = np.concatenate([law.breaks, law.atom_locs])
    return [float(x) for x in np.concatenate([free, (marks[:, None] + NEAR).ravel()])]


@PROPERTY_SETTINGS
@given(piecewise_laws(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
def test_censorship_is_a_contraction_at_every_threshold(law, free):
    """upper_censorship keeps the prior's mean, and passes the contraction
    test, at thresholds on, next to and away from breakpoints and atoms."""
    for a in _near_marks(law, free):
        U = upper_censorship(law, a)
        assert mpc_check(U, law)[0], (a, mean(U), mean(law))


@PROPERTY_SETTINGS
@given(piecewise_laws(), st.lists(st.floats(-0.1, 1.1), min_size=1, max_size=6))
def test_cdf_jumps_exactly_at_atoms(law, free):
    """G(x-) <= G(x), and G jumps by the atom that atom_mass_at sees, on,
    next to and away from breakpoints and atoms: not at all where it sees
    none, and by the atom to within an ulp of G elsewhere (an atom below
    that, such as the 2.3e-275 Hypothesis draws, leaves no jump)."""
    for x in _near_marks(law, free):
        gl, gr, m = law.cdf_left(x), law.cdf(x), law.atom_mass_at(x)
        assert gl <= gr, (x, gl, gr)
        if m == 0.0:
            assert gr == gl, (x, gl, gr)
        else:
            assert abs((gr - gl) - m) <= np.spacing(gr), (x, gl, gr, m)


def test_pool_next_to_an_atom_keeps_the_mean():
    # 0.8 U[0, 1] plus 0.2 at 0.5: a threshold 1e-13 below the atom pools it
    # (a total mass of 1.2 was refused there), one 1e-13 above it leaves it
    # out (its mean read 0.55)
    parts = (PiecewisePolyDist.uniform(0.0, 1.0), PiecewisePolyDist.point_mass(0.5))
    F = PiecewisePolyDist.mixture(parts, [0.8, 0.2])
    for a, signal in ((0.5 - 1e-13, 2.0 / 3.0), (0.5 - 4e-15, 2.0 / 3.0), (0.5, 2.0 / 3.0),
                      (0.5 + 5e-15, 0.75), (0.5 + 1e-13, 0.75)):
        U = upper_censorship(F, a)
        assert abs(mean(U) - 0.5) <= 1e-14, a
        assert U.max_supp() == pytest.approx(signal, abs=1e-12), a
        assert mpc_check(U, F)[0], a
    # G(x-) <= G(x) just below the atom, which sits there in every query
    for x in (0.5 - 4e-15, 0.5):
        assert F.cdf_left(x) == 0.4000000000000001 and F.cdf(x) == 0.6000000000000001
        assert F.atom_mass_at(x) == 0.2
    assert F.atom_mass_at(0.5 - 1e-13) == 0.0 and F.cdf(0.5 - 1e-13) == F.cdf_left(0.5 - 1e-13)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()
