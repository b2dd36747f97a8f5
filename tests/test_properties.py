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
from censearch.dists import PiecewisePolyDist, mean, reservation_value  # noqa: E402

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
        # mean - x, not tail_gap's extension tail_gap(lo) + lo - x there: the
        # two differ by the rounding of the tables, |mean - tail_gap(lo)|.
        tail_lo = G.tail_gap(G.support_lo)
        for c, r in zip(cs, rs):
            if c <= 1e-10:
                continue
            extension = abs(mu - tail_lo) if c >= tail_lo else 0.0
            below, above = np.nextafter(r, -np.inf), np.nextafter(r, np.inf)
            assert G.tail_gap(below) >= c - tail_noise(G, below, c) - extension, (c, r)
            assert G.tail_gap(above) <= c + tail_noise(G, above, c) + extension, (c, r)
        # r does not increase with c, up to the rounding band of each root:
        # the tail noise over the slope 1 - G there
        band = np.array([tail_noise(G, r, c) / max(1.0 - G.cdf(r), 1e-300) if c > 1e-10 else 0.0
                         for c, r in zip(cs, rs)])
        assert np.all(np.diff(rs) <= band[:-1] + band[1:]), (cs, rs, band)


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


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()
