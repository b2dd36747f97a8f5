"""Welfare accounting and comparative statics of the cost distribution.

Consumer surplus under a censored strategy splits into the expected value of
the purchased product minus the expected accumulated search cost; both have
closed forms per cost type, with a branch at the threshold whose marginal
searcher has exactly that cost.  The comparative-statics transforms (scale
stretches, first-order shifts, mixing toward the uniform, mean-preserving
spreads) reproduce the predicted movements of the maximal threshold; whether
one cost law spreads another is :func:`censearch.dists.mpc_check`.
"""

from __future__ import annotations

import numpy as np

from ._poly import nodes_for_degree, polyval, real_roots_in, polyder
from .costshape import _require_continuous
from .demand import power_sum
from .dists import (
    PiecewisePolyDist,
    _density_integrals,
    incremental_benefit,
    mean,
    reservation_value,
    truncated_mean_above,
)

__all__ = [
    "consumer_surplus_type",
    "consumer_surplus",
    "expected_search_length",
    "alpha_stretch",
    "fosd_compare",
    "uniform_interpolate",
    "classify_density_shape",
]

FOSD_GRID = 4097  # scan points of fosd_compare (plus both breakpoint sets)
SHAPE_TOL = 1e-11  # classify_density_shape: smaller slopes and jumps count as flat


def _value_of_best_of_n(F: PiecewisePolyDist, m: float, n: int) -> float:
    """int_[0,m] x d(F(x)^n): contribution of the maximum of n revealed draws
    conditional on all landing at or below m (unnormalized).  Each atom x_j
    of F adds x_j (F(x_j)^n - F(x_j-)^n); an atom at m itself counts, as it
    does in the probability F(m)^n of that event."""
    top = min(m, float(F.breaks[-1]))
    cuts = [b for b in F.breaks.tolist() if b < top] + [top]
    pieces = _density_integrals(F, lambda ts: ts * n * F.cdf_vec(ts) ** (n - 1), cuts,
                                nodes_for_degree(4 * n + 4))
    atoms = [x * (F.cdf(x) ** n - F.cdf_left(x) ** n) for x in F.atom_locs.tolist() if x <= m]
    return sum(pieces.tolist(), sum(atoms, 0.0))


def consumer_surplus_type(
    F: PiecewisePolyDist, a: float, c: float, n: int
) -> tuple[float, float, float]:
    """(expected purchased value, expected accumulated search cost, surplus)
    for a consumer with cost c facing the censored strategy with threshold a.

    When the threshold sits at or below the consumer's cutoff image a_c, only
    the pooled signal stops them: they buy the pool on the first hit or the
    best revealed draw after exhausting all firms.  Above a_c they stop at
    any signal clearing a_c, so the branch quantities freeze at a_c.
    """
    if c <= 0:
        raise ValueError("surplus formulas need a strictly positive cost type")
    m = float(_branch_cutoffs(F, a, incremental_benefit(F, a), np.array([c]))[0])
    value, searches = _cutoff_terms(F, n, m)
    cost = searches * c
    return float(value), float(cost), float(value - cost)


def _branch_cutoffs(F: PiecewisePolyDist, a: float, cfa: float, cs: np.ndarray) -> np.ndarray:
    """The branch cutoff m = min(a, a_c) of each cost type in cs: a below the
    branch cost cfa = incremental_benefit(F, a), 0 from the prior mean on,
    else min(a, reservation value), inverted in one call."""
    cut = ~(cfa > cs) & (cs < mean(F))
    ms = np.where(cfa > cs, float(a), min(float(a), 0.0))
    if cut.any():
        ms[cut] = np.minimum(a, reservation_value(F, cs[cut]))
    return ms


def _cutoff_terms(F: PiecewisePolyDist, n: int, m: float) -> tuple[float, float]:
    """(expected purchased value, expected number of searches) shared by every
    cost type whose branch cutoff is m."""
    Fm = F.cdf(m)
    k_m = truncated_mean_above(F, m)
    best = _value_of_best_of_n(F, m, n) if m > F.support_lo else 0.0
    value = best + k_m * (1.0 - Fm**n)
    return value, expected_search_length(F, m, n)


def consumer_surplus(
    F: PiecewisePolyDist, H: PiecewisePolyDist, a: float, n: int
) -> float:
    """Expected consumer surplus under the censored strategy: the per-type
    surplus integrated over the cost distribution (quadrature over the cost
    pieces, split at the branch cost)."""
    _require_continuous(H)
    cfa = incremental_benefit(F, a)
    cuts = sorted({float(b) for b in H.breaks} | ({cfa} if 0 < cfa < H.support_hi else set()))
    terms = {}  # cutoff m -> _cutoff_terms(F, n, m)

    def surplus(cs):
        ms = _branch_cutoffs(F, a, cfa, cs)
        # the cutoff terms once per distinct cutoff (below the branch cost
        # every node has m = a); only the search cost differs between nodes
        terms.update((m, _cutoff_terms(F, n, m)) for m in np.unique(ms).tolist() if m not in terms)
        value, searches = np.array([terms[m] for m in ms.ravel().tolist()]).T.reshape(2, *cs.shape)
        return value - searches * cs

    return float(sum(_density_integrals(H, surplus, cuts, 64).tolist(), 0.0))


def expected_search_length(F: PiecewisePolyDist, a: float, n: int) -> float:
    """Expected number of searches when only the pooled signal stops
    consumers: (1 - F(a)^n) / (1 - F(a)); 1 at a = 0."""
    return float(power_sum(F.cdf(a), 1.0, n))


def alpha_stretch(
    H: PiecewisePolyDist, alpha: float, prior_mean: float | None = None
) -> PiecewisePolyDist:
    """Scale every cost by alpha >= 1: support stretches to [0, alpha*cbar],
    density rescales by 1/alpha, the shape is preserved.  When the prior
    mean is supplied, enforces alpha < mean/cbar so the stretched market
    stays valid."""
    if alpha < 1.0:
        raise ValueError("stretch factor must be at least 1")
    if prior_mean is not None and alpha >= prior_mean / H.support_hi:
        raise ValueError("stretch factor must keep the cost top below the prior mean")
    if alpha == 1.0:
        return H
    breaks = [float(b) * alpha for b in H.breaks]
    coefs = []
    for c in H.coefs:
        scaled = np.array([c[j] / alpha ** (j + 1) for j in range(len(c))])
        coefs.append(scaled)
    atoms = [(float(a) * alpha, float(m)) for a, m in zip(H.atom_locs, H.atom_masses)]
    return PiecewisePolyDist(breaks, coefs, atoms=atoms)


def fosd_compare(H1: PiecewisePolyDist, H2: PiecewisePolyDist) -> str:
    """Pointwise CDF comparison on a common scan grid: 'H2_dominates' when
    H2 sits weakly below H1 everywhere (stochastically larger costs),
    'H1_dominates' for the reverse, 'equal', or 'incomparable'."""
    lo = min(H1.support_lo, H2.support_lo)
    hi = max(H1.support_hi, H2.support_hi)
    cs = np.unique(np.concatenate([np.linspace(lo, hi, FOSD_GRID), H1.breaks, H2.breaks]))
    d = H2.cdf_vec(cs) - H1.cdf_vec(cs)
    tol = 1e-11
    if np.all(np.abs(d) <= tol):
        return "equal"
    if np.all(d <= tol):
        return "H2_dominates"
    if np.all(d >= -tol):
        return "H1_dominates"
    return "incomparable"


def uniform_interpolate(
    H0: PiecewisePolyDist, lam: float, cbar: float
) -> PiecewisePolyDist:
    """Mix the cost distribution with the uniform on [0, cbar]: density
    lam/cbar + (1 - lam) h0.  Requires a matching support."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("mixing weight must lie in [0, 1]")
    if abs(H0.support_hi - cbar) > 1e-12 or abs(H0.support_lo) > 1e-12:
        raise ValueError("interpolation needs the cost support [0, cbar]")
    if lam == 0.0:
        return H0
    uni = PiecewisePolyDist.uniform(0.0, cbar)
    return PiecewisePolyDist.mixture([uni, H0], [lam, 1.0 - lam])


def classify_density_shape(H: PiecewisePolyDist) -> str:
    """'quasi_convex_interior_dip' when the density falls then rises with a
    strict interior minimum, 'quasi_concave_interior_peak' for the mirror
    pattern, else 'neither'."""
    _require_continuous(H)
    lo, hi = H.support_lo, H.support_hi
    # sign pattern of h' across pieces and kinks
    signs: list[int] = []

    def push(s: int):
        if s != 0 and (not signs or signs[-1] != s):
            signs.append(s)

    for i in range(len(H.coefs)):
        a, b = float(H.breaks[i]), float(H.breaks[i + 1])
        if i > 0:
            jump = polyval(H.coefs[i], a) - polyval(H.coefs[i - 1], a)
            if abs(jump) > SHAPE_TOL:
                push(1 if jump > 0 else -1)
        d = polyder(H.coefs[i])
        cuts = [a] + [float(r) for r in real_roots_in(d, a, b)] + [b]
        for u, v in zip(cuts[:-1], cuts[1:]):
            if v - u < 1e-14:
                continue
            val = polyval(d, 0.5 * (u + v))
            push(1 if val > SHAPE_TOL else (-1 if val < -SHAPE_TOL else 0))
    if signs == [-1, 1]:
        return "quasi_convex_interior_dip"
    if signs == [1, -1]:
        return "quasi_concave_interior_peak"
    return "neither"

