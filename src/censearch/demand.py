"""Consumer-side demand objects for a symmetric conjecture.

Given a conjectured signal distribution G (all rivals play G and consumers
believe so), a firm whose realized signal is x is ultimately chosen with
probability ``D(x; G)``: consumers whose stopping cutoff is below x buy on
the spot when they arrive; the rest keep searching and come back only if x
ends up the maximum.  :class:`DemandCurve` evaluates D exactly for
piecewise-polynomial G and cost distributions, including the combinatorial
tie-break value at atoms of G (a firm whose signal lands exactly on an atom
shared by rivals wins a tie with equal probability).

The decomposition of the demand derivative into the stopping margins
(consumers who halt precisely at x) and the max-win margin is exposed by
:meth:`DemandCurve.margins`; the slope, D'' and the one convexity test of
both verifiers (``DemandCurve.convex_on``) live here too.
"""

from __future__ import annotations

import numpy as np
import numpy.polynomial.polynomial as npoly

from ._poly import gauss_legendre, nodes_for_degree, poly_range_on, polymul
from .dists import NO_COST, TOL, PiecewisePolyDist, _integrate, _pow, _result, reservation_value

__all__ = [
    "DemandCurve",
    "power_sum",
    "pooled_jump",
    "jump_size",
    "type_demand",
    "interim_demand",
    "demand_margins",
    "demand_second_derivative",
    "expected_payoff",
]

SNAP_TOL = 1e-9  # margins moves a cutoff cost this close to a cost breakpoint onto it
CURVATURE_GRID = 512  # D'' samples of convex_on above r_lo


def power_sum(lo, hi, n: int):
    """sum_{k<n} hi^k lo^(n-1-k) = (hi^n - lo^n) / (hi - lo), n hi^(n-1) at
    lo = hi: n times the visit probability at G = lo (hi = 1) or the fair tie
    value across an atom from lo to hi.  Nonnegative terms, only + and x: a
    few n ulps relative up to 1, and an array gives the scalar bits."""
    s, p = 0.0, 1.0
    for _ in range(n):
        s = s * hi + p
        p = p * lo
    return s


def pooled_jump(g, n: int):
    """(J, dJ/dg) for the jump J(g) = (1 - g^n) / (n (1 - g)) - g^(n-1), from
    one Horner pass over the nonnegative terms of (1 - g)/n sum_{m<n-1}
    (m + 1) g^m: accurate as g -> 1, where J = 0 and dJ/dg = -(n - 1)/2."""
    p, dp = 0.0, 0.0
    for c in range(n - 1, 0, -1):
        dp = dp * g + p
        p = p * g + c
    return (1.0 - g) * p / n, ((1.0 - g) * dp - p) / n


def jump_size(G: PiecewisePolyDist, x, n: int):
    """Size of the upward jump in a consumer's purchase probability when the
    signal reaches their cutoff: visit probability minus max-win probability.
    Takes a scalar (returns a float) or an array.
    """
    gl, gr = G.cdf_left(x), G.cdf(x)
    J = pooled_jump(gl, n)[0]
    if np.any(gr != gl):  # less the max-win step across an atom at x
        J = J - (gr - gl) * power_sum(gl, gr, n - 1)
    return _result(J)


def _snap(value, knots: np.ndarray):
    """Snap computed coordinates onto the nearest structural knot (within
    SNAP_TOL) so that one-sided evaluation engages at kinks reached through
    root-finding."""
    value = np.asarray(value, dtype=float)
    near = knots[np.argmin(np.abs(knots - value[..., None]), axis=-1)]
    return np.where(np.abs(near - value) <= SNAP_TOL, near, value)


class DemandCurve:
    """Exact interim demand for conjecture G with n firms and costs H.

    Caches the reservation-image partition [r_lo, r_hi], the composition
    breakpoints (where the cost distribution's pieces map into signal space),
    and cumulative stop integrals, so evaluation stays cheap.  Every query
    takes a scalar (and returns a float) or an array of signals.
    """

    def __init__(self, conjecture: PiecewisePolyDist, n: int, costs: PiecewisePolyDist):
        if n < 2:
            raise ValueError("need n >= 2 firms")
        self.G = conjecture
        self.H = costs
        self.n = int(n)
        self.cbar = costs.support_hi
        self.r_hi = conjecture.max_supp()
        # one inversion for the cost top, inner breakpoints and (positive) atoms
        inner = costs.breaks[(NO_COST < costs.breaks) & (costs.breaks < self.cbar - 1e-14)]
        atoms = (costs.atom_locs > NO_COST) & (costs.atom_masses > 0)
        rs = reservation_value(conjecture, np.concatenate([[self.cbar], inner, costs.atom_locs[atoms]]))
        r_top, r_inner, r_atoms = np.split(rs, [1, 1 + len(inner)])
        self.r_lo = float(r_top[0])
        inside = np.concatenate([conjecture.breaks, conjecture.atom_locs, r_inner])
        cuts = {self.r_lo, self.r_hi, *(float(x) for x in inside if self.r_lo < x < self.r_hi)}
        self.x_breaks = np.array(sorted(cuts))
        # degree of the stop integrand h(min(tail, cbar)) (1 - G^n) / n on a
        # cut piece: with d_G = 1 + G's density degree, the degree of G there,
        # G^n has degree n d_G and h of the tail (degree d_G + 1) d_H (d_G + 1)
        d_G = 1 + conjecture.density_degree()
        self._gl_deg = self.n * d_G + costs.density_degree() * (d_G + 1)
        self._cum = self._cumulative_stops()
        # cost atoms: mass stops exactly at its reservation image
        self._cost_atoms = [
            (float(c0), float(m0) * power_sum(conjecture.cdf_left(r0), 1.0, self.n) / self.n)
            for c0, m0, r0 in zip(costs.atom_locs[atoms], costs.atom_masses[atoms], r_atoms)
        ]

    def integral_nodes(self, W: PiecewisePolyDist) -> int:
        """Nodes of the Gauss-Legendre rule that integrates D, or anything of
        no higher degree on each cut piece, against a density piece of W:
        degree _gl_deg + 1 (the stop part integrates the stop integrand, and
        G^(n-1) times H of the tail has degree (n - 1) d_G + (d_H + 1)(d_G + 1),
        the same) plus W's density degree."""
        return nodes_for_degree(self._gl_deg + 1 + W.density_degree())

    # -- stop integral -----------------------------------------------------

    def _stop_integrand(self, ts: np.ndarray) -> np.ndarray:
        g = self.G.cdf_vec(ts)
        cg = np.minimum(self.G.tail_vec(ts), self.cbar)
        h = self.H.pdf_vec(cg)
        return h * (1.0 - g**self.n) / self.n

    def _cumulative_stops(self) -> np.ndarray:
        pieces = gauss_legendre(self._stop_integrand, self.x_breaks[:-1], self.x_breaks[1:],
                                nodes_for_degree(self._gl_deg))
        return np.concatenate([[0.0], np.cumsum(pieces)])

    def stop_component(self, x):
        """Demand from consumers who stop on the spot at signals <= x."""
        # below r_lo nobody stops: clipping there leaves an empty piece
        xe = np.clip(np.asarray(x, dtype=float), self.r_lo, self.r_hi)
        i = np.clip(np.searchsorted(self.x_breaks, xe, side="right") - 1, 0, len(self.x_breaks) - 2)
        out = self._cum[i] + gauss_legendre(self._stop_integrand, self.x_breaks[i], xe,
                                            nodes_for_degree(self._gl_deg))
        if self._cost_atoms:
            cg = self.cutoff_cost(x)
            out = out + sum(np.where(c0 >= cg - 1e-12, v, 0.0) for c0, v in self._cost_atoms)
        return _result(out)

    # -- evaluation ----------------------------------------------------------

    def cutoff_cost(self, x):
        """Search cost of the consumer indifferent at signal x, the inverse
        reservation map: G's tail gap, mean(G) - x below its support and 0
        above it (not clipped to the cost support)."""
        return self.G.tail_gap(x)

    def max_win_prob(self, x, side: int = 0):
        """Probability of being the purchase after consumers exhaust search:
        G(x)^(n-1), with the fair tie value at atoms of G (side=0)."""
        gr, gl = self.G.cdf(x), self.G.cdf_left(x)
        win = _pow(gl if side < 0 else gr, self.n - 1)
        if side == 0:
            tie = self.G.atom_mass_at(x) > 1e-15
            win = np.where(tie, power_sum(gl, gr, self.n) / self.n, win)
        return _result(win)

    def continue_fraction(self, x):
        """Fraction of consumers still searching after seeing x (cutoff
        strictly above x); zero-cost consumers always continue."""
        cg = self.cutoff_cost(x)
        return _result(np.where(cg <= NO_COST, self.H.cdf(self.H.support_lo), self.H.cdf_left(cg)))

    def value(self, x, side: int = 0):
        """Interim demand D(x); at atoms of G the fair-tie value (side=0) or
        the one-sided limits (side=-1/+1)."""
        return self.max_win_prob(x, side) * self.continue_fraction(x) + self.stop_component(x)

    def margins(self, x, side: int = 1):
        """(stopping margin, max-win margin) of the demand derivative at x:
        the first captures consumers whose cutoff equals x halting on the
        spot, the second the improved odds of winning the exhausted-search
        comparison.  One-sided at kinks via ``side``; the cutoff cost is
        snapped onto the cost distribution's breakpoints so kinks reached
        through root-finding still evaluate one-sidedly."""
        x = np.asarray(x, dtype=float)
        g = self.G.cdf_left(x) if side < 0 else self.G.cdf(x)
        gdens = self.G.pdf(x, side=side)
        cg = _snap(self.cutoff_cost(x), self.H.breaks)
        inside = (self.r_lo < x) & (x < self.r_hi)
        # at the cost top both one-sided densities are the last piece's
        hd = np.where(inside, self.H.pdf(cg, side=-side), 0.0)
        extensive = np.where(inside, (1.0 - g) * hd * jump_size(self.G, x, self.n), 0.0)
        hfrac = np.where(cg > NO_COST, self.H.cdf_left(cg), 0.0)
        intensive = (self.n - 1) * _pow(g, self.n - 2) * gdens * hfrac
        return _result(extensive), _result(intensive)

    def slope(self, x, side: int = 1):
        """One-sided slope of D at x: the sum of the two :meth:`margins`."""
        return sum(self.margins(x, side))

    def convex_on(self, lo: float, hi: float, slack: float) -> bool:
        """Whether D is convex on [lo, hi] up to ``slack``: below r_lo, where
        D = G^(n-1), the exact minimum of (n - 2) g^2 + g' G on each piece of
        G is >= -slack; at each breakpoint of the curve or of G more than
        TOL.root inside (lo, hi) the slope turns by >= -slack (1 + |left slope|);
        above r_lo, D'' at CURVATURE_GRID points (ends excluded) is
        >= -slack (1 + |D'' at the middle point|)."""
        G, n = self.G, self.n
        top = min(hi, self.r_lo)
        for i in range(len(G.coefs)):
            b0, b1 = float(G.breaks[i]), float(G.breaks[i + 1])
            if b0 >= top:
                break
            if b1 <= lo:
                continue
            f = G._pdf[:, i]
            m = npoly.polyadd((n - 2) * polymul(f, f), polymul(G._dpdf[:, i], G.cdf_poly(i)))
            if poly_range_on(m, max(lo, b0) - b0, min(b1, top) - b0)[0] < -slack:
                return False
        bs = np.union1d(self.x_breaks, G.breaks)
        bs = bs[(lo + TOL.root < bs) & (bs < hi - TOL.root)]
        if len(bs):
            left = self.slope(bs, side=-1)
            if np.any(self.slope(bs, side=+1) - left < -slack * (1.0 + np.abs(left))):
                return False
        start = max(lo, self.r_lo)
        if hi <= start + TOL.root:
            return True
        d2 = demand_second_derivative(self, np.linspace(start, hi, CURVATURE_GRID))
        return not np.any(d2[1:-1] < -slack * (1.0 + abs(d2[len(d2) // 2])))


def demand_second_derivative(curve: DemandCurve, x, side: int = 1):
    """D'' at points where the conjecture has a density (no atom), from the
    stopping/max-win decomposition of D'.  Takes a scalar (returns a float)
    or an array."""
    G, H, n = curve.G, curve.H, curve.n
    u = G.cdf(x)
    g = G.pdf(x, side=side)
    gp = G.pdf_derivative(x, side=side)
    cg = curve.cutoff_cost(x)
    inside = (0 < cg) & (cg < curve.cbar)
    Hc = np.where(cg >= curve.cbar, 1.0, np.where(cg > NO_COST, H.cdf_left(cg), 0.0))
    hc = np.where(inside, H.pdf(cg, side=-side), 0.0)
    hpc = np.where(inside, H.pdf_derivative(cg, side=-side), 0.0)
    J, dJdu = pooled_jump(u, n)
    pow3 = (n - 1) * (n - 2) * _pow(u, n - 3) if n > 2 else 0.0
    return _result(
        -g * hc * J
        - _pow(1.0 - u, 2) * hpc * J
        + (1.0 - u) * hc * g * dJdu
        + pow3 * _pow(g, 2) * Hc
        + (n - 1) * _pow(u, n - 2) * gp * Hc
        - (n - 1) * _pow(u, n - 2) * g * hc * (1.0 - u)
    )


def type_demand(G: PiecewisePolyDist, x: float, c: float, n: int) -> float:
    """Purchase probability from a single consumer type with cost c: the
    visit probability if x clears their cutoff, else the (tie-aware) max-win
    probability."""
    r = reservation_value(G, c)  # the top of the support for c <= NO_COST
    if x >= r and c > NO_COST:
        return power_sum(G.cdf_left(r), 1.0, n) / n
    if G.atom_mass_at(x) > 1e-15:
        return power_sum(G.cdf_left(x), G.cdf(x), n) / n
    return G.cdf(x) ** (n - 1)


def interim_demand(
    G: PiecewisePolyDist, x: float, n: int, H: PiecewisePolyDist, side: int = 0
) -> float:
    """Interim demand D(x; G): probability a firm with signal x is chosen
    when rivals play G, costs follow H.  ``side`` picks one-sided limits at
    discontinuities (atoms of G); the default is the fair-tie value."""
    return DemandCurve(G, n, H).value(x, side)


def demand_margins(
    G: PiecewisePolyDist, x: float, n: int, H: PiecewisePolyDist, side: int = 1
) -> tuple[float, float]:
    """(extensive, intensive) decomposition of D'(x; G); one-sided at kinks."""
    return DemandCurve(G, n, H).margins(x, side)


def expected_payoff(
    G_dev: PiecewisePolyDist,
    G_star: PiecewisePolyDist,
    n: int,
    H: PiecewisePolyDist,
    curve: DemandCurve | None = None,
) -> float:
    """A firm's expected payoff from playing G_dev while rivals play G_star
    and consumers conjecture G_star:  integral of D(x; G_star) dG_dev(x)
    over polynomial pieces plus atom terms.  The rule
    (:meth:`DemandCurve.integral_nodes`) covers the degree n d_G + d_H (d_G + 1)
    + 1 + d_W of each piece, d_G the degree of G_star's CDF and d_H, d_W those
    of the densities of H and G_dev, so it is exact up to rounding unless
    that degree exceeds 383, where the node cap of
    :func:`censearch._poly.gauss_legendre` binds.  Against itself
    (G_dev = G_star) every feasible symmetric strategy earns 1/n: each
    consumer buys exactly once and firms are symmetric."""
    D = curve if curve is not None else DemandCurve(G_star, n, H)
    kinks = np.concatenate([D.x_breaks, D.G.breaks])  # G's atoms sit on its breakpoints
    return _integrate(G_dev, D.value, kinks, D.integral_nodes(G_dev))
