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
:func:`demand_margins`.
"""

from __future__ import annotations

import numpy as np

from ._poly import gauss_nodes, nodes_for_degree, polyval
from .dists import PiecewisePolyDist, _pow, _result, mean, reservation_value

__all__ = [
    "DemandCurve",
    "jump_size",
    "type_demand",
    "interim_demand",
    "demand_margins",
    "expected_payoff",
    "equilibrium_payoff_identity",
]

NODE_BLOCK = 1 << 14  # quadrature nodes evaluated at once by the stop integral


def jump_size(G: PiecewisePolyDist, x, n: int):
    """Size of the upward jump in a consumer's purchase probability when the
    signal reaches their cutoff: visit probability minus max-win probability.
    Takes a scalar (returns a float) or an array.
    """
    gl, gr = G.cdf_left(x), G.cdf(x)
    top = gl >= 1.0 - 1e-15
    visit = (1.0 - _pow(gl, n)) / (n * np.where(top, 1.0, 1.0 - gl))
    return _result(np.where(top, 0.0, visit - _pow(gr, n - 1)))


def _visit_prob(g_left: float, n: int) -> float:
    """Probability the firm is reached while all earlier draws sit below the
    cutoff: (1 - g^n) / (n (1 - g)), continuously extended at g = 1."""
    if g_left >= 1.0 - 1e-12:
        return 1.0
    return (1.0 - g_left**n) / (n * (1.0 - g_left))


def _snap(value, knots: np.ndarray, tol: float = 1e-9):
    """Snap computed coordinates onto the nearest structural knot so that
    one-sided evaluation engages at kinks reached through root-finding."""
    value = np.asarray(value, dtype=float)
    near = knots[np.argmin(np.abs(knots - value[..., None]), axis=-1)]
    return np.where(np.abs(near - value) <= tol, near, value)


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
        self.r_lo = reservation_value(conjecture, self.cbar)
        cuts = {self.r_lo, self.r_hi}
        cuts.update(float(b) for b in conjecture.breaks if self.r_lo < b < self.r_hi)
        cuts.update(float(a) for a in conjecture.atom_locs if self.r_lo < a < self.r_hi)
        for b in costs.breaks:
            if 1e-14 < b < self.cbar - 1e-14:
                t = reservation_value(conjecture, float(b))
                if self.r_lo < t < self.r_hi:
                    cuts.add(t)
        self.x_breaks = np.array(sorted(cuts))
        self._gl_deg = 16 + 4 * self.n  # degree bound of the stop integrand
        self._cum = self._cumulative_stops()
        # cost atoms: mass stops exactly at its reservation image
        self._cost_atoms = []
        for c0, m0 in zip(costs.atom_locs, costs.atom_masses):
            if c0 <= 1e-15 or m0 <= 0:
                continue
            r0 = reservation_value(conjecture, float(c0))
            self._cost_atoms.append((float(c0), float(m0) * _visit_prob(conjecture.cdf_left(r0), self.n)))

    # -- stop integral -----------------------------------------------------

    def _stop_integrand(self, ts: np.ndarray) -> np.ndarray:
        g = self.G.cdf_vec(ts)
        cg = np.minimum(self.G.tail_vec(ts), self.cbar)
        h = self.H.pdf_vec(cg)
        return h * (1.0 - g**self.n) / self.n

    def _gl_piece(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The stop integral from lo to hi (hi >= lo), per entry.  Entries go
        through in blocks of at most NODE_BLOCK nodes, which bounds the
        temporaries, and each is summed by its own dot product, as a single
        point is (a matrix-vector product would regroup the sums)."""
        xg, wg = gauss_nodes(nodes_for_degree(self._gl_deg))
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        mids, halves = np.ravel(mid), np.ravel(half)
        sums = np.empty(mids.shape)
        step = max(NODE_BLOCK // len(xg), 1)
        for s in range(0, len(sums), step):
            ts = mids[s : s + step, None] + halves[s : s + step, None] * xg
            sums[s : s + step] = (self._stop_integrand(ts)[:, None, :] @ wg)[:, 0]
        return half * sums.reshape(np.shape(mid))

    def _cumulative_stops(self) -> np.ndarray:
        pieces = self._gl_piece(self.x_breaks[:-1], self.x_breaks[1:])
        return np.concatenate([[0.0], np.cumsum(pieces)])

    def stop_component(self, x):
        """Demand from consumers who stop on the spot at signals <= x."""
        # below r_lo nobody stops: clipping there leaves an empty piece
        xe = np.clip(np.asarray(x, dtype=float), self.r_lo, self.r_hi)
        i = np.clip(np.searchsorted(self.x_breaks, xe, side="right") - 1, 0, len(self.x_breaks) - 2)
        out = self._cum[i] + self._gl_piece(self.x_breaks[i], xe)
        if self._cost_atoms:
            cg = self.cutoff_cost(x)
            out = out + sum(np.where(c0 >= cg - 1e-12, v, 0.0) for c0, v in self._cost_atoms)
        return _result(out)

    # -- evaluation ----------------------------------------------------------

    def cutoff_cost(self, x):
        """Search cost of the consumer indifferent at signal x (the inverse
        reservation map), clipped to the cost support."""
        x = np.asarray(x, dtype=float)
        return _result(np.where(x >= self.G.support_lo, self.G.tail_gap(x), mean(self.G) - x))

    def max_win_prob(self, x, side: int = 0):
        """Probability of being the purchase after consumers exhaust search:
        G(x)^(n-1), with the fair tie value at atoms of G (side=0)."""
        gr, gl = self.G.cdf(x), self.G.cdf_left(x)
        win = _pow(gl if side < 0 else gr, self.n - 1)
        if side == 0:
            alpha = self.G.atom_mass_at(x)
            tie = alpha > 1e-15
            tie_win = (_pow(gr, self.n) - _pow(gl, self.n)) / (self.n * np.where(tie, alpha, 1.0))
            win = np.where(tie, tie_win, win)
        return _result(win)

    def continue_fraction(self, x):
        """Fraction of consumers still searching after seeing x (cutoff
        strictly above x); zero-cost consumers always continue."""
        cg = self.cutoff_cost(x)
        return _result(np.where(cg <= 1e-15, self.H.cdf(self.H.support_lo), self.H.cdf_left(cg)))

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
        hfrac = np.where(cg > 1e-15, self.H.cdf_left(cg), 0.0)
        intensive = (self.n - 1) * _pow(g, self.n - 2) * gdens * hfrac
        return _result(extensive), _result(intensive)


def type_demand(G: PiecewisePolyDist, x: float, c: float, n: int) -> float:
    """Purchase probability from a single consumer type with cost c: the
    visit probability if x clears their cutoff, else the (tie-aware) max-win
    probability."""
    top = G.max_supp()
    r = top if c <= 1e-15 else reservation_value(G, c)
    if x >= r and c > 1e-15:
        return _visit_prob(G.cdf_left(r), n)
    alpha = G.atom_mass_at(x)
    if alpha > 1e-15:
        return (G.cdf(x) ** n - G.cdf_left(x) ** n) / (n * alpha)
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
    and consumers conjecture G_star:  integral of D(x; G_star) dG_dev(x),
    exact over polynomial pieces plus atom terms."""
    D = curve if curve is not None else DemandCurve(G_star, n, H)
    total = 0.0
    for m, v in zip(G_dev.atom_masses, D.value(G_dev.atom_locs)):
        if m > 0:
            total += m * v
    lo0, hi0 = G_dev.breaks[0], G_dev.breaks[-1]
    cuts = set(G_dev.breaks)
    cuts.update(float(b) for b in D.x_breaks if lo0 < b < hi0)
    cuts.update(float(b) for b in D.G.breaks if lo0 < b < hi0)
    cuts.update(float(a) for a in D.G.atom_locs if lo0 < a < hi0)
    cuts = sorted(cuts)
    xg, wg = gauss_nodes(nodes_for_degree(D._gl_deg + 4 * n + 8))
    pieces = []  # (half width, nodes, density coefficients) per piece with density
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        coefs = G_dev.coefs[G_dev._segment_index(0.5 * (lo + hi))]
        if hi - lo >= 1e-15 and np.max(np.abs(coefs)) != 0.0:
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            pieces.append((half, mid + half * xg, coefs))
    dvals = D.value(np.array([ts for _, ts, _ in pieces]))
    for (half, ts, coefs), d in zip(pieces, dvals):
        total += half * float(np.dot(wg, polyval(coefs, ts) * d))
    return float(total)


def equilibrium_payoff_identity(G: PiecewisePolyDist, n: int, H: PiecewisePolyDist) -> float:
    """|payoff of G against itself - 1/n|: zero for every feasible symmetric
    strategy (each consumer buys exactly once and firms are symmetric)."""
    return abs(expected_payoff(G, G, n, H) - 1.0 / n)
