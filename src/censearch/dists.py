"""Distributions on a compact interval and the search-market primitives.

A :class:`PiecewisePolyDist` is a probability distribution represented by
piecewise-polynomial density segments (degree <= 3) plus a finite atom list.
That representation is closed under everything the market model needs
(truncation, censorship, mixtures) and makes every integral exact up to
rounding, short of the Gauss-Legendre node cap that
:func:`censearch._poly.gauss_legendre` states.

Module-level operations: :func:`mean`, :func:`incremental_benefit` (expected
gain from one more search given the current best option), its inverse
:func:`reservation_value`, :func:`truncated_mean_above`, and
:func:`mpc_check` (mean-preserving-contraction feasibility).  Two walks serve
every question about a pair of laws or a law and a function:
:func:`_cdf_difference` (G - F piece by piece, exact polynomials) and
:func:`_integrate` (int f dW, atoms and density pieces).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _poly
from ._poly import poly_range_on, polyval, real_roots_in

__all__ = [
    "Tolerances",
    "PiecewisePolyDist",
    "MarketConfig",
    "mean",
    "incremental_benefit",
    "reservation_value",
    "truncated_mean_above",
    "mpc_check",
    "dist_from_json",
]

MASS_TOL = 1e-12
BREAK_TOL = 1e-14  # x of the support sits on breakpoint b when b - BREAK_TOL <= x <= b
ATOM_PAD = 1e-9    # half-width of the interval that carries a law of atoms alone
NO_COST = 1e-15    # the one zero-cost rule: a cost at or below it is zero (no search)
# quantile inverts at most this many draws at a time: it bounds the ~30
# temporaries of the iteration to a few MB, which also keeps them in cache
# (on a 2-core Xeon, 110k draws from the density 3x^2 took 32-34 ms in blocks
# of 2^14 against 45-61 ms in one block, and 39-44 ms in blocks of 2^12 or
# 2^15; from a linear density, one round per draw, 8-9 ms in blocks of 2^14)
QUANTILE_BLOCK = 1 << 14


@dataclass(frozen=True)
class Tolerances:
    """The verifiers' fixed slacks; ``TOL`` is the one instance.  ``ineq`` is
    the slack of ``verify_uce``'s convexity, domination and cost checks and of
    the cost law's slope analysis, and 1e3 ineq that of the disclosure test of
    ``verify_price_function``.  ``root`` is read by no root finder: it is the
    threshold at or below which ``verify_uce`` sees no disclosure, the pad
    ``DemandCurve.convex_on`` leaves at interval ends, and ``solve_a_max``'s
    supremum edge."""

    root: float = 1e-10
    ineq: float = 1e-9


TOL = Tolerances()


class PiecewisePolyDist:
    """Distribution on [breaks[0], breaks[-1]] with polynomial density pieces
    and atoms.  Atoms are normalized to sit on breakpoints, so the CDF only
    jumps at breakpoints and every piece is smooth inside its interval.

    :meth:`_locate` alone decides which breakpoint a point sits on.  There
    ``cdf``, ``cdf_left`` and ``atom_mass_at`` read the breakpoint tables,
    off the breakpoints the atom is 0, so G(x-) <= G(x) and the two differ
    by ``atom_mass_at(x)``; the one-sided densities pick the piece by side.

    ``coefs`` holds the density pieces in x, as given: the input and JSON
    form, read outside construction only to count segments or to build a new
    law.  Construction builds every table the queries read, one column per
    segment (ascending powers, zero-padded to a common degree), in the
    coordinate where it is accurate: in t = x - lo the density ``_pdf``, its
    slope ``_dpdf``, G (``_P``) and K (``_PP``), and in w = hi - x the
    survival 1 - G (``_R``) and the tail (``_RR``).  G and K accumulate from
    the bottom, 1 - G and the tail from the top.  Every query (``cdf``, ``cdf_left``, ``pdf``, ``pdf_derivative``,
    ``cdf_integral``, ``tail_gap``, ``quantile``) is a segment lookup plus
    Horner on one table; it takes a scalar (and returns a float) or an array.
    """

    __slots__ = (
        "breaks",
        "coefs",
        "atom_locs",
        "atom_masses",
        "_inner",
        "_dens_min",
        "_dens_max",
        "_atom_at",
        "_pdf",
        "_dpdf",
        "_P",
        "_PP",
        "_R",
        "_RR",
        "_P_exact",
        "_RR_exact",
        "_cdf_at",
        "_cdf_left_at",
        "_kint_at",
        "_tail_at",
    )

    def __init__(self, breaks, coefs, atoms=()):
        breaks = np.asarray(breaks, dtype=float)
        coefs = [np.asarray(c, dtype=float) for c in coefs]
        atoms = sorted((float(a), float(m)) for a, m in atoms)
        if len(breaks) != len(coefs) + 1:
            raise ValueError("need one coefficient array per segment")
        if np.any(np.diff(breaks) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        locs = [a for a, _ in atoms]
        if len(set(locs)) != len(locs):
            raise ValueError("duplicate atom locations")
        if atoms and (atoms[0][0] < breaks[0] - BREAK_TOL or atoms[-1][0] > breaks[-1] + BREAK_TOL):
            raise ValueError("atom outside support")
        breaks, coefs, atoms = _insert_atom_breaks(breaks, coefs, atoms)
        self.breaks = breaks
        self.coefs = coefs
        self.atom_locs = np.array([a for a, _ in atoms], dtype=float)
        self.atom_masses = np.array([m for _, m in atoms], dtype=float)
        self._build_tables()
        self._validate()
        # _validate checked the rounded sum of the masses; G reads exactly 1 at
        # the top, and G(-) there 1 less the top atom
        self._cdf_at[-1] = 1.0
        self._cdf_left_at[-1] = 1.0 - self._atom_at[-1]

    # -- construction -----------------------------------------------------

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "PiecewisePolyDist":
        return cls([lo, hi], [np.array([1.0 / (hi - lo)])])

    @classmethod
    def point_mass(cls, x: float) -> "PiecewisePolyDist":
        """Degenerate distribution; carried on [x - ATOM_PAD, x + ATOM_PAD] so
        the object still has a well-formed support."""
        return cls([x - ATOM_PAD, x + ATOM_PAD], [np.zeros(1)], atoms=[(x, 1.0)])

    @classmethod
    def mixture(cls, components, weights) -> "PiecewisePolyDist":
        weights = np.asarray(weights, dtype=float)
        if np.any(weights < -MASS_TOL) or abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError("mixture weights must be a probability vector")
        cuts = sorted({float(b) for d in components for b in d.breaks})
        breaks = np.array(cuts)
        coefs = []
        for i in range(len(breaks) - 1):
            mid = 0.5 * (breaks[i] + breaks[i + 1])
            c = np.zeros(4)
            for w, d in zip(weights, components):
                if d.breaks[0] <= mid <= d.breaks[-1]:
                    cc = d.coefs[d._locate(mid)[2]]
                    c[: len(cc)] += w * cc
            coefs.append(c)
        atoms: dict[float, float] = {}
        for w, d in zip(weights, components):
            for a, m in zip(d.atom_locs, d.atom_masses):
                atoms[float(a)] = atoms.get(float(a), 0.0) + w * float(m)
        return cls(breaks, coefs, sorted(atoms.items()))

    # -- internals ---------------------------------------------------------

    def _build_tables(self):
        nseg = len(self.coefs)
        lo, hi = self.breaks[:-1], self.breaks[1:]
        width = hi - lo
        self._inner = self.breaks[1:-1]
        # exact (min, max) of the density on each segment
        ranges = [poly_range_on(c, lo[i], hi[i]) for i, c in enumerate(self.coefs)]
        self._dens_min, self._dens_max = np.array(ranges).T
        # at least two rows: _poly.polyint, like numpy's, returns a one-term
        # (not two-term) antiderivative for a table that is a single row of zeros
        dens = np.zeros((max(2, max(len(c) for c in self.coefs)), nseg))
        for i, c in enumerate(self.coefs):
            dens[: len(c), i] = c
        atom_at_break = np.zeros(nseg + 1)
        for a, m in zip(self.atom_locs, self.atom_masses):
            atom_at_break[int(np.argmin(np.abs(self.breaks - a)))] += m
        self._atom_at = atom_at_break
        # each table's constant term is its value at the segment end it starts
        # from, and its value at the other end starts the next segment's
        self._pdf = _poly.polyshift(dens, lo)
        self._dpdf = _poly.polyder(self._pdf)
        P = _poly.polyint(self._pdf)
        seg_mass = polyval(P, width)
        cdf = np.zeros(nseg + 1)  # cdf right-limit at each breakpoint
        cdf[0] = atom_at_break[0]
        for i in range(nseg):
            cdf[i + 1] = cdf[i] + seg_mass[i] + atom_at_break[i + 1]
        P[0] = cdf[:-1]
        PP = _poly.polyint(P)
        self._kint_at = np.cumsum(np.concatenate([[0.0], polyval(PP, width)]))
        PP[0] = self._kint_at[:-1]
        self._P, self._PP, self._cdf_at, self._cdf_left_at = P, PP, cdf, cdf - atom_at_break
        # f(hi - w): the density shifted to hi, odd powers negated
        R = _poly.polyint(_poly.polyshift(dens, hi) * (-1.0) ** np.arange(len(dens))[:, None])
        seg_mass = polyval(R, width)
        surv = np.zeros(nseg + 1)  # 1 - G(b-) at each breakpoint b
        surv[-1] = atom_at_break[-1]
        for i in range(nseg - 1, 0, -1):
            surv[i] = surv[i + 1] + seg_mass[i] + atom_at_break[i]
        R[0] = surv[1:]
        RR = _poly.polyint(R)
        self._tail_at = np.append(np.cumsum(polyval(RR, width)[::-1])[::-1], 0.0)
        RR[0] = self._tail_at[1:]
        self._R, self._RR = R, RR
        # per segment: G (the tail) has degree <= 2 there, where the
        # second-order Taylor step of _bracketed_newton is exact
        self._P_exact, self._RR_exact = ~P[3:].any(axis=0), ~RR[3:].any(axis=0)

    def _validate(self):
        total = self._cdf_at[-1]
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"total mass {total!r} != 1")
        if np.any(self.atom_masses < -MASS_TOL) or np.any(self.atom_masses > 1 + MASS_TOL):
            raise ValueError("atom masses must lie in [0, 1]")
        for i, lo_v in enumerate(self._dens_min.tolist()):
            if lo_v < -1e-11:
                raise ValueError(f"density negative on segment {i}: min={lo_v}")

    def _locate(self, x):
        """x as a float array (a numpy scalar for scalar input); x clamped to
        the support, where the pieces are evaluated (each query substitutes
        its extension outside); the right-continuous segment holding x and
        the first breakpoint j >= x (both clipped to the support); and whether
        x sits on breakpoint j: x lies in the support, at most BREAK_TOL below."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            x = x[()]
        xe = np.minimum(np.maximum(x, self.breaks[0]), self.breaks[-1])
        i = np.searchsorted(self._inner, x, side="right")
        j = i + (self.breaks[i] < x)
        return x, xe, i, j, (x == xe) & (self.breaks[j] - x <= BREAK_TOL)

    def cdf_poly(self, i: int) -> np.ndarray:
        """The CDF on segment i as one polynomial in t = x - lo_i (ascending
        powers, zero-padded): G(lo_i + t) for 0 <= t < hi_i - lo_i."""
        return self._P[:, i].copy()

    # -- queries -----------------------------------------------------------

    @property
    def support_lo(self) -> float:
        return float(self.breaks[0])

    @property
    def support_hi(self) -> float:
        return float(self.breaks[-1])

    def max_supp(self) -> float:
        """Top of the support: the largest breakpoint with an atom or with
        density above 1e-13 just below it; the support top when there is none."""
        live = self._atom_at > 0
        live[1:] |= self._dens_max > 1e-13
        return float(self.breaks[len(live) - 1 - np.argmax(live[::-1])])

    def min_supp(self) -> float:
        """Bottom of the support: the smallest breakpoint with an atom or with
        density above 1e-13 just above it; the support bottom when there is
        none."""
        live = self._atom_at > 0
        live[:-1] |= self._dens_max > 1e-13
        return float(self.breaks[np.argmax(live)])

    def atom_mass_at(self, x):
        """The atom on the breakpoint x sits on; 0 off the breakpoints."""
        _, _, _, j, on = self._locate(x)
        return _result(np.where(on, self._atom_at[j], 0.0))

    def _cdf(self, x, at_break: np.ndarray):
        x, xe, i, j, on = self._locate(x)
        g = polyval(self._P.take(i, axis=1), xe - self.breaks[i])
        g = np.where(x < self.breaks[0], 0.0, np.where(x > self.breaks[-1], 1.0, g))
        return _result(np.where(on, at_break[j], g))

    def cdf(self, x):
        """Right-continuous CDF, extended by 0/1 outside the support."""
        return self._cdf(x, self._cdf_at)

    def cdf_left(self, x):
        """Left limit of the CDF at x."""
        return self._cdf(x, self._cdf_left_at)

    def _density(self, table: np.ndarray, x, side: int):
        x, xe, i, j, on = self._locate(x)
        i = np.where(on, np.minimum(np.maximum(j if side > 0 else j - 1, 0), len(self.coefs) - 1), i)
        f = polyval(table.take(i, axis=1), xe - self.breaks[i])
        f = np.where((x < self.breaks[0]) | (x > self.breaks[-1]), 0.0, f)
        return _result(f)

    def pdf(self, x, side: int = 1):
        """Density with one-sided evaluation at breakpoints (side=+1 right)."""
        return self._density(self._pdf, x, side)

    def pdf_derivative(self, x, side: int = 1):
        return self._density(self._dpdf, x, side)

    def cdf_integral(self, x):
        """K(x) = int_{lo}^{x} G(t) dt, extended linearly above the support."""
        x, xe, i, _, _ = self._locate(x)
        k = polyval(self._PP.take(i, axis=1), xe - self.breaks[i])
        top = self.breaks[-1]
        k = np.where(x <= self.breaks[0], 0.0, np.where(x >= top, self._kint_at[-1] + (x - top), k))
        return _result(k)

    def _segment_tail(self, i, x):
        """int_x^{support_hi} (1 - G(t)) dt for x in segment i (one index per
        point), in w = hi_i - x."""
        return polyval(self._RR.take(i, axis=1), self.breaks[i + 1] - x)

    def tail_gap(self, x):
        """int_x^{support_hi} (1 - G(t)) dt; 0 above the support."""
        x, xe, i, _, _ = self._locate(x)
        t = self._segment_tail(i, xe)
        lo = self.breaks[0]
        t = np.where(x >= self.breaks[-1], 0.0, np.where(x <= lo, self._tail_at[0] + (lo - x), t))
        return _result(t)

    # array call sites keep their names
    cdf_vec = cdf
    pdf_vec = pdf
    tail_vec = tail_gap

    def quantile(self, u):
        """Inverse CDF (u is clipped to [0, 1]).

        For u inside an atom's jump the atom location is returned; elsewhere
        the unique continuity point with CDF(x) = u, the root of the segment
        CDF ``P_i(x - lo_i) = u`` on the containing segment i, found by
        :func:`_bracketed_newton` on the density and its slope.  On a segment
        whose density is constant or linear the segment CDF has degree <= 2,
        and one Taylor step from the false-position point finds the root: one
        evaluation of it per draw.
        """
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
        shape, u = u.shape, u.reshape(-1)  # the iteration works on the points off the atoms
        # smallest breakpoint index j with cdf(breaks[j]) >= u
        j = np.minimum(np.searchsorted(self._cdf_at, u, side="left"), len(self.breaks) - 1)
        x = self.breaks[j]
        rest = np.flatnonzero(~(u >= self._cdf_left_at[j]))
        for k in range(0, len(rest), QUANTILE_BLOCK):
            block = rest[k : k + QUANTILE_BLOCK]
            i, ub = j[block] - 1, u[block]
            x[block] = _bracketed_newton(
                i, ub, self.breaks[i], self.breaks[i + 1], self._cdf_at[i] - ub, self._cdf_left_at[i + 1] - ub,
                self._P_exact,
                lambda i, r: polyval(self._P.take(i, axis=1), r - self.breaks[i]),
                lambda i, r: polyval(self._pdf.take(i, axis=1), r - self.breaks[i]),
                lambda i, r: polyval(self._dpdf.take(i, axis=1), r - self.breaks[i]),
            )
        return float(x[0]) if shape == () else x.reshape(shape)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "kind": "poly-pieces",
            "support": [float(self.breaks[0]), float(self.breaks[-1])],
            "pieces": [
                {"to": float(self.breaks[i + 1]), "coef": [float(v) for v in self.coefs[i]]}
                for i in range(len(self.coefs))
            ],
            "atoms": [
                {"at": float(a), "mass": float(m)} for a, m in zip(self.atom_locs, self.atom_masses)
            ],
        }

    def __repr__(self):
        return (
            f"PiecewisePolyDist([{self.breaks[0]:.4g},{self.breaks[-1]:.4g}], "
            f"{len(self.coefs)} pieces, {len(self.atom_locs)} atoms)"
        )


def _bracketed_newton(i, target, a, b, ga, gb, exact, value, slope, curve):
    """The root r in [a, b] of ``value(i, r) = target``, per element, for a
    value increasing on the bracket with ``ga`` = value(a) - target <= 0 and
    ``gb`` = value(b) - target >= 0; ``slope(i, r)`` and ``curve(i, r)`` are
    the value's first and second derivatives, and i is handed through to
    all three (the segment index of each element).  ``exact`` flags, per
    segment, a value that is a polynomial of degree <= 2 there.

    The false-position point of the bracket is the first iterate, which is
    the root where the value is linear.  Each round evaluates g = value(r) -
    target and steps to the root of the value's second-order Taylor model at
    r: the Newton step where the slope is constant, and exact where the value
    has degree <= 2, where a plain Newton step only halves the distance to a
    root near a zero of the slope.  Every element makes the first round
    with no bracket upkeep, and stops there when g == 0, or when its segment
    is ``exact`` and the step lands strictly inside the bracket.  The others
    go on from that round's state, with the same arithmetic as if there had
    been no stop: each round moves the bracket end on g's side to r, a step
    that leaves the bracket gives way to false position, and false position
    to halving when it stalls (falls outside, or the last round did not
    halve the bracket).  Halving is geometric on a bracket above 0 that
    spans more than a factor 4, so that roots many orders of magnitude below
    its top are reached as well.  An element stops when g == 0, when its
    step is at most one ulp or when its bracket is at most two ulps wide,
    and after 64 rounds at the latest.
    """

    def taylor(i, r, target):
        g = value(i, r) - target
        fr = slope(i, r)
        newton = g / fr
        bend = curve(i, r) / fr
        return g, 2.0 * newton / (1.0 + np.sqrt(1.0 - 2.0 * newton * bend))

    r = a - ga * ((b - a) / (gb - ga))
    with np.errstate(divide="ignore", invalid="ignore"):  # failed steps fall back below
        g, step = taylor(i, r, target)
        x = np.where(g == 0, r, r - step)
        todo = np.flatnonzero((g != 0) & ~(exact[i] & (a < x) & (x < b)))
        if not len(todo):
            return x
        if len(todo) < len(x):
            i, r, a, b, ga, gb, target, g, step = (v[todo] for v in (i, r, a, b, ga, gb, target, g, step))
        width = np.full_like(target, np.inf)  # bracket width after the last round
        for rnd in range(64):
            if rnd:
                g, step = taylor(i, r, target)
            neg, pos = g < 0, g > 0
            np.copyto(a, r, where=neg)
            np.copyto(ga, g, where=neg)
            np.copyto(b, r, where=pos)
            np.copyto(gb, g, where=pos)
            nxt = r - step
            small = np.abs(step) <= np.spacing(np.abs(r))
            off = np.flatnonzero(~(small | ((a < nxt) & (nxt < b))))
            if len(off):
                lo, hi = a[off], b[off]
                fp = lo - ga[off] * ((hi - lo) / (gb[off] - ga[off]))
                mid = np.where((lo > 0) & (hi > 4.0 * lo), np.sqrt(lo) * np.sqrt(hi), 0.5 * (lo + hi))
                stall = ~((lo < fp) & (fp < hi)) | (hi - lo > 0.5 * width[off])
                nxt[off] = np.where(stall, mid, fp)
            width = b - a
            x[todo] = np.where(g == 0, r, nxt)
            go = np.flatnonzero(
                (g != 0) & ~small & (width > 2.0 * np.spacing(np.maximum(np.abs(a), np.abs(b))))
            )
            r = nxt
            if len(go) < len(todo):
                if not len(go):
                    break
                todo, i, r, a, b, ga, gb, target, width = (
                    v[go] for v in (todo, i, r, a, b, ga, gb, target, width)
                )
    return x


def _integrate(W: PiecewisePolyDist, f, kinks, npts: int) -> float:
    """int f dW: the sum of m * f(x) over W's atoms (mass m > 0, in order),
    then the density pieces of :func:`_density_integrals` between W's
    breakpoints and the kinks of f that lie strictly inside W's support,
    added in order.  f takes an array of points."""
    total = 0.0
    for m, v in zip(W.atom_masses, f(W.atom_locs)):
        if m > 0:
            total += m * v
    kinks = np.asarray(kinks, dtype=float)
    cuts = np.union1d(W.breaks, kinks[(W.breaks[0] < kinks) & (kinks < W.breaks[-1])])
    return float(sum(_density_integrals(W, f, cuts, npts).tolist(), total))


def _density_integrals(W: PiecewisePolyDist, f, cuts, npts: int) -> np.ndarray:
    """The integrals of w * f over each pair of consecutive cuts (sorted, and
    holding W's breakpoints) where W has density w, one entry per piece in
    order, by :func:`_poly.gauss_legendre` with npts nodes.  Pieces narrower
    than 1e-15 and pieces where w is zero are skipped; W's atoms are not
    included (:func:`_integrate` adds m * f at each).  w is the polynomial of
    the segment holding the piece (found from its middle node, which lies
    inside it however narrow it is), evaluated in t = x - lo by polyval."""
    cuts = np.asarray(cuts, dtype=float)
    lo, hi = cuts[:-1], cuts[1:]
    seg = np.searchsorted(W._inner, 0.5 * (lo + hi), side="right")
    keep = (hi - lo >= 1e-15) & W._pdf[:, seg].any(axis=0)

    def integrand(ts):
        i = np.searchsorted(W._inner, ts[:, ts.shape[1] // 2], side="right")
        return polyval(W._pdf[:, i, None], ts - W.breaks[i, None]) * f(ts)

    return _poly.gauss_legendre(integrand, lo[keep], hi[keep], npts)


def _result(vals):
    return vals if isinstance(vals, np.ndarray) and vals.ndim else float(vals)


def _pow(u, k: int):
    """u**k elementwise through the C library's pow, the one a Python float's
    ``**`` calls: numpy's vectorized pow differs from it in the last bit for
    a few percent of inputs, and an array query must return the bits of the
    same query made point by point."""
    return np.asarray(np.power(np.asarray(u, dtype=object), k), dtype=float)


def _insert_atom_breaks(breaks, coefs, atoms):
    """Split segments so that every atom location is a breakpoint.  An atom
    within BREAK_TOL of a breakpoint, on either side, moves onto it (and
    merges with an atom already there) rather than leave a sliver piece."""
    breaks = list(breaks)
    coefs = list(coefs)
    placed: dict[float, float] = {}
    for a, m in atoms:
        j = int(np.searchsorted(breaks, a))
        near = [breaks[i] for i in (j - 1, j)
                if 0 <= i < len(breaks) and abs(breaks[i] - a) <= BREAK_TOL]
        if near:
            a = min(near, key=lambda b: abs(b - a))
        elif 0 < j < len(breaks):  # outside the support: left to constructor validation
            breaks.insert(j, a)
            coefs.insert(j - 1, np.array(coefs[j - 1], dtype=float))
        placed[a] = placed.get(a, 0.0) + m
    return np.asarray(breaks, dtype=float), coefs, sorted(placed.items())


# -- distribution JSON schema ------------------------------------------------


def dist_from_json(spec: dict) -> PiecewisePolyDist:
    """Load the distribution JSON schema::

        {"kind": "uniform"|"poly-pieces"|"atoms"|"mixture",
         "support": [lo, hi],
         "pieces": [{"to": x, "coef": [c0, c1, c2, c3]}, ...],
         "atoms":  [{"at": x, "mass": p}, ...],
         "components": [{"weight": w, ...dist...}, ...]}   # mixture only

    Mixtures are flattened at load time.
    """
    kind = spec.get("kind")
    if kind == "uniform":
        lo, hi = spec["support"]
        return PiecewisePolyDist.uniform(float(lo), float(hi))
    if kind == "atoms":
        lo, hi = spec.get("support", (None, None))
        atoms = [(float(a["at"]), float(a["mass"])) for a in spec["atoms"]]
        first, last = min(a for a, _ in atoms), max(a for a, _ in atoms)
        if lo is None:
            lo, hi = first - ATOM_PAD, last + ATOM_PAD
        lo, hi = float(lo), float(hi)
        lo = min(lo, first - 1e-12)
        hi = max(hi, last + 1e-12)
        return PiecewisePolyDist([lo, hi], [np.zeros(1)], atoms=atoms)
    if kind == "poly-pieces":
        lo, hi = spec["support"]
        breaks = [float(lo)] + [float(p["to"]) for p in spec["pieces"]]
        if abs(breaks[-1] - float(hi)) > 1e-12:
            raise ValueError("last piece must end at the support top")
        coefs = [np.asarray(p["coef"], dtype=float) for p in spec["pieces"]]
        if any(len(c) > 4 for c in coefs):
            raise ValueError("density pieces must have degree <= 3")
        atoms = [(float(a["at"]), float(a["mass"])) for a in spec.get("atoms", [])]
        return PiecewisePolyDist(breaks, coefs, atoms=atoms)
    if kind == "mixture":
        comps = spec["components"]
        weights = [float(c["weight"]) for c in comps]
        dists = [dist_from_json({k: v for k, v in c.items() if k != "weight"}) for c in comps]
        return PiecewisePolyDist.mixture(dists, weights)
    raise ValueError(f"unknown distribution kind {kind!r}")


# -- market configuration ----------------------------------------------------


@dataclass
class MarketConfig:
    """The full game instance: match-value prior on [0,1], search-cost
    distribution on [0, cbar], number of firms."""

    prior: PiecewisePolyDist
    costs: PiecewisePolyDist
    n: int

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 2:
            raise ValueError("need an integer number of firms n >= 2")
        self.n = int(self.n)
        if abs(self.prior.support_lo) > 1e-12 or abs(self.prior.support_hi - 1.0) > 1e-12:
            raise ValueError("prior must live on [0, 1]")
        mu = mean(self.prior)
        if self.cbar >= mu:
            raise ValueError(
                f"cost support top {self.cbar} must be below the prior mean {mu}"
            )
        if np.any(self.prior._dens_min <= 0):
            raise ValueError("prior must have a strictly positive density")

    @property
    def mu(self) -> float:
        return mean(self.prior)

    @property
    def tol(self) -> Tolerances:  # always TOL: no market sets its own slacks
        return TOL

    @property
    def cbar(self) -> float:
        return self.costs.support_hi


# -- module-level operations -------------------------------------------------


def mean(dist: PiecewisePolyDist) -> float:
    """E[X] = support_lo + tail_gap(support_lo), the same bits."""
    return float(dist.breaks[0] + dist._tail_at[0])


def incremental_benefit(G: PiecewisePolyDist, x: float) -> float:
    """Expected gain from one more search given current best option x:
    int_x^1 (1 - G(t)) dt.  Decreasing in x; equals the mean at x=0 and 0 at
    the top of the support."""
    return G.tail_gap(x)


def reservation_value(G: PiecewisePolyDist, c):
    """The unique r with  int_r^1 (1 - G(t)) dt = c  (stopping cutoff of a
    consumer with search cost c).  Takes a scalar (returns a float) or an
    array of costs.

    Costs c <= NO_COST (zero) get max(supp(G)), the limit as c -> 0, and
    costs at or above the tail at the bottom of the support get mean - c
    (below the support the benefit is mean - r).  Every other cost is
    inverted: the breakpoint tails bracket r in one segment, where
    :func:`_bracketed_newton` inverts the segment tail in w = hi - r (slope
    1 - G, curvature -density) down to an ulp or two, or to the band where
    the rounding of the computed tail leaves its sign open.  On a segment of
    constant density the tail has degree 2, and one Taylor step from the
    false-position point finds the root: one tail evaluation per cost.
    """
    c = np.asarray(c, dtype=float)
    mu = mean(G)
    if (c > mu + 1e-12).any():
        raise ValueError("cost exceeds prior mean")
    tails = G.tail_gap(G.breaks)
    cs = c.reshape(-1)
    r = mu - cs
    near0 = cs <= NO_COST
    if near0.any():
        r[near0] = G.max_supp()
    rest = np.flatnonzero(~near0 & (cs < tails[0]))
    if len(rest):
        # tails[j] >= c > tails[j + 1]: the root lies in segment j
        cr = cs[rest]
        j = np.clip(np.searchsorted(-tails, -cr, side="right") - 1, 0, len(G.breaks) - 2)
        r[rest] = _bracketed_newton(
            j, -cr, G.breaks[j], G.breaks[j + 1], cr - tails[j], cr - tails[j + 1], G._RR_exact,
            lambda i, x: -G._segment_tail(i, x),
            lambda i, x: polyval(G._R.take(i, axis=1), G.breaks[i + 1] - x),
            lambda i, x: -polyval(G._pdf.take(i, axis=1), x - G.breaks[i]),
        )
    return float(r[0]) if c.ndim == 0 else r.reshape(c.shape)


def truncated_mean_above(F: PiecewisePolyDist, a: float) -> float:
    """E[v | v >= a] = int_a^top t dF / (1 - F(a-)); weakly increasing in a."""
    surv = 1.0 - F.cdf_left(a)
    if surv <= 1e-13:
        raise ValueError("empty upper tail")
    # int_a^top t dF = a*surv + int_a^top (1 - F(t)) dt  (parts)
    return float(a + F.tail_gap(a) / surv)


def mpc_check(
    G: PiecewisePolyDist, F: PiecewisePolyDist, tol: float = 1e-9
) -> tuple[bool, float]:
    """Is G a mean-preserving contraction of F?

    True iff the means agree within tol and int_0^x G <= int_0^x F for all x.
    Returns (verdict, max signed violation of the cumulative inequality); the
    violation is positive where the contraction constraint is breached.
    The difference is checked exactly: on each piece of
    :func:`_cdf_difference` it is a polynomial of degree <= 5 whose derivative
    is G - F, so its maximum lies at an end of the piece or at a real root of
    G - F there.
    """
    if abs(mean(G) - mean(F)) > tol:
        return False, float("inf")
    xs = np.concatenate([np.union1d(G.breaks, F.breaks)]  # every atom sits on a breakpoint
                        + [real_roots_in(d, a, b, origin=a) for a, b, d in _cdf_difference(G, F)])
    worst = float(np.max(G.cdf_integral(xs) - F.cdf_integral(xs)))
    return bool(worst <= tol), worst


def _cdf_difference(G: PiecewisePolyDist, F: PiecewisePolyDist):
    """G - F piece by piece, bottom to top: (a, b, G - F on [a, b) as a
    polynomial in t = x - a) for each pair of consecutive breakpoints of
    either law.  Each law contributes its segment CDF shifted to a, 0 below
    its support and 1 above; the polynomial's value at t = b - a is the left
    limit at b, and every atom sits on a breakpoint, so the pieces' ranges
    are the range of G - F."""
    cuts = np.union1d(G.breaks, F.breaks)
    for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        mid = 0.5 * (a + b)
        d = np.zeros(6)
        for sign, D in ((1.0, G), (-1.0, F)):
            if D.breaks[0] <= mid <= D.breaks[-1]:
                i = D._locate(mid)[2]
                c = _poly.polyshift(D.cdf_poly(i), a - D.breaks[i])
                d[: len(c)] += sign * c
            elif mid > D.breaks[-1]:
                d[0] += sign
        yield a, b, d
