"""Shape analysis of the search-cost distribution.

The sufficient statistic for how much information firms disclose in
equilibrium is the *average slope* of the cost distribution,
``S(c) = H(c)/c`` (with ``S(0) = h(0)``): its minimum measures how evenly
search costs are spread.  This module computes the statistics that drive the
threshold solver:

* :func:`average_slope`         -- S(c)
* :func:`concavity_tail_start`  -- start of the maximal upper interval with
                                   nonincreasing density
* :func:`critical_min_set`      -- stationary points of S that are running
                                   minima (points, kinks, plateaus)
* :func:`smallest_local_min`    -- location of the smallest such minimum
* :func:`crossing_solution`     -- where S re-attains that minimum value on
                                   its way down to 1/cbar
* :func:`assumption_diag_check` -- is the global minimum of S attained
                                   strictly below the support top?

Detection is exact: stationary points of S solve the polynomial
``c*h(c) - H(c) = 0`` on each segment, so no grid resolution enters the
verdicts; the dense scan only feeds the CSV export.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._poly import polyder, polyval, real_roots_in
from .dists import PiecewisePolyDist

__all__ = [
    "CostShapeReport",
    "average_slope",
    "slope_derivative",
    "concavity_tail_start",
    "critical_min_set",
    "smallest_local_min",
    "crossing_solution",
    "assumption_diag_check",
    "global_min_slope",
    "classify_case",
    "cost_shape_report",
    "scan_table",
]


def _require_continuous(H: PiecewisePolyDist):
    if len(H.atom_locs) and np.any(H.atom_masses > 0):
        raise ValueError("cost-shape analysis needs an atom-free cost distribution")


def average_slope(H: PiecewisePolyDist, c: float) -> float:
    """S(c) = H(c)/c for c > 0, defined as h(0) at c = 0."""
    lo = H.support_lo
    if c <= lo + 1e-15:
        return H.pdf(lo, side=+1)
    return H.cdf(c) / c


def slope_derivative(H: PiecewisePolyDist, c: float, side: int = 1) -> float:
    """S'(c) = (h(c) - S(c)) / c, one-sided at density jumps; h'(0)/2 at 0."""
    if c <= H.support_lo + 1e-15:
        return 0.5 * H.pdf_derivative(H.support_lo, side=+1)
    return (H.pdf(c, side=side) - average_slope(H, c)) / c


def _stationary_poly(H: PiecewisePolyDist, i: int) -> np.ndarray:
    """W(c) = c*h(c) - H(c) on segment i; W(c) = 0 <=> S'(c) = 0 for c > 0."""
    h = H.coefs[i]
    w = -H.cdf_poly(i)
    w[1 : len(h) + 1] += h
    return w


def _is_plateau(H: PiecewisePolyDist, i: int) -> bool:
    w = _stationary_poly(H, i)
    lo, hi = float(H.breaks[i]), float(H.breaks[i + 1])
    scale = max(np.max(np.abs(w)), H.cdf(hi), 1e-30)
    return bool(np.all(np.abs(polyval(w, np.linspace(lo, hi, 9))) <= 1e-12 * scale))


def _segment_slope_candidates(H: PiecewisePolyDist, i: int, upto: float | None = None):
    """(c, S(c)) candidates for extrema of S on segment i (or its prefix),
    smallest c first."""
    lo, hi = float(H.breaks[i]), float(H.breaks[i + 1])
    if upto is not None:
        hi = min(hi, upto)
        if hi <= lo:
            return []
    pts = {lo, hi}
    w = _stationary_poly(H, i)
    for r in real_roots_in(w, lo, hi):
        if r > H.support_lo + 1e-13:
            pts.add(float(r))
    return [(c, average_slope(H, c)) for c in sorted(pts)]


def _segment_min_slope(H: PiecewisePolyDist, i: int, upto: float | None = None) -> tuple[float, float]:
    """(min of S on segment i (or prefix), smallest attaining c); exact."""
    cand = _segment_slope_candidates(H, i, upto)
    best_v, best_c = np.inf, float(H.breaks[i + 1])
    for c, v in cand:
        if v < best_v - 1e-15:
            best_v, best_c = v, c
    return float(best_v), float(best_c)


def global_min_slope(H: PiecewisePolyDist) -> tuple[float, float]:
    """(min_c S(c), smallest attaining c) over the whole support; exact."""
    _require_continuous(H)
    best = min(_segment_min_slope(H, i)[0] for i in range(len(H.coefs)))
    args = [
        c
        for i in range(len(H.coefs))
        for c, v in _segment_slope_candidates(H, i)
        if v <= best + 1e-11 * max(1.0, best)
    ]
    return float(best), float(min(args))


def concavity_tail_start(H: PiecewisePolyDist, tol: float = 1e-11) -> float:
    """Infimum of c such that the density is nonincreasing on (c, cbar].

    Walks segments from the top.  Any density discontinuity at an interior
    breakpoint closes the window (baseline model densities are continuous;
    jump-carrying inputs are treated conservatively).  When even the topmost
    piece increases right up to the top, returns the support top.
    """
    _require_continuous(H)
    start = H.support_hi
    for i in range(len(H.coefs) - 1, -1, -1):
        lo, hi = float(H.breaks[i]), float(H.breaks[i + 1])
        dcoef = polyder(H.coefs[i])
        last_pos = _last_positive_point(dcoef, lo, hi, tol)
        if last_pos is not None:
            return last_pos
        start = lo
        if i > 0:
            left = polyval(H.coefs[i - 1], lo)
            right = polyval(H.coefs[i], lo)
            if abs(left - right) > 1e-10 * max(1.0, abs(left), abs(right)):
                return start
    return start


def _last_positive_point(coefs, lo: float, hi: float, tol: float) -> float | None:
    """sup{t in [lo,hi]: p(t) > tol}, or None if p <= tol throughout."""
    cuts = [lo] + [float(r) for r in real_roots_in(np.asarray(coefs, float), lo, hi)] + [hi]
    cuts = sorted(set(cuts))
    last = None
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b - a < 1e-15:
            continue
        if polyval(np.asarray(coefs, float), 0.5 * (a + b)) > tol:
            last = b
    return last


@dataclass
class _Critical:
    lo: float
    hi: float
    value: float


def _criticals(H: PiecewisePolyDist, tol: float = 1e-9) -> list[_Critical]:
    _require_continuous(H)
    out: list[_Critical] = []
    prefix = np.inf  # running min of S over [0, segment start)
    lo0, top = H.support_lo, H.support_hi
    for i in range(len(H.coefs)):
        lo, hi = float(H.breaks[i]), float(H.breaks[i + 1])
        if _is_plateau(H, i):
            val = average_slope(H, 0.5 * (lo + hi))
            if val <= prefix + tol:
                out.append(_Critical(lo, hi, val))
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
            pref = min(prefix, _segment_min_slope(H, i, upto=b)[0])
            if val <= pref + tol:
                out.append(_Critical(b, b, val))
        w = _stationary_poly(H, i)
        for r in real_roots_in(w, lo, hi):
            c0 = float(r)
            if c0 <= lo + 1e-13 or c0 >= hi - 1e-13 or c0 <= lo0 + 1e-13:
                continue
            val = average_slope(H, c0)
            if val <= min(prefix, _segment_min_slope(H, i, upto=c0)[0]) + tol:
                out.append(_Critical(c0, c0, val))
        prefix = min(prefix, _segment_min_slope(H, i)[0])
    out.sort(key=lambda c: (c.lo, c.hi))
    merged: list[_Critical] = []
    for c in out:
        if merged and c.lo <= merged[-1].hi + 1e-12:
            merged[-1].hi = max(merged[-1].hi, c.hi)
            merged[-1].value = min(merged[-1].value, c.value)
        else:
            merged.append(_Critical(c.lo, c.hi, c.value))
    return merged


def critical_min_set(H: PiecewisePolyDist, tol: float = 1e-9) -> list[tuple[float, float]]:
    """Points and closed intervals where the average slope is stationary
    (two-sided zero derivative, a flat plateau, or a kink minimum at a
    density jump) *and* is a running minimum over [0, c]."""
    return [(c.lo, c.hi) for c in _criticals(H, tol)]


def _crit_is_top_only(crit: list[_Critical], top: float) -> bool:
    return len(crit) == 0 or (len(crit) == 1 and crit[0].lo >= top - 1e-12)


def smallest_local_min(H: PiecewisePolyDist, tol: float = 1e-9) -> float:
    """Location of the smallest critical minimum of the average slope;
    plateau ties resolve to the largest minimizer.  Empty or top-only
    critical sets fall back to the concavity tail start."""
    crit = _criticals(H, tol)
    if _crit_is_top_only(crit, H.support_hi):
        return concavity_tail_start(H)
    best = min(c.value for c in crit)
    return float(max(c.hi for c in crit if c.value <= best + tol))


def crossing_solution(H: PiecewisePolyDist, tol: float = 1e-9) -> float | None:
    """The unique c above the smallest critical minimum where S re-attains
    that minimum's value; exactly cbar at the boundary equality
    S = 1/cbar; absent when the minimum lies below 1/cbar or the critical
    set is empty."""
    crit = _criticals(H, tol)
    if not crit:
        return None
    cbar = H.support_hi
    c_loc = smallest_local_min(H, tol)
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
        g[1] -= s_loc
        for r in real_roots_in(g, max(lo, c_loc), hi):
            c = float(r)
            if c > c_loc + 1e-10:
                return c
    return cbar  # numerically indistinguishable boundary case


def assumption_diag_check(
    H: PiecewisePolyDist, tol: float = 1e-9
) -> tuple[bool, float | None, float | None]:
    """Does the average slope attain its global minimum strictly below the
    support top?  Returns (holds, minimizer, density at the minimizer); the
    minimizer reported is the smallest attaining point; its density is the
    left limit at interior kinks."""
    _require_continuous(H)
    smin, arg = global_min_slope(H)
    cbar = H.support_hi
    if arg >= cbar - max(1e-12, 1e-9 * cbar):
        return False, None, None
    side = -1 if arg > H.support_lo + 1e-15 else +1
    return True, float(arg), float(H.pdf(arg, side=side))


def classify_case(H: PiecewisePolyDist, mu: float, tol: float = 1e-9) -> str:
    """Case label for the maximal-threshold formula: from the smallest
    critical minimum of the average slope -- a) at or below 1/mu,
    b) between 1/mu and 1/cbar, c) above 1/cbar, d) no usable critical set
    (empty or a single point at the support top)."""
    crit = _criticals(H, tol)
    cbar = H.support_hi
    if _crit_is_top_only(crit, cbar):
        return "d"
    s_loc = average_slope(H, smallest_local_min(H, tol))
    if s_loc <= 1.0 / mu + tol:
        return "a"
    if s_loc <= 1.0 / cbar + tol:
        return "b"
    return "c"


@dataclass
class CostShapeReport:
    """Scan artifacts of the cost distribution's average slope."""

    even_point: float | None       # global minimizer of S (None if only at cbar)
    even_density: float | None     # density there ("evenness")
    even_ok: bool                  # global min attained strictly below cbar
    concave_from: float            # start of the nonincreasing-density tail
    critical_set: list[tuple[float, float]]
    best_min: float                # smallest critical minimum location
    best_min_slope: float          # S at best_min
    crossing: float | None         # where S re-attains that value above
    min_slope: float               # global min of S
    case: str                      # threshold-solver case label: a|b|c|d
    support_hi: float
    scan: np.ndarray | None = field(default=None, repr=False)

    def to_json(self) -> dict:
        return {
            "even_point": self.even_point,
            "even_density": self.even_density,
            "even_ok": self.even_ok,
            "concave_from": self.concave_from,
            "critical_set": [[lo, hi] for lo, hi in self.critical_set],
            "best_min": self.best_min,
            "best_min_slope": self.best_min_slope,
            "crossing": self.crossing,
            "min_slope": self.min_slope,
            "case": self.case,
            "support_hi": self.support_hi,
        }


def cost_shape_report(
    H: PiecewisePolyDist,
    mu: float,
    tol: float = 1e-9,
    with_scan: bool = False,
    scan_per_segment: int = 4096,
) -> CostShapeReport:
    even_ok, cm, hcm = assumption_diag_check(H, tol)
    c_loc = smallest_local_min(H, tol)
    rep = CostShapeReport(
        even_point=cm,
        even_density=hcm,
        even_ok=even_ok,
        concave_from=concavity_tail_start(H),
        critical_set=critical_min_set(H, tol),
        best_min=c_loc,
        best_min_slope=average_slope(H, c_loc),
        crossing=crossing_solution(H, tol),
        min_slope=global_min_slope(H)[0],
        case=classify_case(H, mu, tol),
        support_hi=H.support_hi,
    )
    if with_scan:
        rep.scan = scan_table(H, scan_per_segment)
    return rep


def scan_table(H: PiecewisePolyDist, per_segment: int = 4096) -> np.ndarray:
    """Columns (c, H(c), h(c), S(c), S'(c)) on a dense per-segment grid."""
    _require_continuous(H)
    rows = []
    for i in range(len(H.coefs)):
        lo, hi = float(H.breaks[i]), float(H.breaks[i + 1])
        cs = np.linspace(lo, hi, per_segment, endpoint=(i == len(H.coefs) - 1))
        for c in cs:
            side = +1 if c < hi else -1
            rows.append((c, H.cdf(c), H.pdf(c, side=side), average_slope(H, c), slope_derivative(H, c, side=side)))
    return np.asarray(rows)
