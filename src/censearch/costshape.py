"""Shape analysis of the search-cost distribution.

The sufficient statistic for how much information firms disclose in
equilibrium is the *average slope* of the cost distribution,
``S(c) = H(c)/c`` (with ``S(0) = h(0)``): its minimum measures how evenly
search costs are spread.  One analysis per cost law serves every statistic:
a table of each segment's candidates for the extrema of S (both ends and the
stationary roots, from one root-finding pass) gives the global minimum, the
minimum up to any cost and the critical set.  :func:`cost_shape_report`
collects the statistics that follow:

* :func:`concavity_tail_start`  -- start of the maximal upper interval with
                                   nonincreasing density, from the density's
                                   trend (:func:`_density_runs`)
* :func:`critical_min_set`      -- stationary points of S that are running
                                   minima (points, kinks, plateaus)
* :func:`smallest_local_min`    -- location of the smallest such minimum
* :func:`crossing_solution`     -- where S re-attains that minimum value on
                                   its way down to 1/cbar
* :func:`assumption_diag_check` -- is the global minimum of S attained
                                   strictly below the support top?
* :func:`classify_case`         -- the threshold solver's case label a-d

Detection is exact: stationary points of S solve the polynomial
``c*h(c) - H(c) = 0`` on each segment, so no grid resolution enters the
verdicts; the dense scan only feeds the CSV export.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from ._poly import poly_range_on, polyval, real_roots_in
from .dists import TOL, PiecewisePolyDist, _result

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

RISE_TOL = 1e-11    # a density slope above this counts as rising


def _require_continuous(H: PiecewisePolyDist):
    if len(H.atom_locs):
        raise ValueError("cost-shape analysis needs an atom-free cost distribution")


def average_slope(H: PiecewisePolyDist, c):
    """S(c) = H(c)/c for c > 0, defined as h(0) at c = 0.  Takes a scalar
    (returns a float) or an array."""
    c = np.asarray(c, dtype=float)
    at_lo = c <= H.support_lo + 1e-15
    return _result(np.where(at_lo, H.pdf(H.support_lo, side=+1), H.cdf(c) / np.where(at_lo, 1.0, c)))


def slope_derivative(H: PiecewisePolyDist, c, side: int = 1):
    """S'(c) = (h(c) - S(c)) / c, one-sided at density jumps; h'(0)/2 at 0."""
    c = np.asarray(c, dtype=float)
    at_lo = c <= H.support_lo + 1e-15
    slope = (H.pdf(c, side=side) - average_slope(H, c)) / np.where(at_lo, 1.0, c)
    return _result(np.where(at_lo, 0.5 * H.pdf_derivative(H.support_lo, side=+1), slope))


def _stationary_poly(H: PiecewisePolyDist, i: int) -> np.ndarray:
    """W(c) = c*h(c) - H(c) on segment i in t = c - lo_i; W = 0 <=> S'(c) = 0 for c > 0."""
    h = H._pdf[:, i]
    w = -H.cdf_poly(i)
    w[1:] += h
    w[:-1] += H.breaks[i] * h
    return w


def _first_min(best: float, v: float) -> float:
    """One step of a running minimum of S: a later candidate replaces it only
    when lower by more than 1e-15, so near-ties keep the smaller cost."""
    return v if v < best - 1e-15 else best


@dataclass
class _Critical:
    lo: float
    hi: float
    value: float


class _SlopeAnalysis:
    """The average-slope analysis of one cost law.  Its table holds, per
    segment, the sorted candidates ``cs``, S at each (``ss``) and the running
    minimum ``run`` (``run[k]`` over the first k candidates, so ``run[0]``
    is inf).  Everything else is read from that table on first use."""

    def __init__(self, H: PiecewisePolyDist):
        self.H = H
        self.table = []
        for i in range(len(H.coefs)):
            lo, hi = float(H.breaks[i]), float(H.breaks[i + 1])
            roots = real_roots_in(_stationary_poly(H, i), lo, hi, origin=lo)
            cs = np.array(sorted({lo, hi, *(float(r) for r in roots if r > H.support_lo + 1e-13)}))
            ss = average_slope(H, cs).tolist()
            self.table.append((cs, ss, list(accumulate(ss, _first_min, initial=np.inf))))

    def prefix_min(self, i: int, upto: float) -> float:
        """Min of S over segment i cut at ``upto`` (inf when nothing is left):
        the candidates below the cut, then the cut itself."""
        cs, _, run = self.table[i]
        if upto >= cs[-1]:
            return run[-1]
        if upto <= cs[0]:
            return np.inf
        j = int(np.searchsorted(cs, upto))  # cs[j - 1] < upto <= cs[j]
        return _first_min(run[j], average_slope(self.H, upto))

    def min_below(self, c: float) -> float:
        """Min of S over the support up to c."""
        return min(self.prefix_min(i, c) for i in range(len(self.table)) if self.H.breaks[i] < c)

    @cached_property
    def global_min(self) -> tuple[float, float]:
        """(min of S, smallest candidate within 1e-11 of it)."""
        best = min(run[-1] for _, _, run in self.table)
        near = best + 1e-11 * max(1.0, best)
        arg = min(c for cs, ss, _ in self.table for c, v in zip(cs.tolist(), ss) if v <= near)
        return float(best), float(arg)

    def evenness(self) -> tuple[bool, float | None, float | None]:
        """(global min attained strictly below the top, minimizer, density there)."""
        arg = self.global_min[1]
        cbar = self.H.support_hi
        if arg >= cbar - max(1e-12, 1e-9 * cbar):
            return False, None, None
        side = -1 if arg > self.H.support_lo + 1e-15 else +1
        return True, float(arg), float(self.H.pdf(arg, side=side))

    @cached_property
    def crit(self) -> list[_Critical]:
        """Stationary points of S that are running minima, merged into
        points and closed intervals."""
        H, tol = self.H, TOL.ineq
        out: list[_Critical] = []
        prefix = np.inf  # running min of S over [0, segment start)
        lo0, top = H.support_lo, H.support_hi
        for i, (cs, ss, run) in enumerate(self.table):
            lo, hi = float(H.breaks[i]), float(H.breaks[i + 1])
            w = _stationary_poly(H, i)
            scale = max(np.max(np.abs(w)), H.cdf(hi), 1e-30)
            low, high = poly_range_on(w, 0.0, hi - lo)
            if max(-low, high) <= 1e-12 * scale:  # a plateau: W's exact range is ~0
                val = average_slope(H, 0.5 * (lo + hi))
                if val <= prefix + tol:
                    out.append(_Critical(lo, hi, val))
                prefix = min(prefix, val)
                continue
            for b, val in ([(lo, ss[0])] if i == 0 else []) + [(hi, ss[-1])]:
                at_lo_edge = b <= lo0 + 1e-15
                at_hi_edge = b >= top - 1e-15
                sl_l = slope_derivative(H, b, side=+1 if at_lo_edge else -1)
                sl_r = slope_derivative(H, b, side=-1 if at_hi_edge else +1)
                stol = tol * (1.0 + abs(sl_l) + abs(sl_r))
                if at_lo_edge or at_hi_edge:
                    is_crit = abs(sl_l) <= stol and abs(sl_r) <= stol
                else:
                    is_crit = sl_l <= stol and sl_r >= -stol
                if is_crit and val <= min(prefix, self.prefix_min(i, b)) + tol:
                    out.append(_Critical(b, b, val))
            for c0, val in zip(cs.tolist()[1:-1], ss[1:-1]):  # the stationary roots
                if lo + 1e-13 < c0 < hi - 1e-13 and val <= min(prefix, self.prefix_min(i, c0)) + tol:
                    out.append(_Critical(c0, c0, val))
            prefix = min(prefix, run[-1])
        merged: list[_Critical] = []
        for c in sorted(out, key=lambda c: (c.lo, c.hi)):
            if merged and c.lo <= merged[-1].hi + 1e-12:
                merged[-1].hi = max(merged[-1].hi, c.hi)
                merged[-1].value = min(merged[-1].value, c.value)
            else:
                merged.append(c)
        return merged

    @property
    def top_only(self) -> bool:
        """Is the critical set empty or a single point at the support top?"""
        crit = self.crit
        return not crit or (len(crit) == 1 and crit[0].lo >= self.H.support_hi - 1e-12)

    @cached_property
    def concave_from(self) -> float:
        return concavity_tail_start(self.H)

    @cached_property
    def best_min(self) -> float:
        if self.top_only:
            return self.concave_from
        best = min(c.value for c in self.crit)
        return float(max(c.hi for c in self.crit if c.value <= best + TOL.ineq))

    @cached_property
    def best_min_slope(self) -> float:
        return average_slope(self.H, self.best_min)

    @cached_property
    def crossing(self) -> float | None:
        if not self.crit:
            return None
        H, cbar = self.H, self.H.support_hi
        c_loc, s_loc = self.best_min, self.best_min_slope
        s_top = 1.0 / cbar
        if abs(s_loc - s_top) <= TOL.ineq * max(1.0, s_top):
            return cbar
        if s_loc < s_top:
            return None
        for i in range(len(H.coefs)):
            lo, hi = float(H.breaks[i]), float(H.breaks[i + 1])
            if hi <= c_loc + 1e-12:
                continue
            g = H.cdf_poly(i)  # H(c) - s_loc * c in t = c - lo
            g[0] -= s_loc * lo
            g[1] -= s_loc
            for r in real_roots_in(g, max(lo, c_loc), hi, origin=lo):
                c = float(r)
                if c > c_loc + 1e-10:
                    return c
        return cbar  # numerically indistinguishable boundary case

    def case(self, mu: float) -> str:
        if self.top_only:
            return "d"
        if self.best_min_slope <= 1.0 / mu + TOL.ineq:
            return "a"
        if self.best_min_slope <= 1.0 / self.H.support_hi + TOL.ineq:
            return "b"
        return "c"


def _analysis(H: PiecewisePolyDist) -> _SlopeAnalysis:
    _require_continuous(H)
    return _SlopeAnalysis(H)


def global_min_slope(H: PiecewisePolyDist) -> tuple[float, float]:
    """(min_c S(c), smallest attaining c) over the whole support; exact."""
    return _analysis(H).global_min


def _density_runs(H: PiecewisePolyDist) -> list[tuple[float, float, int, bool]]:
    """The trend of the density, bottom to top: (lo, hi, sign, is_jump) runs.

    Within a segment the runs lie between the real roots of the slope
    (``H._dpdf``, in t = c - lo); a run's sign is +1 where the slope at its
    middle exceeds RISE_TOL, -1 where it is below -RISE_TOL, else 0.  Runs
    narrower than 1e-15 are dropped.  A density jump at an interior
    breakpoint b is the run (b, b, sign of the jump, True); it counts when
    it exceeds 1e-10 * max(1, |left|, |right|) of the two one-sided values.
    """
    _require_continuous(H)
    width = np.diff(H.breaks)
    left = polyval(H._pdf, width)  # each segment's density at its top
    runs = []
    for i in range(len(H.coefs)):
        lo, hi = float(H.breaks[i]), float(H.breaks[i + 1])
        if i > 0:
            jump = H._pdf[0, i] - left[i - 1]
            if abs(jump) > 1e-10 * max(1.0, abs(left[i - 1]), abs(H._pdf[0, i])):
                runs.append((lo, lo, 1 if jump > 0 else -1, True))
        d = H._dpdf[:, i]
        cuts = sorted({lo, hi, *(float(r) for r in real_roots_in(d, lo, hi, origin=lo))})
        for a, b in zip(cuts[:-1], cuts[1:]):
            if b - a >= 1e-15:
                slope = polyval(d, 0.5 * (a + b) - lo)
                runs.append((a, b, 1 if slope > RISE_TOL else (-1 if slope < -RISE_TOL else 0), False))
    return runs


def concavity_tail_start(H: PiecewisePolyDist) -> float:
    """Infimum of c such that the density is nonincreasing on (c, cbar]
    (its slope at most RISE_TOL): the top of the last rising run of
    :func:`_density_runs`, or of its last jump, whichever is higher.  Any
    density jump closes the window (baseline model densities are continuous;
    jump-carrying inputs are treated conservatively).  The support bottom
    when there is neither; the support top when even the topmost piece
    increases right up to the top.
    """
    closing = [hi for _, hi, sign, jump in _density_runs(H) if jump or sign > 0]
    return closing[-1] if closing else H.support_lo


def critical_min_set(H: PiecewisePolyDist) -> list[tuple[float, float]]:
    """Points and closed intervals where the average slope is stationary
    (two-sided zero derivative, a flat plateau, or a kink minimum at a
    density jump) *and* is a running minimum over [0, c]."""
    return [(c.lo, c.hi) for c in _analysis(H).crit]


def smallest_local_min(H: PiecewisePolyDist) -> float:
    """Location of the smallest critical minimum of the average slope;
    plateau ties resolve to the largest minimizer.  Empty or top-only
    critical sets fall back to the concavity tail start."""
    return _analysis(H).best_min


def crossing_solution(H: PiecewisePolyDist) -> float | None:
    """The unique c above the smallest critical minimum where S re-attains
    that minimum's value; exactly cbar at the boundary equality
    S = 1/cbar; absent when the minimum lies below 1/cbar or the critical
    set is empty."""
    return _analysis(H).crossing


def assumption_diag_check(H: PiecewisePolyDist) -> tuple[bool, float | None, float | None]:
    """Does the average slope attain its global minimum strictly below the
    support top?  Returns (holds, minimizer, density at the minimizer); the
    minimizer reported is the smallest attaining point; its density is the
    left limit at interior kinks."""
    return _analysis(H).evenness()


def classify_case(H: PiecewisePolyDist, mu: float) -> str:
    """Case label for the maximal-threshold formula: from the smallest
    critical minimum of the average slope -- a) at or below 1/mu,
    b) between 1/mu and 1/cbar, c) above 1/cbar, d) no usable critical set
    (empty or a single point at the support top)."""
    return _analysis(H).case(mu)


@dataclass
class CostShapeReport:
    """Every statistic of the cost distribution's average slope."""

    even_point: float | None       # global minimizer of S (None if only at cbar)
    even_density: float | None     # density there ("evenness")
    even_ok: bool                  # global min attained strictly below cbar
    concave_from: float            # start of the nonincreasing-density tail
    critical_set: list[list[float]]  # [lo, hi] of each critical-minimum interval
    best_min: float                # smallest critical minimum location
    best_min_slope: float          # S at best_min
    crossing: float | None         # where S re-attains that value above
    min_slope: float               # global min of S
    case: str                      # threshold-solver case label: a|b|c|d
    support_hi: float

    def to_json(self) -> dict:
        return asdict(self)


def cost_shape_report(H: PiecewisePolyDist, mu: float) -> CostShapeReport:
    """The cost-shape statistics of H from one analysis; ``mu`` (the prior
    mean) enters only the case label."""
    an = _analysis(H)
    even_ok, cm, hcm = an.evenness()
    return CostShapeReport(
        even_point=cm,
        even_density=hcm,
        even_ok=even_ok,
        concave_from=an.concave_from,
        critical_set=[[c.lo, c.hi] for c in an.crit],
        best_min=an.best_min,
        best_min_slope=an.best_min_slope,
        crossing=an.crossing,
        min_slope=an.global_min[0],
        case=an.case(mu),
        support_hi=H.support_hi,
    )


def scan_table(H: PiecewisePolyDist, per_segment: int = 512) -> np.ndarray:
    """Columns (c, H(c), h(c), S(c), S'(c)) on a dense per-segment grid;
    one-sided from the right, except at the support top, where both sides
    are the last piece."""
    _require_continuous(H)
    last = len(H.coefs) - 1
    cs = np.concatenate([
        np.linspace(H.breaks[i], H.breaks[i + 1], per_segment, endpoint=(i == last))
        for i in range(last + 1)
    ])
    return np.column_stack([cs, H.cdf(cs), H.pdf(cs), average_slope(H, cs), slope_derivative(H, cs)])
