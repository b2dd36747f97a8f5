"""Upper-censorship strategies: construction, verification, and the maximal
informative threshold.

An upper-censorship strategy with threshold a reveals match values below a
and pools everything above into a single signal at the conditional mean.
Whether the strategy survives deviations is certified by the *virtual
demand*: equal to interim demand below a, and to the secant of demand from a
to the pooled signal above.  The strategy is an equilibrium exactly when
that certificate is convex and dominates demand everywhere, which in the
intense-competition limit reduces to tangency conditions on the cost
distribution's average slope.

Two verification routes are deliberately kept separate:

* :func:`verify_uce` runs the direct finite-n certificate (convexity below
  the threshold, the kink at it, the domination margin) and, independently,
  the limit cost conditions;
* :func:`solve_a_max` evaluates the closed-form maximal threshold from the
  cost-shape statistics (case labels a-d).

:func:`verify_price_function` generalizes the certificate to any candidate
strategy whose support splits into full-disclosure intervals, pooling
intervals, and atoms, atoms inside pooling intervals included.  Its
certificate lives on sorted knots, the ends of those pieces and the atoms:
demand on the knot intervals inside a disclosure run, the chord of demand
between two knots elsewhere.  Both verifiers test demand's convexity with
``DemandCurve.convex_on``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ._poly import poly_range_on, real_roots_in
from .costshape import CostShapeReport, _analysis, average_slope, cost_shape_report
from .demand import DemandCurve, demand_second_derivative, pooled_jump
from .dists import (
    TOL,
    PiecewisePolyDist,
    Tolerances,
    _cdf_difference,
    _integrate,
    _result,
    incremental_benefit,
    mean,
    reservation_value,
    truncated_mean_above,
)

__all__ = [
    "CensorshipReport",
    "PriceFunctionReport",
    "upper_censorship",
    "virtual_demand",
    "deviation_net_gain",
    "verify_uce",
    "solve_a_max",
    "equilibrium_set",
    "is_downward_closed",
    "verify_price_function",
    "threshold_from_cost",
    "demand_second_derivative",
]

MARGIN_GRID = 257       # the margin's floor and top sliver are c_hi / (MARGIN_GRID - 1) wide
PRICE_GRID = 2049       # domination scan of verify_price_function


def upper_censorship(F: PiecewisePolyDist, a: float) -> PiecewisePolyDist:
    """Censor the prior above a: F strictly below a, a gap on [a, k), and
    the pooled mass 1 - F.cdf_left(a) at k = E[v | v >= a], so an atom that
    a sits on (see ``PiecewisePolyDist._locate``) joins the pool and the mean
    holds.  a = 0 gives no disclosure (point mass at the mean), a = 1 full."""
    if a >= F.support_hi - 1e-12:
        return F
    a = max(float(a), F.support_lo)
    Fa = F.cdf_left(a)
    k = truncated_mean_above(F, a)
    if k <= a:
        raise ArithmeticError(f"pooled signal of threshold {a!r} does not clear it in double precision")
    if Fa <= 1e-14:
        return PiecewisePolyDist([F.support_lo, k], [np.zeros(1)], atoms=[(k, 1.0)])
    breaks = [float(b) for b in F.breaks if b < a]
    coefs = F.coefs[: len(breaks)] + [np.zeros(1)]
    breaks += [a, k]
    below = [(x, m) for x, m in zip(F.atom_locs.tolist(), F.atom_masses.tolist()) if x < a]
    return PiecewisePolyDist(breaks, coefs, atoms=below + [(k, 1.0 - Fa)])


def threshold_from_cost(F: PiecewisePolyDist, cost: float) -> float:
    """Invert the prior's incremental-benefit map: the censorship threshold
    whose marginal searcher has the given cost.  Clipped at the ends."""
    mu = mean(F)
    if cost >= mu:
        return 0.0
    return reservation_value(F, cost)


def virtual_demand(
    F: PiecewisePolyDist,
    H: PiecewisePolyDist,
    a: float,
    n: int,
    x,
    curve: DemandCurve | None = None,
):
    """The price-function certificate of :func:`verify_price_function` for
    the censored strategy: interim demand below a, the chord of demand from
    a to the pooled signal k = max supp of the censored conjecture above
    (extended linearly past k; when nothing is pooled, k <= a, demand
    continued along its slope at a).  A ``curve`` passed in must be the
    demand curve of the censored strategy.  Takes a scalar (returns a
    float) or an array."""
    D = curve if curve is not None else DemandCurve(upper_censorship(F, a), n, H)
    k = D.G.max_supp()
    knots = [min(D.G.support_lo, a), a] + ([k] if k > a else [])
    return _Certificate(knots, [True, False][: len(knots) - 1], D).value(x)


def deviation_net_gain(
    F: PiecewisePolyDist, H: PiecewisePolyDist, a: float, c: float, n: int
) -> float:
    """Per-unit-mass net gain from deviating off the censored strategy to the
    partial-purchase signal that stops exactly the cost-c consumer: capture
    of high-cost stoppers net of forgone low-cost continuers.  Valid for
    thresholds whose pooled signal stops every type (threshold at or below
    the lowest cutoff image); equals minus the virtual-demand gap there."""
    if c <= 0:
        return 0.0
    cfa = incremental_benefit(F, a)
    return pooled_jump(F.cdf_left(a), n)[0] * (c / cfa - H.cdf(c))


@dataclass
class CensorshipReport:
    """Verification verdict for one censorship threshold."""

    threshold: float
    pooled_signal: float
    r_lo: float
    r_hi: float
    n: int
    verdict: str          # "equilibrium" | "fails"
    checks: dict          # virtual_convex, kink_increasing, virtual_dominates, cost_condition
    margin: float         # min of (virtual demand - demand) over partial-purchase signals
    binding_signals: list[float]

    def to_json(self) -> dict:
        return asdict(self)


def _margin_scan(H: PiecewisePolyDist, beta: float, c_hi: float, open_top: bool = False):
    """Candidate costs extremizing H(c) - beta*c on (0, c_hi]: the ends of
    the stretch [floor, top], and per segment of H its end and the exact
    stationary points (H is atom-free here).  The contact at c = 0 is always
    excluded by a floor c_hi / (MARGIN_GRID - 1) wide; ``open_top`` also
    excludes a sliver as wide at the top endpoint (used when that endpoint is
    a construction contact rather than a constraint; a genuine violation
    inside the sliver implies a failing kink, which the kink check reports)."""
    floor = c_hi / (MARGIN_GRID - 1)
    top = c_hi - floor if open_top else c_hi
    cands = {floor, top}
    for i in range(len(H.coefs)):
        lo, hi = float(H.breaks[i]), float(H.breaks[i + 1])
        if lo >= top:
            break
        hm = H._pdf[:, i].copy()
        hm[0] -= beta
        cands.update(float(r) for r in real_roots_in(hm, lo, min(hi, top), origin=lo) if r > 1e-13)
        if 1e-13 < hi <= top:
            cands.add(float(hi))
    return sorted(cands)


def verify_uce(
    F: PiecewisePolyDist,
    H: PiecewisePolyDist,
    a: float,
    n: int,
    tol: Tolerances = TOL,  # settable only for callers that pass MarketConfig.tol
) -> CensorshipReport:
    """Run both the finite-n certificate and the limit cost conditions for
    the censored strategy with threshold a.

    Finite-n verdict: (i) the certificate is convex below the threshold
    (``DemandCurve.convex_on``: exact on the max-win part below r_lo, a D''
    scan above it, one-sided slopes at every kink), (ii) the kink
    at the threshold turns upward, (iii) the domination margin over the
    partial-purchase region is nonnegative.  Binding equalities pass.

    The limit condition compares the cost distribution's average slope with
    the threshold's incremental-benefit level and is reported separately in
    ``checks['cost_condition']``.
    """
    cbar = H.support_hi
    if a <= tol.root:
        # no disclosure: the constant certificate 1/n = D(k) works for any n
        # and touches demand at the pool, so the margin is exactly 0
        dmu = upper_censorship(F, 0.0)
        k = dmu.max_supp()
        checks = dict.fromkeys(["virtual_convex", "kink_increasing", "virtual_dominates",
                                "cost_condition"], True)
        return CensorshipReport(0.0, k, reservation_value(dmu, cbar), k, n, "equilibrium",
                                checks, 0.0, [k])

    Ua = upper_censorship(F, a)
    k = Ua.max_supp()
    curve = DemandCurve(Ua, n, H)
    r_lo = curve.r_lo
    cfa = incremental_benefit(F, a)
    below = cfa >= cbar - tol.ineq      # pooled signal stops every type
    Ha = 1.0 if below else H.cdf(cfa)
    Fa = F.cdf_left(a)  # an atom of F at a joins the pool
    J = pooled_jump(Fa, n)[0]

    # (i) certificate convexity below the threshold
    convex = curve.convex_on(F.support_lo, a, tol.ineq)

    if Ua is F:
        # full disclosure (the censorship is the prior itself) pools nothing:
        # the kink and the domination margin are vacuous, and the threshold
        # solver never attains this threshold
        checks = {"virtual_convex": bool(convex), "kink_increasing": True,
                  "virtual_dominates": True, "cost_condition": False}
        return CensorshipReport(float(a), float(k), float(r_lo), float(k), int(n),
                                "equilibrium" if convex else "fails", checks, 0.0, [])

    # (ii) upward kink at the threshold, in closed form.  The deficit can be
    # exponentially small in n (the max-win term carries F(a)^(n-2)), so the
    # comparison runs against a machine-noise floor, not the loose tolerance:
    # a deficit below the floor is an equilibrium at double precision.
    fa = F.pdf(a, side=-1)
    eps = np.finfo(float).eps
    maxwin_part = (n - 1) * Fa ** (n - 2) * fa
    if below:
        secant_slope = J / (k - a)
        delta = secant_slope - maxwin_part
        mag = secant_slope + maxwin_part
    else:
        s_at = H.cdf(cfa) / cfa
        h_at = H.pdf(cfa, side=+1)
        t1 = J * (1.0 - Fa) * (s_at - h_at)
        t2 = maxwin_part * H.cdf(cfa)
        delta = t1 - t2
        mag = J * (1.0 - Fa) * (s_at + h_at) + t2
    kink_ok = delta >= -8.0 * eps * mag

    # (iii) domination margin over partial-purchase signals
    c_hi = min(cfa, cbar)
    beta = Ha / cfa
    cs = np.array(_margin_scan(H, beta, c_hi, open_top=not below))
    vals = J * (H.cdf(cs) - beta * cs)
    margin = float(np.min(vals))
    binds = cs[np.abs(vals) <= max(tol.ineq, 1e-7 * max(J, 1e-12))]
    binding = (k - binds / (1.0 - Fa)).tolist()
    dominates = margin >= -tol.ineq

    # limit cost conditions, from one analysis of the cost law
    an = _analysis(H)
    if below:
        cost_ok = an.global_min[0] >= 1.0 / cfa - tol.ineq
    else:
        s_at = average_slope(H, cfa)
        cost_ok = (
            an.min_below(cfa) >= s_at - tol.ineq
            and s_at > H.pdf(cfa, side=-1) + tol.ineq
            and cfa >= an.concave_from - tol.ineq
        )

    checks = {
        "virtual_convex": bool(convex),
        "kink_increasing": bool(kink_ok),
        "virtual_dominates": bool(dominates),
        "cost_condition": bool(cost_ok),
    }
    verdict = "equilibrium" if (convex and kink_ok and dominates) else "fails"
    return CensorshipReport(float(a), float(k), float(r_lo), float(k), int(n),
                            verdict, checks, margin, sorted(set(binding)))


def solve_a_max(
    F: PiecewisePolyDist, H: PiecewisePolyDist, report: CostShapeReport | None = None
) -> tuple[float, str, bool]:
    """Maximal censorship threshold from the cost-shape statistics.

    Case a) the smallest critical minimum of the average slope sits at or
    below 1/mean: only no-disclosure survives.  Case b) between 1/mean and
    1/cbar: the threshold solves incremental benefit = 1/(that minimum).
    Case c) above 1/cbar: the threshold's cost image is the larger of the
    concavity tail start and the slope's re-crossing point.  Case d) no
    usable critical set: the concavity tail start alone.  ``attained`` is
    False when the formula lands on the open upper edge (threshold 1): the
    supremum is then approached but full disclosure itself never attained.
    A caller that already holds ``cost_shape_report(H, mean(F))`` passes it
    as ``report``, so the analysis is not built twice.
    """
    mu = mean(F)
    cbar = H.support_hi
    if cbar >= mu:
        raise ValueError("cost support top must lie below the prior mean")
    if H.min_supp() > 1e-12:
        raise ValueError("threshold solver requires cost support starting at 0")
    rep = report or cost_shape_report(H, mu)
    if rep.case == "a":
        return 0.0, "a", True
    if rep.case == "b":
        return threshold_from_cost(F, 1.0 / rep.best_min_slope), "b", True
    target = rep.concave_from
    if rep.case == "c":
        target = max(target, rep.crossing if rep.crossing is not None else 0.0)
    if target <= TOL.root:
        # supremum edge: every threshold short of full disclosure passes
        return F.support_hi - 1e-12, rep.case, False
    return threshold_from_cost(F, target), rep.case, True


def equilibrium_set(
    F: PiecewisePolyDist, H: PiecewisePolyDist, a_grid, n: int
) -> list[tuple[float, bool]]:
    """Sweep the finite-n verifier over a threshold grid."""
    return [
        (float(a), verify_uce(F, H, float(a), n).verdict == "equilibrium")
        for a in a_grid
    ]


def is_downward_closed(results: list[tuple[float, bool]]) -> bool:
    """Nestedness: once the sweep fails at some threshold it never passes at
    a larger one."""
    seen_fail = False
    for _, ok in sorted(results):
        if seen_fail and ok:
            return False
        seen_fail = seen_fail or not ok
    return True


# -- generic price-function verification -------------------------------------


@dataclass
class PriceFunctionReport:
    passed: bool
    convex_ok: bool
    dominates_ok: bool
    contact_ok: bool
    mass_balance_ok: bool
    min_margin: float
    mass_gap: float
    detail: str = ""

    def to_json(self) -> dict:
        return asdict(self)


class _Certificate:
    """Price-function certificate on sorted knots x_0 < ... < x_m: demand
    itself on the knot intervals flagged in ``follows``, the chord of demand
    between the interval's two knots elsewhere; D(x_0) below the first knot,
    and past the last knot the line along the last interval's exit slope (0
    with a single knot).  Only an interval that follows demand may have zero
    width."""

    def __init__(self, knots, follows, curve: DemandCurve):
        self.knots = np.asarray(knots, dtype=float)
        self.follows = np.asarray(follows, dtype=bool)
        self.curve = curve
        self.vals = curve.value(self.knots)
        k, v = self.knots, self.vals
        if not len(self.follows):
            self.exit_slope = 0.0
        elif self.follows[-1]:
            self.exit_slope = curve.slope(k[-1], side=-1)
        else:
            self.exit_slope = (v[-1] - v[-2]) / (k[-1] - k[-2])

    def value(self, x):
        """The certificate at x; takes a scalar (returns a float) or an array.
        A point within 1e-14 above a knot keeps the interval ending there."""
        x = np.asarray(x, dtype=float)
        k, v = self.knots, self.vals
        out = np.where(x <= k[0], v[0], v[-1] + self.exit_slope * (x - k[-1]))
        inside = (x > k[0]) & (x < k[-1])
        xi = x[inside]
        i = np.searchsorted(k[1:] + 1e-14, xi)
        on = self.follows[i]
        vi = np.empty_like(xi)
        vi[on] = self.curve.value(xi[on])
        j, xc = i[~on], xi[~on]
        vi[~on] = v[j] + (xc - k[j]) / (k[j + 1] - k[j]) * (v[j + 1] - v[j])
        out[inside] = vi
        return _result(out)

    def slopes(self):
        """Entry and exit slope of each knot interval in order, for the
        convexity check: demand's one-sided slopes where the certificate
        follows demand, the chord's slope twice elsewhere."""
        k, f = self.knots, self.follows
        out = np.empty((len(f), 2))
        out[~f] = (np.diff(self.vals)[~f] / np.diff(k)[~f])[:, None]
        out[f, 0] = self.curve.slope(k[:-1][f], side=+1)
        out[f, 1] = self.curve.slope(k[1:][f], side=-1)
        return out.ravel()


def _support_elements(G: PiecewisePolyDist, F: PiecewisePolyDist, tol: float):
    """Split the candidate's support into full-disclosure intervals (the
    exact range of G - F on the piece within tol), pooling intervals
    (positive density, G != F), and atoms."""
    elements = []
    for lo, hi, d in _cdf_difference(G, F):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-14 or not G.breaks[0] <= mid <= G.breaks[-1]:
            continue
        if G._dens_max[G._locate(mid)[2]] <= 1e-14:
            continue  # gap
        low, high = poly_range_on(d, 0.0, hi - lo)
        kind = "disclosure" if max(-low, high) <= tol else "pooling"
        if elements and elements[-1][0] == kind and abs(elements[-1][2] - lo) < 1e-12:
            elements[-1] = (kind, elements[-1][1], hi)
        else:
            elements.append((kind, lo, hi))
    for a, m in zip(G.atom_locs, G.atom_masses):
        if m > 1e-14:
            elements.append(("atom", float(a), float(a)))
    elements.sort(key=lambda e: (e[1], e[2]))
    return elements


def verify_price_function(
    G: PiecewisePolyDist, F: PiecewisePolyDist, H: PiecewisePolyDist, n: int
) -> PriceFunctionReport:
    """Equilibrium test for an arbitrary candidate strategy via an explicit
    convex certificate.

    The certificate's knots are the ends of the candidate's disclosure runs
    and pooling intervals and its atoms, merged within 1e-14.  It follows
    demand on each knot interval whose midpoint lies in a disclosure run and
    is the chord of demand between the two knots on every other one (gaps,
    pooling intervals, and the pieces of a pooling interval split by an atom
    inside it), so it equals demand at every knot.  The candidate passes iff
    the certificate is convex (demand's own kinks inside a disclosure run
    included), dominates demand everywhere, touches demand across every
    pooling interval, and integrates identically against the prior and the
    candidate.
    """
    curve = DemandCurve(G, n, H)
    elements = _support_elements(G, F, 1e3 * TOL.ineq)
    if not elements:
        raise ValueError("unsupported candidate shape: empty support")
    ends = np.unique([x for _, lo, hi in elements for x in (lo, hi)])
    knots = ends[np.concatenate([[True], np.diff(ends) > 1e-14])]
    runs = np.array([(lo, hi) for kind, lo, hi in elements if kind == "disclosure"]).reshape(-1, 2, 1)
    mids = 0.5 * (knots[:-1] + knots[1:])
    cert = _Certificate(knots, ((runs[:, 0] <= mids) & (mids <= runs[:, 1])).any(axis=0), curve)
    scale = 1.0 + float(np.max(np.abs(cert.vals)))
    ctol = 1e-6 * scale

    # convexity
    s, f = cert.slopes(), cert.follows
    convex_ok = not np.any(s[1:] < s[:-1] - ctol) and all(
        curve.convex_on(lo, hi, ctol)
        for lo, hi in zip(knots[:-1][f].tolist(), knots[1:][f].tolist()))

    # domination
    xs = np.linspace(0.0, max(1.0, knots[-1]), PRICE_GRID)
    min_margin = float(np.min(cert.value(xs) - curve.value(xs)))
    dominates_ok = min_margin >= -ctol

    # pooling contact: the chord must ride on demand across pooled mass
    contact_ok = True
    for kind, lo, hi in elements:
        if kind != "pooling":
            continue
        xs = np.linspace(lo, hi, 65)
        worst = np.max(np.abs(cert.value(xs) - curve.value(xs)))
        if worst > ctol:
            contact_ok = False

    # mass balance
    int_f = _integrate_certificate(cert, F)
    int_g = _integrate_certificate(cert, G)
    mass_gap = abs(int_f - int_g)
    mass_ok = mass_gap <= ctol

    passed = bool(convex_ok and dominates_ok and contact_ok and mass_ok)
    detail = ", ".join(
        name
        for name, ok in [
            ("not convex", convex_ok),
            ("demand not dominated", dominates_ok),
            ("pooling contact violated", contact_ok),
            ("mass balance violated", mass_ok),
        ]
        if not ok
    )
    return PriceFunctionReport(passed, bool(convex_ok), bool(dominates_ok),
                               bool(contact_ok), bool(mass_ok),
                               float(min_margin), float(mass_gap), detail)


def _integrate_certificate(cert: _Certificate, W: PiecewisePolyDist) -> float:
    """int cert dW, cut at the certificate's knots and demand's kinks.  On a
    cut piece the certificate is D or linear, so the rule of
    :meth:`DemandCurve.integral_nodes` is exact up to rounding unless the
    degree n d_G + d_H (d_G + 1) + 1 + d_W exceeds 383 (the node cap)."""
    kinks = np.concatenate([cert.knots, cert.curve.x_breaks])
    return _integrate(W, cert.value, kinks, cert.curve.integral_nodes(W))
