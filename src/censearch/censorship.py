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

* :func:`verify_uce` runs the direct finite-n certificate (curvature, kink,
  domination margin) and, independently, the limit cost conditions;
* :func:`solve_a_max` evaluates the closed-form maximal threshold from the
  cost-shape statistics (case labels a-d).

:func:`verify_price_function` generalizes the certificate to any candidate
strategy whose support splits into full-disclosure intervals, pooling
intervals, and atoms.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ._poly import nodes_for_degree, polyder, polymul, poly_range_on, real_roots_in
from .costshape import (
    CostShapeReport,
    _analysis,
    average_slope,
    concavity_tail_start,
    cost_shape_report,
    global_min_slope,
)
from .demand import DemandCurve, pooled_jump
from .dists import (
    PiecewisePolyDist,
    Tolerances,
    _density_integrals,
    _pow,
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

CURVATURE_GRID = 2049   # second-derivative scan of the certificate below the threshold
MARGIN_GRID = 257       # cost grid of the domination margin
PRICE_GRID = 2049       # scan grid of verify_price_function


def upper_censorship(F: PiecewisePolyDist, a: float) -> PiecewisePolyDist:
    """Censor the prior above a: density f and the atoms of F on [0, a), a
    gap on [a, k), and an atom of the censored mass at the conditional mean
    k = E[v | v >= a] (an atom of F at a joins it).  a = 0 gives no
    disclosure (point mass at the mean), a = 1 full disclosure."""
    if a >= F.support_hi - 1e-12:
        return F
    a = max(float(a), F.support_lo)
    Fa = F.cdf(a) - F.atom_mass_at(a)
    k = truncated_mean_above(F, a)
    if k <= a:
        raise ArithmeticError(f"pooled signal of threshold {a!r} does not clear it in double precision")
    if Fa <= 1e-14:
        return PiecewisePolyDist([F.support_lo, k], [np.zeros(1)], atoms=[(k, 1.0)])
    breaks = [float(b) for b in F.breaks if b < a - 1e-14]
    coefs = [F.coefs[i] for i in range(len(breaks))]
    breaks.append(a)
    coefs.append(np.zeros(1))
    breaks.append(k)
    below = [(x, m) for x, m in zip(F.atom_locs.tolist(), F.atom_masses.tolist()) if x < a - 1e-12]
    return PiecewisePolyDist(breaks, coefs, atoms=below + [(k, 1.0 - Fa)])


def threshold_from_cost(F: PiecewisePolyDist, cost: float) -> float:
    """Invert the prior's incremental-benefit map: the censorship threshold
    whose marginal searcher has the given cost.  Clipped at the ends."""
    mu = mean(F)
    if cost >= mu:
        return 0.0
    if cost <= 0.0:
        return F.support_hi
    return reservation_value(F, cost)


def virtual_demand(
    F: PiecewisePolyDist,
    H: PiecewisePolyDist,
    a: float,
    n: int,
    x,
    curve: DemandCurve | None = None,
):
    """The price-function certificate for the censored strategy: interim
    demand below a, the secant of demand from a to the pooled signal
    k = max supp of the censored conjecture above (extended linearly past
    the pool; flat when nothing is pooled, k <= a).  A ``curve`` passed in
    must be the demand curve of the censored strategy.  Takes a scalar
    (returns a float) or an array."""
    D = curve if curve is not None else DemandCurve(upper_censorship(F, a), n, H)
    k = D.G.max_supp()
    da, dk = D.value(a), D.value(k)
    slope = (dk - da) / (k - a) if k > a else 0.0
    x = np.asarray(x, dtype=float)
    return _result(np.where(x <= a, D.value(x), da + slope * (x - a)))


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
    Hc = np.where(cg >= curve.cbar, 1.0, np.where(cg > 1e-15, H.cdf_left(cg), 0.0))
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


def _power_curvature_ok(F: PiecewisePolyDist, n: int, hi: float, tol: float) -> bool:
    """Exact convexity of the max-win curve F^(n-1) on [0, hi]:
    (n-2) f^2 + f' F >= 0 on every polynomial piece."""
    for i in range(len(F.coefs)):
        lo_b, hi_b = float(F.breaks[i]), float(F.breaks[i + 1])
        if lo_b >= hi:
            break
        f = F.coefs[i]
        q = polymul(np.array([float(n - 2)]), polymul(f, f))
        fp = polyder(f)
        q2 = polymul(fp, F.cdf_poly(i))
        m = np.zeros(max(len(q), len(q2)))
        m[: len(q)] += q
        m[: len(q2)] += q2
        mn, _ = poly_range_on(m, lo_b, min(hi_b, hi))
        if mn < -tol:
            return False
    return True


def _margin_scan(H: PiecewisePolyDist, beta: float, c_hi: float, open_top: bool = False):
    """Candidate costs extremizing H(c) - beta*c on (0, c_hi]: exact
    stationary points per segment plus a floor-protected grid of MARGIN_GRID
    points.  The contact at c = 0 is always excluded; ``open_top`` also
    excludes a sliver at the top endpoint (used when that endpoint is a
    construction contact rather than a constraint; a genuine violation
    inside the sliver implies a failing kink, which the kink check reports)."""
    floor = c_hi / (MARGIN_GRID - 1)
    top = c_hi - floor if open_top else c_hi
    cands: set[float] = set()
    cands.update(float(c) for c in np.linspace(floor, top, MARGIN_GRID))
    for i in range(len(H.coefs)):
        lo, hi = float(H.breaks[i]), float(H.breaks[i + 1])
        if lo >= top:
            break
        hm = H.coefs[i].astype(float).copy()
        hm[0] -= beta
        cands.update(float(r) for r in real_roots_in(hm, lo, min(hi, top)) if r > 1e-13)
        if 1e-13 < hi <= top:
            cands.add(float(hi))
    return sorted(cands)


def _kink_turns(curve: DemandCurve, lo: float, hi: float, pad: float):
    """At each demand kink (``curve.x_breaks``) in (lo + pad, hi - pad): the
    right minus the left one-sided slope of demand, and the left slope.  A
    convex certificate that follows demand there needs every turn >= 0."""
    bs = curve.x_breaks
    bs = bs[(lo + pad < bs) & (bs < hi - pad)]
    dl = sum(curve.margins(bs, side=-1))
    return sum(curve.margins(bs, side=+1)) - dl, dl


def verify_uce(
    F: PiecewisePolyDist,
    H: PiecewisePolyDist,
    a: float,
    n: int,
    tol: Tolerances | None = None,
) -> CensorshipReport:
    """Run both the finite-n certificate and the limit cost conditions for
    the censored strategy with threshold a.

    Finite-n verdict: (i) the certificate is convex below the threshold
    (exact polynomial check on the max-win part; closed-form curvature plus
    one-sided slope comparisons on the partial-stopping part), (ii) the kink
    at the threshold turns upward, (iii) the domination margin over the
    partial-purchase region is nonnegative.  Binding equalities pass.

    The limit condition compares the cost distribution's average slope with
    the threshold's incremental-benefit level and is reported separately in
    ``checks['cost_condition']``.
    """
    tol = tol or Tolerances()
    cbar = H.support_hi
    if a <= tol.root:
        # no disclosure: a constant certificate works for any n
        dmu = upper_censorship(F, 0.0)
        curve = DemandCurve(dmu, n, H)
        k = dmu.max_supp()
        margin = float(np.min(1.0 / n - curve.value(np.linspace(curve.r_lo, k, MARGIN_GRID))))
        checks = {
            "virtual_convex": True,
            "kink_increasing": True,
            "virtual_dominates": margin >= -tol.ineq,
            "cost_condition": True,
        }
        return CensorshipReport(0.0, k, curve.r_lo, k, n, "equilibrium", checks,
                                max(margin, 0.0), [k])

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
    convex = _power_curvature_ok(F, n, min(a, r_lo), tol.ineq)
    if convex and a > r_lo + tol.root:
        d2 = demand_second_derivative(curve, np.linspace(r_lo, a, max(CURVATURE_GRID // 4, 129)))
        scale = 1.0 + abs(d2[len(d2) // 2])
        convex = not np.any(d2[1:-1] < -tol.ineq * scale)
        if convex:
            turn, dl = _kink_turns(curve, r_lo, a, tol.root)
            convex = not np.any(turn < -tol.ineq * (1.0 + np.abs(dl)))

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

    # limit cost conditions
    if below:
        cost_ok = global_min_slope(H)[0] >= 1.0 / cfa - tol.ineq
    else:
        s_at = average_slope(H, cfa)
        cost_ok = (
            _analysis(H).min_below(cfa) >= s_at - tol.ineq
            and s_at > H.pdf(cfa, side=-1) + tol.ineq
            and cfa >= concavity_tail_start(H) - tol.ineq
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
    F: PiecewisePolyDist,
    H: PiecewisePolyDist,
    tol: Tolerances | None = None,
    report: CostShapeReport | None = None,
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
    A caller that already holds ``cost_shape_report(H, mean(F), tol.ineq)``
    passes it as ``report``, so the analysis is not built twice.
    """
    tol = tol or Tolerances()
    mu = mean(F)
    cbar = H.support_hi
    if cbar >= mu:
        raise ValueError("cost support top must lie below the prior mean")
    if H.min_supp() > 1e-12:
        raise ValueError("threshold solver requires cost support starting at 0")
    rep = report or cost_shape_report(H, mu, tol.ineq)
    if rep.case == "a":
        return 0.0, "a", True
    if rep.case == "b":
        return threshold_from_cost(F, 1.0 / rep.best_min_slope), "b", True
    target = rep.concave_from
    if rep.case == "c":
        target = max(target, rep.crossing if rep.crossing is not None else 0.0)
    if target <= tol.root:
        # supremum edge: every threshold short of full disclosure passes
        return F.support_hi - 1e-12, rep.case, False
    return threshold_from_cost(F, target), rep.case, True


def equilibrium_set(
    F: PiecewisePolyDist,
    H: PiecewisePolyDist,
    a_grid,
    n: int,
    tol: Tolerances | None = None,
) -> list[tuple[float, bool]]:
    """Sweep the finite-n verifier over a threshold grid."""
    return [
        (float(a), verify_uce(F, H, float(a), n, tol).verdict == "equilibrium")
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
    """Piecewise certificate: follows demand on contact intervals, affine
    chords elsewhere, constant before the first contact, linear extension
    after the last."""

    def __init__(self, segments, curve: DemandCurve):
        # segments: list of (lo, hi, kind) with kind in {demand, affine}
        self.segments = segments
        self.curve = curve
        self.vals = [(curve.value(lo), curve.value(hi)) for lo, hi, _ in segments]

    def value(self, x):
        """The certificate at x; takes a scalar (returns a float) or an array."""
        x = np.asarray(x, dtype=float)
        first = self.segments[0][0]
        lo, last, kind = self.segments[-1]
        if kind == "demand":
            s = sum(self.curve.margins(last, side=-1))
        else:
            v0, v1 = self.vals[-1]
            s = (v1 - v0) / (last - lo) if last > lo else 0.0
        out = np.where(x <= first, self.vals[0][0], self.vals[-1][1] + s * (x - last))
        todo = (x > first) & (x < last)  # each takes the first segment holding it
        for (lo, hi, kind), (v0, v1) in zip(self.segments, self.vals):
            on = todo & (lo - 1e-14 <= x) & (x <= hi + 1e-14)
            if kind == "demand":
                out[on] = self.curve.value(x[on])
            else:
                t = (x[on] - lo) / (hi - lo) if hi > lo else 0.0
                out[on] = v0 + t * (v1 - v0)
            todo &= ~on
        if np.any(todo):
            raise AssertionError("certificate segments must tile the support")
        return _result(out)

    def slope_pairs(self):
        """(entry slope, exit slope) per segment, for convexity checks."""
        out = []
        for (lo, hi, kind), (v0, v1) in zip(self.segments, self.vals):
            if kind == "demand":
                out.append((sum(self.curve.margins(lo, side=+1)), sum(self.curve.margins(hi, side=-1))))
            else:
                s = (v1 - v0) / (hi - lo) if hi > lo else None
                out.append((s, s))
        return out


def _support_elements(G: PiecewisePolyDist, F: PiecewisePolyDist, tol: float):
    """Split the candidate's support into full-disclosure intervals (G = F),
    pooling intervals (positive density, G != F), and atoms."""
    cuts = sorted(
        set(map(float, G.breaks))
        | {float(b) for b in F.breaks if G.breaks[0] <= b <= G.breaks[-1]}
    )
    elements = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo < 1e-14:
            continue
        i = G._segment_index(0.5 * (lo + hi))
        if np.max(np.abs(G.coefs[i])) <= 1e-14:
            continue  # gap
        xs = np.linspace(lo, hi, 17)
        diff = np.max(np.abs(G.cdf(xs) - F.cdf(xs)))
        kind = "disclosure" if diff <= tol else "pooling"
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
    G: PiecewisePolyDist,
    F: PiecewisePolyDist,
    H: PiecewisePolyDist,
    n: int,
    tol: Tolerances | None = None,
) -> PriceFunctionReport:
    """Equilibrium test for an arbitrary candidate strategy via an explicit
    convex certificate.

    The certificate follows demand on full-disclosure intervals and bridges
    gaps, pooling intervals, and atoms with affine chords through the demand
    values at the contact points.  The candidate passes iff the assembled
    function is convex (demand's own kinks inside a disclosure interval
    included), dominates demand everywhere, touches demand across
    every pooling interval, and integrates identically against the prior and
    the candidate.
    """
    tol = tol or Tolerances()
    curve = DemandCurve(G, n, H)
    elements = _support_elements(G, F, 1e3 * tol.ineq)
    if not elements:
        raise ValueError("unsupported candidate shape: empty support")
    segments: list[tuple[float, float, str]] = []
    pos = elements[0][1]
    for kind, lo, hi in elements:
        if lo < pos - 1e-12:
            raise ValueError("unsupported candidate shape: overlapping support elements")
        if lo > pos + 1e-14:
            segments.append((pos, lo, "affine"))
        if kind == "disclosure":
            segments.append((lo, hi, "demand"))
        elif kind == "pooling":
            segments.append((lo, hi, "affine"))
        pos = max(pos, hi)
    if not segments:  # single atom
        x0 = elements[0][1]
        segments = [(x0, x0, "affine")]
    cert = _Certificate(segments, curve)
    scale = 1.0 + max(abs(v) for pair in cert.vals for v in pair)
    ctol = 1e-6 * scale

    # convexity
    convex_ok = True
    flat = [s for pair in cert.slope_pairs() for s in pair if s is not None]
    for s0, s1 in zip(flat[:-1], flat[1:]):
        if s1 < s0 - ctol:
            convex_ok = False
    for lo, hi, kind in segments:
        if kind != "demand":
            continue
        xs = np.linspace(lo, hi, max(PRICE_GRID // max(len(segments), 1), 129))[1:-1]
        if np.any(demand_second_derivative(curve, xs[(xs != lo) & (xs != hi)]) < -ctol):
            convex_ok = False
        if np.any(_kink_turns(curve, lo, hi, tol.root)[0] < -ctol):
            convex_ok = False

    # domination
    xs = np.linspace(0.0, max(1.0, segments[-1][1]), PRICE_GRID)
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
    total = 0.0
    for m, v in zip(W.atom_masses, cert.value(W.atom_locs)):
        if m > 0:
            total += m * v
    cuts = sorted(
        set(map(float, W.breaks))
        | {lo for lo, _, _ in cert.segments}
        | {hi for _, hi, _ in cert.segments}
        | set(map(float, cert.curve.x_breaks))
    )
    cuts = [c for c in cuts if W.breaks[0] - 1e-12 <= c <= W.breaks[-1] + 1e-12]
    pieces = _density_integrals(W, cert.value, cuts, nodes_for_degree(cert.curve._gl_deg + 12))
    return sum(pieces.tolist(), total)
