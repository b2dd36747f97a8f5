"""Brute-force best-response oracle.

Completely independent of the analytic certificates: discretize the set of
feasible signal distributions as probability masses on a grid, encode the
mean-preserving-contraction feasibility as linear constraints (cumulative
caps at every grid point plus the mean equality), and maximize the expected
payoff against the fixed conjecture by linear programming.  The optimal
value minus the symmetric payoff 1/n is the equilibrium gap: zero (up to
solver tolerance) exactly when no profitable deviation exists.

Deviations are unobservable to consumers, so the conjecture stays fixed and
no fixed-point iteration is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .demand import DemandCurve, expected_payoff
from .dists import PiecewisePolyDist, mean, reservation_value

__all__ = ["BRProblem", "BRSolution", "build_problem", "solve_br", "equilibrium_gap"]


@dataclass
class BRProblem:
    grid: np.ndarray          # candidate signal locations in [0, 1]
    objective: np.ndarray     # interim demand at the grid (tie-aware at atoms)
    mean_target: float
    cum_caps: np.ndarray      # int_0^{x_k} F per grid point
    n: int
    baseline: float           # symmetric payoff of the conjecture

    def dump_triplets(self) -> str:
        """Constraint matrix in plain-text sparse triplet form
        (row col value; rows 0..m-1 are the cumulative caps, row m the mean,
        row m+1 the total mass)."""
        lines = ["# row col value"]
        m = len(self.grid)
        for k in range(m):
            for i in range(m):
                v = float(max(self.grid[k] - self.grid[i], 0.0))
                if v > 0.0:
                    lines.append(f"{k} {i} {v!r}")
        for i in range(m):
            lines.append(f"{m} {i} {float(self.grid[i])!r}")
        for i in range(m):
            lines.append(f"{m + 1} {i} 1.0")
        return "\n".join(lines) + "\n"


@dataclass
class BRSolution:
    value: float
    masses: np.ndarray
    gap: float                # value - symmetric payoff of the conjecture
    duality_gap: float
    grid: np.ndarray = field(repr=False, default=None)

    def support(self, tol: float = 1e-9):
        keep = self.masses > tol
        return self.grid[keep], self.masses[keep]


def build_problem(
    G_star: PiecewisePolyDist,
    F: PiecewisePolyDist,
    H: PiecewisePolyDist,
    n: int,
    grid_n: int = 801,
    cost_quantiles: int = 64,
) -> BRProblem:
    """Assemble the LP: grid = uniform mesh plus the conjecture's breakpoints
    and atoms, the reservation window ends, and the reservation images of
    cost quantiles (so profitable partial-purchase signals are representable).
    """
    if grid_n < 51:
        raise ValueError("grid too coarse")
    curve = DemandCurve(G_star, n, H)
    pts = set(np.linspace(0.0, 1.0, grid_n))
    pts.update(float(b) for b in G_star.breaks if 0.0 <= b <= 1.0)
    pts.update(float(a) for a in G_star.atom_locs)
    pts.update(float(b) for b in F.breaks)
    pts.add(float(mean(F)))
    pts.add(curve.r_lo)
    pts.add(min(curve.r_hi, 1.0))
    qs = (np.arange(cost_quantiles) + 0.5) / cost_quantiles
    for c in H.quantile(qs):
        if c > 1e-12:
            t = reservation_value(G_star, float(c))
            if 0.0 <= t <= 1.0:
                pts.add(t)
    grid = np.array(sorted(pts))
    keep = np.concatenate([[True], np.diff(grid) > 1e-11])
    grid = grid[keep]
    obj = np.array([curve.value(float(x)) for x in grid])
    caps = F.cdf_integral(grid)
    baseline = expected_payoff(G_star, G_star, n, H, curve=curve)
    return BRProblem(grid, obj, float(mean(F)), caps, int(n), float(baseline))


def solve_br(problem: BRProblem) -> BRSolution:
    """Maximize grid-mass payoff subject to the contraction caps; returns the
    optimum, the mass vector, the gap over the symmetric payoff, and the
    LP duality gap."""
    m = len(problem.grid)
    x = problem.grid
    A_ub = np.maximum(x[:, None] - x[None, :], 0.0)
    b_ub = problem.cum_caps
    A_eq = np.vstack([np.ones(m), x])
    b_eq = np.array([1.0, problem.mean_target])
    res = linprog(
        -problem.objective,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=(0.0, None),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"best-response LP failed: {res.message}")
    dual = float(b_ub @ res.ineqlin.marginals + b_eq @ res.eqlin.marginals)
    value = -float(res.fun)
    duality_gap = abs(float(res.fun) - dual)
    masses = np.maximum(res.x, 0.0)
    total = masses.sum()
    if abs(total - 1.0) > 1e-8:
        raise RuntimeError("LP mass constraint violated beyond tolerance")
    return BRSolution(
        value=value,
        masses=masses,
        gap=value - problem.baseline,
        duality_gap=duality_gap,
        grid=problem.grid,
    )


def equilibrium_gap(
    G_star: PiecewisePolyDist,
    F: PiecewisePolyDist,
    H: PiecewisePolyDist,
    n: int,
    grid_n: int = 801,
) -> float:
    """max(0, best grid deviation payoff - 1/n): zero iff the conjecture is a
    best response to itself at this grid resolution."""
    sol = solve_br(build_problem(G_star, F, H, n, grid_n))
    return max(0.0, sol.value - 1.0 / n)


def masses_to_dist(grid: np.ndarray, masses: np.ndarray, tol: float = 1e-12) -> PiecewisePolyDist:
    """Reconstruct a step-CDF distribution from LP masses (for feasibility
    cross-checks against the contraction test)."""
    keep = masses > tol
    locs = grid[keep]
    w = masses[keep]
    w = w / w.sum()
    atoms = []
    for loc, mass in zip(locs, w):
        atoms.append((float(loc), float(mass)))
    lo = min(0.0, locs.min())
    hi = max(1.0, locs.max())
    return PiecewisePolyDist([lo, hi], [np.zeros(1)], atoms=atoms)
