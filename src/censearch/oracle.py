"""Brute-force best-response oracle.

Completely independent of the analytic certificates: discretize the set of
feasible signal distributions as probability masses on a grid, encode the
mean-preserving-contraction feasibility as linear constraints, and maximize
the expected payoff against the fixed conjecture by linear programming.  The
optimal value minus the symmetric payoff 1/n is the equilibrium gap: zero
(up to solver tolerance) exactly when no profitable deviation exists.

The contraction caps ``K_k(p) = sum_i (x_k - x_i)^+ p_i <= int_0^{x_k} F``
are the integral-of-CDF view of mean-preserving contractions (Gentzkow &
Kamenica, AER P&P 2016; Kolotilin, TE 2018).  The LP is written in the caps'
slacks.  With grid spacings ``d_k = x_k - x_{k-1}`` and the hat masses
``w_i = int phi_i dF`` (F's mass split linearly between neighbouring grid
points), every feasible p is ``p = w - C^T z`` for scaled slacks
``z_k = (cap_k - K_k(p)) / (d_k d_{k+1}) >= 0`` at the interior points, where
row k of C is ``(d_{k+1}, -(d_k + d_{k+1}), d_k)`` on columns k-1, k, k+1.
Each row of C has zero sum and zero first moment, so mass and mean hold
identically and the end caps hold with equality: the LP has m - 2 variables,
the m rows ``p >= 0`` and 3(m - 2) nonzeros.  Its row duals y give the
discrete price function ``q = D + y`` of Dworczak & Martini (JPE 2019):
convex on the grid, ``q >= D``, ``q = D`` where p > 0, and ``w @ q`` is the
optimal value.

Deviations are unobservable to consumers, so the conjecture stays fixed and
no fixed-point iteration is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from ._poly import gauss_nodes
from .demand import DemandCurve, expected_payoff
from .dists import PiecewisePolyDist, mean, reservation_value

__all__ = ["BRProblem", "BRSolution", "build_problem", "solve_br"]

GRID_N = 801          # uniform mesh points of the LP grid
COST_QUANTILES = 64   # cost quantiles whose reservation images join the grid
SUPPORT_MASS = 1e-9   # smallest LP mass BRSolution.support reports
ATOM_MASS = 1e-12     # smallest LP mass masses_to_dist keeps as an atom


@dataclass
class BRProblem:
    grid: np.ndarray          # candidate signal locations in [0, 1]
    objective: np.ndarray     # interim demand at the grid (tie-aware at atoms)
    mean_target: float
    cum_caps: np.ndarray      # int_0^{x_k} F per grid point
    hat_masses: np.ndarray    # F's mass split linearly between neighbouring grid points
    n: int
    baseline: float           # symmetric payoff of the conjecture

    def lp_matrices(self):
        """The LP that :func:`solve_br` passes to HiGHS, as ``(c, A_ub, b_ub)``:
        minimize ``c @ z`` subject to ``A_ub @ z <= b_ub`` and ``z >= 0``.

        Column j holds the scaled cap slack z_{j+1} of interior grid point
        k = j + 1, ``cap_k - K_k(p) = d_k d_{k+1} z_k`` with spacings
        ``d_k = x_k - x_{k-1}``; its entries ``(d_{k+1}, -(d_k + d_{k+1}), d_k)``
        sit in rows k - 1, k, k + 1.  Row i is the mass ``p_i = w_i - (A_ub @ z)_i
        >= 0``, with ``b_ub = w`` the hat masses.  ``c = A_ub.T @ D``, so the
        payoff is ``D @ w - c @ z``.  An m x (m - 2) CSC matrix with
        3(m - 2) nonzeros."""
        x = self.grid
        m = len(x)
        d = np.diff(x)
        rows = np.arange(m - 2)[:, None] + np.arange(3)
        vals = np.column_stack([d[1:], -(d[:-1] + d[1:]), d[:-1]])
        A_ub = sp.csc_matrix(
            (vals.ravel(), rows.ravel(), np.arange(0, 3 * (m - 2) + 1, 3)), shape=(m, m - 2)
        )
        return A_ub.T @ self.objective, A_ub, self.hat_masses

    def dump_triplets(self) -> str:
        """The constraint matrix ``A_ub`` of :meth:`lp_matrices` in plain-text
        sparse triplet form (``row col value``, floats by ``repr``): m rows,
        one per grid mass, and m - 2 columns, one per interior cap slack."""
        _, A_ub, _ = self.lp_matrices()
        coo = A_ub.tocoo()
        lines = ["# row col value"]
        lines.extend(
            f"{r} {c} {v!r}"
            for r, c, v in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist())
        )
        return "\n".join(lines) + "\n"


@dataclass
class BRSolution:
    value: float
    masses: np.ndarray
    gap: float                # value - symmetric payoff of the conjecture
    duality_gap: float
    grid: np.ndarray = field(repr=False, default=None)

    def support(self):
        keep = self.masses > SUPPORT_MASS
        return self.grid[keep], self.masses[keep]


def hat_masses(F: PiecewisePolyDist, grid: np.ndarray) -> np.ndarray:
    """``w_i = int phi_i dF`` for the piecewise-linear hats phi_i of the grid.
    3-point Gauss-Legendre in each grid interval's local coordinates is exact
    for a cubic density times a linear hat, provided every grid interval lies
    inside one piece of F; each atom of F splits linearly between the grid
    points around it."""
    xi, om = gauss_nodes(3)
    d = np.diff(grid)
    t = grid[:-1, None] + 0.5 * d[:, None] * (1.0 + xi)
    f = F.pdf(t.ravel()).reshape(t.shape) * (0.5 * d[:, None] * om)
    w = np.zeros(len(grid))
    w[:-1] += f @ (0.5 * (1.0 - xi))
    w[1:] += f @ (0.5 * (1.0 + xi))
    if len(F.atom_locs):
        k = np.clip(np.searchsorted(grid, F.atom_locs, side="right") - 1, 0, len(d) - 1)
        s = np.clip((F.atom_locs - grid[k]) / d[k], 0.0, 1.0)
        np.add.at(w, k, F.atom_masses * (1.0 - s))
        np.add.at(w, k + 1, F.atom_masses * s)
    return w


def build_problem(
    G_star: PiecewisePolyDist,
    F: PiecewisePolyDist,
    H: PiecewisePolyDist,
    n: int,
    grid_n: int = GRID_N,
) -> BRProblem:
    """Assemble the LP: grid = uniform mesh plus the conjecture's breakpoints
    and atoms, the prior's breakpoints, the reservation window ends, and the
    reservation images of cost quantiles (so profitable partial-purchase
    signals are representable).
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
    cs = H.quantile((np.arange(COST_QUANTILES) + 0.5) / COST_QUANTILES)
    pts.update(float(t) for t in reservation_value(G_star, cs[cs > 1e-12]) if 0.0 <= t <= 1.0)
    grid = np.array(sorted(pts))
    keep = np.concatenate([[True], np.diff(grid) > 1e-11])
    grid = grid[keep]
    obj = curve.value(grid)
    caps = F.cdf_integral(grid)
    baseline = expected_payoff(G_star, G_star, n, H, curve=curve)
    return BRProblem(grid, obj, float(mean(F)), caps, hat_masses(F, grid), int(n), float(baseline))


def solve_br(problem: BRProblem) -> BRSolution:
    """Maximize grid-mass payoff subject to the contraction caps; returns the
    optimum, the mass vector, the gap over the symmetric payoff, and the
    LP duality gap.  The only bounds are ``z >= 0``, so the dual objective
    is ``b_ub @ y`` in full."""
    c, A_ub, b_ub = problem.lp_matrices()
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=(0.0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"best-response LP failed: {res.message}")
    value = float(problem.objective @ b_ub) - float(res.fun)
    duality_gap = abs(float(res.fun) - float(b_ub @ res.ineqlin.marginals))
    masses = np.maximum(b_ub - A_ub @ res.x, 0.0)
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


def masses_to_dist(grid: np.ndarray, masses: np.ndarray) -> PiecewisePolyDist:
    """Reconstruct a step-CDF distribution from the LP masses above
    ATOM_MASS (for feasibility cross-checks against the contraction test)."""
    keep = masses > ATOM_MASS
    locs = grid[keep]
    w = masses[keep]
    w = w / w.sum()
    atoms = []
    for loc, mass in zip(locs, w):
        atoms.append((float(loc), float(mass)))
    lo = min(0.0, locs.min())
    hi = max(1.0, locs.max())
    return PiecewisePolyDist([lo, hi], [np.zeros(1)], atoms=atoms)
