"""Brute-force best-response oracle.

Completely independent of the analytic certificates: discretize the set of
feasible signal distributions as probability masses on a grid, encode the
mean-preserving-contraction feasibility as linear constraints (cumulative
caps at every grid point plus the mean equality), and maximize the expected
payoff against the fixed conjecture by linear programming.  The optimal
value minus the symmetric payoff 1/n is the equilibrium gap: zero (up to
solver tolerance) exactly when no profitable deviation exists.

The caps ``sum_i (x_k - x_i)^+ p_i <= int_0^{x_k} F`` are the integral-of-CDF
view of mean-preserving contractions (Gentzkow & Kamenica, AER P&P 2016;
Kolotilin, TE 2018).  Written densely they are an m x m matrix; through the
cumulative variables ``C_k = sum_{i<=k} p_i`` and
``K_k = K_{k-1} + (x_k - x_{k-1}) C_{k-1}`` (so ``K_k`` is the cap's left
side) the same feasible set takes O(m) nonzeros.

Deviations are unobservable to consumers, so the conjecture stays fixed and
no fixed-point iteration is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .demand import DemandCurve, expected_payoff
from .dists import PiecewisePolyDist, mean, reservation_value

__all__ = ["BRProblem", "BRSolution", "build_problem", "solve_br", "equilibrium_gap"]

GRID_N = 801          # uniform mesh points of the LP grid
COST_QUANTILES = 64   # cost quantiles whose reservation images join the grid


@dataclass
class BRProblem:
    grid: np.ndarray          # candidate signal locations in [0, 1]
    objective: np.ndarray     # interim demand at the grid (tie-aware at atoms)
    mean_target: float
    cum_caps: np.ndarray      # int_0^{x_k} F per grid point
    n: int
    baseline: float           # symmetric payoff of the conjecture

    def lp_matrices(self):
        """The LP that :func:`solve_br` passes to HiGHS, as
        ``(c, A_ub, b_ub, A_eq, b_eq)`` with CSR matrices: minimize ``c @ v``
        subject to ``A_ub @ v <= b_ub``, ``A_eq @ v == b_eq`` and ``v >= 0``.

        The variables are ``v = (p, C, K)``, m each (columns 0..m-1 the
        masses, m..2m-1 the cumulative masses, 2m..3m-1 the cumulative
        caps' left sides).  ``A_ub`` holds the caps ``K_k <= cap_k``.
        ``A_eq`` holds m rows ``C_k - C_{k-1} - p_k = 0``, m rows
        ``K_k - K_{k-1} - (x_k - x_{k-1}) C_{k-1} = 0`` (``C_{-1} = K_{-1} = 0``),
        then the mean row and the mass row.  9m - 4 nonzeros in all when
        the grid starts at 0."""
        x = self.grid
        m = len(x)
        eye = sp.eye(m, format="csr")
        diff = eye - sp.eye(m, k=-1, format="csr")
        zero = sp.csr_matrix((m, m))
        A_ub = sp.hstack([zero, zero, eye], format="csr")
        A_eq = sp.bmat(
            [
                [-eye, diff, None],
                [None, sp.diags(-np.diff(x), -1, shape=(m, m)), diff],
                [sp.csr_matrix(x[None, :]), None, None],
                [sp.csr_matrix(np.ones((1, m))), None, None],
            ],
            format="csr",
        )
        b_eq = np.concatenate([np.zeros(2 * m), [self.mean_target, 1.0]])
        c = np.concatenate([-self.objective, np.zeros(2 * m)])
        return c, A_ub, self.cum_caps, A_eq, b_eq

    def dump_triplets(self) -> str:
        """The constraint matrices of :meth:`lp_matrices` in plain-text
        sparse triplet form (``row col value``, floats by ``repr``).  Columns
        follow the variables (p, C, K).  Rows 0..m-1 are ``A_ub`` (the caps)
        and row m + r is row r of ``A_eq``: rows m..2m-1 the C recursion,
        2m..3m-1 the K recursion, 3m the mean and 3m + 1 the total mass."""
        _, A_ub, _, A_eq, _ = self.lp_matrices()
        m = len(self.grid)
        lines = ["# row col value"]
        for offset, A in ((0, A_ub), (m, A_eq)):
            coo = A.tocoo()
            lines.extend(
                f"{r + offset} {c} {v!r}"
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

    def support(self, tol: float = 1e-9):
        keep = self.masses > tol
        return self.grid[keep], self.masses[keep]


def build_problem(
    G_star: PiecewisePolyDist,
    F: PiecewisePolyDist,
    H: PiecewisePolyDist,
    n: int,
    grid_n: int = GRID_N,
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
    cs = H.quantile((np.arange(COST_QUANTILES) + 0.5) / COST_QUANTILES)
    pts.update(float(t) for t in reservation_value(G_star, cs[cs > 1e-12]) if 0.0 <= t <= 1.0)
    grid = np.array(sorted(pts))
    keep = np.concatenate([[True], np.diff(grid) > 1e-11])
    grid = grid[keep]
    obj = curve.value(grid)
    caps = F.cdf_integral(grid)
    baseline = expected_payoff(G_star, G_star, n, H, curve=curve)
    return BRProblem(grid, obj, float(mean(F)), caps, int(n), float(baseline))


def solve_br(problem: BRProblem) -> BRSolution:
    """Maximize grid-mass payoff subject to the contraction caps; returns the
    optimum, the mass vector, the gap over the symmetric payoff, and the
    LP duality gap.  Every bound is 0 below and free above, so the dual
    objective is ``b_ub @ y_ub + b_eq @ y_eq`` in full."""
    m = len(problem.grid)
    c, A_ub, b_ub, A_eq, b_eq = problem.lp_matrices()
    res = linprog(
        c,
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
    masses = np.maximum(res.x[:m], 0.0)
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
    grid_n: int = GRID_N,
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
