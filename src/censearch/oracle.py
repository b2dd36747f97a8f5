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

scipy is imported on first use, not with the module: ``lp_matrices`` loads
``scipy.sparse`` and ``solve_br`` loads scipy's HiGHS bindings, so the
commands that never solve an LP do not pay for either.

HiGHS solves the LP by primal simplex, presolve off, from the basis of the
conjecture's own grid masses (``BRProblem.start``).  The conjecture is a
contraction of F, so its masses are a feasible point, and where it is a best
response (below and at a_max) they are the optimum: the solve takes 0
iterations.  On a 2-core Xeon VM, best of 5, the benchmark's 18 LPs
(rounds 0-1 of lp-oracle seeds 1-3) at grid 801 (m = 868) took 2.1-4.8 ms
each, 66-214 iterations above a_max; a cold dual simplex with devex pricing and presolve
on took 12.8-20.9 ms in 608-959 iterations.  At grid 3201 (m = 3268) they
took 13-42 ms against 91-206 ms.

Deviations are unobservable to consumers, so the conjecture stays fixed and
no fixed-point iteration is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._poly import gauss_nodes
from .demand import DemandCurve, expected_payoff
from .dists import NO_COST, PiecewisePolyDist, mean, reservation_value

__all__ = ["BRProblem", "BRSolution", "build_problem", "solve_br"]

GRID_N = 801          # uniform mesh points of the LP grid
COST_QUANTILES = 64   # cost quantiles whose reservation images join the grid
GRID_MERGE = 1e-11    # grid points this close merge into one
SUPPORT_MASS = 1e-9   # smallest LP mass BRSolution.support reports
ATOM_MASS = 1e-12     # smallest LP mass masses_to_dist keeps as an atom
# Start masses and scaled cap slacks above START_BASIC make a row or a column
# basic in solve_br's starting basis.  It only chooses where the simplex
# starts: a wrong choice costs iterations, never a wrong answer.
START_BASIC = 1e-12


@dataclass
class BRProblem:
    grid: np.ndarray          # candidate signal locations in [0, 1]
    objective: np.ndarray     # interim demand at the grid (tie-aware at atoms)
    hat_masses: np.ndarray    # F's mass split linearly between neighbouring grid points
    baseline: float           # symmetric payoff of the conjecture
    start: np.ndarray         # the conjecture's own grid masses, a feasible point

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
        import scipy.sparse as sp

        x = self.grid
        m = len(x)
        d = np.diff(x)
        rows = np.arange(m - 2)[:, None] + np.arange(3)
        vals = np.column_stack([d[1:], -(d[:-1] + d[1:]), d[:-1]])
        A_ub = sp.csc_matrix(
            (vals.ravel(), rows.ravel(), np.arange(0, 3 * (m - 2) + 1, 3)), shape=(m, m - 2)
        )
        return A_ub.T @ self.objective, A_ub, self.hat_masses

    def slacks(self, p: np.ndarray) -> np.ndarray:
        """The scaled cap slacks z of masses p, so that ``p = w - A_ub @ z``
        (:meth:`lp_matrices`), in O(m): ``K_k(w) - K_k(p)`` grows by
        ``d_{k+1} Q_k`` from grid point k to k + 1, with Q the cumulative
        sum of ``w - p``.  p meets every interior cap exactly when z >= 0."""
        d = np.diff(self.grid)
        slack = np.cumsum(d[:-1] * np.cumsum(self.hat_masses - p)[:-2])
        return slack / (d[:-1] * d[1:])

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
    row_duals: np.ndarray = field(repr=False, default=None)  # y >= 0: objective + y is the price function
    iterations: int = 0       # simplex iterations from the conjecture's basis

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

    Points closer than GRID_MERGE merge into one.  The breakpoints and atoms
    of the two laws win over the other points, so the conjecture's atoms sit
    on the grid exactly and its own masses (``start``) put nothing beside
    them; of two such points the lower one stays.
    """
    if grid_n < 51:
        raise ValueError("grid too coarse")
    curve = DemandCurve(G_star, n, H)
    laws = {float(b) for b in G_star.breaks if 0.0 <= b <= 1.0}
    laws.update(float(a) for a in G_star.atom_locs)
    laws.update(float(b) for b in F.breaks)
    pts = set(np.linspace(0.0, 1.0, grid_n))
    pts.add(float(mean(F)))
    pts.add(curve.r_lo)
    pts.add(min(curve.r_hi, 1.0))
    cs = H.quantile((np.arange(COST_QUANTILES) + 0.5) / COST_QUANTILES)
    pts.update(float(t) for t in reservation_value(G_star, cs[cs > NO_COST]) if 0.0 <= t <= 1.0)
    fixed = np.array(sorted(laws))
    grid = np.array(sorted(pts - laws))
    k = np.clip(np.searchsorted(fixed, grid), 1, len(fixed) - 1)
    near = np.minimum(np.abs(grid - fixed[k - 1]), np.abs(grid - fixed[k])) <= GRID_MERGE
    grid = np.union1d(fixed, grid[~near])
    grid = grid[np.concatenate([[True], np.diff(grid) > GRID_MERGE])]
    obj = curve.value(grid)
    baseline = expected_payoff(G_star, G_star, n, H, curve=curve)
    return BRProblem(grid, obj, hat_masses(F, grid), float(baseline), hat_masses(G_star, grid))


def _highs_core():
    """scipy's HiGHS bindings: the private class ``linprog`` itself drives,
    which unlike ``linprog`` takes a starting basis."""
    try:
        from scipy.optimize._highspy import _core

        _core._Highs, _core.HighsBasis
    except (ImportError, AttributeError) as exc:
        raise ImportError(
            "solve_br needs scipy >= 1.17.1, whose HiGHS bindings"
            " (scipy.optimize._highspy._core._Highs) take a starting basis"
        ) from exc
    return _core


def _start_basis(core, problem: BRProblem, m: int):
    """The basis of the conjecture's masses: a column is basic where its
    scaled cap slack is positive, a row where the start's mass is.  A
    degenerate start (at a = 0 the point mass at F's mean leaves m - 1
    basics) is completed by its first nonbasic rows.  A start with more than
    m basics (a partial pool, where mass and slack are both positive) goes
    to HiGHS as an alien basis, which HiGHS trims; it replaces the columns
    of a singular basis by slacks when it factorizes."""
    cols = problem.slacks(problem.start) > START_BASIC
    rows = problem.start > START_BASIC
    short = m - int(cols.sum()) - int(rows.sum())
    if short > 0:
        rows[np.flatnonzero(~rows)[:short]] = True
    S = core.HighsBasisStatus
    basis = core.HighsBasis()
    basis.col_status = [S.kBasic if b else S.kLower for b in cols]
    basis.row_status = [S.kBasic if b else S.kUpper for b in rows]
    basis.alien = short < 0
    return basis


def solve_br(problem: BRProblem) -> BRSolution:
    """Maximize grid-mass payoff subject to the contraction caps; returns the
    optimum, the mass vector, the gap over the symmetric payoff, the LP
    duality gap, the row duals and the simplex iteration count.  The only
    bounds are ``z >= 0``, so the dual objective is ``b_ub @ y`` in full.

    One HiGHS model solves the LP of :meth:`BRProblem.lp_matrices` by primal
    simplex from :func:`_start_basis`, presolve off (presolve drops a basis).
    The primal feasibility tolerance is 1e-10: at HiGHS's default 1e-7 a warm
    primal solve can end with a mass of -2e-8, which breaks the mass check."""
    core = _highs_core()
    c, A_ub, b_ub = problem.lp_matrices()
    m, cols = A_ub.shape
    lp = core.HighsLp()
    lp.num_col_, lp.num_row_ = cols, m
    lp.col_cost_ = c
    lp.col_lower_, lp.col_upper_ = np.zeros(cols), np.full(cols, np.inf)
    lp.row_lower_, lp.row_upper_ = np.full(m, -np.inf), b_ub
    mat = lp.a_matrix_
    mat.format_ = core.MatrixFormat.kColwise
    mat.num_col_, mat.num_row_ = cols, m
    mat.start_, mat.index_, mat.value_ = A_ub.indptr, A_ub.indices, A_ub.data
    highs = core._Highs()
    for key, val in (
        ("output_flag", False), ("presolve", "off"), ("solver", "simplex"),
        ("simplex_strategy", int(core.simplex_constants.SimplexStrategy.kSimplexStrategyPrimal)),
        ("primal_feasibility_tolerance", 1e-10),
    ):
        if highs.setOptionValue(key, val) != core.HighsStatus.kOk:
            raise RuntimeError(f"HiGHS rejected the option {key} = {val!r}")
    highs.passModel(lp)
    highs.setBasis(_start_basis(core, problem, m))
    highs.run()
    status = highs.getModelStatus()
    if status != core.HighsModelStatus.kOptimal:
        raise RuntimeError(f"best-response LP failed: {highs.modelStatusToString(status)}")
    info, sol = highs.getInfo(), highs.getSolution()
    fun = float(info.objective_function_value)
    row_dual = np.array(sol.row_dual)
    value = float(problem.objective @ b_ub) - fun
    duality_gap = abs(fun - float(b_ub @ row_dual))
    masses = np.maximum(b_ub - A_ub @ np.array(sol.col_value), 0.0)
    total = masses.sum()
    if abs(total - 1.0) > 1e-8:
        raise RuntimeError("LP mass constraint violated beyond tolerance")
    return BRSolution(
        value=value,
        masses=masses,
        gap=value - problem.baseline,
        duality_gap=duality_gap,
        grid=problem.grid,
        row_duals=-row_dual,
        iterations=int(info.simplex_iteration_count),
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
