"""LP best-response oracle: feasibility encoding, gaps, and agreement with
the analytic verifier."""

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import quasi_concave_pair, quasi_convex_pair
from scipy.optimize import linprog

import censearch.oracle as oracle
from censearch.censorship import solve_a_max, upper_censorship, verify_uce
from censearch.dists import PiecewisePolyDist, mean, mpc_check
from censearch.oracle import (
    build_problem,
    equilibrium_gap,
    masses_to_dist,
    solve_br,
)

GAP_TOL = 1e-6  # oracle resolution: grid-relaxation bias plus solver noise


@pytest.fixture(scope="module")
def U4(F):
    return upper_censorship(F, 0.4)


def test_problem_caps(F, H_uniform, U4):
    prob = build_problem(U4, F, H_uniform, 2, 101)
    assert prob.cum_caps[0] == pytest.approx(0.0, abs=1e-15)
    assert prob.cum_caps[-1] == pytest.approx(1.0 - mean(F), abs=1e-12)
    assert np.all(np.diff(prob.cum_caps) >= -1e-15)
    slopes = np.diff(prob.cum_caps) / np.diff(prob.grid)
    assert np.all(np.diff(slopes) >= -1e-9)  # convex in the grid
    assert prob.grid[0] == 0.0 and prob.grid[-1] == 1.0
    assert any(abs(g - 0.7) < 1e-12 for g in prob.grid)  # pool atom injected


def test_objective_for_no_disclosure(F, H_uniform):
    delta = upper_censorship(F, 0.0)
    prob = build_problem(delta, F, H_uniform, 2, 101)
    below = prob.grid < 0.5 - 0.18 - 1e-9
    above = prob.grid >= 0.5
    assert np.allclose(prob.objective[below], 0.0, atol=1e-12)
    assert np.allclose(prob.objective[above], 0.5, atol=1e-12)


def test_grid_too_coarse(F, H_uniform, U4):
    with pytest.raises(ValueError, match="grid too coarse"):
        build_problem(U4, F, H_uniform, 2, 50)


def test_constant_objective_degenerate(F, H_uniform, U4):
    prob = build_problem(U4, F, H_uniform, 2, 101)
    prob.objective = np.full_like(prob.objective, 0.25)
    sol = solve_br(prob)
    assert sol.value == pytest.approx(0.25, abs=1e-10)


def test_equilibrium_gap_examples(F, H_uniform, U4):
    delta = upper_censorship(F, 0.0)
    assert equilibrium_gap(delta, F, H_uniform, 3, 401) <= GAP_TOL
    assert equilibrium_gap(U4, F, H_uniform, 2, 801) <= GAP_TOL
    # full disclosure is not an equilibrium: a duopoly deviation gains a lot,
    # and the gap stays resolvable even under intense competition
    assert equilibrium_gap(F, F, H_uniform, 2, 801) > 1e-3
    assert equilibrium_gap(F, F, H_uniform, 50, 801) > GAP_TOL


def test_profitable_deviation_above_threshold(F, H_uniform):
    U45 = upper_censorship(F, 0.45)
    sol = solve_br(build_problem(U45, F, H_uniform, 2, 801))
    assert sol.gap > 1e-3
    assert sol.duality_gap <= 1e-8
    xs, ms = sol.support()
    # optimal deviation puts mass on partial-purchase signals
    inside = (xs > 0.45 + 1e-9) & (xs < 0.725 - 1e-9)
    assert ms[inside].sum() > 0.05


def test_solution_is_contraction(F, H_uniform, U4):
    sol = solve_br(build_problem(U4, F, H_uniform, 2, 201))
    G = masses_to_dist(sol.grid, sol.masses)
    ok, viol = mpc_check(G, F, tol=1e-6)
    spacing = np.max(np.diff(np.unique(sol.grid)))
    assert viol <= spacing**2  # grid-spacing bound
    assert abs(mean(G) - 0.5) <= 1e-9


def test_refinement_stability(F, H_uniform):
    for a in (0.0, 0.4, 0.45):
        G = upper_censorship(F, a)
        v1 = solve_br(build_problem(G, F, H_uniform, 2, 801)).value
        v2 = solve_br(build_problem(G, F, H_uniform, 2, 1601)).value
        assert abs(v1 - v2) <= 2e-4


@pytest.mark.slow
def test_oracle_verifier_agreement(F, H_uniform):
    """Within the oracle's resolution the two equilibrium judgments agree:
    analytic passes have no detectable gap, and detectable gaps only occur
    at analytic failures (failures below the LP's resolution are allowed --
    they are epsilon-equilibria at the grid scale)."""
    for n in (5, 20, 80):
        for a in np.linspace(0.0, 0.5, 11):
            verdict = verify_uce(F, H_uniform, float(a), n).verdict == "equilibrium"
            gap = equilibrium_gap(upper_censorship(F, float(a)), F, H_uniform, n, 801)
            if verdict:
                assert gap <= GAP_TOL, (n, a, gap)
            if gap > GAP_TOL:
                assert not verdict, (n, a, gap)


def _parse_triplets(text, m):
    """(A_ub, A_eq) rebuilt from a dump: rows 0..m-1 are A_ub, the rest A_eq."""
    lines = text.splitlines()
    assert lines[0] == "# row col value"
    rows, cols, vals = [], [], []
    for line in lines[1:]:
        r, c, v = line.split()
        rows.append(int(r))
        cols.append(int(c))
        vals.append(float(v))
    rows, cols, vals = np.array(rows), np.array(cols), np.array(vals)
    ub = rows < m
    A_ub = sp.csr_matrix((vals[ub], (rows[ub], cols[ub])), shape=(m, 3 * m))
    A_eq = sp.csr_matrix((vals[~ub], (rows[~ub] - m, cols[~ub])), shape=(2 * m + 2, 3 * m))
    return A_ub, A_eq, len(vals)


def _same_matrix(A, B):
    return A.shape == B.shape and (sp.csr_matrix(A) != sp.csr_matrix(B)).nnz == 0


def test_dump_triplets_format(F, H_uniform, U4, monkeypatch):
    prob = build_problem(U4, F, H_uniform, 2, 101)
    seen = {}

    def spy(*args, **kwargs):
        seen.update(kwargs)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(oracle, "linprog", spy)
    solve_br(prob)
    A_ub, A_eq, nnz = _parse_triplets(prob.dump_triplets(), len(prob.grid))
    assert _same_matrix(A_ub, seen["A_ub"])
    assert _same_matrix(A_eq, seen["A_eq"])
    assert nnz == seen["A_ub"].nnz + seen["A_eq"].nnz  # no duplicate or zero triplets
    assert np.all(seen["A_ub"].data != 0.0) and np.all(seen["A_eq"].data != 0.0)


@pytest.mark.parametrize("grid_n", [201, 401, 801])
def test_dump_is_linear_in_grid(F, H_uniform, U4, grid_n):
    prob = build_problem(U4, F, H_uniform, 2, grid_n)
    nnz = prob.dump_triplets().count("\n") - 1
    assert nnz <= 10 * len(prob.grid), (grid_n, len(prob.grid), nnz)


def _dense_br(prob):
    """The contraction LP with the caps written out as the dense m x m
    matrix sum_i (x_k - x_i)^+ p_i <= cap_k: the reference formulation."""
    x = prob.grid
    m = len(x)
    A_ub = np.maximum(x[:, None] - x[None, :], 0.0)
    res = linprog(
        -prob.objective,
        A_ub=A_ub,
        b_ub=prob.cum_caps,
        A_eq=np.vstack([np.ones(m), x]),
        b_eq=np.array([1.0, prob.mean_target]),
        bounds=(0.0, None),
        method="highs",
    )
    assert res.status == 0, res.message
    return -float(res.fun), A_ub


def _random_costs(rng):
    """Piecewise constant or linear positive density on [0, cbar], mass 1."""
    cbar = rng.uniform(0.12, 0.3)
    pieces = int(rng.integers(2, 7))
    breaks = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, pieces - 1)) * cbar, [cbar]])
    linear = rng.random() < 0.5
    coefs, mass = [], 0.0
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        y0 = rng.uniform(0.2, 5.0)
        y1 = rng.uniform(0.2, 5.0) if linear else y0
        slope = (y1 - y0) / (hi - lo)
        coefs.append(np.array([y0 - slope * lo, slope]))
        mass += 0.5 * (y0 + y1) * (hi - lo)
    return PiecewisePolyDist(breaks, [c / mass for c in coefs])


def test_matches_dense_reference(F, H_uniform, H_step, H_bimodal, H_threestep, H_convex):
    """The cumulative-variable LP against the dense-cap LP it replaces, on the
    7 test-suite cost laws and 10 random piecewise laws, below, at and above
    a_max, n = 2, 5, 50, grid_n 101 and 201.  The 1e-7 bounds are HiGHS's
    default primal feasibility tolerance."""
    rng = np.random.default_rng(2016)
    laws = [H_uniform, H_step, H_bimodal, H_threestep, H_convex,
            quasi_convex_pair()[0], quasi_concave_pair()[0]]
    laws += [_random_costs(rng) for _ in range(10)]
    for li, H in enumerate(laws):
        a_max = solve_a_max(F, H)[0]
        for a in (0.7 * a_max, a_max, a_max + 0.2 * (1.0 - a_max)):
            G = upper_censorship(F, a)
            for n in (2, 5, 50):
                for grid_n in (101, 201):
                    prob = build_problem(G, F, H, n, grid_n)
                    sol = solve_br(prob)
                    ref, A_dense = _dense_br(prob)
                    case = (li, a, n, grid_n)
                    p, x = sol.masses, prob.grid
                    assert abs(sol.value - ref) <= 1e-7, (case, sol.value - ref)
                    assert np.max(A_dense @ p - prob.cum_caps) <= 1e-7, case
                    assert abs(p.sum() - 1.0) <= 1e-9, case
                    assert abs(p @ x - prob.mean_target) <= 1e-9, case
                    assert sol.duality_gap <= 1e-8, (case, sol.duality_gap)
