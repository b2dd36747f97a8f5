"""LP best-response oracle: feasibility encoding, gaps, and agreement with
the analytic verifier."""

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
import scipy.sparse as sp
from conftest import quasi_concave_pair, quasi_convex_pair
from scipy.optimize import linprog

import censearch.oracle as oracle
from censearch.censorship import solve_a_max, upper_censorship, verify_uce
from censearch.demand import DemandCurve
from censearch.dists import PiecewisePolyDist, mean, mpc_check
from censearch.oracle import (
    build_problem,
    masses_to_dist,
    solve_br,
)

GAP_TOL = 1e-6  # oracle resolution: grid-relaxation bias plus solver noise


def equilibrium_gap(G_star, F, H, n, grid_n):
    """max(0, best grid deviation payoff - 1/n): zero iff the conjecture is a
    best response to itself at this grid resolution."""
    return max(0.0, solve_br(build_problem(G_star, F, H, n, grid_n)).value - 1.0 / n)


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
    prob = build_problem(U45, F, H_uniform, 2, 801)
    sol = solve_br(prob)
    assert sol.gap > 1e-3
    assert sol.duality_gap <= 1e-8
    # every optimal deviation puts mass on the partial-purchase window
    # [0.45, 0.725]: with payoff -1 there the optimum falls
    window = (prob.grid >= 0.45 - 1e-9) & (prob.grid <= 0.725 + 1e-9)
    prob.objective = np.where(window, -1.0, prob.objective)
    assert solve_br(prob).value < sol.value - 1e-3


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
    """A_ub rebuilt from a dump (m rows, m - 2 columns) and the triplet count."""
    lines = text.splitlines()
    assert lines[0] == "# row col value"
    rows, cols, vals = [], [], []
    for line in lines[1:]:
        r, c, v = line.split()
        rows.append(int(r))
        cols.append(int(c))
        vals.append(float(v))
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, m - 2)), len(vals)


def _same_matrix(A, B):
    return A.shape == B.shape and (sp.csr_matrix(A) != sp.csr_matrix(B)).nnz == 0


def _spy_linprog(monkeypatch):
    """Record the keyword arguments and the result of every linprog call."""
    seen = []

    def spy(*args, **kwargs):
        res = linprog(*args, **kwargs)
        seen.append((kwargs, res))
        return res

    monkeypatch.setattr(oracle, "linprog", spy)
    return seen


def test_dump_triplets_format(F, H_uniform, U4, monkeypatch):
    prob = build_problem(U4, F, H_uniform, 2, 101)
    seen = _spy_linprog(monkeypatch)
    solve_br(prob)
    A_ub = seen[-1][0]["A_ub"]
    parsed, nnz = _parse_triplets(prob.dump_triplets(), len(prob.grid))
    assert _same_matrix(parsed, A_ub)
    assert nnz == A_ub.nnz  # no duplicate or zero triplets
    assert np.all(A_ub.data != 0.0)


@pytest.mark.parametrize("grid_n", [101, 801])
def test_slack_form_size(F, H_uniform, U4, grid_n, monkeypatch):
    """One column per interior cap slack, one row per grid mass, three
    nonzeros per column, and no equality rows."""
    prob = build_problem(U4, F, H_uniform, 2, grid_n)
    seen = _spy_linprog(monkeypatch)
    solve_br(prob)
    kwargs = seen[-1][0]
    m = len(prob.grid)
    assert kwargs.get("A_eq") is None and kwargs.get("b_eq") is None
    assert kwargs["A_ub"].shape == (m, m - 2)
    assert kwargs["A_ub"].nnz <= 3 * (m - 2)


@pytest.mark.parametrize("grid_n", [201, 401, 801])
def test_dump_is_linear_in_grid(F, H_uniform, U4, grid_n):
    prob = build_problem(U4, F, H_uniform, 2, grid_n)
    nnz = prob.dump_triplets().count("\n") - 1
    assert nnz <= 10 * len(prob.grid), (grid_n, len(prob.grid), nnz)


def _dense_br(prob):
    """The contraction LP with the caps written out as the dense m x m
    matrix sum_i (x_k - x_i)^+ p_i <= cap_k: the reference formulation,
    solved at 1e-10 primal and dual feasibility tolerances (HiGHS's default
    1e-7 lets its optimum breach the caps and overshoot the value)."""
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
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
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
    """The slack-form LP against the dense-cap LP, on the
    7 test-suite cost laws and 10 random piecewise laws, below, at and above
    a_max, n = 2, 5, 50, grid_n 101 and 201.  The reference is solved at
    1e-10 feasibility tolerances; the caps of the slack form's optimum hold
    to 1e-9."""
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
                    assert abs(sol.value - ref) <= 1e-10, (case, sol.value - ref)
                    assert np.max(A_dense @ p - prob.cum_caps) <= 1e-9, case
                    assert abs(p.sum() - 1.0) <= 1e-9, case
                    assert abs(p @ x - prob.mean_target) <= 1e-9, case
                    assert sol.duality_gap <= 1e-8, (case, sol.duality_gap)


def _cubic_prior_with_atom():
    """Cubic density pieces on [0, 0.37] and [0.37, 1] with mass 0.8, plus an
    atom of 0.2 at the breakpoint 0.37."""
    dens = [np.array([0.6, 1.0, -0.5, 0.8]), np.array([1.2, -0.6, 0.3, -0.1])]
    breaks = [0.0, 0.37, 1.0]
    mass = sum(npoly.polyval(hi, npoly.polyint(c)) - npoly.polyval(lo, npoly.polyint(c))
               for lo, hi, c in zip(breaks[:-1], breaks[1:], dens))
    return PiecewisePolyDist(breaks, [c * 0.8 / mass for c in dens], atoms=[(0.37, 0.2)])


def _exact_hat_masses(mpmath, F, grid):
    """int phi_i dF at 200 bits: the density times each hat, integrated per
    grid interval, plus each atom at its grid point."""
    w = [mpmath.mpf(0)] * len(grid)
    with mpmath.workprec(200):
        for k in range(len(grid) - 1):
            a, b = mpmath.mpf(float(grid[k])), mpmath.mpf(float(grid[k + 1]))
            c = [mpmath.mpf(float(v)) for v in F.coefs[F._segment_index(0.5 * (grid[k] + grid[k + 1]))]]

            def f(t):
                return mpmath.polyval(c[::-1], t)

            w[k] += mpmath.quad(lambda t: f(t) * (b - t), [a, b]) / (b - a)
            w[k + 1] += mpmath.quad(lambda t: f(t) * (t - a), [a, b]) / (b - a)
        for loc, mass in zip(F.atom_locs, F.atom_masses):
            w[int(np.searchsorted(grid, loc))] += mpmath.mpf(float(mass))
    return w


@pytest.mark.parametrize("prior", ["uniform", "cubic_atom"])
def test_hat_masses_exact_at_tiny_spacing(prior, H_uniform):
    """The LP's right-hand side w on a grid with a 1e-10 gap: every hat mass
    matches a 200-bit reference, w keeps F's mass and mean, and the solve
    matches the dense-cap LP."""
    mpmath = pytest.importorskip("mpmath")
    F = PiecewisePolyDist.uniform(0.0, 1.0) if prior == "uniform" else _cubic_prior_with_atom()
    grid = np.unique(np.concatenate([np.linspace(0.0, 1.0, 101), F.breaks, [0.3 + 1e-10]]))
    assert np.diff(grid).min() < 2e-10
    w = oracle.hat_masses(F, grid)
    exact = _exact_hat_masses(mpmath, F, grid)
    assert max(abs(float(mpmath.mpf(float(v)) - e)) for v, e in zip(w, exact)) <= 1e-15
    assert abs(w.sum() - 1.0) <= 1e-15
    assert abs(w @ grid - mean(F)) <= 1e-15
    curve = DemandCurve(upper_censorship(PiecewisePolyDist.uniform(0.0, 1.0), 0.4), 2, H_uniform)
    prob = oracle.BRProblem(grid, curve.value(grid), mean(F), F.cdf_integral(grid), w, 2, 0.5)
    sol = solve_br(prob)
    ref, A_dense = _dense_br(prob)
    assert abs(sol.value - ref) <= 1e-7, sol.value - ref
    assert np.max(A_dense @ sol.masses - prob.cum_caps) <= 1e-7


def test_row_duals_are_the_price_function(F, H_uniform, H_bimodal, H_step, monkeypatch):
    """q = D + y, with y the LP's row duals, is a price function on the grid:
    convex, above the demand D, equal to it on the optimal support, and its
    integral against the hat masses is the optimal value."""
    seen = _spy_linprog(monkeypatch)
    cases = [(H_uniform, 0.45, 2), (H_bimodal, solve_a_max(F, H_bimodal)[0], 5),
             (H_step, 0.3, 5), (H_bimodal, 0.6, 50)]
    for H, a, n in cases:
        prob = build_problem(upper_censorship(F, a), F, H, n, 201)
        sol = solve_br(prob)
        D, x = prob.objective, prob.grid
        q = D - seen[-1][1].ineqlin.marginals
        assert np.all(np.diff(np.diff(q) / np.diff(x)) >= -1e-7), (a, n)
        assert np.all(q >= D - 1e-7), (a, n)
        assert np.all((q - D)[sol.masses > 1e-9] <= 1e-7), (a, n)
        assert abs(prob.hat_masses @ q - sol.value) <= 1e-9, (a, n)
