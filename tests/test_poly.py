"""Gauss-Legendre rules of ``_poly.gauss_nodes`` against 32-digit values."""

import mpmath
import numpy as np
import pytest

from censearch._poly import gauss_nodes, nodes_for_degree

# the rules the library asks for: hat_masses' 3 nodes, consumer surplus' 64,
# the node cap; at n = 2, 5 and 50 the worst-case rules of the stop integral
# and expected payoff (4n + 16 and 4n + 19) and the best-of-n value (4n + 4);
# and the rules sized by the laws' degrees, for CDF degree d_G = 1..4 and
# cost density degree d_H = 0..3: the stop integral n d_G + d_H (d_G + 1),
# the expected payoff and mass balance that plus 1 + d_W against the prior or
# the conjecture (d_W = d_G - 1), and the best-of-n value n d_G
SIZES = sorted(
    {1, 2, 3, 64, 169, 192}
    | {nodes_for_degree(d) for n in (2, 5, 50) for d in (4 * n + 16, 4 * n + 19, 4 * n + 4)}
    | {
        nodes_for_degree(n * d_G + d_H * (d_G + 1) + extra)
        for n in (2, 5, 50)
        for d_G in range(1, 5)
        for d_H in range(4)
        for extra in (0, d_G)
    }
    | {nodes_for_degree(n * d_G) for n in (2, 5, 50) for d_G in range(1, 5)}
)


def _legendre_mp(n, x):
    """(P_n(x), P_n'(x)) in mpmath by the three-term recurrence."""
    prev, p = mpmath.mpf(1), x
    for j in range(1, n):
        prev, p = p, ((2 * j + 1) * x * p - j * prev) / (j + 1)
    return p, n * (prev - x * p) / (1 - x * x)


def _reference(n, x0):
    """The root of P_n nearest x0 and its weight 2 / ((1 - x^2) P_n'(x)^2),
    by Newton at 32 digits."""
    x = mpmath.mpf(x0)
    for _ in range(3):
        p, dp = _legendre_mp(n, x)
        x -= p / dp
    return x, 2 / ((1 - x * x) * _legendre_mp(n, x)[1] ** 2)


@pytest.fixture
def fresh_rules(monkeypatch):
    """Rules built anew with the dense eigensolvers out of reach."""

    def no_eigensolver(*args, **kwargs):
        raise AssertionError("Gauss-Legendre rules must not call an eigensolver")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolver)
    monkeypatch.setattr(np.linalg, "eigh", no_eigensolver)
    gauss_nodes.cache_clear()
    yield
    gauss_nodes.cache_clear()


def test_rules_match_32_digit_newton(fresh_rules):
    for n in SIZES:
        x, w = gauss_nodes(n)
        assert len(x) == len(w) == n
        assert np.all(np.diff(x) > 0), n  # n distinct nodes, ascending
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1]), n
        if n % 2:
            assert x[n // 2] == 0.0, n
        assert abs(w.sum() - 2.0) <= 4 * np.spacing(2.0), n
        with mpmath.workdps(32):
            for xi, wi in zip(x[n // 2 :].tolist(), w[n // 2 :].tolist()):
                xr, wr = _reference(n, xi)
                assert abs(xi - xr) <= 2.3e-16, (n, xi)
                assert abs(wi - wr) <= 2e-12 * wr, (n, xi)
