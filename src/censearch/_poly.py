"""Polynomial and quadrature helpers shared by the distribution machinery.

All polynomials are coefficient arrays in *ascending* powers of a variable
the caller names: ``[c0, c1, c2, c3]`` means ``c0 + c1*t + c2*t**2 +
c3*t**3``, where t is x - origin (:func:`polyshift` moves the origin, and
:func:`real_roots_in` returns roots in x).  Every integral in the
library is either a closed-form antiderivative or a Gauss-Legendre rule
(:func:`gauss_legendre`), with one exception: ``oracle.hat_masses`` applies
``gauss_nodes(3)`` itself, because its bits pick the vertex of the
degenerate best-response LP.  A rule is exact up to rounding only where its
node count covers the integrand's degree; :func:`gauss_legendre` says where
it does not.

:func:`gauss_nodes` builds each rule by Newton on the Legendre three-term
recurrence (Hale & Townsend, SISC 2013): nodes within 1.02e-16 and weights
within 7.8e-13 relative of 40-digit values for every n up to 192.  It makes
no LAPACK call, so it wakes no BLAS worker threads, which spin for about
0.1 s after a dense eigensolver such as numpy's ``leggauss`` returns.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import numpy.polynomial.polynomial as npoly

__all__ = [
    "polyval",
    "polyder",
    "polyint",
    "polymul",
    "polyshift",
    "real_roots_in",
    "poly_range_on",
    "gauss_nodes",
    "gauss_legendre",
]

NODE_BLOCK = 1 << 14  # quadrature nodes evaluated at once by gauss_legendre
NODE_CAP = 192        # nodes_for_degree never gives a rule more nodes than this
ROOT_PAD = 1e-12      # real_roots_in keeps roots this far outside the interval


def polyval(c: np.ndarray, x):
    """The polynomial ``c`` (ascending powers) at x, or column k of a table
    ``c`` at x[k]: the operations of ``numpy.polynomial.polynomial.polyval``
    in the same order, so zero padding leaves the bits unchanged."""
    out = c[-1] + x * 0
    for k in range(len(c) - 2, -1, -1):
        out = c[k] + out * x
    return out


def polymul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return npoly.polymul(np.asarray(a, float), np.asarray(b, float))


def _counting(c: np.ndarray) -> np.ndarray:
    """1, 2, ..., len(c) down the first axis of c, broadcast over its columns."""
    return np.arange(1.0, len(c) + 1.0).reshape((-1,) + (1,) * (c.ndim - 1))


def polyder(coefs: np.ndarray) -> np.ndarray:
    """Derivative of a polynomial, or of each column of a table: coefficient
    k times k, the products ``numpy.polynomial.polynomial.polyder`` makes."""
    c = np.asarray(coefs, dtype=float)
    if len(c) <= 1:
        return np.zeros(1)
    return c[1:] * _counting(c[1:])


def polyint(coefs: np.ndarray) -> np.ndarray:
    """Antiderivative with zero constant term, of a polynomial or of each
    column of a table: coefficient k divided by k + 1, the quotients
    ``numpy.polynomial.polynomial.polyint`` makes, and like it one term for
    a single row of zeros."""
    c = np.asarray(coefs, dtype=float)
    if len(c) == 1 and not c.any():
        return c + 0.0  # a fresh row, with any -0.0 made +0.0 as numpy does
    return np.concatenate([np.zeros((1,) + c.shape[1:]), c / _counting(c)])


def polyshift(coefs: np.ndarray, s) -> np.ndarray:
    """The coefficients of p(t + s) in t, for a polynomial and a scalar s or
    per column of a table, s one per column: each the float nearest to the
    exact shift (synthetic division on integers), so s = 0 keeps them."""
    c = np.asarray(coefs, dtype=float)
    n, out = len(c) - 1, []
    for cc, sv in zip(c.reshape(n + 1, -1).T.tolist(), (np.zeros(c.shape[1:]) + s).ravel().tolist()):
        # c_j = m_j / d_j and s = b / q (d_j, q powers of 2): the integers
        # B_j = c_j e q^(n - j), shifted by b, are coefficient k times e q^(n - k)
        b, q = sv.as_integer_ratio()
        ratios = [v.as_integer_ratio() for v in cc]
        e = max(d for _, d in ratios)
        B = [m * (e // d) * q ** (n - j) for j, (m, d) in enumerate(ratios)]
        for k in range(n):
            for j in range(n - 1, k - 1, -1):
                B[j] += b * B[j + 1]
        out.append([v / (e * q ** (n - k)) for k, v in enumerate(B)])
    return np.array(out).T.reshape(c.shape)


def _trim(coefs: np.ndarray, tol: float = 0.0) -> np.ndarray:
    c = np.asarray(coefs, dtype=float)
    nz = np.nonzero(np.abs(c) > tol)[0]
    if len(nz) == 0:
        return np.zeros(1)
    return c[: nz[-1] + 1]


def real_roots_in(coefs: np.ndarray, lo: float, hi: float, origin: float = 0.0) -> np.ndarray:
    """The real roots x of the polynomial in t = x - origin that lie within
    ROOT_PAD of [lo, hi], clipped to it."""
    c = _trim(coefs, tol=0.0)
    scale = np.max(np.abs(c))
    if scale == 0.0:
        return np.empty(0)  # identically zero: caller handles plateaus
    c = _trim(c, tol=scale * 1e-14)
    if len(c) <= 1:
        return np.empty(0)
    roots = npoly.polyroots(c)
    real = origin + roots[np.abs(roots.imag) <= 1e-9 * max(1.0, np.abs(roots).max())].real
    real = real[(real >= lo - ROOT_PAD) & (real <= hi + ROOT_PAD)]
    return np.clip(np.unique(real), lo, hi)


def poly_range_on(coefs: np.ndarray, lo: float, hi: float) -> tuple[float, float]:
    """Exact (min, max) of the polynomial on [lo, hi] via stationary points."""
    cand = [lo, hi]
    cand.extend(real_roots_in(polyder(np.asarray(coefs, float)), lo, hi))
    vals = polyval(np.asarray(coefs, float), np.asarray(cand))
    return float(np.min(vals)), float(np.max(vals))


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_n(x), P_n'(x)) for n >= 1 and |x| < 1: P_n by the three-term
    recurrence (j + 1) P_{j+1} = (2j + 1) x P_j - j P_{j-1}, and
    P_n' = n (P_{n-1} - x P_n) / (1 - x^2)."""
    prev, p = np.ones_like(x), x
    for j in range(1, n):
        prev, p = p, ((2 * j + 1) * x * p - j * prev) / (j + 1)
    return p, n * (prev - x * p) / (1.0 - x * x)


@lru_cache(maxsize=None)
def gauss_nodes(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """The npts-point Gauss-Legendre rule on [-1, 1], nodes ascending.

    Newton on P_n from x_k = cos(pi (k - 1/4) / (n + 1/2)), for the n // 2
    positive nodes at once, with P_n and P_n' from the three-term recurrence
    (Hale & Townsend, SISC 2013), until every step is at most 2 ulps of 1;
    the weights are 2 / ((1 - x^2) P_n'(x)^2).  The negative half mirrors the
    positive one exactly, and an odd rule's middle node is exactly 0 with
    weight 2 / P_n'(0)^2.  Against 40-digit Newton for n = 1..192 the nodes
    are within 1.02e-16 and the weights within 7.8e-13 relative (numpy's
    ``leggauss``: 8.9e-17 and 5.3e-11).  No LAPACK call, so no BLAS worker
    threads are woken."""
    k = np.arange(1, npts // 2 + 1)
    x = np.cos(np.pi * (k - 0.25) / (npts + 0.5))
    for _ in range(100):
        p, slope = _legendre(npts, x)
        step = p / slope
        x = x - step
        if np.all(np.abs(step) <= 2.0 * np.spacing(1.0)):
            break
    else:
        raise ArithmeticError(f"Gauss-Legendre nodes for n = {npts} did not converge")
    w = 2.0 / ((1.0 - x * x) * _legendre(npts, x)[1] ** 2)
    mid = np.zeros(npts % 2)
    w_mid = 2.0 / _legendre(npts, mid)[1] ** 2
    return np.concatenate([-x, mid, x[::-1]]), np.concatenate([w, w_mid, w[::-1]])


def nodes_for_degree(degree: int) -> int:
    return min(max(degree // 2 + 1, 2), NODE_CAP)


def gauss_legendre(f, lo, hi, npts: int):
    """Gauss-Legendre integral of f from lo to hi (hi >= lo) with npts nodes,
    per entry of lo and hi (scalars or arrays of one shape).

    f takes an array of nodes, one row of npts per entry, and returns the
    integrand there.  Entries go through in blocks of at most NODE_BLOCK
    nodes, which bounds the temporaries, and each is summed by its own dot
    product, as a single entry is (a matrix-vector product would regroup the
    sums), so an entry's bits do not depend on what it is batched with.

    The rule is exact up to rounding for polynomial integrands of degree
    below 2 * npts, and not beyond.  Each caller sizes it by the degrees its
    laws actually have: with d_G = 1 + the top density degree of the
    conjecture (its CDF's degree on a piece), the stop integral of demand has
    degree n d_G + d_H (d_G + 1), the expected payoff and the price-function
    mass balance that plus 1 + d_W, and the best-of-n value n d_F (d_H, d_W
    the density degrees of the costs and of the integrating law).
    :func:`nodes_for_degree` caps the rule at ``NODE_CAP`` = 192 nodes, so
    each is exact only while its degree is at most 383: for cubic densities
    up to n = 91 firms (payoff), for piecewise-uniform laws up to n = 382.
    Consumer surplus integrates with 64 nodes a cost integrand that is not
    polynomial above the branch cost.
    """
    xg, wg = gauss_nodes(npts)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    mids, halves = np.ravel(mid), np.ravel(half)
    sums = np.empty(mids.shape)
    step = max(NODE_BLOCK // len(xg), 1)
    for s in range(0, len(sums), step):
        ts = mids[s : s + step, None] + halves[s : s + step, None] * xg
        sums[s : s + step] = (f(ts)[:, None, :] @ wg)[:, 0]
    return half * sums.reshape(np.shape(mid))
