"""Polynomial and quadrature helpers shared by the distribution machinery.

All polynomials are coefficient arrays in *ascending* powers of the global
variable (not segment-local), so a density piece ``[c0, c1, c2, c3]`` means
``c0 + c1*t + c2*t**2 + c3*t**3`` on its interval.  Every integral in the
library is either a closed-form antiderivative or a Gauss-Legendre rule
(:func:`gauss_legendre`).  A rule is exact up to rounding only where its node
count covers the integrand's degree; :func:`gauss_legendre` says where it
does not.
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


def _trim(coefs: np.ndarray, tol: float = 0.0) -> np.ndarray:
    c = np.asarray(coefs, dtype=float)
    nz = np.nonzero(np.abs(c) > tol)[0]
    if len(nz) == 0:
        return np.zeros(1)
    return c[: nz[-1] + 1]


def real_roots_in(coefs: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Real roots of the polynomial within ROOT_PAD of [lo, hi], clipped to it."""
    c = _trim(coefs, tol=0.0)
    scale = np.max(np.abs(c))
    if scale == 0.0:
        return np.empty(0)  # identically zero: caller handles plateaus
    c = _trim(c, tol=scale * 1e-14)
    if len(c) <= 1:
        return np.empty(0)
    roots = npoly.polyroots(c)
    real = roots[np.abs(roots.imag) <= 1e-9 * max(1.0, np.abs(roots).max())].real
    real = real[(real >= lo - ROOT_PAD) & (real <= hi + ROOT_PAD)]
    return np.clip(np.unique(real), lo, hi)


def poly_range_on(coefs: np.ndarray, lo: float, hi: float) -> tuple[float, float]:
    """Exact (min, max) of the polynomial on [lo, hi] via stationary points."""
    cand = [lo, hi]
    cand.extend(real_roots_in(polyder(np.asarray(coefs, float)), lo, hi))
    vals = polyval(np.asarray(coefs, float), np.asarray(cand))
    return float(np.min(vals)), float(np.max(vals))


@lru_cache(maxsize=None)
def gauss_nodes(npts: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(npts)
    return x, w


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
    below 2 * npts, and not beyond.  :func:`nodes_for_degree` caps the rule at
    ``NODE_CAP`` = 192 nodes, which cuts the degree bound of the expected
    payoff (8n + 24) from n = 45 firms on, of the price-function mass balance
    (4n + 28) from n = 89, of the stop integral of demand (4n + 16) from
    n = 92 and of the best-of-n value (4n + 4) from n = 95.  Consumer surplus
    integrates with 64 nodes a cost integrand that is not polynomial above
    the branch cost.
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
