"""Polynomial and quadrature helpers shared by the distribution machinery.

All polynomials are coefficient arrays in *ascending* powers of the global
variable (not segment-local), so a density piece ``[c0, c1, c2, c3]`` means
``c0 + c1*t + c2*t**2 + c3*t**3`` on its interval.  Every integral in the
library is either a closed-form antiderivative or a Gauss-Legendre rule whose
node count is chosen from a degree bound, hence exact up to rounding.
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
]


def polyval(coefs: np.ndarray, x):
    return npoly.polyval(x, coefs)


def polymul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return npoly.polymul(np.asarray(a, float), np.asarray(b, float))


def polyder(coefs: np.ndarray) -> np.ndarray:
    if len(coefs) <= 1:
        return np.zeros(1)
    return npoly.polyder(coefs)


def polyint(coefs: np.ndarray) -> np.ndarray:
    """Antiderivative with zero constant term."""
    return npoly.polyint(coefs)


def _trim(coefs: np.ndarray, tol: float = 0.0) -> np.ndarray:
    c = np.asarray(coefs, dtype=float)
    nz = np.nonzero(np.abs(c) > tol)[0]
    if len(nz) == 0:
        return np.zeros(1)
    return c[: nz[-1] + 1]


def real_roots_in(coefs: np.ndarray, lo: float, hi: float, pad: float = 1e-12) -> np.ndarray:
    """Real roots of the polynomial inside [lo - pad, hi + pad], clipped to [lo, hi]."""
    c = _trim(coefs, tol=0.0)
    scale = np.max(np.abs(c))
    if scale == 0.0:
        return np.empty(0)  # identically zero: caller handles plateaus
    c = _trim(c, tol=scale * 1e-14)
    if len(c) <= 1:
        return np.empty(0)
    roots = npoly.polyroots(c)
    real = roots[np.abs(roots.imag) <= 1e-9 * max(1.0, np.abs(roots).max())].real
    real = real[(real >= lo - pad) & (real <= hi + pad)]
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


def nodes_for_degree(degree: int, cap: int = 192) -> int:
    return min(max(degree // 2 + 1, 2), cap)
