"""Shared market instances for the test suite.

The cost-distribution corpus spans the four solver cases:
  * uniform on [0, 0.18]      -> interior-formula case (threshold 0.4)
  * step with an interior dip -> no-disclosure case (the dip sits too low)
  * bimodal steps             -> re-crossing case (threshold ~0.40641)
  * strictly convex quadratic -> no-critical-set case
plus smooth families used by the comparative-statics tests.
"""

import numpy as np
import pytest

from censearch.dists import PiecewisePolyDist


@pytest.fixture(scope="session")
def F():
    return PiecewisePolyDist.uniform(0.0, 1.0)


@pytest.fixture(scope="session")
def F_tilted():
    # density 1/2 + x on [0, 1]; mean 7/12
    return PiecewisePolyDist([0.0, 1.0], [np.array([0.5, 1.0])])


@pytest.fixture(scope="session")
def H_uniform():
    return PiecewisePolyDist.uniform(0.0, 0.18)


@pytest.fixture(scope="session")
def H_convex():
    # H(c) = (c/0.3)^2, density 2c/0.09 on [0, 0.3]
    return PiecewisePolyDist([0.0, 0.3], [np.array([0.0, 2.0 / 0.09])])


@pytest.fixture(scope="session")
def H_step():
    # piecewise-constant densities 4, 0.8, 4.4 on [0,.1], (.1,.3], (.3,.4]
    return PiecewisePolyDist(
        [0.0, 0.1, 0.3, 0.4],
        [np.array([4.0]), np.array([0.8]), np.array([4.4])],
    )


@pytest.fixture(scope="session")
def H_bimodal():
    # densities 8, 0.4, 7, 0.5 on [0,.1], (.1,.15], (.15,.17], (.17,.25]
    return PiecewisePolyDist(
        [0.0, 0.1, 0.15, 0.17, 0.25],
        [np.array([8.0]), np.array([0.4]), np.array([7.0]), np.array([0.5])],
    )


@pytest.fixture(scope="session")
def H_threestep():
    # interior dip with the smallest critical minimum between 1/mean and
    # 1/cbar: densities 8, 1, 10.4 on [0,.05], (.05,.13], (.13,.18]
    return PiecewisePolyDist(
        [0.0, 0.05, 0.13, 0.18],
        [np.array([8.0]), np.array([1.0]), np.array([10.4])],
    )


def horner_noise(coef, t: float, *terms: float) -> float:
    """A bound on the rounding error of Horner's rule on the polynomial
    ``coef`` (ascending powers) at t, with the given terms added to or
    subtracted from the result: gamma_2n times the sum of |c_k| |t|^k
    [Higham, Accuracy and Stability, 5.1], widened to cover the terms, each
    of which is exact or off by one rounding."""
    n = len(coef)
    size = np.sum(np.abs(coef) * abs(t) ** np.arange(n)) + sum(abs(v) for v in terms)
    return (2 * n + 2) * 2.0**-53 * float(size)


def tail_noise(G: PiecewisePolyDist, x: float, c: float) -> float:
    """A bound on the rounding error of ``G.tail_gap(x) - c`` in double
    precision: Horner on the tail polynomial of the segment holding x, in
    w = hi - x, where the rounding of w moves the tail by up to w (1 - G)
    times a unit roundoff.  x outside the support is clamped to it, plus the
    distance it was moved."""
    i = int(np.clip(np.searchsorted(G._inner, x, side="right"), 0, len(G.coefs) - 1))
    xe = min(max(x, G.support_lo), G.support_hi)
    w = G.breaks[i + 1] - xe
    surv = np.polynomial.polynomial.polyval(w, G._R[:, i])
    return horner_noise(G._RR[:, i], w, c, w * surv, x - xe)


def quasi_convex_pair(cbar: float = 0.18):
    """Two symmetric dip densities h = gamma + beta (c - cbar/2)^2; the
    larger beta is the mean-preserving spread of the smaller."""
    out = []
    for beta in (300.0, 600.0):
        gamma = (1.0 - beta * cbar**3 / 12.0) / cbar
        out.append(
            PiecewisePolyDist(
                [0.0, cbar],
                [np.array([gamma + beta * (cbar / 2) ** 2, -beta * cbar, beta])],
            )
        )
    return out


def quasi_concave_pair(cbar: float = 0.18):
    """Two symmetric peak densities h = A + B c (cbar - c); the smaller B is
    the mean-preserving spread (flatter) of the larger."""
    out = []
    for B in (500.0, 250.0):
        A = (1.0 - B * cbar**3 / 6.0) / cbar
        out.append(PiecewisePolyDist([0.0, cbar], [np.array([A, B * cbar, -B])]))
    return out


def ramp_costs(cbar: float, k: int) -> PiecewisePolyDist:
    """Mass 1 - 1/k uniform on the top (1/k)-fraction of [0, cbar]."""
    cut = cbar * (1.0 - 1.0 / k)
    return PiecewisePolyDist(
        [0.0, cut, cbar],
        [np.array([(1.0 / k) / cut]), np.array([(1.0 - 1.0 / k) / (cbar - cut)])],
    )


def corpus_thresholds(a_max: float) -> list[float]:
    """Threshold positions of the benchmark's certify jobs around a_max: two
    below it (0.6 and 0.9 of it, or 0.03 and 0.07 when it is under 0.05),
    a_max itself, and two above (a tenth and half of the way to 1)."""
    below = [0.03, 0.07] if a_max < 0.05 else [0.6 * a_max, 0.9 * a_max]
    return below + [a_max, a_max + 0.1 * (1.0 - a_max), a_max + 0.5 * (1.0 - a_max)]
