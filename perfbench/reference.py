"""Closed-form references for the quartic oscillator phi'' + (1 - phi^2) phi = 0.

The equation conserves E = phi'^2/2 + V(phi) with V(phi) = phi^2/2 - phi^4/4,
whose barrier V(+-1) = 1/4 separates bounded oscillation from finite escape:

* |phi0| < 1 and E < 1/4: a periodic orbit inside the well, with turning
  point a, a^2 = 1 - sqrt(1 - 4E).  With phi = a sin(theta) the time from 0 to
  x is the smooth integral of 1 / sqrt(1 - a^2 (1 + sin^2 theta) / 2) over
  theta in [0, asin(x / a)], so zeros are found without solving the ODE;
* E > 1/4 with phi' > 0: phi rises through every level and escapes at
  T* = integral of 1 / sqrt(2E - phi^2 + phi^4/2) from phi0 to infinity,
  computed as a finite part plus the tail in s = 1 / phi.

Every integral here is smooth and is taken with composite Gauss-Legendre rules,
independently of the ``rcert`` quadrature under test.
"""

from __future__ import annotations

import math

import numpy as np

_X, _W = np.polynomial.legendre.leggauss(64)
_PIECES = 8  # equal panels of the composite rule


def _gauss(f, a: float, b: float) -> float:
    edges = np.linspace(a, b, _PIECES + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        total += half * float(np.dot(_W, f(half * _X + 0.5 * (hi + lo))))
    return total


def energy(phi0: float, dphi0: float) -> float:
    return 0.5 * dphi0 * dphi0 + 0.5 * phi0 * phi0 - 0.25 * phi0 ** 4


def oscillates(phi0: float, dphi0: float) -> bool:
    """The energy criterion: inside the well and below the barrier."""
    return abs(phi0) < 1.0 and energy(phi0, dphi0) < 0.25


def zero_times(phi0: float, dphi0: float, t1: float, horizon: float) -> list[float]:
    """Zeros of phi in (t1, horizon] for an oscillating start."""
    e = energy(phi0, dphi0)
    a = math.sqrt(1.0 - math.sqrt(1.0 - 4.0 * e))

    def time_from_zero(x: float) -> float:
        theta = math.asin(min(1.0, abs(x) / a))
        return _gauss(lambda th: 1.0 / np.sqrt(1.0 - 0.5 * a * a * (1.0 + np.sin(th) ** 2)), 0.0, theta)

    quarter = time_from_zero(a)
    if phi0 < 0.0:  # V is even, so mirror the start into phi0 >= 0
        phi0, dphi0 = -phi0, -dphi0
    outward = dphi0 >= 0.0
    first = 2.0 * quarter - time_from_zero(phi0) if outward else time_from_zero(phi0)
    zeros = []
    z = t1 + first
    while z <= horizon:
        zeros.append(z)
        z += 2.0 * quarter
    return zeros


def escape_time(phi0: float, dphi0: float, t1: float) -> float:
    """Blow-up time of a start above the barrier moving up (E > 1/4, phi' > 0)."""
    e = energy(phi0, dphi0)
    if not (e > 0.25 and dphi0 > 0.0):
        raise ValueError("escape_time needs E > 1/4 and phi' > 0")
    split = max(2.0, phi0 + 1.0)
    body = _gauss(lambda x: 1.0 / np.sqrt(2.0 * e - x * x + 0.5 * x ** 4), phi0, split)
    tail = _gauss(lambda s: 1.0 / np.sqrt(2.0 * e * s ** 4 - s * s + 0.5), 0.0, 1.0 / split)
    return t1 + body + tail


def escape_zero_count(phi0: float, dphi0: float) -> int:
    """Zeros before escape for a start above the barrier moving up."""
    return 1 if phi0 < 0.0 else 0
