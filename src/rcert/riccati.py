"""Logarithmic-derivative transform and the integral-identity oracles.

Along a nonvanishing solution segment the ratio ``y = p0 * phi' / phi`` obeys
a scalar quadratic (Riccati-type) equation, and the solution admits exact
exponential-integral representations in terms of y.  Evaluating how well a
computed trajectory satisfies those representations gives oracles that detect
integration or bookkeeping errors without re-solving anything: the identities
hold exactly for true solutions, so the normalized residuals must shrink
linearly with the integrator tolerance.

All five oracles live here and check the nodes of ``_mesh`` (the gap oracle
takes 65 even points).  The momentum psi, the ratio y and the gap y1 - y0
each solve x' = -k x - s, so their oracles share ``_transfer_residual``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable

from .dynamics import Trajectory
from .errors import DomainError
from .quadrature import CumulativeIntegral, weighted_chain

__all__ = [
    "RiccatiPath",
    "transform",
    "auto_segments",
    "representation_residual",
    "cauchy_residual",
    "difference_residual",
    "flux_residual",
    "volterra_residual",
]


def _mesh(traj: Trajectory, a: float, b: float) -> list[float]:
    """``a``, the nodes of ``traj`` strictly inside (a, b), and ``b``; from 258
    inside nodes on, every (n // 129)-th of them."""
    inside = [t for t in traj.ts if a < t < b]
    return [a] + inside[:: max(1, len(inside) // 129)] + [b]


@dataclass(frozen=True)
class RiccatiPath:
    """The ratio y = psi / phi along a segment [a, b] where phi never vanishes."""

    traj: Trajectory
    a: float
    b: float
    y: Callable[[float], float]

    @property
    def mesh(self) -> list[float]:
        return _mesh(self.traj, self.a, self.b)


def transform(traj: Trajectory, segment: tuple[float, float]) -> RiccatiPath:
    """Build the ratio path on ``segment``; phi must stay away from zero there.

    Raises :class:`DomainError` when a recorded zero crossing lies inside the
    segment or |phi| dips below the trajectory's zero tolerance on it.
    """
    a, b = segment
    if not (traj.t_start <= a < b <= traj.t_end):
        raise DomainError(f"segment {segment!r} outside the trajectory span")
    for z in traj.zeros:
        if a <= z <= b:
            raise DomainError(f"phi crosses zero at t={z!r} inside the segment")
    ztol = traj.opts.zero_tol
    for t in [a + (b - a) * k / 32 for k in range(33)]:
        if abs(traj.phi_at(t)) <= ztol:
            raise DomainError(f"|phi| is not bounded away from zero near t={t!r}")

    def y(t: float) -> float:
        phi, psi = traj.state_at(t)
        return psi / phi

    return RiccatiPath(traj=traj, a=a, b=b, y=y)


def auto_segments(traj: Trajectory) -> list[tuple[float, float]]:
    """Maximal inter-zero intervals, shrunk by one mesh cell at each end.

    The ratio is singular at zeros of phi, so each natural segment backs off
    one accepted step from the surrounding zero crossings.
    """
    cuts = [traj.t_start] + list(traj.zeros) + [traj.t_end]
    ts = traj.ts
    segments = []
    for lo, hi in zip(cuts, cuts[1:]):
        left = bisect_right(ts, lo)
        right = bisect_left(ts, hi) - 1
        if right - left < 2:
            continue
        a = ts[left] if lo != traj.t_start else lo
        b = ts[right] if hi != traj.t_end else hi
        if a < b:
            segments.append((a, b))
    return segments


def _transfer_residual(chain: Callable[[float], tuple[float, float]], x_a: float, x: Callable[[float], float], mesh: list[float]) -> float:
    """max |x(t) - (x_a e^-K - e^-K W)| over ``mesh``, over max(1, max |x|): with
    (K, W) = chain(t) from :func:`weighted_chain`, the model solves x' = -k x - s."""
    worst = 0.0
    scale = 1.0
    for t in mesh:
        K, W = chain(t)
        expk = math.exp(-K)
        xt = x(t)
        scale = max(scale, abs(xt))
        worst = max(worst, abs(xt - (x_a * expk - expk * W)))
    return worst / scale


def representation_residual(path: RiccatiPath) -> float:
    """Max deviation of phi from phi(a) * exp(integral of y / p0), over max |phi|."""
    traj = path.traj
    eq = traj.eq

    def integrand(tau: float) -> float:
        return path.y(tau) / eq.p0(tau, traj.phi_at(tau))

    acc = CumulativeIntegral(integrand, path.a, abs_rate=1e-13, rel_tol=1e-11)
    phi_a = traj.phi_at(path.a)
    worst = 0.0
    scale = 0.0
    for t in path.mesh:
        phi = traj.phi_at(t)
        scale = max(scale, abs(phi))
        worst = max(worst, abs(phi - phi_a * math.exp(acc(t))))
    return worst / max(scale, 1e-300)


def cauchy_residual(path: RiccatiPath) -> float:
    """Max deviation of y from its exponential-weighted self-representation.

    The kernel is (y + q0) / p0 along the path; the representation is exact
    for true solutions, so the normalized residual measures solver error.
    """
    traj = path.traj
    eq = traj.eq

    def coefficients(s: float) -> tuple[float, float]:
        phi = traj.phi_at(s)
        return (path.y(s) + eq.q0(s, phi)) / eq.p0(s, phi), eq.r0(s, phi)

    return _transfer_residual(weighted_chain(coefficients, path.a), path.y(path.a), path.y, path.mesh)


def difference_residual(path0: RiccatiPath, path1: RiccatiPath, j: int) -> float:
    """Max deviation of y1 - y0 from its cross-equation transfer identity.

    For ``j`` in {0, 1} the identity propagates the initial gap with the
    kernel (y0 + y1 + q_{1-j}) / p_{1-j} evaluated along the (1-j)-th path and
    collects the coefficient mismatches against y_j.  Exact for true solution
    pairs; both j choices must agree to quadrature accuracy.
    """
    if j not in (0, 1):
        raise DomainError("j must be 0 or 1")
    a = max(path0.a, path1.a)
    b = min(path0.b, path1.b)
    if not a < b:
        raise DomainError("paths do not share a segment")

    traj0, traj1 = path0.traj, path1.traj
    eq0, eq1 = traj0.eq, traj1.eq

    def coefficients(s: float) -> tuple[float, float]:
        phi0 = traj0.phi_at(s)
        phi1 = traj1.phi_at(s)
        p0v = eq0.p0(s, phi0)
        p1v = eq1.p0(s, phi1)
        q0v = eq0.q0(s, phi0)
        q1v = eq1.q0(s, phi1)
        y0 = path0.y(s)
        y1 = path1.y(s)
        yv = y0 if j == 0 else y1
        kernel = (y0 + y1 + q1v) / p1v if j == 0 else (y0 + y1 + q0v) / p0v
        bracket = (1.0 / p1v - 1.0 / p0v) * yv * yv + (q1v / p1v - q0v / p0v) * yv + eq1.r0(s, phi1) - eq0.r0(s, phi0)
        return kernel, bracket

    def gap(t: float) -> float:
        return path1.y(t) - path0.y(t)

    return _transfer_residual(weighted_chain(coefficients, a), gap(a), gap, [a + (b - a) * k / 64 for k in range(65)])


def _weighted_coefficients(traj: Trajectory) -> Callable[[float], tuple[float, float, float]]:
    """(q0/p0, r0*phi, p0) along ``traj``: the K/W chain of the flux and Volterra identities."""
    eq = traj.eq

    def coefficients(s: float) -> tuple[float, float, float]:
        phi = traj.phi_at(s)
        p = eq.p0(s, phi)
        return eq.q0(s, phi) / p, eq.r0(s, phi) * phi, p

    return coefficients


def flux_residual(traj: Trajectory, a: float | None = None, b: float | None = None) -> float:
    """Deviation of psi from its exponential-weighted integral representation.

    Normalized by max(|psi|, 1) over the window; small values certify that the
    computed momentum actually satisfies the first-order balance the equation
    implies.
    """
    a = traj.t_start if a is None else a
    b = traj.t_end if b is None else b
    return _transfer_residual(weighted_chain(_weighted_coefficients(traj), a), traj.psi_at(a), traj.psi_at, _mesh(traj, a, b))


def volterra_residual(traj: Trajectory, a: float | None = None, b: float | None = None) -> float:
    """Deviation of phi from its double-integral representation, scaled by max(|phi|, 1)."""
    a = traj.t_start if a is None else a
    b = traj.t_end if b is None else b
    chain = weighted_chain(_weighted_coefficients(traj), a, lead=True)
    phi_a = traj.phi_at(a)
    psi_a = traj.psi_at(a)

    worst = 0.0
    scale = 1.0
    for t in _mesh(traj, a, b):
        _, _, T1, T2 = chain(t)
        phi = traj.phi_at(t)
        scale = max(scale, abs(phi))
        worst = max(worst, abs(phi - (phi_a + psi_a * T1 - T2)))
    return worst / scale
