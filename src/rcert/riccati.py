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

Each oracle but the difference oracle (two trajectories, the wrapped fields
at each node) samples a GK15 panel in one compiled call: the dense formula
gives (phi, psi) (``state_at`` off (t_start, t_end)) and y = psi / phi, or
the path's ``y`` if :func:`transform` did not build it; closed-form p0, r0
and q0 (p0 alone for the representation) are written in, and where they fail
the wrapped fields are called in that rhs order, so it raises what they raise.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .dynamics import Trajectory, _dense_lines
from .errors import DomainError
from .fields import _at_point, _compiled_points
from .quadrature import _NODES, ORACLE_BUDGET, CumulativeIntegral, weighted_chain

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

    return RiccatiPath(traj=traj, a=a, b=b, y=partial(_ratio, traj))


def _ratio(traj: Trajectory, t: float) -> float:
    phi, psi = traj.state_at(t)
    return psi / phi


def _own_ratio(path: RiccatiPath) -> bool:
    """Whether ``path.y`` is the ratio :func:`transform` built for ``path.traj``, so a sampler may read y from its own (phi, psi)."""
    y = path.y
    return isinstance(y, partial) and y.func is _ratio and y.args[0] is path.traj


#: A segment end must lie at least this share of the step that holds the zero away from that zero.
_ZERO_CLEARANCE = 0.02


def auto_segments(traj: Trajectory) -> list[tuple[float, float]]:
    """Maximal inter-zero intervals, shrunk by one mesh cell at each end.

    The ratio is singular at zeros of phi, so each natural segment ends at
    the nodes of the steps that hold its bounding zeros, or one node further
    in where such a node lies within ``_ZERO_CLEARANCE`` (0.02) of its step
    from the zero.  Near a zero z the ratio behaves like 1 / (t - z), and a
    segment that ends a small share of a step from z asks more of the
    oracles' chains than ``MAX_INTERVALS`` panels give.
    """
    cuts = [traj.t_start] + list(traj.zeros) + [traj.t_end]
    ts = traj.ts
    segments = []
    for lo, hi in zip(cuts, cuts[1:]):
        left = bisect_right(ts, lo)  # ts[left - 1] <= lo < ts[left]
        right = bisect_left(ts, hi) - 1  # ts[right] < hi <= ts[right + 1]
        if lo != traj.t_start and ts[left] - lo < _ZERO_CLEARANCE * (ts[left] - ts[left - 1]):
            left += 1
        if hi != traj.t_end and hi - ts[right] < _ZERO_CLEARANCE * (ts[right + 1] - ts[right]):
            right -= 1
        if right - left < 2:
            continue
        a = ts[left] if lo != traj.t_start else lo
        b = ts[right] if hi != traj.t_end else hi
        if a < b:
            segments.append((a, b))
    return segments


def _panel_sampler(traj: Trajectory, columns: str, path: RiccatiPath | None = None, which: str = "prq") -> Callable[[float, float], list]:
    """``sample(c, h)``, marked ``panel``: the ``columns`` at the Kronrod nodes ``c + h * x``, node by node, in one compiled call.

    A node t takes phi (and psi, given ``path``) by ``dynamics._dense_lines``,
    ``ys = psi / phi`` (or ``path.y(t)``, see :func:`_own_ratio`), then the
    samples named in ``which`` of ``fields._compiled_points``' stage at
    (t, phi): where its rule fails, the wrapped fields in that order.
    """
    y = "" if path is None else "ys = psi / phi" if _own_ratio(path) else "ys = y(t)"
    fallback = "; ".join(f"{name} = {name}0(t, phi)" for name in which)
    env = {"ts": traj.ts, "phis": traj.phis, "psis": traj.psis, "dense": traj._dense, "t_start": traj.t_start, "t_end": traj.t_end}
    env.update(bisect_right=bisect_right, state_at=traj.state_at, phi_at=traj.phi_at, y=path and path.y, nodes=_NODES, p0=traj.eq.p0, q0=traj.eq.q0, r0=traj.eq.r0)

    def write(names, bind, stage):
        node = _dense_lines(path is not None) + [y] * bool(y) + _at_point(stage, "t", "phi", "pass", fallback) + [f"out += ({columns},)"]
        head = f"def sample(c, h{''.join(f', {n}={n}' for n in (*names, *env))}):"
        return "\n".join([head, *(f"    {line}" for line in bind), "    out, lo, hi = [], t_start, t_start", "    for x in nodes:", "        t = c + h * x", *(f"        {line}" for line in node), "    return out\n"])

    sample = _compiled_points(traj.eq, write, env, "<rcert.riccati panel sampler>", which).pop("sample")  # out of its globals: no cycle keeps traj
    sample.panel = True
    return sample


def _deviation(x: Callable[[float], float], model: Callable[[float], float], mesh: list[float], scale: float = 1.0) -> float:
    """max |x(t) - model(t)| over ``mesh``, over max(scale, max |x|); model(t) is taken before x(t), and a non-finite one raises :class:`DomainError`."""
    worst = 0.0
    for t in mesh:
        m = model(t)
        xt = x(t)
        if not (math.isfinite(m) and math.isfinite(xt)):
            raise DomainError(f"a sample at t={t!r} is not finite: x(t) = {xt!r}, model(t) = {m!r}")
        scale = max(scale, abs(xt))
        worst = max(worst, abs(xt - m))
    return worst / scale


def _transfer_residual(chain: Callable[[float], tuple[float, float]], x_a: float, x: Callable[[float], float], mesh: list[float]) -> float:
    """The deviation of x from x_a e^-K - e^-K W over ``mesh``: with
    (K, W) = chain(t) from :func:`weighted_chain`, the model solves x' = -k x - s."""

    def model(t: float) -> float:
        K, W = chain(t)
        expk = math.exp(-K)
        return x_a * expk - expk * W

    return _deviation(x, model, mesh)


def representation_residual(path: RiccatiPath) -> float:
    """Max deviation of phi from phi(a) * exp(integral of y / p0), over max |phi|."""
    traj = path.traj
    acc = CumulativeIntegral(_panel_sampler(traj, "ys / p", path, "p"), path.a, *ORACLE_BUDGET)
    phi_a = traj.phi_at(path.a)
    return _deviation(traj.phi_at, lambda t: phi_a * math.exp(acc(t)), path.mesh, 1e-300)


def cauchy_residual(path: RiccatiPath) -> float:
    """Max deviation of y from its exponential-weighted self-representation.

    The kernel is (y + q0) / p0 along the path; the representation is exact
    for true solutions, so the normalized residual measures solver error.
    """
    return _transfer_residual(weighted_chain(_panel_sampler(path.traj, "(ys + q) / p, r", path), path.a), path.y(path.a), path.y, path.mesh)


def difference_residual(path0: RiccatiPath, path1: RiccatiPath, j: int) -> float:
    """Max deviation of y1 - y0 from its cross-equation transfer identity.

    For ``j`` in {0, 1} the identity propagates the initial gap with the
    kernel (y0 + y1 + q_{1-j}) / p_{1-j} evaluated along the (1-j)-th path and
    collects the coefficient mismatches against y_j.  Exact for true solution
    pairs; both j choices must agree to quadrature accuracy.  A node calls
    each path's wrapped p0, r0 and q0, in the rhs order.
    """
    if j not in (0, 1):
        raise DomainError("j must be 0 or 1")
    a = max(path0.a, path1.a)
    b = min(path0.b, path1.b)
    if not a < b:
        raise DomainError("paths do not share a segment")

    at0, at1, ratio0, ratio1 = path0.traj.state_at, path1.traj.state_at, _own_ratio(path0), _own_ratio(path1)
    eq0, eq1 = path0.traj.eq, path1.traj.eq

    def coefficients(s: float) -> tuple[float, float]:
        phi0, psi0 = at0(s)
        phi1, psi1 = at1(s)
        p0v, r0v, q0v = eq0.p0(s, phi0), eq0.r0(s, phi0), eq0.q0(s, phi0)  # the rhs order
        p1v, r1v, q1v = eq1.p0(s, phi1), eq1.r0(s, phi1), eq1.q0(s, phi1)
        y0 = psi0 / phi0 if ratio0 else path0.y(s)
        y1 = psi1 / phi1 if ratio1 else path1.y(s)
        yv = y0 if j == 0 else y1
        kernel = (y0 + y1 + q1v) / p1v if j == 0 else (y0 + y1 + q0v) / p0v
        bracket = (1.0 / p1v - 1.0 / p0v) * yv * yv + (q1v / p1v - q0v / p0v) * yv + r1v - r0v
        return kernel, bracket

    def gap(t: float) -> float:
        return path1.y(t) - path0.y(t)

    return _transfer_residual(weighted_chain(coefficients, a), gap(a), gap, [a + (b - a) * k / 64 for k in range(65)])


def flux_residual(traj: Trajectory) -> float:
    """Deviation of psi from its exponential-weighted integral representation.

    Normalized by max(|psi|, 1) over the whole trajectory; small values certify
    that the computed momentum actually satisfies the first-order balance the
    equation implies.
    """
    a = traj.t_start
    return _transfer_residual(weighted_chain(_panel_sampler(traj, "q / p, r * phi"), a), traj.psi_at(a), traj.psi_at, _mesh(traj, a, traj.t_end))


def volterra_residual(traj: Trajectory) -> float:
    """Deviation of phi from its double-integral representation over the whole trajectory, scaled by max(|phi|, 1)."""
    a = traj.t_start
    chain = weighted_chain(_panel_sampler(traj, "q / p, r * phi, p"), a, lead=True)
    phi_a = traj.phi_at(a)
    psi_a = traj.psi_at(a)

    def model(t: float) -> float:
        _, _, T1, T2 = chain(t)
        return phi_a + psi_a * T1 - T2

    return _deviation(traj.phi_at, model, _mesh(traj, a, traj.t_end))
