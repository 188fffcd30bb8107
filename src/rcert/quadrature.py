"""Adaptive quadrature for the nested growth functionals and divergence probes.

The growth bounds used by the certificate checkers are built from two
exponential-weighted integrals of time-only functions u, v, x over [t1, t]:

    iplus(u, v):   integral of exp(-int_{t1}^{tau} v) / u(tau) d tau
    iminus(v, x):  integral of exp(-int_{tau}^{t} v) * x(tau) d tau

and from the envelopes

    F = |c1| * exp(c2 * iplus(P, Q) - int_{t1}^{t} iminus(Q, R)(tau) / P(tau) d tau)
    G = |c1| * exp(c2 * iplus(P, Q) + int_{t1}^{t} x(tau) / P(tau) d tau)

Naive evaluation of the nesting is quadratic in the number of quadrature
nodes, which matters because the envelopes are evaluated on whole time grids
inside hypothesis sweeps.  All inner antiderivatives are therefore memoized
on a shared growing mesh (:class:`CumulativeIntegral`) so each new query only
integrates the gap from the nearest known point.

``adaptive_quad`` without seeds runs one GK15 panel over the whole interval
and returns it when it passes the acceptance test, with no stack or piece
list; in the envelopes nearly every gap integration ends there.  Only a
rejected first panel starts the subdivision stack, which takes that panel
as its first entry, so no integrand sample is taken twice.

Two memos serve the nesting:

* nested :class:`CumulativeIntegral` memos, where an outer integrand queries
  an inner memo at each of its quadrature nodes.  Every such query integrates
  its own small gap, so one outer panel costs about 15 inner panels.  The
  envelopes (``FBound``, ``GBound``), ``i_plus``, ``i_minus``,
  ``weighted_tail_integrand`` and ``riccati.representation_residual`` use
  this form;
* one :class:`CumulativeChain`, which walks a gap once for a whole
  lower-triangular chain of integrands: each level is sampled once per
  Kronrod node, and the inner levels are read at the same nodes through the
  panel's node integration matrix.  The residual oracles' K/W integrals
  (``weighted_chain``: ``dynamics.flux_residual``,
  ``dynamics.volterra_residual``, ``riccati.cauchy_residual`` and
  ``riccati.difference_residual``) use this form.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cache
from operator import mul
from typing import Callable, Sequence

from .errors import (
    DomainError,
    NegativeIntegrandError,
    NonPositiveWeightError,
    QuadratureBudgetError,
    RangeOverflowError,
)
from .fields import BoundTriple

__all__ = [
    "TimeFunction",
    "CumulativeIntegral",
    "adaptive_quad",
    "i_plus",
    "i_minus",
    "FBound",
    "GBound",
    "eval_F",
    "eval_G",
    "HorizonSpec",
    "DivergenceVerdict",
    "divergence_probe",
    "weighted_tail_integrand",
    "DIVERGING",
    "CONVERGING",
    "INCONCLUSIVE",
]

TimeFunction = Callable[[float], float]

# Default tolerances for the public functionals.
ABS_TOL = 1e-10
REL_TOL = 1e-8

# Exponents beyond this are reported as range errors instead of inf/0 results.
EXP_CAP = 690.0

# 15-point Kronrod nodes (positive half) with the embedded 7-point Gauss rule
# on the odd-indexed nodes; weights for the interval [-1, 1].
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
)
_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)


def _exp(x: float) -> float:
    if x > EXP_CAP:
        raise RangeOverflowError(f"exponent overflow: exp({x!r})")
    return math.exp(x)


def _gk15(f: TimeFunction, a: float, b: float) -> tuple[float, float]:
    """15-point Kronrod estimate on [a, b] with |K15 - G7| as error estimate.

    Written out: f is called at c, then at c - dx and c + dx for each node
    from the outermost in (memoized integrands insert knots in that order),
    and both sums run left to right from the centre term.
    """
    x0, x1, x2, x3, x4, x5, x6 = _XGK
    k0, k1, k2, k3, k4, k5, k6, k7 = _WGK
    g0, g1, g2, g3 = _WG
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    dx = h * x0
    s0 = f(c - dx) + f(c + dx)
    dx = h * x1
    s1 = f(c - dx) + f(c + dx)
    dx = h * x2
    s2 = f(c - dx) + f(c + dx)
    dx = h * x3
    s3 = f(c - dx) + f(c + dx)
    dx = h * x4
    s4 = f(c - dx) + f(c + dx)
    dx = h * x5
    s5 = f(c - dx) + f(c + dx)
    dx = h * x6
    s6 = f(c - dx) + f(c + dx)
    resk = k7 * fc + k0 * s0 + k1 * s1 + k2 * s2 + k3 * s3 + k4 * s4 + k5 * s5 + k6 * s6
    resg = g3 * fc + g0 * s1 + g1 * s3 + g2 * s5
    return resk * h, abs(resk - resg) * abs(h)


def adaptive_quad(
    f: TimeFunction,
    a: float,
    b: float,
    abs_tol: float = ABS_TOL,
    rel_tol: float = REL_TOL,
    *,
    max_intervals: int = 4096,
    seeds: Sequence[float] | None = None,
) -> float:
    """Adaptive Gauss-Kronrod integration of ``f`` over [a, b].

    The local acceptance criterion distributes ``max(abs_tol, rel_tol * |I|)``
    over subintervals proportionally to their length.  ``seeds`` optionally
    pre-splits the interval (used to resolve known boundary layers).  Raises
    :class:`QuadratureBudgetError` when the tolerance cannot be certified
    within ``max_intervals`` subdivisions.
    """
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    total_len = b - a
    if not seeds:
        # One panel over the whole interval; most calls end here.
        val, err = _gk15(f, a, b)
        scale = max(abs_tol, rel_tol * abs(val))
        if err <= scale * total_len / total_len or total_len <= 1e-15 * max(abs(a), abs(b), 1.0):
            return sign * (0.0 + val)
        stack = [(a, b, val, err)]
    else:
        points = [a, b]
        for s in seeds:
            if a < s < b:
                insort(points, s)
        stack = []
        whole = 0.0
        for lo, hi in zip(points, points[1:]):
            val, err = _gk15(f, lo, hi)
            stack.append((lo, hi, val, err))
            whole += val
        scale = max(abs_tol, rel_tol * abs(whole))

    result = 0.0
    used = len(stack)
    while stack:
        lo, hi, val, err = stack.pop()
        if err <= scale * (hi - lo) / total_len or (hi - lo) <= 1e-15 * max(abs(lo), abs(hi), 1.0):
            result += val
            continue
        if used >= max_intervals:
            raise QuadratureBudgetError(
                f"tolerance not reached within {max_intervals} subintervals on [{a!r}, {b!r}]"
            )
        mid = 0.5 * (lo + hi)
        left = _gk15(f, lo, mid)
        right = _gk15(f, mid, hi)
        stack.append((lo, mid, left[0], left[1]))
        stack.append((mid, hi, right[0], right[1]))
        used += 2
    return sign * result


class CumulativeIntegral:
    """Memoized antiderivative ``t -> integral_base^t fn``.

    Every query integrates only the gap between ``t`` and the nearest already
    known mesh point, then records ``t`` as a new mesh point.  Repeated and
    monotone query patterns (quadrature nodes of an outer integral, time-grid
    sweeps) therefore cost amortized O(1) inner integrations per query.

    ``abs_rate`` is an error budget per unit length, so the error chained
    through any sequence of gap integrations stays below
    ``abs_rate * |t - base| + rel_tol * (total variation)`` no matter how many
    mesh points accumulate; queries at nearby points share their knot prefix,
    which keeps *differences* of returned values accurate at gap scale.
    Instances are created per top-level call and never shared across threads.
    """

    def __init__(self, fn: TimeFunction, base: float, abs_rate: float = 1e-13, rel_tol: float = 1e-12):
        self._fn = fn
        self.base = base
        self._abs_rate = abs_rate
        self._rel_tol = rel_tol
        self._ts = [base]
        self._vals = [0.0]

    def __call__(self, t: float) -> float:
        ts = self._ts
        vals = self._vals
        i = bisect_left(ts, t)
        if i < len(ts):
            right = ts[i]
            if right == t:
                return vals[i]
            j = i if i == 0 or right - t < t - ts[i - 1] else i - 1
        else:
            j = i - 1
        near = ts[j]
        inc = adaptive_quad(self._fn, near, t, self._abs_rate * max(abs(t - near), 1e-30), self._rel_tol)
        val = vals[j] + inc
        ts.insert(i, t)
        vals.insert(i, val)
        return val


# The 15 Kronrod nodes in ascending order, with the K15 weights and the G7
# weights (zero on the Kronrod-only nodes) in the same order.
_NODES = tuple(-x for x in _XGK) + (0.0,) + _XGK[::-1]
_WK15 = _WGK[:7] + (_WGK[7],) + _WGK[6::-1]
_WG7 = (0.0, _WG[0], 0.0, _WG[1], 0.0, _WG[2], 0.0, _WG[3], 0.0, _WG[2], 0.0, _WG[1], 0.0, _WG[0], 0.0)


@cache
def _node_integration_matrix() -> tuple[tuple[float, ...], ...]:
    """S with S[i][j] = integral_{-1}^{x_i} l_j, l_j the Lagrange basis on the 15 nodes.

    ``sum_j S[i][j] f(x_j)`` integrates the degree-14 interpolant of f from -1
    to node i.  Built on first use, in the Legendre basis (which keeps the
    Vandermonde solve well conditioned): with V[i][n] = P_n(x_i) and
    B[i][n] = integral_{-1}^{x_i} P_n, S = B V^-1.
    """
    import numpy as np

    n = len(_NODES)
    V = np.zeros((n, n + 1))
    for i, x in enumerate(_NODES):
        V[i, 0], V[i, 1] = 1.0, x
        for d in range(1, n):
            V[i, d + 1] = ((2 * d + 1) * x * V[i, d] - d * V[i, d - 1]) / (d + 1)
    B = np.empty((n, n))
    B[:, 0] = np.array(_NODES) + 1.0
    for d in range(1, n):
        B[:, d] = (V[:, d + 1] - V[:, d - 1]) / (2 * d + 1)
    S = np.linalg.solve(V[:, :n].T, B.T).T
    return tuple(tuple(float(v) for v in row) for row in S)


class CumulativeChain:
    """Memoized antiderivatives Y_0..Y_{m-1} of a lower-triangular chain of integrands.

    ``Y_k(t) = integral_base^t f_k(sample(s), [Y_0(s), ..., Y_{k-1}(s)]) ds``;
    ``sample`` runs once per node for the work the levels share.  A query
    returns the tuple (Y_0(t), ..., Y_{m-1}(t)) and, like
    :class:`CumulativeIntegral`, integrates only the gap from the nearest
    known knot, in either direction.

    The gap is walked in order in adaptive GK15 panels.  Each f_k is sampled
    once at the panel's 15 Kronrod nodes; the inner levels are read at the
    same nodes through the node integration matrix, so no integrand queries
    another memo.  A panel is accepted when every level passes the
    |K15 - G7| test of :func:`adaptive_quad` against its own budget
    ``max(ABS_RATE * gap, REL_TOL * |whole gap estimate|)``, shared out by
    length.  A non-finite integrand sample raises
    :class:`QuadratureBudgetError`, so no nan is ever recorded.
    """

    # The residual oracles' budget, per unit length and relative.
    ABS_RATE = 1e-13
    REL_TOL = 1e-11
    MAX_INTERVALS = 4096

    def __init__(self, sample: Callable[[float], object], integrands: Sequence[Callable[[object, list[float]], float]], base: float):
        self._sample = sample
        self._fns = tuple(integrands)
        self._S = _node_integration_matrix()
        self._ts = [base]
        self._vals = [(0.0,) * len(self._fns)]

    def __call__(self, t: float) -> tuple[float, ...]:
        ts = self._ts
        i = bisect_left(ts, t)
        if i < len(ts) and ts[i] == t:
            return self._vals[i]
        j = i - 1
        if j < 0 or (i < len(ts) and (ts[i] - t) < (t - ts[j])):
            j = i
        val = self._walk(ts[j], t, self._vals[j])
        ts.insert(i, t)
        self._vals.insert(i, val)
        return val

    def _walk(self, a: float, b: float, start: tuple[float, ...]) -> tuple[float, ...]:
        gap = abs(b - a)
        abs_tol = self.ABS_RATE * max(gap, 1e-30)
        ys = start
        scales = None
        lo = a
        ends = [b]
        used = 1
        while ends:
            hi = ends[-1]
            span = abs(hi - lo)
            floor = span <= 1e-15 * max(abs(lo), abs(hi), 1.0)
            budget = None if scales is None or floor else [s * span / gap for s in scales]
            incs = self._panel(lo, hi, ys, budget)
            if scales is None:
                # The first panel spans the whole gap and sets every level's budget.
                scales = [max(abs_tol, self.REL_TOL * abs(v)) for v, _ in incs]
                if not floor and any(e > s for (_, e), s in zip(incs, scales)):
                    incs = None
            if incs is not None:
                ys = tuple(y + v for y, (v, _) in zip(ys, incs))
                lo = hi
                ends.pop()
                continue
            if used >= self.MAX_INTERVALS:
                raise QuadratureBudgetError(
                    f"tolerance not reached within {self.MAX_INTERVALS} subintervals on [{a!r}, {b!r}]"
                )
            ends.append(0.5 * (lo + hi))
            used += 2
        return ys

    def _panel(
        self, lo: float, hi: float, start: tuple[float, ...], budget: list[float] | None
    ) -> list[tuple[float, float]] | None:
        """(increment, error) per level on [lo, hi], or None at the first level over ``budget``."""
        c = 0.5 * (lo + hi)
        h = 0.5 * (hi - lo)
        data = [self._sample(c + h * x) for x in _NODES]
        rows = [[] for _ in data]
        last = len(self._fns) - 1
        out = []
        for k, f in enumerate(self._fns):
            fv = [f(d, row) for d, row in zip(data, rows)]
            resk = sum(map(mul, _WK15, fv))
            err = abs(h * (resk - sum(map(mul, _WG7, fv))))
            if not math.isfinite(err):
                raise QuadratureBudgetError(f"level {k} integrand is not finite on [{lo!r}, {hi!r}]")
            if budget is not None and err > budget[k]:
                return None
            out.append((h * resk, err))
            if k < last:
                y = start[k]
                for row, srow in zip(rows, self._S):
                    row.append(y + h * sum(map(mul, srow, fv)))
        return out


_WEIGHTED_LEVELS = (
    lambda c, y: c[0],  # K' = k
    lambda c, y: math.exp(y[0]) * c[1],  # W' = e^K s
    lambda c, y: math.exp(-y[0]) / c[2],  # T1' = e^-K / p
    lambda c, y: math.exp(-y[0]) * y[1] / c[2],  # T2' = e^-K W / p
)


def weighted_chain(coefficients: Callable[[float], tuple[float, ...]], base: float, *, lead: bool = False) -> CumulativeChain:
    """The exponentially weighted integrals of the residual oracles, from ``base``.

    ``coefficients(t)`` returns (k, s) or, with ``lead``, (k, s, p); it runs
    once per quadrature node.  The chain yields (K, W) and with ``lead``
    (K, W, T1, T2), where K = int k, W = int e^K s, T1 = int e^-K / p and
    T2 = int e^-K W / p.  So x(base) e^-K - e^-K W solves x' = -k x - s, and
    phi(base) + psi(base) T1 - T2 integrates that solution against 1/p.
    """
    return CumulativeChain(coefficients, _WEIGHTED_LEVELS if lead else _WEIGHTED_LEVELS[:2], base)


def i_plus(
    u: TimeFunction,
    v: TimeFunction,
    t1: float,
    t: float,
    *,
    abs_tol: float = ABS_TOL,
    rel_tol: float = REL_TOL,
) -> float:
    """Exponentially weighted reciprocal integral of a positive function u.

    Requires t >= t1 and u > 0 on [t1, t]; a non-positive u sample raises
    :class:`NonPositiveWeightError`.
    """
    if t < t1:
        raise DomainError("i_plus needs t >= t1")
    if t == t1:
        return 0.0
    V = CumulativeIntegral(v, t1)

    def g(tau: float) -> float:
        uv = u(tau)
        if uv <= 0.0:
            raise NonPositiveWeightError(f"u({tau!r}) = {uv!r} <= 0")
        return _exp(-V(tau)) / uv

    return adaptive_quad(g, t1, t, abs_tol, rel_tol)


def _right_anchored_seeds(a: float, b: float, levels: int = 12) -> list[float]:
    # Dyadic points accumulating at b; resolves kernels concentrated near the
    # upper limit that a single whole-interval estimate would miss entirely.
    length = b - a
    return [b - length * 0.5 ** k for k in range(1, levels + 1)]


def i_minus(
    v: TimeFunction,
    x: TimeFunction,
    t1: float,
    t: float,
    *,
    abs_tol: float = ABS_TOL,
    rel_tol: float = REL_TOL,
) -> float:
    """Weighted integral of x with the exponential weight anchored at t."""
    if t < t1:
        raise DomainError("i_minus needs t >= t1")
    if t == t1:
        return 0.0
    V = CumulativeIntegral(v, t1)
    Vt = V(t)

    def g(tau: float) -> float:
        return _exp(V(tau) - Vt) * x(tau)

    return adaptive_quad(g, t1, t, abs_tol, rel_tol, seeds=_right_anchored_seeds(t1, t))


def _positive(fn: TimeFunction, tau: float, label: str) -> float:
    value = fn(tau)
    if value <= 0.0:
        raise NonPositiveWeightError(f"{label}({tau!r}) = {value!r} <= 0")
    return value


class FBound:
    """Growth envelope F(t1; t; c1; c2) as a reusable evaluator.

    All inner antiderivatives are shared across calls, so evaluating the
    envelope along an ascending time grid costs one incremental integration
    per grid point.  Exponent overflow raises :class:`RangeOverflowError`
    instead of silently wrapping to infinity.
    """

    def __init__(
        self,
        b: BoundTriple,
        t1: float,
        c1: float,
        c2: float,
        *,
        abs_tol: float = ABS_TOL,
        rel_tol: float = REL_TOL,
    ):
        if b.R is None:
            raise DomainError("this envelope needs the R component of the bound triple")
        if c1 == 0.0:
            raise DomainError("c1 must be nonzero")
        self.t1 = t1
        self.c1 = c1
        self.c2 = c2
        P, Q, R = b.P, b.Q, b.R
        VQ = self._VQ = CumulativeIntegral(Q, t1)
        self._iplus = CumulativeIntegral(
            lambda tau: _exp(-VQ(tau)) / _positive(P, tau, "P"), t1, abs_rate=0.1 * abs_tol, rel_tol=rel_tol
        )
        # iminus(Q, R)(t1; tau) = exp(-VQ(tau)) * W(tau) with W memoized once.
        W = self._W = CumulativeIntegral(lambda s: _exp(VQ(s)) * R(s), t1)
        self._outer = CumulativeIntegral(
            lambda tau: _exp(-VQ(tau)) * W(tau) / _positive(P, tau, "P"),
            t1,
            abs_rate=0.1 * abs_tol,
            rel_tol=rel_tol,
        )

    def exponent(self, t: float) -> float:
        if t < self.t1:
            raise DomainError("envelope evaluated left of its base point")
        e = self.c2 * self._iplus(t) - self._outer(t)
        if not math.isfinite(e) or abs(e) > EXP_CAP:
            raise RangeOverflowError(f"envelope exponent {e!r} out of range at t={t!r}")
        return e

    def __call__(self, t: float) -> float:
        if t == self.t1:
            return abs(self.c1)
        return abs(self.c1) * math.exp(self.exponent(t))


class GBound:
    """Growth envelope G_x(t1; t; c1; c2); same contracts as :class:`FBound`."""

    def __init__(
        self,
        b: BoundTriple,
        x: TimeFunction,
        t1: float,
        c1: float,
        c2: float,
        *,
        abs_tol: float = ABS_TOL,
        rel_tol: float = REL_TOL,
    ):
        if c1 == 0.0:
            raise DomainError("c1 must be nonzero")
        self.t1 = t1
        self.c1 = c1
        self.c2 = c2
        P, Q = b.P, b.Q
        VQ = self._VQ = CumulativeIntegral(Q, t1)
        self._iplus = CumulativeIntegral(
            lambda tau: _exp(-VQ(tau)) / _positive(P, tau, "P"), t1, abs_rate=0.1 * abs_tol, rel_tol=rel_tol
        )
        self._xint = CumulativeIntegral(
            lambda tau: x(tau) / _positive(P, tau, "P"), t1, abs_rate=0.1 * abs_tol, rel_tol=rel_tol
        )

    def exponent(self, t: float) -> float:
        if t < self.t1:
            raise DomainError("envelope evaluated left of its base point")
        e = self.c2 * self._iplus(t) + self._xint(t)
        if not math.isfinite(e) or abs(e) > EXP_CAP:
            raise RangeOverflowError(f"envelope exponent {e!r} out of range at t={t!r}")
        return e

    def __call__(self, t: float) -> float:
        if t == self.t1:
            return abs(self.c1)
        return abs(self.c1) * math.exp(self.exponent(t))


def eval_F(
    b: BoundTriple,
    t1: float,
    t: float,
    c1: float,
    c2: float,
    *,
    abs_tol: float = ABS_TOL,
    rel_tol: float = REL_TOL,
) -> float:
    """One-shot evaluation of the F envelope at a single time."""
    return FBound(b, t1, c1, c2, abs_tol=abs_tol, rel_tol=rel_tol)(t)


def eval_G(
    b: BoundTriple,
    x: TimeFunction,
    t1: float,
    t: float,
    c1: float,
    c2: float,
    *,
    abs_tol: float = ABS_TOL,
    rel_tol: float = REL_TOL,
) -> float:
    """One-shot evaluation of the G envelope at a single time."""
    return GBound(b, x, t1, c1, c2, abs_tol=abs_tol, rel_tol=rel_tol)(t)


# ---------------------------------------------------------------------------
# Divergence probes
# ---------------------------------------------------------------------------

DIVERGING = "Diverging"
CONVERGING = "Converging"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class HorizonSpec:
    """Geometric horizon sequence T_k = start * factor**k for the tail probe."""

    factor: float = 2.0
    count: int = 20
    start: float | None = None

    def horizons(self, t0: float) -> list[float]:
        start = self.start if self.start is not None else (t0 if t0 > 0 else 1.0)
        if start < t0:
            raise DomainError("horizon start must not precede t0")
        if self.factor <= 1.0 or self.count < 2:
            raise DomainError("horizon spec needs factor > 1 and count >= 2")
        return [start * self.factor ** k for k in range(self.count + 1)]


@dataclass(frozen=True)
class DivergenceVerdict:
    """Heuristic verdict on an improper integral; never a proof.

    ``horizons`` holds (T, partial integral up to T) pairs with strictly
    increasing T; ``ratios`` are consecutive tail-increment ratios.
    """

    status: str
    horizons: tuple[tuple[float, float], ...]
    ratios: tuple[float, ...]
    heuristic: bool = True


def divergence_probe(
    integrand: TimeFunction,
    t0: float,
    horizons: HorizonSpec = HorizonSpec(),
    *,
    conv_ratio: float = 0.5 * (1.0 + 1e-5),
    div_ratio: float = 0.9,
    tail_window: int = 8,
    rel_tol: float = 3e-8,
) -> DivergenceVerdict:
    """Classify tail growth of a nonnegative integrand over geometric horizons.

    Increments over [T, factor*T] that decay geometrically with ratio at most
    one half vote Converging; increments bounded away from geometric decay
    (ratio >= ``div_ratio``) vote Diverging; anything else is Inconclusive.
    The verdict is a numerical heuristic: no finite computation decides
    behaviour at infinity, and certificates must record it as heuristic.
    """

    def checked(tau: float) -> float:
        v = integrand(tau)
        if v < -1e-12:
            raise NegativeIntegrandError(f"integrand({tau!r}) = {v!r} < 0")
        return v

    ts = horizons.horizons(t0)
    partial = adaptive_quad(checked, t0, ts[0], 1e-300, rel_tol) if ts[0] > t0 else 0.0
    increments: list[float] = []
    pairs: list[tuple[float, float]] = []
    for k in range(len(ts) - 1):
        inc = adaptive_quad(checked, ts[k], ts[k + 1], 1e-300, rel_tol)
        increments.append(inc)
        partial += inc
        pairs.append((ts[k + 1], partial))

    floor = 1e-15 * max(1.0, max(increments, default=0.0))
    tail = increments[-min(tail_window, len(increments)):]
    if max(tail, default=0.0) <= floor:
        return DivergenceVerdict(CONVERGING, tuple(pairs), ())

    ratios = []
    for prev, cur in zip(tail, tail[1:]):
        if prev > floor:
            ratios.append(cur / prev)
    if not ratios:
        return DivergenceVerdict(INCONCLUSIVE, tuple(pairs), ())
    log_mean = sum(math.log(max(r, 1e-300)) for r in ratios) / len(ratios)
    rho = math.exp(log_mean)
    if rho <= conv_ratio:
        status = CONVERGING
    elif rho >= div_ratio:
        status = DIVERGING
    else:
        status = INCONCLUSIVE
    return DivergenceVerdict(status, tuple(pairs), tuple(ratios))


def weighted_tail_integrand(
    P: TimeFunction,
    q: TimeFunction,
    r: TimeFunction,
    t0: float,
    *,
    window_log: float = 45.0,
    abs_tol: float = 1e-13,
    rel_tol: float = 1e-9,
) -> TimeFunction:
    """Integrand tau -> (1/P) * integral_{t0}^{tau} exp(-int_s^tau q) r(s) ds.

    This is the double-integral tail condition probed for oscillation
    certificates.  When the antiderivative of ``q`` is nondecreasing (the only
    regime the checkers use, q >= 0), the inner integral is restricted to the
    window where the kernel exceeds exp(-window_log); the discarded mass is
    below 1e-19 of the kernel scale.  The kernel exponent is rebuilt from the
    window start on every evaluation: differencing one global antiderivative
    would lose all precision once it grows past ~1e9.
    """
    V = CumulativeIntegral(q, t0, rel_tol=1e-13)  # coarse, used only to find the window

    def inner(tau: float) -> float:
        if tau <= t0:
            return 0.0
        v_tau = V(tau)
        lo, hi = t0, tau
        if v_tau - V(t0) > window_log:
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if v_tau - V(mid) > window_log:
                    lo = mid
                else:
                    hi = mid
                if hi - lo <= 1e-9 * max(1.0, abs(tau)):
                    break
        start = lo

        V_loc = CumulativeIntegral(q, start, rel_tol=1e-13)
        v_tau_loc = V_loc(tau)

        def g(s: float) -> float:
            return _exp(V_loc(s) - v_tau_loc) * r(s)

        val = adaptive_quad(g, start, tau, abs_tol, rel_tol, seeds=_right_anchored_seeds(start, tau, levels=8))
        return val / _positive(P, tau, "P")

    return inner
