"""Executable case studies: power-law and Van der Pol type equations.

The power-law (Emden-Fowler form) family

    (t**rho * phi')' - t**sigma * |phi|**(n-1) * phi = 0,    n > 1,

comes in two variants: ``absolute`` as written above and ``signed`` with
``phi**n`` in place of ``|phi|**(n-1) * phi``.  The two are not equivalent
for general n (they differ on negative solutions), so they are distinct
constructors and nothing transfers between them silently.

For rho > 1 the growth envelope F admits closed-form t-uniform caps A (when
-1 < sigma < rho - 2) and B (when sigma < -1); when the relevant cap is below
one, the monotone global-existence certificate applies.  For rho = 0 and
sigma + n + 1 < 0 there is an explicit power solution usable as a comparison
majorant, and for rho != 1 an invertible change of variables maps the
equation to the rho = 0 form with a shifted exponent.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .certificates import FALSIFIED, INCONCLUSIVE, Certificate, _oscillation_options, _verdict, check_t3_5, check_t3_6
from .dynamics import IntegrationOptions, Trajectory, integrate
from .errors import DomainError
from .fields import BoundTriple, EquationSpec, GridSpec, InitialData, Rectangle, _closed_form_field, _closed_form_time, _Product
from .quadrature import TimeFunction

__all__ = [
    "EFParams",
    "ef_equation",
    "ef_bound_triple",
    "EFBounds",
    "ef_bounds_A_B",
    "kneser_solution",
    "kneser_majorant",
    "EFTransform",
    "ef_transform",
    "conditional_stability_delta",
    "conditional_stability_experiment",
    "VdPParams",
    "vdp_equation",
    "vdp_bound_triple",
    "vdp_family",
    "check_t4_2",
]


@dataclass(frozen=True)
class EFParams:
    """Exponents of the power-law equation; ``variant`` selects the w-coupling."""

    rho: float
    sigma: float
    n: float
    variant: str = "absolute"

    def __post_init__(self):
        if not self.n > 1:
            raise DomainError("the nonlinearity exponent n must exceed 1")
        if self.variant not in ("absolute", "signed"):
            raise DomainError(f"unknown variant {self.variant!r}")


def ef_equation(p: EFParams, t0: float = 1.0) -> EquationSpec:
    """Equation spec with p0 = t**rho, q0 = 0, r0 = -t**sigma * g(w).

    ``g(w) = |w|**(n-1)`` for the absolute variant and ``w**(n-1)`` for the
    signed one; for non-integer n the signed variant is only evaluable at
    w >= 0 (fractional powers of negatives raise an evaluation error).
    """
    if t0 <= 0.0:
        raise DomainError("power-law equations need t0 > 0")
    r0 = _Product(-1.0, a=p.sigma, g="|w|^b" if p.variant == "absolute" else "w^b", b=p.n - 1.0)
    return EquationSpec(
        p0=_closed_form_field([_Product(1.0, a=p.rho)], "t^rho"),
        q0=_closed_form_field([_Product(0.0)], "0"),
        r0=_closed_form_field([r0], "-t^sigma*g(w)"),
        t0=t0,
    )


def ef_bound_triple(p: EFParams) -> BoundTriple:
    """The canonical envelopes P = t**rho, Q = 0, R = -t**sigma."""
    P, Q, R = (_closed_form_time([_Product(c, a=a)]) for c, a in ((1.0, p.rho), (0.0, 0.0), (-1.0, p.sigma)))
    return BoundTriple(P=P, Q=Q, R=R)


@dataclass(frozen=True)
class EFBounds:
    """Closed-form t-uniform caps of the growth envelope with the case label.

    ``case`` is "A<1" / "B<1" when the corresponding sufficient condition for
    global existence holds, otherwise "neither".  A cap that does not
    evaluate to a finite float (its exp, or a power in its exponent,
    overflows) is None, and its case "neither".
    """

    A: float | None
    B: float | None
    case: str


def ef_bounds_A_B(p: EFParams, t0: float, c1: float, c2: float) -> EFBounds:
    """Closed-form caps of F for rho > 1.

    A applies on -1 < sigma < rho - 2 (strict: at sigma = rho - 2 the cap
    degenerates and for sigma >= rho - 2 the envelope is unbounded in t, so
    no t-uniform cap exists); B applies on sigma < -1.
    """
    rho, sigma = p.rho, p.sigma
    if rho <= 1.0:
        raise DomainError("the closed-form caps need rho > 1")
    if t0 <= 0.0:
        raise DomainError("t0 must be positive")
    label = "A" if -1.0 < sigma < rho - 2.0 else "B" if sigma < -1.0 else None
    if label is None:
        return EFBounds(A=None, B=None, case="neither")
    try:
        tail = t0 ** (sigma + 2.0 - rho) / ((sigma + 1.0) * (sigma + 2.0 - rho)) if label == "A" else _b_exponent(p, t0)
        cap = abs(c1) * math.exp(c2 / (rho - 1.0) * t0 ** (1.0 - rho) - tail)
    except OverflowError:
        cap = math.inf
    cap = cap if math.isfinite(cap) else None
    case = f"{label}<1" if cap is not None and cap < 1.0 else "neither"
    return EFBounds(A=cap if label == "A" else None, B=cap if label == "B" else None, case=case)


def _b_exponent(p: EFParams, t0: float) -> float:
    """t0 ** (sigma + 2 - rho) / ((sigma + 1) * (rho - 1)): minus the t-free part of B's exponent, and the log of the stability cap."""
    return t0 ** (p.sigma + 2.0 - p.rho) / ((p.sigma + 1.0) * (p.rho - 1.0))


def kneser_solution(p: EFParams) -> tuple[TimeFunction, TimeFunction]:
    """The explicit power solution and its derivative for rho = 0.

    Exists exactly when sigma + n + 1 < 0; at the boundary the coefficient
    vanishes and no such solution exists (the parameter condition is sharp).
    """
    if p.rho != 0.0:
        raise DomainError("the explicit power solution needs rho = 0")
    sigma, n = p.sigma, p.n
    if not sigma + n + 1.0 < 0.0:
        raise DomainError("the explicit power solution needs sigma + n + 1 < 0")
    coeff = ((sigma + 2.0) * (sigma + n + 1.0) / (n - 1.0) ** 2) ** (1.0 / (n - 1.0))
    expo = -(sigma + 2.0) / (n - 1.0)

    def phi_B(t: float) -> float:
        return coeff * t ** expo

    def dphi_B(t: float) -> float:
        return coeff * expo * t ** (expo - 1.0)

    return phi_B, dphi_B


def kneser_majorant(p: EFParams, t0: float, opts: IntegrationOptions = IntegrationOptions()) -> Trajectory:
    """Integrate the equation from the explicit power solution's initial data."""
    phi_B, dphi_B = kneser_solution(p)
    eq = ef_equation(p, t0=t0)
    return integrate(eq, InitialData(t1=t0, phi0=phi_B(t0), phi1=dphi_B(t0)), opts)


@dataclass(frozen=True)
class EFTransform:
    """Invertible change of variables onto the rho = 0 normal form.

    ``map_state``/``unmap_state`` carry (t, phi, phi') to (s, psi, dpsi/ds)
    and back; ``sigma1`` is the transformed t-exponent.
    """

    params: EFParams
    sigma1: float
    branch: str  # "rho>1" or "rho<1"
    _scale: float

    def transformed_params(self) -> EFParams:
        return EFParams(rho=0.0, sigma=self.sigma1, n=self.params.n, variant=self.params.variant)

    # With k = |rho - 1| on both branches: 1.0 - rho == -(rho - 1.0) in floats, as rounding is sign-symmetric.
    def s_of_t(self, t: float) -> float:
        k = abs(self.params.rho - 1.0)
        return t ** k / k

    def t_of_s(self, s: float) -> float:
        k = abs(self.params.rho - 1.0)
        return (k * s) ** (1.0 / k)

    def map_state(self, t: float, phi: float, dphi: float) -> tuple[float, float, float]:
        rho = self.params.rho
        s = self.s_of_t(t)
        if self.branch == "rho>1":
            psi = phi * s / self._scale
            dpsi = (phi + dphi * t / (rho - 1.0)) / self._scale
        else:
            psi = phi / self._scale
            dpsi = dphi * t ** rho / self._scale
        return s, psi, dpsi

    def unmap_state(self, s: float, psi: float, dpsi: float) -> tuple[float, float, float]:
        rho = self.params.rho
        t = self.t_of_s(s)
        if self.branch == "rho>1":
            phi = self._scale * psi / s
            dphi = self._scale * (dpsi * s - psi) / (s * s) * t ** (rho - 2.0)
        else:
            phi = self._scale * psi
            dphi = self._scale * dpsi * t ** (-rho)
        return t, phi, dphi


def ef_transform(p: EFParams) -> EFTransform:
    """Branch-correct transform constants; rho = 1 has no such reduction."""
    rho, sigma, n = p.rho, p.sigma, p.n
    if rho == 1.0:
        raise DomainError("the normal-form transform needs rho != 1")
    if rho > 1.0:
        sigma1 = (sigma + rho) / (rho - 1.0) - (n + 3.0)
        scale = (rho - 1.0) ** ((rho - sigma - 2.0) / ((rho - 1.0) * (n - 1.0)))
        return EFTransform(params=p, sigma1=sigma1, branch="rho>1", _scale=scale)
    sigma1 = (sigma + rho) / (1.0 - rho)
    scale = (1.0 - rho) ** (-(sigma + rho) / ((n - 1.0) * (1.0 - rho)))
    return EFTransform(params=p, sigma1=sigma1, branch="rho<1", _scale=scale)


def conditional_stability_delta(p: EFParams, t0: float, eps: float) -> float:
    """Initial-data radius guaranteeing the trajectory-norm bound eps.

    Valid for rho > 1, sigma < -1; scales linearly in eps.
    """
    rho, sigma = p.rho, p.sigma
    if not (rho > 1.0 and sigma < -1.0):
        raise DomainError("conditional stability needs rho > 1 and sigma < -1")
    if eps <= 0.0:
        raise DomainError("eps must be positive")
    if t0 <= 0.0:
        raise DomainError("t0 must be positive")
    # sigma + 2 - rho < sigma + 1 < 0, so where t0 ** (sigma + 1) overflows this power has already.
    try:
        exponent = _b_exponent(p, t0)
    except OverflowError:
        raise DomainError(f"t0 ** (sigma + 2 - rho) overflows at t0={t0!r}, exponent {sigma + 2.0 - rho!r}") from None
    return eps / 2.0 * (1.0 - t0 ** (sigma + 1.0) / (sigma + 1.0)) ** -1.0 * math.exp(exponent)


@dataclass(frozen=True)
class StabilityOutcome:
    phi0: float
    sup_norm: float
    within_eps: bool
    terminal: str


def conditional_stability_experiment(
    p: EFParams,
    t0: float,
    eps: float,
    n_ics: int = 20,
    horizon: float = 50.0,
) -> list[StabilityOutcome]:
    """Sample the stability manifold and track sup(|phi| + |psi|) from t0 to ``horizon``,
    the absolute end time (as ``IntegrationOptions.horizon``), not a duration.

    The manifold is one-sided: phi(t0) in [0, delta) with phi'(t0) = 0; the
    experiment keeps that one-sidedness and does not generalize it.
    """
    delta = conditional_stability_delta(p, t0, eps)
    cap = math.exp(_b_exponent(p, t0))
    hi = min(delta, cap)
    eq = ef_equation(p, t0=t0)
    opts = IntegrationOptions(horizon=horizon)
    outcomes = []
    for k in range(n_ics):
        phi0 = hi * (k + 1) / (n_ics + 1)
        traj = integrate(eq, InitialData(t1=t0, phi0=phi0, phi1=0.0), opts)
        sup = max(abs(phi) + abs(psi) for phi, psi in zip(traj.phis, traj.psis))
        outcomes.append(StabilityOutcome(phi0=phi0, sup_norm=sup, within_eps=sup < eps, terminal=traj.terminal.kind))
    return outcomes


# ---------------------------------------------------------------------------
# Van der Pol type equations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VdPParams:
    """Coefficients lam > 0, mu >= 0, nu >= 0 of the Van der Pol type equation."""

    lam: TimeFunction
    mu: TimeFunction
    nu: TimeFunction


#: The sign conditions of a Van der Pol equation are sampled on [t0, t0 + _SIGN_SPAN].
_SIGN_SPAN = 100.0
_SIGN_SAMPLES = 257


def _check_vdp_signs(v: VdPParams, t0: float) -> None:
    # (name, function, the test it must pass against 0, the sign it needs); a NaN passes none.
    signs = (("lambda", v.lam, operator.gt, "positive"), ("mu", v.mu, operator.ge, "nonnegative"), ("nu", v.nu, operator.ge, "nonnegative"))
    for k in range(_SIGN_SAMPLES):
        t = t0 + _SIGN_SPAN * k / (_SIGN_SAMPLES - 1)
        for name, fn, holds, sign in signs:
            value = fn(t)
            if not holds(value, 0.0):
                raise DomainError(f"{name}({t!r}) = {value!r} must be {sign}")


def vdp_equation(v: VdPParams, t0: float = 0.0) -> EquationSpec:
    """Equation spec p0 = lam(t), q0 = mu(t) * (w**2 - 1), r0 = nu(t).

    Sign conditions are sample-verified on construction and violations are
    rejected outright.
    """
    _check_vdp_signs(v, t0)
    return EquationSpec(
        p0=_closed_form_field([_Product(1.0, tau=v.lam)], "lambda"),
        q0=_closed_form_field([_Product(1.0, g="w^2-1", tau=v.mu)], "mu*(w^2-1)"),
        r0=_closed_form_field([_Product(1.0, tau=v.nu)], "nu"),
        t0=t0,
    )


def vdp_bound_triple(v: VdPParams) -> BoundTriple:
    """Envelopes P = lam, Q = 0 for the unit band |w| <= 1."""
    return BoundTriple(P=v.lam, Q=_closed_form_time([_Product(0.0)]), R=v.nu)


def vdp_family(v: VdPParams):
    """Comparison family p_eps = lam, q_eps = mu * (eps**2 - 1), r_eps = nu."""

    def family(eps: float):
        return (v.lam, _closed_form_time([_Product(eps * eps - 1.0, tau=v.mu)]), v.nu)

    return family


def _vdp_oscillation(
    eq: EquationSpec,
    v: VdPParams,
    *,
    eps0: float,
    region: Rectangle | None,
    grid: GridSpec,
    osc_horizon: float,
    osc_min_zeros: int,
) -> Certificate:
    """T3_5 on ``eq = vdp_equation(v, t0)`` against its family, with the unit band N = 1."""
    b, family = vdp_bound_triple(v), vdp_family(v)
    return check_t3_5(eq, b, family, N=1.0, eps0=eps0, region=region, grid=grid, osc_horizon=osc_horizon, osc_min_zeros=osc_min_zeros)


def check_t4_2(
    eq: EquationSpec,
    v: VdPParams,
    eps0: float = 1.0,
    *,
    region: Rectangle | None = None,
    grid: GridSpec = GridSpec(nt=65, nw=65),
    osc_horizon: float = 50.0,
    osc_min_zeros: int = 5,
) -> Certificate:
    """Aggregate certificate: global existence plus oscillation of all solutions.

    ``eq`` is ``vdp_equation(v, t0)``, built once by the caller.  Delegates
    the existence part to the even-monotone-structure check and the
    oscillation part to the comparison-family check with the unit band N = 1.
    The aggregate is Verified only if both parts are; heuristic flags of the
    oscillation part propagate.  Options out of range raise before either part runs.
    """
    _oscillation_options(eps0, osc_horizon, osc_min_zeros)
    if region is None:
        region = Rectangle(eq.t0, eq.t0 + 20.0, -8.0, 8.0)
    existence = check_t3_6(eq, region=region, grid=grid)
    oscillation = _vdp_oscillation(eq, v, eps0=eps0, region=region, grid=grid, osc_horizon=osc_horizon, osc_min_zeros=osc_min_zeros)
    parts = [existence, oscillation]
    statuses = [p.status for p in parts]
    outcome = None
    if FALSIFIED in statuses:
        outcome = oscillation.witness or existence.witness
    elif INCONCLUSIVE in statuses:
        outcome = "a component certificate is inconclusive"
    covered = all(p.region.get("coverage") == "rows" for p in parts)
    rec = {k: v for k, v in existence.region.items() if k != "coverage"}
    details = {"existence_status": existence.status, "oscillation_status": oscillation.status}
    common = {"heuristic_flags": oscillation.heuristic_flags, "details": details, "parts": parts}
    return _verdict("T4_2", ("existence part", "oscillation part"), rec, outcome, covered, common, conclusion="GLOBAL_AND_OSCILLATORY")
