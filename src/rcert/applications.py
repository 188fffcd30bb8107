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
from dataclasses import dataclass

from .certificates import (
    Certificate,
    FALSIFIED,
    INCONCLUSIVE,
    VERIFIED,
    check_t3_5,
    check_t3_6,
)
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
    absolute = p.variant == "absolute"
    r0 = _Product(-1.0, a=p.sigma, g="|w|^b" if absolute else "w^b", b=p.n - 1.0)
    return EquationSpec(
        p0=_closed_form_field([_Product(1.0, a=p.rho)], {"positive"}, "t^rho"),
        q0=_closed_form_field([_Product(0.0)], {"nonnegative", "nonpositive"}, "0"),
        r0=_closed_form_field([r0], {"nonpositive"} if absolute else (), "-t^sigma*g(w)"),
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
    global existence holds, otherwise "neither".
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
    A = B = None
    case = "neither"
    lead = c2 / (rho - 1.0) * t0 ** (1.0 - rho)
    if -1.0 < sigma < rho - 2.0:
        A = abs(c1) * math.exp(lead - t0 ** (sigma + 2.0 - rho) / ((sigma + 1.0) * (sigma + 2.0 - rho)))
        if A < 1.0:
            case = "A<1"
    elif sigma < -1.0:
        B = abs(c1) * math.exp(lead - t0 ** (sigma + 2.0 - rho) / ((sigma + 1.0) * (rho - 1.0)))
        if B < 1.0:
            case = "B<1"
    return EFBounds(A=A, B=B, case=case)


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

    def s_of_t(self, t: float) -> float:
        rho = self.params.rho
        if rho > 1.0:
            return t ** (rho - 1.0) / (rho - 1.0)
        return t ** (1.0 - rho) / (1.0 - rho)

    def t_of_s(self, s: float) -> float:
        rho = self.params.rho
        if rho > 1.0:
            return ((rho - 1.0) * s) ** (1.0 / (rho - 1.0))
        return ((1.0 - rho) * s) ** (1.0 / (1.0 - rho))

    def psi_of_phi(self, t: float, phi: float) -> float:
        if self.branch == "rho>1":
            return phi * self.s_of_t(t) / self._scale
        return phi / self._scale

    def phi_of_psi(self, s: float, psi: float) -> float:
        if self.branch == "rho>1":
            return self._scale * psi / s
        return self._scale * psi

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
    return (
        eps
        / 2.0
        * (1.0 - t0 ** (sigma + 1.0) / (sigma + 1.0)) ** -1.0
        * math.exp(t0 ** (sigma + 2.0 - rho) / ((sigma + 1.0) * (rho - 1.0)))
    )


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
    cap = math.exp(t0 ** (p.sigma + 2.0 - p.rho) / ((p.sigma + 1.0) * (p.rho - 1.0)))
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
    for k in range(_SIGN_SAMPLES):
        t = t0 + _SIGN_SPAN * k / (_SIGN_SAMPLES - 1)
        lam = v.lam(t)
        if lam <= 0.0:
            raise DomainError(f"lambda({t!r}) = {lam!r} must be positive")
        mu = v.mu(t)
        if mu < 0.0:
            raise DomainError(f"mu({t!r}) = {mu!r} must be nonnegative")
        nu = v.nu(t)
        if nu < 0.0:
            raise DomainError(f"nu({t!r}) = {nu!r} must be nonnegative")


def vdp_equation(v: VdPParams, t0: float = 0.0) -> EquationSpec:
    """Equation spec p0 = lam(t), q0 = mu(t) * (w**2 - 1), r0 = nu(t).

    Sign conditions are sample-verified on construction and violations are
    rejected outright.
    """
    _check_vdp_signs(v, t0)
    return EquationSpec(
        p0=_closed_form_field([_Product(1.0, tau=v.lam)], {"positive"}, "lambda"),
        q0=_closed_form_field([_Product(1.0, g="w^2-1", tau=v.mu)], {"monotone_in_w_even"}, "mu*(w^2-1)"),
        r0=_closed_form_field([_Product(1.0, tau=v.nu)], {"nonnegative"}, "nu"),
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
    oscillation part propagate.
    """
    if region is None:
        region = Rectangle(eq.t0, eq.t0 + 20.0, -8.0, 8.0)
    existence = check_t3_6(eq, region=region, grid=grid)
    oscillation = _vdp_oscillation(eq, v, eps0=eps0, region=region, grid=grid, osc_horizon=osc_horizon, osc_min_zeros=osc_min_zeros)
    if existence.status == VERIFIED and oscillation.status == VERIFIED:
        status = VERIFIED
        conclusion = "GLOBAL_AND_OSCILLATORY"
        reason = None
    elif FALSIFIED in (existence.status, oscillation.status):
        status = FALSIFIED
        conclusion = None
        reason = None
    else:
        status = INCONCLUSIVE
        conclusion = None
        reason = "a component certificate is inconclusive"
    region = {k: v for k, v in existence.region.items() if k != "coverage"}
    if status == VERIFIED:
        region["coverage"] = "rows" if existence.region["coverage"] == oscillation.region["coverage"] == "rows" else "grid"
    return Certificate(
        theorem="T4_2",
        status=status,
        hypotheses=("existence part", "oscillation part"),
        region=region,
        conclusion=conclusion,
        reason=reason,
        witness=oscillation.witness or existence.witness,
        heuristic_flags=oscillation.heuristic_flags,
        details={"existence_status": existence.status, "oscillation_status": oscillation.status},
        parts=[existence, oscillation],
    )
