"""Guard exits of the library: each case names the exception type and its exact message.

These are the argument checks that no other test reaches, and the early
returns that sit beside them (a query at the base point, a memoized one).
"""

import math

import pytest

from rcert import (
    INCONCLUSIVE,
    BoundTriple,
    ConfigError,
    DomainError,
    EquationSpec,
    FBound,
    GridSpec,
    InitialData,
    IntegrationOptions,
    Rectangle,
    check_t3_3,
    check_t3_4,
    difference_residual,
    divergence_probe,
    i_minus,
    i_plus,
    integrate,
    sweep,
    transform,
)
from rcert.applications import EFParams, VdPParams, conditional_stability_delta, ef_bounds_A_B, vdp_equation
from rcert.config import load_config, parse_config
from rcert.quadrature import weighted_tail_integrand
from rcert.serialize import canonical_json, format_float
from conftest import const_field, make_eq

HARMONIC = make_eq(p=1.0, q=0.0, r=1.0)
POWER_LAW = EFParams(rho=4.0, sigma=-3.0, n=3.0)


def one(t):
    return 1.0


def harmonic_run(phi0=1.0):
    # cos t from (0, 1, 0) on [0, 1] has no zero; from (0, 0, 0) phi is 0 throughout
    return integrate(HARMONIC, InitialData(0.0, phi0, 0.0), IntegrationOptions(horizon=1.0))


def write(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    return str(path)


RAISES = [
    ("EFParams variant", lambda tmp: EFParams(rho=0.0, sigma=0.0, n=3.0, variant="odd"), DomainError, "unknown variant 'odd'"),
    ("ef_bounds_A_B t0", lambda tmp: ef_bounds_A_B(EFParams(rho=4.0, sigma=0.0, n=3.0), 0.0, 1.0, 0.0), DomainError, "t0 must be positive"),
    ("stability eps", lambda tmp: conditional_stability_delta(POWER_LAW, 1.0, 0.0), DomainError, "eps must be positive"),
    ("stability t0", lambda tmp: conditional_stability_delta(POWER_LAW, -1.0, 0.1), DomainError, "t0 must be positive"),
    (
        "stability t0 overflow",
        lambda tmp: conditional_stability_delta(POWER_LAW, 1e-70, 0.1),
        DomainError,
        "t0 ** (sigma + 2 - rho) overflows at t0=1e-70, exponent -5.0",
    ),
    ("vdp lambda", lambda tmp: vdp_equation(VdPParams(lam=lambda t: 0.0, mu=one, nu=one)), DomainError, "lambda(0.0) = 0.0 must be positive"),
    ("vdp mu", lambda tmp: vdp_equation(VdPParams(lam=one, mu=lambda t: t - 1.0, nu=one)), DomainError, "mu(0.0) = -1.0 must be nonnegative"),
    ("vdp nu", lambda tmp: vdp_equation(VdPParams(lam=one, mu=one, nu=lambda t: -1.0)), DomainError, "nu(0.0) = -1.0 must be nonnegative"),
    ("vdp lambda nan", lambda tmp: vdp_equation(VdPParams(lam=lambda t: math.nan, mu=one, nu=one)), DomainError, "lambda(0.0) = nan must be positive"),
    ("vdp mu nan", lambda tmp: vdp_equation(VdPParams(lam=one, mu=lambda t: math.nan, nu=one)), DomainError, "mu(0.0) = nan must be nonnegative"),
    ("vdp nu nan", lambda tmp: vdp_equation(VdPParams(lam=one, mu=one, nu=lambda t: math.nan)), DomainError, "nu(0.0) = nan must be nonnegative"),
    (
        "check_t3_3 start",
        lambda tmp: check_t3_3(HARMONIC, HARMONIC, harmonic_run(), InitialData(0.5, 0.5, 0.0)),
        DomainError,
        "comparison initial data must start where the majorant starts",
    ),
    ("sweep raster", lambda tmp: sweep(HARMONIC, ((0.0, 1.0), (0.0, 1.0)), (1, 2)), ValueError, "sweep needs at least a 2x2 raster"),
    ("parse_config command", lambda tmp: parse_config({}, "nope"), ConfigError, "command: unknown command 'nope'"),
    ("parse_config no theorem", lambda tmp: parse_config({}, "certify"), ConfigError, "command: certify needs a theorem id"),
    ("parse_config theorem", lambda tmp: parse_config({}, "certify", "t9"), ConfigError, "command: unknown theorem id 't9'"),
    (
        "load_config JSON",
        lambda tmp: load_config(write(tmp, "x"), "integrate"),
        ConfigError,
        "config: invalid JSON: Expecting value: line 1 column 1 (char 0)",
    ),
    ("load_config array", lambda tmp: load_config(write(tmp, "[1]"), "integrate"), ConfigError, "config: top-level document must be an object"),
    ("EquationSpec t0", lambda tmp: EquationSpec(const_field(1.0), const_field(0.0), const_field(1.0), math.inf), ValueError, "t0 must be finite"),
    ("Rectangle order", lambda tmp: Rectangle(1.0, 0.0), ValueError, "rectangle bounds out of order"),
    ("GridSpec size", lambda tmp: GridSpec(nt=1, nw=5), ValueError, "grids need at least 2 points per axis"),
    ("i_plus before t1", lambda tmp: i_plus(one, one, 1.0, 0.5), DomainError, "i_plus needs t >= t1"),
    ("i_minus before t1", lambda tmp: i_minus(one, one, 1.0, 0.5), DomainError, "i_minus needs t >= t1"),
    ("FBound R", lambda tmp: FBound(BoundTriple(P=one, Q=one), 1.0, 1.0, 0.0), DomainError, "this envelope needs the R component of the bound triple"),
    ("transform span", lambda tmp: transform(harmonic_run(), (0.5, 2.0)), DomainError, "segment (0.5, 2.0) outside the trajectory span"),
    ("transform zero", lambda tmp: transform(harmonic_run(0.0), (0.0, 1.0)), DomainError, "|phi| is not bounded away from zero near t=0.0"),
    (
        "difference_residual segments",
        lambda tmp: difference_residual(transform(harmonic_run(), (0.0, 0.25)), transform(harmonic_run(), (0.5, 1.0)), 0),
        DomainError,
        "paths do not share a segment",
    ),
    ("integrate t1", lambda tmp: integrate(make_eq(t0=1.0), InitialData(0.0, 1.0, 0.0)), DomainError, "initial time precedes the equation's start time"),
    ("format_float nan", lambda tmp: format_float(math.nan), ValueError, "non-finite value nan cannot appear in a report"),
    ("canonical_json key", lambda tmp: canonical_json({1: 2.0}), TypeError, "non-string key 1"),
    ("canonical_json object", lambda tmp: canonical_json({"a": object()}), TypeError, "cannot serialize object"),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in RAISES], ids=[case[0] for case in RAISES])
def test_guard_raises(tmp_path, call, error, message):
    with pytest.raises(error) as err:
        call(tmp_path)
    assert type(err.value) is error and str(err.value) == message


def test_queries_at_the_base_point_are_zero():
    assert (i_plus(one, one, 1.0, 1.0), i_minus(one, one, 1.0, 1.0)) == (0.0, 0.0)


def test_check_t3_4_default_region():
    cert = check_t3_4(make_eq(r=1.0), BoundTriple(P=one, Q=lambda t: 0.0), grid=GridSpec(3, 3))
    assert (cert.region["t"], cert.region["w"]) == ([0.0, 50.0], [-10.0, 10.0])


def test_divergence_probe_without_a_ratio_is_inconclusive():
    # Every increment is 0 but the last, over [2^19, 2^20]: no tail increment before it is above the floor.
    verdict = divergence_probe(lambda t: 1.0 if t > 2.0**19 else 0.0, 1.0)
    assert (verdict.status, verdict.ratios, len(verdict.horizons)) == (INCONCLUSIVE, (), 20)


def test_weighted_tail_integrand_before_t0_and_memoized():
    calls = []

    def r(t):
        calls.append(t)
        return 1.0

    integrand = weighted_tail_integrand(one, one, r, 0.0)
    assert (integrand(0.0), integrand(-1.0), calls) == (0.0, 0.0, [])
    first = integrand(2.0)
    n = len(calls)
    assert integrand(2.0) == first and len(calls) == n  # a repeated tau returns the memoized value
    assert abs(first - (1.0 - math.exp(-2.0))) <= 1e-12
