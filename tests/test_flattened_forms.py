"""Closed-form time factors written into their products, and the one-call (v, x) sampler.

A product whose ``tau`` is itself a closed-form time function has tau's
source written into its own, so a sample makes no call of tau; the chain of
an anchored walk writes the sources of v and x into its nodes.  Both must give
exactly the values and exceptions of the nested calls.  The reference for a
flattened form is the same product with tau wrapped in an opaque
``lambda t: tau(t)``, which the compiler cannot see into.
"""

import math
import random
import re

import pytest

from rcert import VERIFIED, GridSpec, time_function_from_json
from rcert import quadrature
from rcert.applications import VdPParams, check_t4_2, vdp_equation, vdp_family
from rcert.fields import EquationSpec, _closed_form_field, _closed_form_time, _compiled_columns, _Product
from test_step_bits import _in_place

TIME_JSON = {
    "constant": {"kind": "constant", "value": 1.5},
    "constant_negative_zero": {"kind": "constant", "value": -0.0},
    "power_root": {"kind": "power", "coeff": 2.0, "power": 0.5},
    "power_reciprocal": {"kind": "power", "coeff": -1.0, "power": -1.0},
    "power_square": {"kind": "power", "coeff": 1e300, "power": 2.0},
    "polynomial": {"kind": "polynomial", "coeffs": [1.0, 0.01, -0.25]},
    "polynomial_empty": {"kind": "polynomial", "coeffs": []},
    "polynomial_rounding": {"kind": "polynomial", "coeffs": [0.1, 0.2, 0.3, 1e-17, -1.0]},
}


def time_functions() -> dict:
    found = {name: time_function_from_json(doc, "f") for name, doc in TIME_JSON.items()}
    # Two levels, as the comparison equations build them: q_eps = (eps^2 - 1) mu, and 1.0 * q_eps.
    for name in ("power_root", "polynomial"):
        q_eps = _closed_form_time([_Product(0.25 * 0.25 - 1.0, tau=found[name])])
        found[f"q_eps.{name}"] = q_eps
        found[f"one_times.q_eps.{name}"] = _closed_form_time([_Product(1.0, tau=q_eps)])
    # Closed forms whose own tau is opaque: log raises ValueError at t <= 0.
    found["q_eps.opaque"] = _closed_form_time([_Product(-0.5, tau=lambda t: 1.0 + t)])
    found["log.opaque"] = _closed_form_time([_Product(2.0, tau=math.log)])
    return found


TAUS = time_functions()

# (products without tau, start): a tau factor is added to the first product.  The shapes cover a
# coefficient of +-1 (left out of the source), a t-power, each w-factor, w_first and a sum with a start.
SHAPES = {
    "one": ([_Product(1.0)], None),
    "minus_one": ([_Product(-1.0)], None),
    "scaled_power": ([_Product(0.75, a=1.5)], None),
    "w_square_minus_one": ([_Product(1.0, g="w^2-1")], None),
    "abs_w_power_first": ([_Product(-2.0, a=-0.5, g="|w|^b", b=2.5, w_first=True)], None),
    "signed_w_power": ([_Product(3.0, g="w^b", b=3.0)], None),
    "sum_with_start": ([_Product(0.5, a=2.0), _Product(-1.0, g="w^b", b=1.0)], 0.0),
}

SPECIAL_TS = [0.0, -0.0, 1.0, -1.0, 2.5, -2.0, 5e-324, 1e-300, 1e154, -1e154, 1e200, -1e200, 1e308, math.inf, -math.inf, math.nan]
WS = [0.0, -0.0, 0.5, -2.5, 3.0, 1e154, -1e200, math.inf, math.nan]


def random_ts(seed: int, n: int) -> list[float]:
    rng = random.Random(seed)
    return [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320.0, 308.0) for _ in range(n)] + [rng.uniform(-50.0, 50.0) for _ in range(n)]


TS = SPECIAL_TS + random_ts(34, 150)


def outcome(fn, *args):
    """A call's value as its hex (or its type and repr), or the type of what it raises."""
    try:
        value = fn(*args)
    except Exception as exc:
        return f"raises {type(exc).__name__}"
    if isinstance(value, tuple):
        return tuple(v.hex() if type(v) is float else f"{type(v).__name__} {v!r}" for v in value)
    return value.hex() if type(value) is float else f"{type(value).__name__} {value!r}"


def with_tau(shape: str, tau) -> list[_Product]:
    products, _ = SHAPES[shape]
    return [products[0]._replace(tau=tau)] + products[1:]


def opaque(tau):
    return lambda t: tau(t)


def calls_tau(fn) -> bool:
    """Whether the compiled source of ``fn`` still calls a time factor ``...tau0``."""
    return any(name.endswith("tau0") for name in fn.__code__.co_names)


@pytest.mark.parametrize("tau_name", sorted(TAUS))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_flattened_field_matches_the_nested_call(shape, tau_name):
    tau, start = TAUS[tau_name], SHAPES[shape][1]
    flat = _closed_form_field(with_tau(shape, tau), "f", start)
    nested = _closed_form_field(with_tau(shape, opaque(tau)), "f", start)
    assert calls_tau(flat.fn) == tau_name.endswith(".opaque") and calls_tau(nested.fn)
    for t in TS:
        for w in WS:
            assert outcome(flat.fn, t, w) == outcome(nested.fn, t, w), (t, w)
        assert outcome(flat.sample_row, t, WS) == outcome(nested.sample_row, t, WS), t


@pytest.mark.parametrize("tau_name", sorted(TAUS))
@pytest.mark.parametrize("shape", [s for s, (products, _) in sorted(SHAPES.items()) if all(p.w_free for p in products)])
def test_flattened_time_function_matches_the_nested_call(shape, tau_name):
    tau, start = TAUS[tau_name], SHAPES[shape][1]
    flat = _closed_form_time(with_tau(shape, tau), start)
    nested = _closed_form_time(with_tau(shape, opaque(tau)), start)
    assert [outcome(flat, t) for t in TS] == [outcome(nested, t) for t in TS]


@pytest.mark.parametrize("mu_name", ["constant", "power_root", "polynomial"])
def test_flattened_rhs_matches_the_nested_call(mu_name):
    # The comparison equations' rhs as the integration loop writes it in place: 1.0 * tau for each
    # coefficient, with q_eps = (eps^2 - 1) mu; h = -0.0 leaves t as it is.
    mu, nu = TAUS[mu_name], TAUS["power_root"]
    lam, q_eps, _ = vdp_family(VdPParams(lam=TAUS["polynomial"], mu=mu, nu=nu))(0.5)

    def rhs(wrap):
        fields = [_closed_form_field([_Product(1.0, tau=wrap(f))], name) for f, name in ((lam, "p"), (q_eps, "q"), (nu, "r"))]
        return _in_place(EquationSpec(*fields, t0=0.0))

    flat, nested = rhs(lambda f: f), rhs(opaque)
    rng = random.Random(7)
    for t in TS:
        for w, v in ((1.0, 0.0), (rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)), (1e200, -1e200)):
            assert outcome(flat, t, -0.0, w, v) == outcome(nested, t, -0.0, w, v), (t, w, v)


PAIRS = [("constant", "power_root"), ("q_eps.power_root", "constant"), ("q_eps.polynomial", "power_square"),
         ("power_reciprocal", "polynomial_rounding"), ("one_times.q_eps.polynomial", "polynomial_empty"), ("power_square", "power_reciprocal"),
         # At t = 0 both raise, v first: ValueError, not x's ZeroDivisionError.
         ("log.opaque", "power_reciprocal")]


def column_sampler(v, x):
    """``t -> (v(t), x(t))`` as a walk's node reads its two columns (``fields._compiled_columns``); None if one is opaque.

    A varying column is its source at t, and a constant one its value taken once.
    """

    def write(sources):
        values = ", ".join(f"col{j}" if source is None else source.format(t="t") for j, source in enumerate(sources))
        names = dict.fromkeys(re.findall(r"\bcol\d\w*", values))
        return f"def sample(t{''.join(f', {n}={n}' for n in names)}):\n    return ({values})\n"

    scope = _compiled_columns((v, x), write, {})
    return None if scope is None else scope["sample"]


@pytest.mark.parametrize("v_name, x_name", PAIRS)
def test_sampler_matches_the_two_calls(v_name, x_name):
    v, x = TAUS[v_name], TAUS[x_name]
    sample = column_sampler(v, x)
    assert sample is not None
    assert [outcome(sample, t) for t in TS] == [outcome(lambda s: (v(s), x(s)), t) for t in TS]


def test_sampler_of_an_opaque_function_is_none():
    closed = TAUS["constant"]
    assert column_sampler(closed, math.exp) is None
    assert column_sampler(opaque(closed), closed) is None
    # A closed form whose tau is opaque is still a closed form: it calls its tau.
    sample = column_sampler(TAUS["q_eps.opaque"], closed)
    assert sample(2.0) == (TAUS["q_eps.opaque"](2.0), 1.5)


@pytest.mark.parametrize("closed", [True, False], ids=["closed_form_mu", "opaque_mu"])
def test_tail_chains_never_call_mu(monkeypatch, closed):
    # certify t4_2 on unit coefficients from t0 = 0, the benchmark's Van der Pol config.  mu counts
    # its calls inside (K, W) chain walks; with its closed form kept, every chain reads mu's source.
    one = time_function_from_json({"kind": "constant", "value": 1.0}, "f")
    kw_walks, in_kw, mu_calls = [], [], []
    walker = quadrature._walker

    def recording(levels, sample):
        walk = walker(levels, sample)

        def recording_walk(*args):
            in_kw.append(levels == (quadrature._K, quadrature._W))
            kw_walks.append(in_kw[-1])
            try:
                return walk(*args)
            finally:
                in_kw.pop()

        return recording_walk

    def mu(t, w=0.0):
        if in_kw and in_kw[-1]:
            mu_calls.append(t)
        return one(t)

    if closed:
        mu.products, mu.start = one.products, one.start
    monkeypatch.setattr(quadrature, "_walker", recording)
    v = VdPParams(lam=one, mu=mu, nu=one)
    cert = check_t4_2(vdp_equation(v), v, eps0=1.0, grid=GridSpec(9, 9))
    assert cert.status == VERIFIED
    assert sum(kw_walks) > 100
    assert (mu_calls == []) == closed
