"""``FBound``'s closed-form exponent for power-law triples, against the chain it replaces.

A triple whose P, Q and R are closed-form time functions with Q = 0, one
power P = c t^a (c > 0), R a sum of powers and t1 > 0 takes iplus and the
outer integral in closed form; every other triple walks the four-level chain.
Wrapping each time function in a ``lambda``, which carries no products, forces
the chain on the same triple.
"""

import json
import math
import re
from pathlib import Path

import pytest

from rcert import BoundTriple, DomainError, FBound, NonPositiveWeightError, QuadratureBudgetError, RangeOverflowError, quadrature
from rcert.applications import EFParams, ef_bound_triple
from rcert.cli import main
from rcert.config import time_function_from_json
from rcert.fields import _closed_form_time, _Product

README = Path(__file__).resolve().parents[1] / "README.md"

# (rho, sigma) of P = t^rho, R = -t^sigma.  (2, -1) has m = sigma + 1 = 0; (1, 0) has 1 - rho = 0; (2, 0), (3, 1), (4, 2)
# and (2.5, 0.5) have sigma + 2 - rho = 0: each of the three logarithmic cases of the closed form.
EXPONENTS = [(4.0, 0.0), (2.0, -1.0), (1.0, 0.0), (3.0, 1.0), (0.5, -1.5), (2.0, 0.0), (4.0, 2.0), (0.0, -6.0), (2.5, 0.5)]
MATRIX = [(rho, sigma, t1) for rho, sigma in EXPONENTS for t1 in (0.5, 1.0, 2.0)]
C2S = (0.0, 0.3, -1.0, 0.7)


def json_triple(**changes):
    """P = t^2, Q = 0 and R = -1 + 0.5 t from JSON time-function specs, with ``changes`` in their place."""
    docs = {"P": {"kind": "power", "coeff": 1.0, "power": 2.0}, "Q": {"kind": "constant", "value": 0.0}, "R": {"kind": "polynomial", "coeffs": [-1.0, 0.5]}}
    return BoundTriple(**{k: time_function_from_json(doc, f"bounds.{k}") for k, doc in {**docs, **changes}.items()})


def power_triple(a, tau=None):
    """P = t^a, Q = 0, R = -1 (times ``tau``)."""
    return BoundTriple(P=_closed_form_time([_Product(1.0, a=a)]), Q=_closed_form_time([_Product(0.0)]), R=_closed_form_time([_Product(-1.0, tau=tau)]))


def wrapped(b: BoundTriple) -> BoundTriple:
    """The same triple through lambdas: no products, so the chain."""
    return BoundTriple(P=lambda t: b.P(t), Q=lambda t: b.Q(t), R=lambda t: b.R(t))


def grid(t1, n=64, span=29.0):
    return [t1 + span * i / n for i in range(1, n + 1)]


def ef(rho, sigma):
    return ef_bound_triple(EFParams(rho=rho, sigma=sigma, n=3.0))


def no_panel(levels):
    """A stand-in for ``quadrature._compiled_walk`` whose walks fail."""

    def walk(*args):
        raise AssertionError("a chain panel was walked")

    return walk


def assert_parity(b, t1, c2, ts, monkeypatch):
    """The closed form's exponent at each t is the chain's within 1e-12 of the larger of |c2 * iplus| and |outer|.

    The chain's own iplus and outer set the scale: where the two nearly cancel,
    the exponent is far smaller than either, and so is its relative accuracy
    on either side.  The closed form walks no panel.
    """
    chain = FBound(wrapped(b), t1, 1.0, c2)
    expected = []
    for t in ts:
        _, _, iplus, outer = chain._levels(t)
        expected.append((chain.exponent(t), max(abs(c2 * iplus), abs(outer))))
    closed = FBound(b, t1, 1.0, c2)
    with monkeypatch.context() as m:
        m.setattr(quadrature, "_compiled_walk", no_panel)
        got = [closed.exponent(t) for t in ts]
    worst = max(abs(g - e) / scale for g, (e, scale) in zip(got, expected))
    assert worst <= 1e-12
    return worst


class TestParity:
    @pytest.mark.parametrize("rho, sigma, t1", MATRIX, ids=[f"rho{r}-sigma{s}-t1_{t}" for r, s, t in MATRIX])
    def test_emden_fowler_triple(self, rho, sigma, t1, monkeypatch):
        b = ef(rho, sigma)
        for c2 in C2S:
            assert_parity(b, t1, c2, grid(t1), monkeypatch)

    def test_json_triple_with_a_polynomial_r(self, monkeypatch):
        # P = 2 t^3, R = -1 + 0.5 t - 0.25 t^2: its t term has m - a + 1 = 0, a logarithm.
        b = json_triple(P={"kind": "power", "coeff": 2.0, "power": 3.0}, R={"kind": "polynomial", "coeffs": [-1.0, 0.5, -0.25]})
        for c2 in C2S:
            assert_parity(b, 1.0, c2, grid(1.0), monkeypatch)

    @pytest.mark.parametrize("rho, sigma", [(2.0, -0.93), (2.0, -1.07), (6.0, -1.07), (0.93, -1.0), (1.07, -1.0)])
    def test_just_outside_the_logarithmic_margin(self, rho, sigma, monkeypatch):
        b = ef(rho, sigma)
        for t1 in (0.5, 2.0):
            for c2 in C2S:
                assert_parity(b, t1, c2, grid(t1), monkeypatch)

    def test_a_nonzero_start_is_a_constant_term(self, monkeypatch):
        R = _closed_form_time([_Product(-0.5, a=-2.0)], start=-1.5)
        b = BoundTriple(P=_closed_form_time([_Product(3.0, a=1.5)]), Q=_closed_form_time([], start=0), R=R)
        assert FBound(b, 1.0, 1.0, 0.0)._closed is not None
        assert_parity(b, 1.0, 0.3, grid(1.0), monkeypatch)


ONE = {"kind": "constant", "value": 1.0}
# (triple, t1) outside the closed form.  Within 1/16 of m_k = 0 (of n = 0 when m_k = 0) it would divide a
# cancelling difference by that small number.
FALLBACKS = {
    "q_nonzero": (json_triple(Q={"kind": "constant", "value": 0.5}), 1.0),
    "two_term_p": (json_triple(P={"kind": "polynomial", "coeffs": [1.0, 1.0]}), 1.0),
    "p_coefficient_zero": (json_triple(P={"kind": "power", "coeff": 0.0, "power": 2.0}), 1.0),
    "p_coefficient_negative": (json_triple(P={"kind": "power", "coeff": -1.0, "power": 2.0}), 1.0),
    "t1_zero": (json_triple(P=ONE), 0.0),
    "t1_negative": (json_triple(P=ONE), -1.0),
    "tau_factor": (power_triple(2.0, tau=math.exp), 1.0),
    "m_tiny": (ef(2.0, -1.0 + 1e-12), 1.0),
    "m_within_margin": (ef(2.0, -1.05), 1.0),
    "n_tiny": (ef(1.0 - 1e-9, -1.0), 1.0),
}


def outcomes(b, t1, monkeypatch):
    """Whether ``FBound`` took the closed form, its exponent (or error type and text) at four times from t1, and the walks taken."""
    walks = 0
    compiled = quadrature._compiled_walk

    def counting(levels):
        walk = compiled(levels)

        def counted(*args):
            nonlocal walks
            walks += 1
            return walk(*args)

        return counted

    F = FBound(b, t1, 1.0, 0.3)
    results = []
    with monkeypatch.context() as m:
        m.setattr(quadrature, "_compiled_walk", counting)
        for t in (t1 + 0.5, t1 + 1.0, t1 + 3.0, t1 + 7.0):
            try:
                results.append(F.exponent(t).hex())
            except Exception as exc:
                results.append((type(exc).__name__, str(exc)))
    return F._closed is not None, results, walks


@pytest.mark.parametrize("case", FALLBACKS)
def test_any_other_triple_walks_the_chain(case, monkeypatch):
    # To the bits of the same triple through lambdas, errors included.
    b, t1 = FALLBACKS[case]
    closed, results, walks = outcomes(b, t1, monkeypatch)
    assert not closed and walks > 0
    assert results == outcomes(wrapped(b), t1, monkeypatch)[1]


ERRORS = {
    # P = t^-300: iplus = (t^301 - 1) / 301 overflows at t = 20, where P underflows to 0 at the chain's nodes.
    "overflow": (power_triple(-300.0), 1.0, 20.0, NonPositiveWeightError),
    # t / t1 = 1e310 overflows, and ln(t / t1) = inf would give iplus its t -> inf limit, 140 times its value here.
    "ratio_overflow": (power_triple(1.00001), 1e-300, 1e10, QuadratureBudgetError),
    # P = t^4 and R = -1 have finite limits at t = inf, but the chain has no interval to walk.
    "inf": (ef(4.0, 0.0), 1.0, math.inf, DomainError),
    "nan": (ef(4.0, 0.0), 1.0, math.nan, DomainError),
    "left_of_t1": (ef(4.0, 0.0), 1.0, 0.5, DomainError),
}


@pytest.mark.parametrize("case", ERRORS)
def test_where_the_closed_form_fails_the_chain_raises(case):
    b, t1, t, error = ERRORS[case]
    F = FBound(b, t1, 1.0, 1.0)
    assert F._closed is not None
    with pytest.raises(error) as closed:
        F.exponent(t)
    with pytest.raises(error) as chain:
        FBound(wrapped(b), t1, 1.0, 1.0).exponent(t)
    assert str(closed.value) == str(chain.value)


def test_range_overflow_falls_at_the_chains_grid_time():
    # P = t^2, R = -t^3 from t1 = 1: the exponent (t^3 - 1) / 12 + (1/t - 1) / 4 passes 690 near t = 20.2.
    b = ef(2.0, 3.0)
    ts = [1.0 + 49.0 * i / 128 for i in range(129)]

    def first_overflow(F):
        for t in ts:
            try:
                F(t)
            except RangeOverflowError as exc:
                return t, str(exc).rpartition(" at ")[2]
        return None

    closed = FBound(b, 1.0, 0.5, 0.0)
    assert closed._closed is not None
    got = first_overflow(closed)
    assert got is not None and got == first_overflow(FBound(wrapped(b), 1.0, 0.5, 0.0))
    assert got[1] == f"t={got[0]!r}"


def test_certify_t3_1_on_the_readme_example_walks_no_chain_panel(tmp_path, monkeypatch):
    example = re.search(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    config = tmp_path / "example.json"
    config.write_text(example, encoding="utf-8")
    monkeypatch.setattr(quadrature, "_compiled_walk", no_panel)
    assert main(["certify", "t3_1", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    cert = json.loads((tmp_path / "out" / "report.json").read_text())["certificates"][0]
    assert cert["status"] == "Verified"
    assert len(cert["bound_samples"]) == 129
