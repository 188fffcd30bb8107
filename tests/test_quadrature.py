import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcert import (
    BoundTriple,
    CONVERGING,
    DIVERGING,
    CumulativeIntegral,
    DomainError,
    FBound,
    GBound,
    NegativeIntegrandError,
    NonPositiveWeightError,
    QuadratureBudgetError,
    RangeOverflowError,
    adaptive_quad,
    divergence_probe,
    i_minus,
    i_plus,
)
from rcert.applications import VdPParams, vdp_bound_triple, vdp_family
from rcert.quadrature import _NODES, _S, CumulativeChain, weighted_chain, weighted_tail_integrand

ONE = lambda t: 1.0
ZERO = lambda t: 0.0


def _probe_table():
    """(P, q, r, t0, status, ratios) of the double-tail probes, as recorded before the tail's recurrence."""
    vdp = VdPParams(ONE, ONE, ONE)
    family = vdp_family(vdp)
    table = {f"vdp_eps{eps}": (vdp_bound_triple(vdp).P, family(eps)[1], ONE, 0.0, DIVERGING, [ratio] * 7) for eps, ratio in ((1.0, 4.0), (1.5, 2.0), (2.0, 2.0), (4.0, 2.0), (8.0, 2.0))}
    table["t_2/t_1/t"] = (lambda t: t, lambda t: 2.0 / t, lambda t: 1.0 / t, 1.0, DIVERGING, [1.000000024185061, 1.000000006046265, 1.0000000015115662, 1.0000000003778915, 1.000000000094473, 1.0000000000236184, 1.0000000000059044])
    table["1_t_1"] = (ONE, lambda t: t, ONE, 0.0, DIVERGING, [0.9999999758149372, 0.9999999939537348, 0.9999999984884335, 0.9999999996221086, 0.9999999999055271, 0.9999999999763818, 0.9999999999940956])
    table["t^2_1e3_1"] = (lambda t: t * t, lambda t: 1e3, ONE, 1.0, CONVERGING, [0.5] * 7)
    table["1+t_1+1/(1+t)_2"] = (lambda t: 1.0 + t, lambda t: 1.0 + 1.0 / (1.0 + t), lambda t: 2.0, 0.0, DIVERGING, [1.0001760997096192, 1.0000880524859397, 1.0000440269007846, 1.0000220136148499, 1.00001100684854, 1.0000055034345487, 1.0000027517198442])
    return table


PROBE_TABLE = _probe_table()


def closed_form(value):
    # Within 5e-15 relative: a few roundings of the chained panel sums.
    return pytest.approx(value, rel=5e-15, abs=0.0)


class TestClosedForms:
    def test_i_plus(self):
        # V = log t, so the integrand is t^-3 on [1, 4].
        assert i_plus(lambda t: t * t, lambda t: 1.0 / t, 1.0, 4.0) == closed_form(15.0 / 32.0)

    def test_i_minus(self):
        assert i_minus(lambda t: 2.0, lambda t: t, 0.0, 5.0) == closed_form(9.0 / 4.0 + math.exp(-10.0) / 4.0)

    def test_weighted_tail(self):
        # The window [18.75, 30] drops mass below 1e-19 of the whole integral over [0, 30].
        fn = weighted_tail_integrand(lambda t: 1.0 + t, lambda t: 4.0, math.cos, 0.0)
        expect = (4.0 * math.cos(30.0) + math.sin(30.0) - 4.0 * math.exp(-120.0)) / (17.0 * 31.0)
        assert fn(30.0) == closed_form(expect)

    def test_power_law_envelope(self):
        # P = t^4, Q = 0, R = -1 from t1 = 1: F = 0.5 exp(1/6 - 1/(2t^2) + 1/(3t^3)).
        F = FBound(BoundTriple(P=lambda t: t ** 4, Q=ZERO, R=lambda t: -1.0), 1.0, 0.5, 0.0)
        for t in (1.0, 1.5, 2.0, 4.0, 3.0, 50.0):
            assert F(t) == closed_form(0.5 * math.exp(1.0 / 6.0 - 0.5 / t ** 2 + 1.0 / (3.0 * t ** 3)))


class TestBoundaryLayer:
    """Kernels concentrated at the upper limit, far narrower than the interval."""

    def test_i_minus(self):
        # Width 1/q at t = 100: one panel over [0, 100] sees no node inside it,
        # and from q = 1e6 on no node of a twelfth dyadic gap does either.
        for q in (1e3, 1e6, 1e7):
            assert i_minus(lambda t: q, ONE, 0.0, 100.0) == pytest.approx(-math.expm1(-100.0 * q) / q, rel=1e-12, abs=0.0)

    def test_weighted_tail(self):
        tau = 2.0 ** 19
        fn = weighted_tail_integrand(ONE, lambda t: 15.0, ONE, 0.0)
        assert fn(tau) == pytest.approx(-math.expm1(-15.0 * tau) / 15.0, rel=1e-12, abs=0.0)

    def test_i_minus_kernel_vanishing_at_t(self):
        # v = c (5 - s)^2 is 0 at t = 5, so (t - t1) |v(t)| says nothing of the
        # kernel's width (3 / c)^(1/3); its e-folds show in int v = 125 c / 3.
        for c in (1e4, 1e6, 1e9):
            expect = math.gamma(4.0 / 3.0) * (3.0 / c) ** (1.0 / 3.0)
            assert i_minus(lambda t: c * (5.0 - t) ** 2, ONE, 0.0, 5.0) == pytest.approx(expect, rel=1e-12, abs=0.0)


class TestIPlus:
    def test_plain_length(self):
        assert i_plus(ONE, ZERO, 0.0, 2.0) == pytest.approx(2.0, rel=1e-10)

    def test_inverse_square_weight(self):
        assert i_plus(lambda t: t * t, ZERO, 1.0, 4.0) == pytest.approx(0.75, rel=1e-10)

    def test_exponential_kernel(self):
        assert i_plus(ONE, ONE, 0.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-10)

    def test_nonpositive_u_rejected(self):
        with pytest.raises(NonPositiveWeightError):
            i_plus(lambda t: 1.0 - t, ZERO, 0.0, 2.0)


class TestIMinus:
    def test_zero_integrand(self):
        assert i_minus(ONE, ZERO, 0.0, 2.0) == 0.0

    def test_unweighted_length(self):
        assert i_minus(ZERO, ONE, 0.0, 3.0) == pytest.approx(3.0, rel=1e-10)

    def test_exponential_kernel(self):
        assert i_minus(ONE, ONE, 0.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-10)

    def test_non_finite_kernel_at_upper_limit_raises(self):
        with pytest.raises(QuadratureBudgetError):
            i_minus(lambda t: math.inf if t == 1.0 else 1.0, ONE, 0.0, 1.0)
        with pytest.raises(QuadratureBudgetError):
            i_minus(lambda t: 1e300, ONE, 0.0, 1e10)


def test_adaptive_quad_raises_at_the_first_non_finite_panel():
    calls = []

    def nan(x):
        calls.append(x)
        return math.nan

    with pytest.raises(QuadratureBudgetError):
        adaptive_quad(nan, 0.0, 1.0)
    assert len(calls) == 15


#: Each entry point of the chain at a limit that is not finite, with an integrand finite everywhere.
NON_FINITE_LIMITS = {
    "adaptive_quad": lambda: adaptive_quad(ONE, 0.0, math.nan),
    "adaptive_quad_from_minus_inf": lambda: adaptive_quad(ONE, -math.inf, 0.0),
    "cumulative_integral": lambda: CumulativeIntegral(ONE, 0.0)(math.inf),
    "i_plus": lambda: i_plus(ONE, ZERO, 0.0, math.inf),
    "i_minus": lambda: i_minus(ONE, ONE, math.nan, 1.0),
    "f_bound": lambda: FBound(BoundTriple(ONE, ZERO, ONE), 0.0, 1.0, 0.0)(math.nan),
    "g_bound": lambda: GBound(BoundTriple(ONE, ZERO), ONE, 0.0, 1.0, 0.0)(math.nan),
    "weighted_tail_integrand": lambda: weighted_tail_integrand(ONE, ONE, ONE, 0.0)(math.inf),
}


@pytest.mark.parametrize("case", NON_FINITE_LIMITS)
def test_a_non_finite_limit_is_a_domain_error(case):
    with pytest.raises(DomainError, match=r"integration limits .* do not bound a finite interval"):
        NON_FINITE_LIMITS[case]()


#: Equal limits, or a chain base, that are not finite: each is a DomainError naming the limits, never an empty integral.
EQUAL_NON_FINITE_LIMITS = {
    "adaptive_quad": (lambda: adaptive_quad(ONE, math.inf, math.inf), "inf and inf"),
    "adaptive_quad_minus_inf": (lambda: adaptive_quad(ONE, -math.inf, -math.inf), "-inf and -inf"),
    "adaptive_quad_nan": (lambda: adaptive_quad(ONE, math.nan, math.nan), "nan and nan"),
    "i_plus": (lambda: i_plus(ONE, ZERO, math.inf, math.inf), "inf and inf"),
    "i_minus": (lambda: i_minus(ONE, ONE, math.inf, math.inf), "inf and inf"),
    "cumulative_integral": (lambda: CumulativeIntegral(ONE, math.inf), "inf and inf"),
    "cumulative_integral_nan": (lambda: CumulativeIntegral(ONE, math.nan), "nan and nan"),
    "f_bound": (lambda: FBound(BoundTriple(ONE, ZERO, ONE), math.inf, 1.0, 0.0), "inf and inf"),
}


@pytest.mark.parametrize("case", EQUAL_NON_FINITE_LIMITS)
def test_equal_non_finite_limits_are_a_domain_error(case):
    call, limits = EQUAL_NON_FINITE_LIMITS[case]
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == f"integration limits {limits} do not bound a finite interval"


@settings(max_examples=25, deadline=None, derandomize=True)
@given(m=st.floats(0.05, 2.95))
def test_i_plus_split_additivity(m):
    u = lambda t: 1.0 + t * t
    v = math.cos
    whole = i_plus(u, v, 0.0, 3.0)
    head = i_plus(u, v, 0.0, m)
    weight = math.exp(-adaptive_quad(v, 0.0, m, 1e-13, 1e-12))
    tail = i_plus(u, v, m, 3.0)
    assert whole == pytest.approx(head + weight * tail, abs=1e-8)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(m=st.floats(0.05, 2.95))
def test_i_minus_split_additivity(m):
    v = math.cos
    x = lambda t: 1.0 + 0.5 * math.sin(t)
    whole = i_minus(v, x, 0.0, 3.0)
    head = i_minus(v, x, 0.0, m)
    weight = math.exp(-adaptive_quad(v, m, 3.0, 1e-13, 1e-12))
    tail = i_minus(v, x, m, 3.0)
    assert whole == pytest.approx(weight * head + tail, abs=1e-8)


class TestEvalF:
    def test_zero_exponent_returns_abs_c1(self):
        b = BoundTriple(P=ONE, Q=ZERO, R=ZERO)
        assert FBound(b, 0.0, -3.0, 0.0)(2.0) == pytest.approx(3.0, rel=1e-10)

    def test_at_base_point_exact(self):
        b = BoundTriple(P=ONE, Q=ZERO, R=ZERO)
        assert FBound(b, 0.5, -7.25, 4.0)(0.5) == 7.25

    def test_unit_exponent(self):
        b = BoundTriple(P=ONE, Q=ZERO, R=ZERO)
        assert FBound(b, 0.0, 2.0, 1.0)(1.0) == pytest.approx(2.0 * math.e, rel=1e-10)

    def test_negative_r_contributes(self):
        b = BoundTriple(P=ONE, Q=ZERO, R=lambda t: -1.0)
        assert FBound(b, 0.0, 1.0, 0.0)(1.0) == pytest.approx(math.exp(0.5), rel=1e-10)

    def test_monotone_in_t_for_nonpositive_r(self):
        b = BoundTriple(P=lambda t: 1.0 + t, Q=ZERO, R=lambda t: -math.exp(-t))
        values = [FBound(b, 0.0, 1.0, 0.5)(t) for t in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a <= b_ + 1e-12 for a, b_ in zip(values, values[1:]))

    def test_tolerance_halving_is_stable(self):
        b = BoundTriple(P=lambda t: 1.0 + t * t, Q=math.sin, R=lambda t: -1.0 / (1.0 + t))
        coarse = FBound(b, 0.0, 1.0, 1.0, rel_tol=1e-8)(3.0)
        fine = FBound(b, 0.0, 1.0, 1.0, rel_tol=5e-9)(3.0)
        assert abs(coarse - fine) <= 1e-8 * abs(fine) + 1e-12

    def test_overflow_raises_range_error(self):
        b = BoundTriple(P=ONE, Q=ZERO, R=lambda t: -1e6)
        with pytest.raises(RangeOverflowError):
            FBound(b, 0.0, 1.0, 0.0)(10.0)

    def test_zero_c1_rejected(self):
        b = BoundTriple(P=ONE, Q=ZERO, R=ZERO)
        with pytest.raises(Exception):
            FBound(b, 0.0, 0.0, 0.0)(1.0)


class TestEvalG:
    def test_zero_exponent(self):
        b = BoundTriple(P=ONE, Q=ZERO)
        assert GBound(b, ZERO, 0.0, -4.0, 0.0)(5.0) == pytest.approx(4.0, rel=1e-10)

    def test_running_integral(self):
        b = BoundTriple(P=ONE, Q=ZERO)
        assert GBound(b, ONE, 0.0, 1.0, 0.0)(2.0) == pytest.approx(math.exp(2.0), rel=1e-10)

    def test_combined_exponent(self):
        b = BoundTriple(P=lambda t: 2.0, Q=ZERO)
        assert GBound(b, ONE, 0.0, 3.0, 2.0)(2.0) == pytest.approx(3.0 * math.exp(3.0), rel=1e-10)


class TestCumulativeIntegral:
    def test_matches_direct_quadrature(self):
        acc = CumulativeIntegral(math.cos, 0.0)
        for t in (0.3, 2.0, 1.1, 0.7, 3.5, 3.5):
            assert acc(t) == pytest.approx(math.sin(t), abs=1e-10)

    def test_backward_queries(self):
        acc = CumulativeIntegral(math.cos, 1.0)
        assert acc(-1.0) == pytest.approx(math.sin(-1.0) - math.sin(1.0), abs=1e-10)


def nested_reference(q, r, p, t):
    """(K, W, T1, T2)(t) of ``weighted_chain`` by nested adaptive quadrature, with no memo."""
    tol = {"abs_tol": 1e-13, "rel_tol": 1e-12}
    K = lambda s: adaptive_quad(q, 0.0, s, **tol)
    W = lambda s: adaptive_quad(lambda u: math.exp(K(u)) * r(u), 0.0, s, **tol)
    T1 = adaptive_quad(lambda s: math.exp(-K(s)) / p(s), 0.0, t, **tol)
    T2 = adaptive_quad(lambda s: math.exp(-K(s)) * W(s) / p(s), 0.0, t, **tol)
    return K(t), W(t), T1, T2


class TestCumulativeChain:
    C = 0.7

    def closed_form(self, t):
        c = self.C
        return (c * t, math.expm1(c * t) / c, -math.expm1(-c * t) / c, t / c + math.expm1(-c * t) / (c * c))

    def test_constant_coefficients_closed_form(self):
        # q = c, r = p = 1: K = ct, W = (e^{ct} - 1)/c, T1 = (1 - e^{-ct})/c, T2 = t/c - (1 - e^{-ct})/c^2.
        chain = weighted_chain(lambda t: (self.C, 1.0, 1.0), 0.0, lead=True)
        # Ascending, repeated, backward from a knot, and left of the base.
        for t in (0.5, 1.25, 3.0, 3.0, 2.2, 0.9, 0.9, 6.0, -1.5, -0.75):
            got = chain(t)
            for value, expect in zip(got, self.closed_form(t)):
                assert value == pytest.approx(expect, rel=1e-12)

    def test_backward_from_a_right_base(self):
        # The coefficients do not depend on t, so the chain from base 4 is the closed form at t - 4.
        chain = weighted_chain(lambda t: (self.C, 1.0, 1.0), 4.0, lead=True)
        for t in (1.0, 2.5, 1.0, 3.9):
            for value, expect in zip(chain(t), self.closed_form(t - 4.0)):
                assert value == pytest.approx(expect, rel=1e-12)

    def test_matches_nested_adaptive_quadrature(self):
        q = math.sin
        r = lambda t: math.exp(-t) * math.cos(t)
        p = lambda t: 1.0 + 0.25 * t * t
        chain = weighted_chain(lambda t: (q(t), r(t), p(t)), 0.0, lead=True)
        for t in (0.3, 1.7, 4.0, 2.5, 6.0, 5.9, -2.0):
            for value, ref in zip(chain(t), nested_reference(q, r, p, t)):
                assert value == pytest.approx(ref, abs=1e-11)

    def test_each_level_honours_its_own_budget(self):
        peak = lambda t: 1.0 / (1e-4 + (t - 0.3) ** 2)
        exact = 100.0 * (math.atan(70.0) + math.atan(30.0))
        # A one-level chain's c0 is the sample, a longer chain's the sample's first column.
        loose = CumulativeChain(peak, ("c0",), 0.0, [(0.1, 0.1)])(1.0)[0]
        assert 1e-8 < abs(loose / exact - 1.0) <= 0.1
        # The panels are shared, so a tight budget on either level makes both levels tight.
        for budgets in ([(0.1, 0.1), (1e-14, 1e-13)], [(1e-14, 1e-13), (0.1, 0.1)]):
            for value in CumulativeChain(lambda t: (peak(t),), ("c0", "c0"), 0.0, budgets)(1.0):
                assert value == pytest.approx(exact, rel=1e-12)

    def test_node_matrix_integrates_degree_14_exactly(self):
        for d in range(15):
            for x, row in zip(_NODES, _S):
                exact = (x ** (d + 1) - (-1.0) ** (d + 1)) / (d + 1)
                assert abs(sum(s * xj ** d for s, xj in zip(row, _NODES)) - exact) <= 1e-14

    def test_node_matrix_matches_exact_rationals(self):
        # S V = B with V[j][k] = P_k(x_j) and B[i][k] = integral_{-1}^{x_i} P_k, solved
        # exactly on the float nodes: Legendre recurrence, then Gauss-Jordan on [V^T | B^T].
        n = len(_NODES)
        xs = [Fraction(x) for x in _NODES]
        P = []
        for x in xs:
            row = [Fraction(1), x]
            for d in range(1, n):
                row.append(((2 * d + 1) * x * row[d] - d * row[d - 1]) / (d + 1))
            P.append(row)
        B = [[x + 1] + [(p[k + 1] - p[k - 1]) / (2 * k + 1) for k in range(1, n)] for x, p in zip(xs, P)]
        aug = [[P[j][k] for j in range(n)] + [B[i][k] for i in range(n)] for k in range(n)]
        for c in range(n):
            pivot = next(r for r in range(c, n) if aug[r][c] != 0)
            aug[c], aug[pivot] = aug[pivot], aug[c]
            top = [v / aug[c][c] for v in aug[c]]
            aug[c] = top
            for r in range(n):
                f = aug[r][c]
                if r != c and f != 0:
                    aug[r] = [v - f * t for v, t in zip(aug[r], top)]
        # aug[j][n + i] is now the exact S[i][j].
        assert len(_S) == n and all(len(row) == n for row in _S)
        for i, row in enumerate(_S):
            for j, s in enumerate(row):
                assert abs(Fraction(s) - aug[j][n + i]) <= Fraction(1e-15)

    def test_nan_integrand_raises(self):
        chain = CumulativeChain(lambda t: (t,), ("1.0", "float('nan') if c0 > 0.5 else y0"), 0.0)
        assert chain(0.25) == pytest.approx((0.25, 0.03125), rel=1e-14)
        for _ in range(2):
            with pytest.raises(QuadratureBudgetError):
                chain(1.0)
        assert chain(0.5) == pytest.approx((0.5, 0.125), rel=1e-14)

    def test_overflowing_exponential_raises(self):
        chain = weighted_chain(lambda t: (1000.0, 1.0), 0.0)
        with pytest.raises(OverflowError):
            chain(1.0)

    def test_budget_exhaustion_raises(self):
        # About 16k periods on [0, 1] need more panels than the budget allows.
        chain = CumulativeChain(lambda t: math.sin(1e5 * t), ("c0",), 0.0)
        with pytest.raises(QuadratureBudgetError):
            chain(1.0)

    def test_first_non_positive_weight_in_node_order_raises(self):
        # P is 0 from 0.6 on: the first panel, [0, 1], samples its nodes in
        # ascending order and stops at the first one past 0.6.
        seen = []

        def P(t):
            seen.append(t)
            return 1.0 if t < 0.6 else 0.0

        nodes = [0.5 + 0.5 * x for x in _NODES]
        first = next(i for i, tau in enumerate(nodes) if tau >= 0.6)
        with pytest.raises(NonPositiveWeightError, match=rf"^P\({nodes[first]!r}\) = 0\.0 <= 0$"):
            FBound(BoundTriple(P=P, Q=ONE, R=ONE), 0.0, 1.0, 1.0)(1.0)
        assert seen == nodes[: first + 1]

    def test_first_overflowing_exponent_in_node_order_raises(self):
        # V = int Q = 1000 t passes EXP_CAP = 690 first at the node nearest
        # above t = 0.69, where the W level evaluates e^V.
        taus = [0.5 + 0.5 * x for x in _NODES]
        first = next(i for i, tau in enumerate(taus) if 1000.0 * tau > 690.0)
        assert 1000.0 * taus[first - 1] < 680.0 < 700.0 < 1000.0 * taus[first]
        with pytest.raises(RangeOverflowError, match=r"^exponent overflow: exp\(") as info:
            FBound(BoundTriple(P=ONE, Q=lambda t: 1000.0, R=ONE), 0.0, 1.0, 1.0)(1.0)
        exponent = float(str(info.value)[len("exponent overflow: exp(") : -1])
        assert exponent == pytest.approx(1000.0 * taus[first], rel=1e-13)


class TestDivergenceProbe:
    @pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf])
    def test_non_finite_t0_raises(self, t0):
        with pytest.raises(DomainError, match=rf"^divergence_probe needs a finite t0, got {t0!r}$"):
            divergence_probe(lambda t: 1.0, t0)

    def test_zero_integrand_converges(self):
        verdict = divergence_probe(lambda t: 0.0, 1.0)
        assert verdict.status == CONVERGING

    def test_harmonic_tail_diverges(self):
        verdict = divergence_probe(lambda t: 1.0 / t, 1.0)
        assert verdict.status == DIVERGING
        # each octave adds log(2)
        for (T, partial) in verdict.horizons:
            assert partial == pytest.approx(math.log(T), rel=1e-6)

    def test_inverse_square_converges(self):
        verdict = divergence_probe(lambda t: 1.0 / (t * t), 1.0)
        assert verdict.status == CONVERGING
        assert all(r == pytest.approx(0.5, rel=1e-5) for r in verdict.ratios)

    # The zero floor is relative to the largest increment: scaling the integrand keeps the verdict.
    @pytest.mark.parametrize("c", [1e-16, 1e-300])
    def test_a_scaled_harmonic_tail_diverges(self, c):
        assert divergence_probe(lambda t: c / t, 1.0).status == DIVERGING

    @pytest.mark.parametrize("c", [1e-16, 1e-300])
    def test_a_scaled_inverse_square_converges(self, c):
        verdict = divergence_probe(lambda t: c / (t * t), 1.0)
        assert verdict.status == CONVERGING
        assert all(r == pytest.approx(0.5, rel=1e-5) for r in verdict.ratios)

    def test_negative_sample_rejected(self):
        with pytest.raises(NegativeIntegrandError):
            divergence_probe(lambda t: -1.0, 1.0)

    # The sign check is relative to the largest |sample|: a negative integrand is rejected at every scale,
    # and round-off below 1e-12 of the integrand's size is let through at every scale.
    @pytest.mark.parametrize("c", [1.0, 1e-13, 1e-300])
    @pytest.mark.parametrize("shape", [lambda t: 1.0, lambda t: 1.0 / t], ids=["constant", "harmonic"])
    def test_a_negative_integrand_is_rejected_at_every_scale(self, shape, c):
        with pytest.raises(NegativeIntegrandError, match=r"^integrand\(.*\) = -.* < 0$"):
            divergence_probe(lambda t: -c * shape(t), 1.0)

    @pytest.mark.parametrize("c", [1e-20, 1.0, 1e20])
    def test_a_slightly_negative_tail_is_accepted_at_every_scale(self, c):
        assert divergence_probe(lambda t: c * (1.0 / (t * t) if t < 1e5 else -1e-13), 1.0).status == CONVERGING

    # A sample is checked against the samples before it, so the probe stops at the first one that fails.
    def test_a_negative_infinite_integrand_is_rejected(self):
        with pytest.raises(NegativeIntegrandError, match=r"^integrand\(.*\) = -inf < 0$"):
            divergence_probe(lambda t: -math.inf, 1.0)

    def test_a_negative_integrand_is_rejected_at_its_first_sample(self):
        calls = []

        def integrand(t):
            calls.append(t)
            return -1.0

        with pytest.raises(NegativeIntegrandError):
            divergence_probe(integrand, 1.0)
        assert len(calls) == 1

    # With no earlier sample to set the scale, a negative first sample fails at every size.
    @pytest.mark.parametrize("c", [1e-300, 1.0, 1e300])
    def test_a_negative_first_sample_is_rejected_at_every_scale(self, c):
        samples = iter([-1e-20 * c])
        with pytest.raises(NegativeIntegrandError):
            divergence_probe(lambda t: next(samples, c / (t * t)), 1.0)

    def test_horizons_strictly_increasing(self):
        verdict = divergence_probe(lambda t: 1.0 / t, 1.0)
        ts = [T for T, _ in verdict.horizons]
        assert ts == sorted(ts)
        assert len(set(ts)) == len(ts)


class TestWeightedTailIntegrand:
    def test_constant_kernel_closed_form(self):
        # inner integral of exp(-c (tau - s)) over [t0, tau] = (1 - e^{-c dt}) / c
        c = 3.0
        fn = weighted_tail_integrand(ONE, lambda t: c, ONE, 1.0)
        for tau in (1.5, 4.0, 100.0, 1e5):
            expect = (1.0 - math.exp(-c * (tau - 1.0))) / c
            assert fn(tau) == pytest.approx(expect, rel=1e-7)

    def test_zero_kernel_linear_growth(self):
        fn = weighted_tail_integrand(ONE, ZERO, ONE, 1.0)
        assert fn(9.0) == pytest.approx(8.0, rel=1e-8)

    def test_probe_on_tail_diverges(self):
        fn = weighted_tail_integrand(ONE, lambda t: 3.0, ONE, 1.0)
        assert divergence_probe(fn, 1.0).status == DIVERGING

    @pytest.mark.parametrize("case", sorted(PROBE_TABLE))
    def test_probe_status_and_ratios(self, case):
        P, q, r, t0, status, ratios = PROBE_TABLE[case]
        verdict = divergence_probe(weighted_tail_integrand(P, q, r, t0), t0)
        assert verdict.status == status
        assert verdict.ratios == pytest.approx(ratios, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize(
        "P, q, r, t0",
        [(lambda t: 1.0 + t, lambda t: 1.0 + 1.0 / (1.0 + t), lambda t: 2.0, 0.0), (ONE, lambda t: 15.0, math.cos, 0.0), (ONE, lambda t: t, ONE, 0.0)],
        ids=["slow_kernel", "windowed_oscillating", "narrowing_kernel"],
    )
    def test_query_order_does_not_matter(self, P, q, r, t0):
        taus = [t0 + 0.01 * 1.37 ** k for k in range(40)]
        shuffled = list(taus)
        random.Random(5).shuffle(shuffled)
        values = []
        for order in (taus, taus[::-1], shuffled):
            fn = weighted_tail_integrand(P, q, r, t0)
            values.append({tau: fn(tau) for tau in order})
        for other in values[1:]:
            for tau in taus:
                assert other[tau] == pytest.approx(values[0][tau], rel=1e-9, abs=0.0)
