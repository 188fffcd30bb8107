"""Pinned outcomes of the criterion checkers.

Every check of every checker is driven to its own first failure on a small
grid, and seeded random polynomial fields go through ``check_t3_4`` and
``check_t3_6``.  Each outcome is recorded as (status, hypothesis, t, w,
detail) with ``float.hex`` coordinates, or (status, reason) for an
Inconclusive certificate, so any change in scan order, witness point or
detail string shows up here.  No case has a non-finite sample, a
two-sided even-monotonicity break in ``check_t3_3`` or a nonpositive p0.
"""

import math
import random

import pytest

from rcert import (
    BoundTriple,
    GridSpec,
    InitialData,
    IntegrationOptions,
    Rectangle,
    check_t3_1,
    check_t3_2,
    check_t3_3,
    check_t3_4,
    check_t3_5,
    check_t3_6,
)
from rcert.applications import EFParams, ef_equation, kneser_majorant
from conftest import make_eq

ENVELOPE_REGION = Rectangle(0.0, 4.0, -math.inf, math.inf)
UNIT_IC = InitialData(0.0, 1.0, 0.0)
BOX = Rectangle(0.0, 4.0, -2.0, 2.0)
G17 = GridSpec(17, 17)
G9 = GridSpec(9, 9)


def const(c):
    return lambda t: c


def _hex(x):
    return None if x is None else float(x).hex()


def outcome(cert):
    if cert.witness is not None:
        w = cert.witness
        return (cert.status, w.hypothesis, _hex(w.t), _hex(w.w), w.detail)
    if cert.reason is not None:
        return (cert.status, cert.reason)
    return (cert.status,)


# -- T3_1: p0 >= P, q0/p0 >= Q, R <= r0 <= 0 --------------------------------


def t3_1(eq, b=BoundTriple(P=const(1.0), Q=const(0.0), R=const(-0.5))):
    return check_t3_1(eq, UNIT_IC, b, region=ENVELOPE_REGION, grid=G17)


T3_1 = {
    "t3_1_p0_below_P": lambda: t3_1(make_eq(p_fn=lambda t, w: 1.0 + w * w - 0.1 * t)),
    "t3_1_ratio_below_Q": lambda: t3_1(make_eq(q_fn=lambda t, w: 0.2 * w - 0.1 * t)),
    "t3_1_r0_positive": lambda: t3_1(make_eq(r_fn=lambda t, w: 0.1 * t * w - 0.05)),
    "t3_1_r0_below_R": lambda: t3_1(make_eq(r_fn=lambda t, w: -0.1 * t - 0.2 * w * w)),
    "t3_1_verified": lambda: t3_1(make_eq(r_fn=lambda t, w: -0.1)),
}


# -- T3_2: p0 >= P, q0 >= Q >= 0, r0 <= 0, |p0*r0/q0| <= Qtilde --------------


def t3_2(eq, b=BoundTriple(P=const(1.0), Q=const(1.0)), qtilde=const(0.5)):
    return check_t3_2(eq, UNIT_IC, b, qtilde, region=ENVELOPE_REGION, grid=G17)


T3_2 = {
    "t3_2_p0_below_P": lambda: t3_2(make_eq(p_fn=lambda t, w: 1.0 + 0.5 * w * w - 0.2 * t, q=1.0)),
    "t3_2_q0_below_Q": lambda: t3_2(make_eq(q_fn=lambda t, w: 1.0 + 0.5 * w * w - 0.2 * t)),
    "t3_2_r0_positive": lambda: t3_2(make_eq(q=1.0, r_fn=lambda t, w: 0.05 * t * w)),
    "t3_2_cross_term": lambda: t3_2(make_eq(q=1.0, r_fn=lambda t, w: -0.1 * t - 0.1 * abs(w))),
    "t3_2_Q_negative_row": lambda: t3_2(make_eq(q=1.0), b=BoundTriple(P=const(1.0), Q=lambda t: 1.0 - t)),
    "t3_2_ratio_undefined": lambda: t3_2(
        make_eq(q_fn=lambda t, w: w * w, r_fn=lambda t, w: -(w * w + 1e-3)),
        b=BoundTriple(P=const(1.0), Q=const(0.0)),
        qtilde=const(2.0),
    ),
    "t3_2_verified": lambda: t3_2(make_eq(q=1.0, r=-0.2)),
}


# -- T3_3: comparison against a nonvanishing majorant -----------------------

_KNESER = EFParams(rho=0.0, sigma=-6.0, n=3.0)


@pytest.fixture(scope="module")
def majorant():
    return kneser_majorant(_KNESER, 1.0, IntegrationOptions(horizon=10.0))


def kneser_r(t, w):
    return -(t ** -6.0) * abs(w) ** 2


def t3_3(eq0, eq1, maj):
    return check_t3_3(eq0, eq1, maj, InitialData(1.0, 1.0, 0.0), region=Rectangle(1.0, 10.0, -5.0, 5.0), grid=G9)


T3_3 = {
    "t3_3_p_mismatch": lambda maj: t3_3(
        make_eq(p_fn=lambda t, w: 1.0 + 0.01 * max(0.0, w - 2.0), r_fn=kneser_r, t0=1.0),
        ef_equation(_KNESER, t0=1.0),
        maj,
    ),
    "t3_3_p_decreases_nonnegative": lambda maj: t3_3(
        make_eq(p_fn=lambda t, w: 2.0 - 0.01 * max(w, 0.0) * t, r_fn=kneser_r, t0=1.0),
        make_eq(p_fn=lambda t, w: 2.0 - 0.01 * max(w, 0.0) * t, r_fn=kneser_r, t0=1.0),
        maj,
    ),
    "t3_3_p_increases_nonpositive": lambda maj: t3_3(
        make_eq(p_fn=lambda t, w: 2.0 + 0.01 * min(w + 1.0, 0.0), r_fn=kneser_r, t0=1.0),
        make_eq(p_fn=lambda t, w: 2.0 + 0.01 * min(w + 1.0, 0.0), r_fn=kneser_r, t0=1.0),
        maj,
    ),
    "t3_3_r0_positive": lambda maj: t3_3(
        make_eq(r_fn=lambda t, w: -1.0 + 0.1 * w * w, t0=1.0),
        make_eq(r=-10.0, t0=1.0),
        maj,
    ),
    "t3_3_r1_above_band_min": lambda maj: t3_3(
        make_eq(r_fn=lambda t, w: -1.0 - 0.1 * w * w, t0=1.0),
        make_eq(r_fn=lambda t, w: -1.2 - 0.01 * t * w * w, t0=1.0),
        maj,
    ),
    "t3_3_ratio_above_q1p1": lambda maj: t3_3(
        make_eq(q_fn=lambda t, w: 0.1 * w - 0.05 * t, r=-1.0, t0=1.0),
        make_eq(q=0.0, r=-2.0, t0=1.0),
        maj,
    ),
    "t3_3_verified": lambda maj: t3_3(ef_equation(_KNESER, t0=1.0), ef_equation(_KNESER, t0=1.0), maj),
}


# -- T3_4: p0 >= P, q0/p0 >= Q, r0 >= 0 --------------------------------------


def t3_4(eq, b=BoundTriple(P=const(1.0), Q=const(-0.5))):
    return check_t3_4(eq, b, region=BOX, grid=G17)


T3_4 = {
    "t3_4_p0_below_P": lambda: t3_4(make_eq(p_fn=lambda t, w: 1.0 + w * w - 0.2 * t, r=1.0)),
    "t3_4_ratio_below_Q": lambda: t3_4(make_eq(p=2.0, q_fn=lambda t, w: 0.5 * w - 0.2 * t, r=1.0)),
    "t3_4_r0_negative": lambda: t3_4(make_eq(r_fn=lambda t, w: 1.0 - 0.3 * t * abs(w))),
    "t3_4_verified": lambda: t3_4(make_eq(r_fn=lambda t, w: w * w)),
}


# -- T3_5: sign, eps bands, N band, tail bands --------------------------------


def t3_5(eq, family, b=BoundTriple(P=const(1.0), Q=const(0.0))):
    return check_t3_5(
        eq,
        b,
        family,
        N=2.0,
        eps0=1.0,
        region=Rectangle(0.0, 4.0, -8.0, 8.0),
        grid=G9,
        eps_samples=[1.0, 0.5],
        eps_tail_samples=[2.0, 4.0],
        osc_horizon=20.0,
        osc_min_zeros=3,
    )


def family_of(inner=(1.0, 0.0, 1.0), tail=(1.0, 0.0, 1.0)):
    def family(eps):
        p, q, r = inner if eps <= 1.0 else tail
        return (const(p), const(q), const(r))

    return family


HARMONIC = dict(p=1.0, q=0.0, r=1.0)

T3_5 = {
    "t3_5_r0_negative": lambda: t3_5(make_eq(r_fn=lambda t, w: 1.0 - 0.1 * t * w * w), family_of()),
    "t3_5_eps_band_p0": lambda: t3_5(make_eq(p_fn=lambda t, w: 1.0 + 0.01 * t * abs(w), r=1.0), family_of()),
    "t3_5_eps_band_ratio": lambda: t3_5(make_eq(q_fn=lambda t, w: 0.1 * w - 0.05 * t, r=1.0), family_of()),
    "t3_5_eps_band_r0": lambda: t3_5(make_eq(r_fn=lambda t, w: 1.0 + 0.02 * t * w), family_of()),
    "t3_5_N_band_p0": lambda: t3_5(
        make_eq(p_fn=lambda t, w: 1.0 + 0.1 * t * max(0.0, 1.0 - abs(w)), r=1.0),
        family_of(inner=(2.0, 0.0, 1.0)),
    ),
    "t3_5_N_band_ratio": lambda: t3_5(
        make_eq(q_fn=lambda t, w: 0.1 * t * max(0.0, 1.0 - abs(w)), r=1.0), family_of(inner=(1.0, 0.0, 1.0))
    ),
    "t3_5_tail_band_p0": lambda: t3_5(
        make_eq(p_fn=lambda t, w: 1.0 + 0.01 * t * max(0.0, abs(w) - 2.0), r=1.0),
        family_of(inner=(5.0, 0.0, 1.0)),
    ),
    "t3_5_tail_band_ratio": lambda: t3_5(
        make_eq(q_fn=lambda t, w: 0.01 * t * max(0.0, abs(w) - 2.0) - 0.5 * max(0.0, 1.0 - abs(w)), r=1.0),
        family_of(inner=(1.0, -1.0, 1.0)),
    ),
    "t3_5_tail_band_r0": lambda: t3_5(
        make_eq(r_fn=lambda t, w: 2.0 - 0.01 * t * max(0.0, abs(w) - 1.0)), family_of(tail=(1.0, 0.0, 1.9))
    ),
    "t3_5_verified": lambda: t3_5(make_eq(**HARMONIC), family_of()),
}


# -- T3_6: r0 >= 0 and p0, q0/p0, -r0 even-monotone ---------------------------


def t3_6(eq):
    return check_t3_6(eq, region=BOX, grid=G17)


T3_6 = {
    "t3_6_r0_negative": lambda: t3_6(make_eq(r_fn=lambda t, w: 1.0 - 0.2 * t * abs(w))),
    "t3_6_p0_increases_nonpositive": lambda: t3_6(make_eq(p_fn=lambda t, w: 2.0 + 0.1 * t * min(w + 1.0, 0.0), r=1.0)),
    "t3_6_p0_decreases_nonnegative": lambda: t3_6(make_eq(p_fn=lambda t, w: 2.0 - 0.1 * t * max(w - 1.0, 0.0), r=1.0)),
    "t3_6_ratio_increases_nonpositive": lambda: t3_6(make_eq(q_fn=lambda t, w: 0.1 * t * w, r=1.0)),
    "t3_6_ratio_decreases_nonnegative": lambda: t3_6(make_eq(q_fn=lambda t, w: 0.1 * t * max(0.5 - abs(w - 1.0), 0.0), r=1.0)),
    "t3_6_neg_r0_increases_nonpositive": lambda: t3_6(make_eq(r_fn=lambda t, w: 1.0 + 0.1 * t * w * w)),
    "t3_6_neg_r0_decreases_nonnegative": lambda: t3_6(make_eq(r_fn=lambda t, w: 1.0 + 0.1 * t * max(0.5 - abs(w - 1.0), 0.0))),
    "t3_6_verified": lambda: t3_6(make_eq(q_fn=lambda t, w: w * w, r_fn=lambda t, w: 1.0 / (1.0 + w * w))),
}


GOLDEN = {'t3_1_p0_below_P': ('Falsified', 'p0 >= P', '0x1.0000000000000p-2', '-0x1.044993eca9aa4p-3', 'p0=0.9911527484830668 < P=1.0'),
 't3_1_r0_below_R': ('Falsified', 'R <= r0 <= 0', '0x1.4000000000000p+0', '-0x1.7a99772135e9ap+0', 'r0=-0.5624315238412864 < R=-0.5'),
 't3_1_r0_positive': ('Falsified', 'R <= r0 <= 0', '0x1.0000000000000p-1', '0x1.10c43eaf1f156p+0', 'r0=0.003274722945892948 > 0'),
 't3_1_ratio_below_Q': ('Falsified', 'q0/p0 >= Q', '0x0.0p+0', '-0x1.004189374bc6ap+0', 'q0/p0=-0.2002 < Q=0.0'),
 't3_1_verified': ('Verified',),
 't3_2_Q_negative_row': ('Falsified', 'q0 >= Q >= 0', '0x1.4000000000000p+0', None, 'Q=-0.25 < 0'),
 't3_2_cross_term': ('Falsified',
                     '|p0*r0/q0| <= Qtilde',
                     '0x1.2000000000000p+1',
                     '-0x1.8a65504efe588p+1',
                     '|p0*r0/q0|=0.5331216848918022 > Qtilde=0.5'),
 't3_2_p0_below_P': ('Falsified', 'p0 >= P', '0x1.0000000000000p-2', '-0x1.22578d92bb234p-2', 'p0=0.9901966472998085 < P=1.0'),
 't3_2_q0_below_Q': ('Falsified', 'q0 >= Q >= 0', '0x1.0000000000000p-2', '-0x1.22578d92bb234p-2', 'q0=0.9901966472998085 < Q=1.0'),
 't3_2_r0_positive': ('Falsified', 'r0 <= 0', '0x1.0000000000000p-2', '0x1.22578d92bb238p-3', 'r0=0.0017721069579169164 > 0'),
 't3_2_ratio_undefined': ('Inconclusive', 'ratio undefined: q0 = 0 with r0 = -0.001 at (t=0.0, w=0.0)'),
 't3_2_verified': ('Verified',),
 't3_3_p_decreases_nonnegative': ('Falsified',
                                  'p0 == p1, even-monotone in w',
                                  '0x1.0000000000000p+0',
                                  '0x1.4000000000000p+0',
                                  'p0 decreases on the nonnegative side'),
 't3_3_p_increases_nonpositive': ('Falsified',
                                  'p0 == p1, even-monotone in w',
                                  '0x1.0000000000000p+0',
                                  '-0x1.e000000000000p+1',
                                  'p0 increases on the nonpositive side'),
 't3_3_p_mismatch': ('Falsified', 'p0 == p1, even-monotone in w', '0x1.0000000000000p+0', '0x1.4000000000000p+1', 'p0=1.005 != p1=1.0'),
 't3_3_r0_positive': ('Falsified',
                      'r1(w1) <= r0(w) <= 0 for |w| <= |w1|',
                      '0x1.0000000000000p+0',
                      '-0x1.e000000000000p+1',
                      'r0=0.40625 > 0'),
 't3_3_r1_above_band_min': ('Falsified',
                            'r1(w1) <= r0(w) <= 0 for |w| <= |w1|',
                            '0x1.0000000000000p+0',
                            '-0x1.4000000000000p+1',
                            'r1(w1)=-1.2625 > min r0 over band = -1.625'),
 't3_3_ratio_above_q1p1': ('Falsified',
                           'q0/p0(w) <= q1/p1(w1) for |w| <= |w1|',
                           '0x1.0000000000000p+0',
                           '-0x1.4000000000000p+0',
                           'max q0/p0 over band = 0.075 > q1/p1(w1)=0.0'),
 't3_3_verified': ('Verified',),
 't3_4_p0_below_P': ('Falsified', 'p0 >= P', '0x1.0000000000000p-2', '0x0.0p+0', 'p0=0.95 < P=1.0'),
 't3_4_r0_negative': ('Falsified', 'r0 >= 0', '0x1.c000000000000p+0', '-0x1.0000000000000p+1', 'r0=-0.050000000000000044 < 0'),
 't3_4_ratio_below_Q': ('Falsified', 'q0/p0 >= Q', '0x1.0000000000000p-2', '-0x1.0000000000000p+1', 'q0/p0=-0.525 < Q=-0.5'),
 't3_4_verified': ('Verified',),
 't3_5_N_band_p0': ('Falsified',
                    'p0 <= P, q0/p0 <= Q for |w| <= N with diverging reciprocal tail',
                    '0x1.0000000000000p-1',
                    '0x0.0p+0',
                    'p0=1.05 > P=1.0'),
 't3_5_N_band_ratio': ('Falsified',
                       'p0 <= P, q0/p0 <= Q for |w| <= N with diverging reciprocal tail',
                       '0x1.0000000000000p-1',
                       '0x0.0p+0',
                       'q0/p0=0.05 > Q=0.0'),
 't3_5_eps_band_p0': ('Falsified',
                      'band ordering vs family for |w| >= eps',
                      '0x1.0000000000000p-1',
                      '-0x1.0000000000000p+3',
                      'p0=1.04 > p_eps=1.0 (eps=1.0)'),
 't3_5_eps_band_r0': ('Falsified',
                      'band ordering vs family for |w| >= eps',
                      '0x1.0000000000000p-1',
                      '-0x1.0000000000000p+3',
                      'r0=0.92 < r_eps=1.0 (eps=1.0)'),
 't3_5_eps_band_ratio': ('Falsified',
                         'band ordering vs family for |w| >= eps',
                         '0x0.0p+0',
                         '-0x1.0000000000000p+3',
                         'q0/p0=-0.8 < q_eps/p_eps=0.0 (eps=1.0)'),
 't3_5_r0_negative': ('Falsified', 'r0 >= 0', '0x1.0000000000000p-1', '-0x1.0000000000000p+3', 'r0=-2.2 < 0'),
 't3_5_tail_band_p0': ('Falsified',
                       'band ordering vs family on N <= |w| <= eps with diverging double tail',
                       '0x1.0000000000000p-1',
                       '-0x1.0000000000000p+2',
                       'p0=1.01 > p_eps=1.0 (eps=4.0)'),
 't3_5_tail_band_r0': ('Falsified',
                       'band ordering vs family on N <= |w| <= eps with diverging double tail',
                       '0x1.c000000000000p+1',
                       '-0x1.0000000000000p+2',
                       'r0=1.895 < r_eps=1.9 (eps=4.0)'),
 't3_5_tail_band_ratio': ('Falsified',
                          'band ordering vs family on N <= |w| <= eps with diverging double tail',
                          '0x1.0000000000000p-1',
                          '-0x1.0000000000000p+2',
                          'q0/p0=0.01 > q_eps=0.0 (eps=4.0)'),
 't3_5_verified': ('Verified',),
 't3_6_neg_r0_decreases_nonnegative': ('Falsified',
                                       'p0, q0/p0, -r0 even-monotone in w',
                                       '0x1.0000000000000p-2',
                                       '0x1.8000000000000p-1',
                                       '-r0 decreases on the nonnegative side'),
 't3_6_neg_r0_increases_nonpositive': ('Falsified',
                                       'p0, q0/p0, -r0 even-monotone in w',
                                       '0x1.0000000000000p-2',
                                       '-0x1.c000000000000p+0',
                                       '-r0 increases on the nonpositive side'),
 't3_6_p0_decreases_nonnegative': ('Falsified',
                                   'p0, q0/p0, -r0 even-monotone in w',
                                   '0x1.0000000000000p-2',
                                   '0x1.4000000000000p+0',
                                   'p0 decreases on the nonnegative side'),
 't3_6_p0_increases_nonpositive': ('Falsified',
                                   'p0, q0/p0, -r0 even-monotone in w',
                                   '0x1.0000000000000p-2',
                                   '-0x1.c000000000000p+0',
                                   'p0 increases on the nonpositive side'),
 't3_6_r0_negative': ('Falsified', 'r0 >= 0', '0x1.6000000000000p+1', '-0x1.0000000000000p+1', 'r0=-0.10000000000000009 < 0'),
 't3_6_ratio_decreases_nonnegative': ('Falsified',
                                      'p0, q0/p0, -r0 even-monotone in w',
                                      '0x1.0000000000000p-2',
                                      '0x1.4000000000000p+0',
                                      'q0/p0 decreases on the nonnegative side'),
 't3_6_ratio_increases_nonpositive': ('Falsified',
                                      'p0, q0/p0, -r0 even-monotone in w',
                                      '0x1.0000000000000p-2',
                                      '-0x1.c000000000000p+0',
                                      'q0/p0 increases on the nonpositive side'),
 't3_6_verified': ('Verified',)}


# -- seeded random polynomial fields ------------------------------------------


def random_poly(rng, max_t=2, max_w=3, terms=3):
    parsed = [(rng.uniform(-1.0, 1.0), rng.randint(0, max_t), rng.randint(0, max_w)) for _ in range(terms)]
    return lambda t, w: sum(c * t ** a * w ** b for c, a, b in parsed)


def random_equation(seed):
    rng = random.Random(seed)
    a, c = rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
    q = random_poly(rng)
    r0 = rng.uniform(0.0, 2.0)
    r = random_poly(rng)
    return make_eq(p_fn=lambda t, w: 1.0 + a * t * t + c * w * w, q_fn=q, r_fn=lambda t, w: r0 + 0.2 * r(t, w))


RANDOM_SEEDS = range(30)
RANDOM_BOUNDS = BoundTriple(P=const(0.9), Q=const(-1.5))


def random_outcomes(seed):
    eq = random_equation(seed)
    box = Rectangle(0.0, 2.0, -2.0, 2.0)
    return (outcome(check_t3_4(eq, RANDOM_BOUNDS, region=box, grid=G17)), outcome(check_t3_6(eq, region=box, grid=G17)))


GOLDEN_RANDOM = {0: (('Falsified', 'r0 >= 0', '0x1.e000000000000p+0', '-0x1.0000000000000p+0', 'r0=-0.028787881201859156 < 0'),
     ('Falsified', 'p0, q0/p0, -r0 even-monotone in w', '0x0.0p+0', '-0x1.c000000000000p+0', 'q0/p0 increases on the nonpositive side')),
 1: (('Falsified', 'r0 >= 0', '0x1.0000000000000p-1', '-0x1.0000000000000p+1', 'r0=-0.09086331897385014 < 0'),
     ('Falsified', 'p0, q0/p0, -r0 even-monotone in w', '0x0.0p+0', '-0x1.c000000000000p+0', 'q0/p0 increases on the nonpositive side')),
 2: (('Verified',),
     ('Falsified', 'p0, q0/p0, -r0 even-monotone in w', '0x0.0p+0', '-0x1.c000000000000p+0', 'q0/p0 increases on the nonpositive side')),
 3: (('Falsified', 'r0 >= 0', '0x1.2000000000000p+0', '0x1.0000000000000p+1', 'r0=-0.06321519687811472 < 0'),
     ('Falsified', 'p0, q0/p0, -r0 even-monotone in w', '0x0.0p+0', '-0x1.c000000000000p+0', 'q0/p0 increases on the nonpositive side')),
 4: (('Falsified', 'q0/p0 >= Q', '0x1.0000000000000p-2', '-0x1.0000000000000p+1', 'q0/p0=-1.5949526326727061 < Q=-1.5'),
     ('Falsified', 'p0, q0/p0, -r0 even-monotone in w', '0x0.0p+0', '-0x1.c000000000000p+0', 'q0/p0 increases on the nonpositive side')),
 5: (('Verified',),
     ('Falsified', 'p0, q0/p0, -r0 even-monotone in w', '0x0.0p+0', '-0x1.c000000000000p+0', '-r0 increases on the nonpositive side')),
 6: (('Falsified', 'r0 >= 0', '0x1.0000000000000p+0', '0x1.0000000000000p+1', 'r0=-0.1430110886029159 < 0'),
     ('Falsified',
      'p0, q0/p0, -r0 even-monotone in w',
      '0x1.0000000000000p-3',
      '0x1.0000000000000p+0',
      'q0/p0 decreases on the nonnegative side')),
 7: (('Falsified', 'r0 >= 0', '0x0.0p+0', '-0x1.0000000000000p+1', 'r0=-0.1217708525883926 < 0'),
     ('Falsified', 'r0 >= 0', '0x0.0p+0', '-0x1.0000000000000p+1', 'r0=-0.1217708525883926 < 0')),
 8: (('Falsified', 'q0/p0 >= Q', '0x1.e000000000000p+0', '0x1.0000000000000p-2', 'q0/p0=-1.5280734055822771 < Q=-1.5'),
     ('Falsified', 'p0, q0/p0, -r0 even-monotone in w', '0x0.0p+0', '0x1.0000000000000p-2', 'q0/p0 decreases on the nonnegative side')),
 9: (('Falsified', 'r0 >= 0', '0x1.2000000000000p+0', '0x1.0000000000000p+1', 'r0=-0.0678193401081102 < 0'),
     ('Falsified',
      'p0, q0/p0, -r0 even-monotone in w',
      '0x1.0000000000000p-3',
      '-0x1.c000000000000p+0',
      '-r0 increases on the nonpositive side')),
 10: (('Falsified', 'r0 >= 0', '0x0.0p+0', '-0x1.0000000000000p+1', 'r0=-0.5765310945166109 < 0'),
      ('Falsified', 'r0 >= 0', '0x0.0p+0', '-0x1.0000000000000p+1', 'r0=-0.5765310945166109 < 0')),
 11: (('Falsified', 'r0 >= 0', '0x1.c000000000000p-1', '-0x1.0000000000000p+1', 'r0=-0.023622262934309468 < 0'),
      ('Falsified', 'p0, q0/p0, -r0 even-monotone in w', '0x0.0p+0', '0x1.0000000000000p-2', '-r0 decreases on the nonnegative side')),
 12: (('Falsified', 'q0/p0 >= Q', '0x1.2000000000000p+0', '0x1.0000000000000p+1', 'q0/p0=-1.6921632218358689 < Q=-1.5'),
      ('Falsified', 'p0, q0/p0, -r0 even-monotone in w', '0x0.0p+0', '-0x1.c000000000000p+0', 'q0/p0 increases on the nonpositive side')),
 13: (('Falsified', 'r0 >= 0', '0x1.6000000000000p+0', '-0x1.0000000000000p+1', 'r0=-0.13508880899699793 < 0'),
      ('Falsified', 'p0, q0/p0, -r0 even-monotone in w', '0x0.0p+0', '-0x1.0000000000000p+0', 'q0/p0 increases on the nonpositive side')),
 14: (('Falsified', 'r0 >= 0', '0x1.c000000000000p+0', '-0x1.0000000000000p+1', 'r0=-0.0027018990408260724 < 0'),
      ('Falsified',
       'p0, q0/p0, -r0 even-monotone in w',
       '0x1.0000000000000p-3',
       '0x1.0000000000000p-2',
       '-r0 decreases on the nonnegative side')),
 15: (('Verified',),
      ('Falsified', 'p0, q0/p0, -r0 even-monotone in w', '0x0.0p+0', '-0x1.c000000000000p+0', 'q0/p0 increases on the nonpositive side')),
 16: (('Falsified', 'r0 >= 0', '0x0.0p+0', '-0x1.0000000000000p+1', 'r0=-0.17131447593216187 < 0'),
      ('Falsified', 'r0 >= 0', '0x0.0p+0', '-0x1.0000000000000p+1', 'r0=-0.17131447593216187 < 0')),
 17: (('Falsified', 'r0 >= 0', '0x1.a000000000000p+0', '-0x1.0000000000000p+1', 'r0=-0.1613118151714309 < 0'),
      ('Falsified', 'p0, q0/p0, -r0 even-monotone in w', '0x0.0p+0', '-0x1.c000000000000p+0', 'q0/p0 increases on the nonpositive side')),
 18: (('Falsified', 'r0 >= 0', '0x1.4000000000000p-1', '-0x1.0000000000000p+1', 'r0=-0.045221659236470146 < 0'),
      ('Falsified', 'p0, q0/p0, -r0 even-monotone in w', '0x0.0p+0', '0x1.0000000000000p-2', 'q0/p0 decreases on the nonnegative side')),
 19: (('Verified',),
      ('Falsified',
       'p0, q0/p0, -r0 even-monotone in w',
       '0x1.0000000000000p-3',
       '-0x1.c000000000000p+0',
       'q0/p0 increases on the nonpositive side')),
 20: (('Falsified', 'r0 >= 0', '0x1.6000000000000p+0', '0x1.0000000000000p+1', 'r0=-0.01692069897439863 < 0'),
      ('Falsified', 'p0, q0/p0, -r0 even-monotone in w', '0x0.0p+0', '0x1.0000000000000p-2', '-r0 decreases on the nonnegative side')),
 21: (('Falsified', 'r0 >= 0', '0x0.0p+0', '0x1.0000000000000p-2', 'r0=-0.007265091527488408 < 0'),
      ('Falsified', 'r0 >= 0', '0x0.0p+0', '0x1.0000000000000p-2', 'r0=-0.007265091527488408 < 0')),
 22: (('Falsified', 'r0 >= 0', '0x1.c000000000000p-1', '-0x1.0000000000000p+1', 'r0=-0.161004431084959 < 0'),
      ('Falsified', 'p0, q0/p0, -r0 even-monotone in w', '0x0.0p+0', '-0x1.c000000000000p+0', 'q0/p0 increases on the nonpositive side')),
 23: (('Falsified', 'r0 >= 0', '0x1.6000000000000p+0', '0x1.0000000000000p+1', 'r0=-0.1268058928819238 < 0'),
      ('Falsified', 'p0, q0/p0, -r0 even-monotone in w', '0x0.0p+0', '-0x1.c000000000000p+0', 'q0/p0 increases on the nonpositive side')),
 24: (('Falsified', 'r0 >= 0', '0x0.0p+0', '0x1.0000000000000p+1', 'r0=-0.06095624343736561 < 0'),
      ('Falsified', 'r0 >= 0', '0x0.0p+0', '0x1.0000000000000p+1', 'r0=-0.06095624343736561 < 0')),
 25: (('Falsified', 'q0/p0 >= Q', '0x1.6000000000000p+0', '0x1.0000000000000p+1', 'q0/p0=-1.8885123883762054 < Q=-1.5'),
      ('Falsified', 'p0, q0/p0, -r0 even-monotone in w', '0x0.0p+0', '-0x1.c000000000000p+0', '-r0 increases on the nonpositive side')),
 26: (('Falsified', 'r0 >= 0', '0x1.0000000000000p+0', '-0x1.0000000000000p+1', 'r0=-0.22749667711035393 < 0'),
      ('Falsified', 'p0, q0/p0, -r0 even-monotone in w', '0x0.0p+0', '0x1.0000000000000p-2', '-r0 decreases on the nonnegative side')),
 27: (('Falsified', 'r0 >= 0', '0x1.4000000000000p-1', '-0x1.0000000000000p+1', 'r0=-0.13019388710870095 < 0'),
      ('Falsified', 'p0, q0/p0, -r0 even-monotone in w', '0x0.0p+0', '-0x1.c000000000000p+0', 'q0/p0 increases on the nonpositive side')),
 28: (('Falsified', 'q0/p0 >= Q', '0x0.0p+0', '0x1.c000000000000p+0', 'q0/p0=-1.9690707184210061 < Q=-1.5'),
      ('Falsified', 'p0, q0/p0, -r0 even-monotone in w', '0x0.0p+0', '0x0.0p+0', 'q0/p0 increases on the nonpositive side')),
 29: (('Falsified', 'r0 >= 0', '0x1.0000000000000p-1', '-0x1.0000000000000p+1', 'r0=-0.1481602609135766 < 0'),
      ('Falsified', 'p0, q0/p0, -r0 even-monotone in w', '0x0.0p+0', '0x1.0000000000000p-2', '-r0 decreases on the nonnegative side'))}


CASES = {**T3_1, **T3_2, **T3_4, **T3_5, **T3_6}


@pytest.mark.parametrize("name", sorted(CASES))
def test_checker_witness_pinned(name):
    assert outcome(CASES[name]()) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(T3_3))
def test_comparison_witness_pinned(name, majorant):
    assert outcome(T3_3[name](majorant)) == GOLDEN[name]


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_random_polynomial_outcomes_pinned(seed):
    assert random_outcomes(seed) == GOLDEN_RANDOM[seed]
