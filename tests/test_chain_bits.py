"""Chain values are the same bits on every interpreter.

A node integral of a chain level is one left-to-right sum of the node
integration matrix's products, written here as ``acc += s * f``.  Python
3.12 made ``sum()`` of floats compensated, so a node integral taken with
``sum()`` rounds differently there.  This module needs only the standard
library and pytest, so it runs on every interpreter rcert supports.

The residual pins below were taken before the oracles sampled each node in
one pass (one dense-output lookup, one compiled call for p0, q0 and r0), so
they show that pass changed no bit: on the closed-form ``validate_oracles``
equations, on opaque and closed-form harmonic pairs, and on paths whose ratio
``y`` was replaced and must still be sampled through itself.

Each chain layout compiles one straight-line function for its whole
adaptive walk, with the GK15 panel written into the loop.  The interpreted
walk it replaced, a loop of panels over level callables, is kept here as the
reference: every production layout gives its bits, raises its exceptions
and calls ``sample`` and the exponentials with the same arguments in the
same order.
"""

import itertools
import math
import random
from collections import Counter
from dataclasses import replace

import pytest

import rcert
import rcert.quadrature as quadrature
from rcert import BoundTriple, DomainError, NonPositiveWeightError, QuadratureBudgetError, RangeOverflowError
from rcert.applications import ef_bound_triple
from rcert.quadrature import _NODES, _ORACLE_LEVELS, _S, _WG, _WGK, EXP_CAP, weighted_chain

PANELS = 10_000
SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308, -1.5e-310)


def _k15(fv, h):
    """The K15 increment of one level from its 15 node values, in the chain's summation order."""
    k0, k1, k2, k3, k4, k5, k6, k7 = _WGK
    f0, f1, f2, f3, f4, f5, f6, fc, g6, g5, g4, g3, g2, g1, g0 = fv
    s1 = f1 + g1
    s3 = f3 + g3
    s5 = f5 + g5
    return (k7 * fc + k0 * (f0 + g0) + k1 * s1 + k2 * (f2 + g2) + k3 * s3 + k4 * (f4 + g4) + k5 * s5 + k6 * (f6 + g6)) * h


def _node_integrals(y, h, fv):
    out = []
    for row in _S:
        acc = 0.0
        for s, f in zip(row, fv):
            acc += s * f
        out.append(y + h * acc)
    return out


def _panel_case(rng):
    """(k node values, h, start) of one panel: specials, subnormals and magnitudes 1e-5..1e5 of either sign."""
    ks = []
    for _ in _NODES:
        if rng.random() < 0.15:
            ks.append(rng.choice(SPECIALS))
        else:
            ks.append(rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-5.0, 5.0))
    # |h| keeps the inner level's exponents within a few hundred, so e^Y
    # carries every bit of Y's rounding into the outer level.
    scale = max(map(abs, ks))
    h = rng.choice((1.0, -1.0)) * min(10.0 ** rng.uniform(-1.0, 2.3) / max(scale, 1e-300), 1e300)
    start = rng.choice((0.0, rng.uniform(-1.0, 1.0)))
    return ks, h, start


def test_two_level_panel_sums_node_integrals_left_to_right():
    rng = random.Random(20240)
    walk = quadrature._compiled_walk(_ORACLE_LEVELS[:2])
    wrong = []
    for n in range(PANELS):
        ks, h, start = _panel_case(rng)
        samples = iter([(k, 1.0) for k in ks])
        # lo = -h and hi = h put the centre at 0 and the half-width at h exactly; an unbounded tolerance accepts
        # the walk's first panel, so each level ends at its start plus the panel's increment.
        ys = walk(lambda t: next(samples), -h, h, (start, 0.0), (math.inf, math.inf), (0.0, 0.0))
        nodes = _node_integrals(start, h, ks)
        expect = (start + _k15(ks, h), 0.0 + _k15([math.exp(y) * 1.0 for y in nodes], h))
        if ys != expect:
            wrong.append((n, [v.hex() for v in ys], [v.hex() for v in expect]))
    assert not wrong, f"{len(wrong)} of {PANELS} panels differ, first {wrong[0]}"


def _reference_panel(sample, fns, lo, hi, start, budget):
    """The K15 increments and |K15 - G7| errors per level on [lo, hi], by the interpreted loop the chain ran before.

    No increments at the first level over ``budget``.  Level k is called
    once, as ``f_k(cols, ys)``, and returns its 15 node values in node order:
    ``cols`` holds the sample columns (the samples themselves in a chain of
    one level) and ``ys`` the node values of levels 0..k-1.
    """
    k0, k1, k2, k3, k4, k5, k6, k7 = _WGK
    g0w, g1w, g2w, g3w = _WG
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    data = [sample(c + h * x) for x in _NODES]
    last = len(fns) - 1
    cols = list(zip(*data)) if last else data
    ys = []
    incs = []
    errs = []
    for k, f in enumerate(fns):
        fv = f(cols, ys)
        f0, f1, f2, f3, f4, f5, f6, fc, g6, g5, g4, g3, g2, g1, g0 = fv
        s1 = f1 + g1
        s3 = f3 + g3
        s5 = f5 + g5
        resk = k7 * fc + k0 * (f0 + g0) + k1 * s1 + k2 * (f2 + g2) + k3 * s3 + k4 * (f4 + g4) + k5 * s5 + k6 * (f6 + g6)
        resg = g3w * fc + g0w * s1 + g1w * s3 + g2w * s5
        err = abs(resk - resg) * abs(h)
        if not math.isfinite(err):
            raise QuadratureBudgetError(f"level {k} integrand is not finite on [{lo!r}, {hi!r}]")
        if budget is not None and err > budget[k]:
            return None, errs
        incs.append(resk * h)
        errs.append(err)
        if k < last:
            ys.append(_node_integrals(start[k], h, fv))
    return incs, errs


def _reference_walk(sample, fns, a, b, start, abs_tols, rels):
    """The levels at b from their values ``start`` at a, by the interpreted walk the chain ran before.

    The first panel spans the gap and sets level k's budget
    ``max(abs_tols[k], rels[k] * |its increment|)``; every later panel gets
    the share of it that its length is of the gap, unless its span is at the
    floor, where it is accepted unchecked.  A rejected panel is halved and
    the half nearer a is taken first.
    """
    if not abs(b - a) < math.inf:
        raise DomainError(f"integration limits {a!r} and {b!r} do not bound a finite interval")
    gap = abs(b - a)
    ys = start
    scales = None
    lo = a
    ends = [b]
    used = 1
    while ends:
        hi = ends[-1]
        span = abs(hi - lo)
        floor = span <= 1e-15 * max(abs(lo), abs(hi), 1.0)
        incs, errs = _reference_panel(sample, fns, lo, hi, ys, None if floor or scales is None else [s * span / gap for s in scales])
        if scales is None:
            scales = [max(tol, rel * abs(v)) for v, tol, rel in zip(incs, abs_tols, rels)]
            if not floor and any(e > s for e, s in zip(errs, scales)):
                incs = None
        if incs is not None:
            ys = tuple(y + v for y, v in zip(ys, incs))
            lo = hi
            ends.pop()
            continue
        if used >= quadrature.MAX_INTERVALS:
            raise QuadratureBudgetError(f"tolerance not reached within {quadrature.MAX_INTERVALS} subintervals on [{a!r}, {b!r}]")
        ends.append(0.5 * (lo + hi))
        used += 2
    return ys


def _weighted_levels(exp):
    """K' = k, W' = e^K s, T1' = e^-K / p and T2' = e^-K W / p on the sample columns (k, s, p), as level callables."""
    return (
        lambda c, y: c[0],
        lambda c, y: [exp(v) * s for v, s in zip(y[0], c[1])],
        lambda c, y: [exp(-v) / p for v, p in zip(y[0], c[2])],
        lambda c, y: [exp(-v) * w / p for v, w, p in zip(y[0], y[1], c[2])],
    )


#: Each production layout: its sample columns (0 for a float), its levels, and
#: the reference's level callables given the exponential they call (the
#: capped one for every layout but the oracles').
LAYOUTS = {
    "one_level": (0, ("c0",), lambda exp: (lambda c, y: c,)),
    "anchored": (2, ("c0", quadrature._W), lambda exp: _weighted_levels(exp)[:2]),
    "i_plus": (3, ("c0", quadrature._T1), lambda exp: _weighted_levels(exp)[::2]),
    "f_bound": (3, ("c0", quadrature._W, quadrature._T1, quadrature._T2), _weighted_levels),
    "g_bound": (3, ("c0", quadrature._T1, "c1 / c2"), lambda exp: (*_weighted_levels(exp)[::2], lambda c, y: [u / p for u, p in zip(c[1], c[2])])),
    "oracle": (2, quadrature._ORACLE_LEVELS[:2], lambda exp: _weighted_levels(exp)[:2]),
    "oracle_lead": (3, quadrature._ORACLE_LEVELS, _weighted_levels),
}
ORACLES = ("oracle", "oracle_lead")


def test_the_layouts_are_every_production_layout(monkeypatch):
    seen = set()
    walker = quadrature._walker

    def spy(levels, sample):
        seen.add(levels)
        return walker(levels, sample)

    monkeypatch.setattr(quadrature, "_walker", spy)
    one = lambda t: 1.0
    b = BoundTriple(one, one, one)
    rcert.adaptive_quad(one, 0.0, 1.0)
    rcert.CumulativeIntegral(one, 0.0)(1.0)
    rcert.i_plus(one, one, 0.0, 1.0)
    rcert.i_minus(one, one, 0.0, 1.0)
    rcert.FBound(b, 0.0, 1.0, 1.0)(1.0)
    rcert.GBound(b, one, 0.0, 1.0, 1.0)(1.0)
    weighted_chain(lambda t: (1.0, 1.0), 0.0)(1.0)
    weighted_chain(lambda t: (1.0, 1.0, 1.0), 0.0, lead=True)(1.0)
    assert seen == {levels for _, levels, _ in LAYOUTS.values()}


def test_a_chain_that_walks_no_panel_compiles_none(monkeypatch):
    def refuse(levels):
        raise AssertionError(f"compiled the walk of {levels}")

    monkeypatch.setattr(quadrature, "_compiled_walk", refuse)
    # A power-law FBound builds its four-level chain and takes the exponent in closed form.
    F = rcert.FBound(ef_bound_triple(rcert.EFParams(rho=4.0, sigma=0.0, n=3.0)), 1.0, 0.5, 0.3)
    assert F._closed is not None
    assert math.isfinite(F(2.0))


def _outcome(name, rows, start, tols, a, b, reference, monkeypatch):
    """What one walk over [a, b] does, by the layout's compiled walk or by the reference.

    Sample call i gets ``rows(t)``, or ``rows[i % len(rows)]`` from a list;
    a third column goes through the envelopes' positivity check.  ``tols``
    holds the walk's (abs_tols, rels), or is None for unbounded tolerances,
    which accept the first panel.  Returns the levels at b as hex (or the
    exception's type and text) and the arguments of every sample and
    exponential call, in order.
    """
    columns, levels, fns = LAYOUTS[name]
    abs_tols, rels = tols or ((math.inf,) * len(levels), (0.0,) * len(levels))
    calls = []

    def record(fn):
        def recorded(x):
            calls.append(("exp", x.hex()))
            return fn(x)

        return recorded

    index = itertools.count()

    def sample(t):
        row = rows(t) if callable(rows) else rows[next(index) % len(rows)]
        calls.append(("sample", t.hex()))
        if columns == 3:
            return row[0], row[1], quadrature._positive(lambda _: row[2], t, "P")
        return row[0] if columns == 0 else row

    try:
        if reference:
            fn = fns(record(math.exp if name in ORACLES else quadrature._exp))
            result = _reference_walk(sample, fn, a, b, start, abs_tols, rels)
        else:
            with monkeypatch.context() as m:
                m.setattr(quadrature, "exp", record(math.exp))
                m.setattr(quadrature, "_exp", record(quadrature._exp))
                result = quadrature._compiled_walk(levels)(sample, a, b, start, abs_tols, rels)
    except Exception as exc:
        return (type(exc), str(exc)), calls
    return tuple(v.hex() for v in result), calls


def _both(name, rows, start, tols, a, b, monkeypatch):
    """The compiled walk's outcome and calls, asserted equal to the reference's."""
    got = _outcome(name, rows, start, tols, a, b, False, monkeypatch)
    assert got == _outcome(name, rows, start, tols, a, b, True, monkeypatch)
    return got


def _panels(calls):
    """The calls split per panel, each panel's 15 samples first."""
    out, samples = [], 0
    for call in calls:
        if call[0] == "sample":
            if samples % len(_NODES) == 0:
                out.append([])
            samples += 1
        out[-1].append(call)
    return out


def _value(rng, special=0.1, signs=(1.0, -1.0)):
    if rng.random() < special:
        return rng.choice(SPECIALS + (math.inf, math.nan))
    return rng.choice(signs) * 10.0 ** rng.uniform(-5.0, 5.0)


@pytest.mark.parametrize("name", LAYOUTS)
def test_every_layout_is_the_reference_walk(name, monkeypatch):
    # Exponents within a few hundred, a start that sometimes overflows them,
    # weights of either sign, gaps in either direction and tolerances that
    # reject at any level, within a few panels.
    monkeypatch.setattr(quadrature, "MAX_INTERVALS", 7)
    rng = random.Random(f"{name}-20261020")
    levels = len(LAYOUTS[name][1])
    kinds = set()
    for _ in range(1_000):
        rows = []
        for _ in range(3):
            # Blocks of rows on scales apart, so a panel rejected on one block may be accepted on the next.
            ks, h, start0 = _panel_case(rng)
            scale = rng.choice((1.0, 1e-6, 1e-12))
            rows += [(scale * k, scale * _value(rng), _value(rng, 0.005, (1.0,)) if scale == 1.0 else 1.0) for k in ks]
        start = (rng.choice((start0, rng.uniform(-720.0, 720.0))),) + tuple(_value(rng) for _ in range(levels - 1))
        tols = None
        if rng.random() < 0.5:
            tols = [10.0 ** rng.uniform(-25.0, 5.0) for _ in range(levels)], [rng.choice((0.0, 10.0 ** rng.uniform(-12.0, 0.0))) for _ in range(levels)]
        result, calls = _both(name, rows, start, tols, -h, h, monkeypatch)
        if isinstance(result[0], type):
            kinds.add(result[0])
        else:
            kinds.add("accepted" if len(_panels(calls)) == 1 else "halved")
    assert {"accepted", "halved", QuadratureBudgetError} <= kinds


def _smooth(t):
    """(k, s, p) samples that vary with t: a kernel of either sign, so e^K grows and decays."""
    return 0.5 * math.cos(4.0 * t), 1.0 / (1.0 + t * t), 2.0 + math.sin(3.0 * t)


@pytest.mark.parametrize("name", LAYOUTS)
def test_a_walk_halves_in_both_directions(name, monkeypatch):
    levels = len(LAYOUTS[name][1])
    tight = (1e-13,) * levels, (1e-12,) * levels
    for a, b in ((0.0, 6.0), (6.0, 0.0), (-1.0, 2.5)):
        _, calls = _both(name, _smooth, (0.25,) * levels, tight, a, b, monkeypatch)
        assert len(_panels(calls)) > 3
    # A short gap with loose tolerances: the first panel is accepted.
    _, calls = _both(name, _smooth, (0.25,) * levels, ((1e-3,) * levels, (1e-3,) * levels), 0.0, 0.1, monkeypatch)
    assert len(_panels(calls)) == 1


@pytest.mark.parametrize("name", LAYOUTS)
def test_floor_spans_are_accepted_unchecked(name, monkeypatch):
    levels = len(LAYOUTS[name][1])
    zero = (0.0,) * levels, (0.0,) * levels
    rows = [(float(i), 1.0 + i, 2.0) for i in range(len(_NODES))]
    # A gap at the floor from the start, and one that zero tolerances halve down to it.
    for b in (math.nextafter(1.0, 2.0), 1.0 + 8e-15, 1.0 - 8e-15):
        result = _both(name, rows, (0.5,) * levels, zero, 1.0, b, monkeypatch)[0]
        assert not isinstance(result[0], type)


def _exp_levels(levels):
    """The levels whose expression calls an exponential, one call per node."""
    return [k for k, expr in enumerate(levels) if "exp(" in expr]


@pytest.mark.parametrize("name, level", [(n, k) for n, (_, levels, _) in LAYOUTS.items() for k in range(len(levels))])
def test_a_budget_rejection_at_each_level_skips_the_later_levels(name, level, monkeypatch):
    # Only this level's tolerance is zero: the first panel computes every level and is rejected by this one, and
    # each later panel stops at it, until MAX_INTERVALS ends the walk.
    monkeypatch.setattr(quadrature, "MAX_INTERVALS", 5)
    levels = LAYOUTS[name][1]
    abs_tols = tuple(0.0 if k == level else math.inf for k in range(len(levels)))
    rows = [(float(i), 1.0 + i, 2.0) for i in range(len(_NODES))]
    result, calls = _both(name, rows, (0.0,) * len(levels), (abs_tols, (0.0,) * len(levels)), -0.5, 0.5, monkeypatch)
    assert result == (QuadratureBudgetError, "tolerance not reached within 5 subintervals on [-0.5, 0.5]")
    exps = [sum(c[0] == "exp" for c in panel) for panel in _panels(calls)]
    upto = sum(k <= level for k in _exp_levels(levels))
    assert exps == [len(_NODES) * len(_exp_levels(levels)), len(_NODES) * upto, len(_NODES) * upto]


@pytest.mark.parametrize("name", [n for n in LAYOUTS if n != "one_level"])
def test_an_error_equal_to_its_budget_passes(name, monkeypatch):
    # k = 0 gives level 0 an error of exactly 0 against a budget of exactly 0, so it passes on every panel, and
    # level 1, over its zero budget, rejects each one.
    monkeypatch.setattr(quadrature, "MAX_INTERVALS", 5)
    levels = LAYOUTS[name][1]
    zero = (0.0,) * len(levels), (0.0,) * len(levels)
    rows = [(0.0, 1.0 + i, 2.0 + i) for i in range(len(_NODES))]
    result, calls = _both(name, rows, (0.0,) * len(levels), zero, -0.5, 0.5, monkeypatch)
    assert result == (QuadratureBudgetError, "tolerance not reached within 5 subintervals on [-0.5, 0.5]")
    assert [sum(c[0] == "exp" for c in panel) for panel in _panels(calls)][1:] == [len(_NODES), len(_NODES)]


@pytest.mark.parametrize("name", LAYOUTS)
def test_a_non_finite_sample_in_mid_walk_stops_it(name, monkeypatch):
    levels = len(LAYOUTS[name][1])
    rows = [(float(i % 15), 1.0, 2.0) for i in range(45)]
    rows[20] = (math.nan, 1.0, 2.0)
    zero = (0.0,) * levels, (0.0,) * levels
    assert _both(name, rows, (0.0,) * levels, zero, -0.5, 0.5, monkeypatch)[0] == (QuadratureBudgetError, "level 0 integrand is not finite on [-0.5, 0.0]")


@pytest.mark.parametrize("name", LAYOUTS)
def test_non_finite_limits_are_a_domain_error(name, monkeypatch):
    levels = len(LAYOUTS[name][1])
    for a, b in ((math.nan, 1.0), (0.0, math.inf), (-math.inf, math.inf), (math.inf, math.inf)):
        result, calls = _both(name, _smooth, (0.0,) * levels, None, a, b, monkeypatch)
        assert result == (DomainError, f"integration limits {a!r} and {b!r} do not bound a finite interval") and calls == []


def _flat(levels, start0, columns=(1.5, 2.0)):
    """Rows with k = 0, so every node's inner level is ``start0`` exactly, and the start of every level."""
    return [(0.0, *columns)] * len(_NODES), (start0,) + (0.25,) * (levels - 1)


@pytest.mark.parametrize("name", [n for n in LAYOUTS if n != "one_level"])
def test_an_exponent_of_exactly_the_cap_passes(name, monkeypatch):
    levels = len(LAYOUTS[name][1])
    for start0 in (EXP_CAP, -EXP_CAP):
        ys = _both(name, *_flat(levels, start0), None, -0.5, 0.5, monkeypatch)[0]
        assert not isinstance(ys[0], type) and len(ys) == levels


@pytest.mark.parametrize("name", [n for n in LAYOUTS if n != "one_level"])
def test_an_exponent_beyond_the_cap_is_a_range_overflow(name, monkeypatch):
    beyond = math.nextafter(EXP_CAP, math.inf)
    levels = LAYOUTS[name][1]
    for start0, level in ((beyond, quadrature._W), (-beyond, quadrature._T1)):
        result = _both(name, *_flat(len(levels), start0), None, -0.5, 0.5, monkeypatch)[0]
        if level in levels:
            assert result == (RangeOverflowError, f"exponent overflow: exp({beyond!r})")


@pytest.mark.parametrize("name", LAYOUTS)
def test_a_nan_exponent_is_a_non_finite_level(name, monkeypatch):
    rows, start = _flat(len(LAYOUTS[name][1]), math.nan)
    if name == "one_level":
        rows = [(math.nan,)] * len(_NODES)
    level = 0 if name == "one_level" else 1
    assert _both(name, rows, start, None, -0.5, 0.5, monkeypatch)[0] == (QuadratureBudgetError, f"level {level} integrand is not finite on [-0.5, 0.5]")


@pytest.mark.parametrize("name", ORACLES)
def test_the_oracle_exponential_overflows(name, monkeypatch):
    assert _both(name, *_flat(len(LAYOUTS[name][1]), 710.0), None, -0.5, 0.5, monkeypatch)[0] == (OverflowError, "math range error")


@pytest.mark.parametrize("name", [n for n, (columns, _, _) in LAYOUTS.items() if columns == 3])
def test_a_non_positive_weight_stops_the_samples(name, monkeypatch):
    rows = [(0.0, 1.0, 1.0 if i != 9 else -0.0) for i in range(len(_NODES))]
    start = (0.0,) * len(LAYOUTS[name][1])
    kind, text = _both(name, rows, start, None, -0.5, 0.5, monkeypatch)[0]
    assert kind is NonPositiveWeightError and text == f"P({0.5 * _NODES[9]!r}) = -0.0 <= 0"


def _oracle_trajectories():
    """The two validate_oracles trajectories at seed 7, drawn in the benchmark's order."""
    rng = random.Random(7)
    phi0 = 1.0 + rng.uniform(-0.02, 0.02)
    phi1 = 0.5 + rng.uniform(-0.02, 0.02)
    pl_phi1 = 0.2 + rng.uniform(-0.02, 0.02)
    one = rcert.time_function_from_json({"kind": "constant", "value": 1.0}, "test")
    vdp = rcert.vdp_equation(rcert.VdPParams(lam=one, mu=one, nu=one), t0=0.0)
    power_law = rcert.ef_equation(rcert.EFParams(rho=4.0, sigma=0.0, n=3.0), t0=1.0)
    return {
        "van_der_pol": rcert.integrate(vdp, rcert.InitialData(0.0, phi0, phi1), rcert.IntegrationOptions(horizon=10.0)),
        "power_law": rcert.integrate(power_law, rcert.InitialData(1.0, 0.5, pl_phi1), rcert.IntegrationOptions(horizon=20.0)),
    }


def test_van_der_pol_residuals_are_pinned():
    # The validate_oracles start at seed 7: lambda = mu = nu = 1 from t0 = 0, horizon 10.
    traj = _oracle_trajectories()["van_der_pol"]
    assert rcert.volterra_residual(traj).hex() == "0x1.9ae76f2e968aep-42"
    assert rcert.flux_residual(traj).hex() == "0x1.c8edde76ca1fcp-43"


#: Per trajectory: (representation, cauchy) per segment of ``auto_segments``,
#: the same two with y replaced by y + 0.1, then flux and volterra.
ORACLE_PINS = {
    "van_der_pol": (
        [
            ("0x1.07411392eeb26p-43", "0x1.fc9f7021f0ec0p-41", "0x1.7e073fb9cb2a8p-4", "0x1.34bba6343ebfcp-3"),
            ("0x1.01d6a8e17273dp-43", "0x1.037a4321c0408p-41", "0x1.7bf4d197815bep-3", "0x1.6febff970691bp-4"),
            ("0x1.80b333f2f7ac4p-45", "0x1.9647cde737b56p-37", "0x1.74cce3464c60dp-3", "0x1.82510d09a4362p-4"),
            ("0x1.38af722f8d6ecp-43", "0x1.e2d8497cb94ecp-44", "0x1.46eb5b13749f2p-3", "0x1.13ac1bc24e631p-12"),
        ],
        "0x1.c8edde76ca1fcp-43",
        "0x1.9ae76f2e968aep-42",
    ),
    "power_law": (
        [("0x1.0dded80066e39p-39", "0x1.3dd649097c0ffp-41", "0x1.15a22bb9523f4p-5", "0x1.4363553044858p-8")],
        "0x1.f10d79f2516bcp-42",
        "0x1.3ee8000000000p-40",
    ),
}


@pytest.mark.parametrize("name", ORACLE_PINS)
def test_validate_oracles_residuals_are_pinned(name):
    traj = _oracle_trajectories()[name]
    segments, flux, volterra = ORACLE_PINS[name]
    got = []
    for seg in rcert.auto_segments(traj):
        path = rcert.transform(traj, seg)
        shifted = replace(path, y=lambda t, path=path: path.y(t) + 0.1)
        oracles = (rcert.representation_residual, rcert.cauchy_residual)
        got.append(tuple(oracle(p).hex() for p in (path, shifted) for oracle in oracles))
    assert got == segments
    assert (rcert.flux_residual(traj).hex(), rcert.volterra_residual(traj).hex()) == (flux, volterra)


def _constants(p, q, r, closed):
    """The equation with constant p0, q0 and r0, as closed forms or as opaque callables."""
    if closed:
        doc = {"kind": "custom", "t0": 0.0}
        doc.update((k, {"kind": "constant", "value": v}) for k, v in (("p0", p), ("q0", q), ("r0", r)))
        return rcert.equation_from_json(doc)
    return rcert.EquationSpec(*(rcert.ScalarField(lambda t, w, v=v: v) for v in (p, q, r)), t0=0.0)


@pytest.mark.parametrize("closed", [False, True], ids=["opaque", "closed_form"])
def test_harmonic_oracle_residuals_are_pinned(closed):
    # The pairs of tests/test_riccati.py::TestDifferenceResidual, both j, and
    # the harmonic path of TestRepresentationResidual with its ratio replaced.
    harmonic, damped = _constants(1.0, 0.0, 1.0, closed), _constants(1.0, 1.0, 1.0, closed)

    def path(eq, phi1, horizon, seg):
        return rcert.transform(rcert.integrate(eq, rcert.InitialData(0.0, 1.0, phi1), rcert.IntegrationOptions(horizon=horizon)), seg)

    seg = (0.0, math.pi / 8)
    quarter = path(harmonic, 0.0, 2.0, (0.0, math.pi / 4))
    pairs = [(quarter, quarter), (path(harmonic, 0.0, 1.0, seg), path(harmonic, -0.5, 1.0, seg)), (path(harmonic, 0.0, 1.0, seg), path(damped, 0.0, 1.0, seg))]
    assert [rcert.difference_residual(a, b, j).hex() for a, b in pairs for j in (0, 1)] == [
        "0x0.0p+0",
        "0x0.0p+0",
        "0x1.a898000000000p-38",
        "0x1.a898000000000p-38",
        "0x1.9235000000000p-40",
        "0x1.c267000000000p-40",
    ]
    shifted = replace(quarter, y=lambda t: quarter.y(t) + 0.1)
    assert [oracle(p).hex() for p in (quarter, shifted) for oracle in (rcert.representation_residual, rcert.cauchy_residual)] == [
        "0x1.2d60000000000p-42",
        "0x1.793fffffff099p-42",
        "0x1.d94b4e471e2e0p-5",
        "0x1.231f6f898a188p-4",
    ]


# Walks over closed-form columns.  A chain whose columns are closed-form time
# functions writes their sources into its nodes, and takes a constant column,
# and the sums of a level that is one, once per walk it builds; each such walk
# must be the reference walk over the one-call sample of the same functions.


def _closed(c, tau=None):
    return rcert.fields._closed_form_time([rcert.fields._Product(c, tau=tau)])


def _logged(name, fn, calls):
    """An opaque time factor that records its calls."""

    def tau(t):
        calls.append((name, t.hex()))
        return fn(t)

    return tau


def _column(kind, name, calls):
    """A closed-form time function: a constant, a varying one (a polynomial or a logged opaque factor), or a constant the walk must sample per node."""
    mu = rcert.time_function_from_json({"kind": "constant", "value": 8.0}, "mu")
    return {
        "constant": lambda: _closed(-0.75, tau=mu),  # (eps^2 - 1) mu at eps 0.5: a kernel steep enough to halve panels
        "zero": lambda: _closed(-0.0),  # its node sums are signed zeros
        "polynomial": lambda: rcert.time_function_from_json({"kind": "polynomial", "coeffs": [1.0, 0.25, -0.125]}, name),
        "logged": lambda: _closed(-0.5, tau=_logged(name, lambda t: 1.0 + 0.5 * math.cos(3.0 * t), calls)),
        "nan": lambda: _closed(math.nan),
        "inf": lambda: _closed(math.inf),
        "int": lambda: _closed(2),
        "raises": lambda: _closed(10**400, tau=_closed(1.5)),  # int * float overflows at every node
    }[kind]()


#: (v, x) columns of the (K, W) walk, and the one-level walk's column, by kind.
COLUMN_CASES = {
    "both_constant": ("constant", "constant"),
    "constant_q": ("constant", "polynomial"),
    "constant_r": ("logged", "constant"),
    "zero_q": ("zero", "logged"),
    "both_varying": ("polynomial", "logged"),
    "nan_constant": ("nan", "constant"),
    "inf_constant": ("constant", "inf"),
    "int_constant": ("int", "polynomial"),
    "raising_constant": ("raises", "constant"),
}
ONE_LEVEL_CASES = ("constant", "polynomial", "logged", "nan", "int", "raises")


def _column_outcome(levels, kinds, start, tols, a, b, reference, monkeypatch):
    """What a walk over closed-form columns of these kinds does on [a, b]: the levels at b as hex or the exception's type and text, the time-factor and exponential calls in order, and the walk's parameter and local names."""
    calls = []
    fns = tuple(_column(kind, f"col{j}", calls) for j, kind in enumerate(kinds))
    abs_tols, rels = tols or ((math.inf,) * len(levels), (0.0,) * len(levels))

    def record(fn):
        def recorded(x):
            calls.append(("exp", x.hex()))
            return fn(x)

        return recorded

    names = ((), ())
    try:
        if reference:
            sample = fns[0] if len(fns) == 1 else lambda s: (fns[0](s), fns[1](s))
            level_fns = (lambda c, y: c,) if len(levels) == 1 else _weighted_levels(record(quadrature._exp))[:2]
            result = _reference_walk(sample, level_fns, a, b, start, abs_tols, rels)
        else:
            with monkeypatch.context() as m:
                m.setattr(quadrature, "exp", record(math.exp))
                m.setattr(quadrature, "_exp", record(quadrature._exp))
                walk = quadrature._walker(levels, fns)
                code = walk.__code__
                names = code.co_varnames[: code.co_argcount], code.co_varnames[code.co_argcount :]
                result = walk(a, b, start, abs_tols, rels)
    except Exception as exc:
        return ((type(exc), str(exc)), calls), names
    return (tuple(v.hex() for v in result), calls), names


def _columns_both(levels, kinds, start, tols, a, b, monkeypatch):
    """The specialised walk's outcome and calls, asserted equal to the reference's, and its parameter and local names."""
    got, names = _column_outcome(levels, kinds, start, tols, a, b, False, monkeypatch)
    assert got == _column_outcome(levels, kinds, start, tols, a, b, True, monkeypatch)[0]
    return got, names


def _column_draws(levels, kinds, monkeypatch, draws=150):
    """Random gaps either way, starts (some past the exponent cap) and tolerances that reject at any level; returns the outcome kinds seen and the walk's parameter and local names."""
    monkeypatch.setattr(quadrature, "MAX_INTERVALS", 7)
    rng = random.Random(f"{levels}-{kinds}-20261020")
    seen, names = set(), ((), ())
    for _ in range(draws):
        a = rng.uniform(-3.0, 3.0)
        b = a + rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-3.0, 0.7)
        start = (rng.choice((0.0, rng.uniform(-1.0, 1.0), rng.uniform(-720.0, 720.0))),) + tuple(_value(rng) for _ in levels[1:])
        tols = None
        if rng.random() < 0.7:
            tols = [10.0 ** rng.uniform(-25.0, 0.0) for _ in levels], [rng.choice((0.0, 10.0 ** rng.uniform(-14.0, 0.0))) for _ in levels]
        (result, calls), names = _columns_both(levels, kinds, start, tols, a, b, monkeypatch)
        if isinstance(result[0], type):
            seen.add(result[0])
        else:
            # A panel that reaches the W level makes 15 exponential calls, and one that samples a logged column 15 calls of it.
            seen.add("halved" if max(Counter(c[0] for c in calls).values(), default=0) > len(_NODES) else "accepted")
    return seen, names


@pytest.mark.parametrize("case", COLUMN_CASES)
def test_a_walk_over_closed_form_columns_is_the_reference_walk(case, monkeypatch):
    kinds = COLUMN_CASES[case]
    seen, (params, local) = _column_draws(("c0", quadrature._W), kinds, monkeypatch)
    # The walk samples a column at its nodes exactly when it is not a finite float constant, and then
    # takes the K level's sums once when K's column is one.
    constant = [kind in ("constant", "zero") for kind in kinds]
    assert ["d0_0" not in local, "d0_1" not in local] == constant
    assert ("sig0_0" in params) == constant[0] and ("tk" in local) == (not all(constant))
    if case == "raising_constant":
        assert seen == {OverflowError}
    elif case in ("nan_constant", "inf_constant"):
        assert QuadratureBudgetError in seen and seen <= {QuadratureBudgetError, RangeOverflowError}
    else:
        assert {"accepted", "halved", QuadratureBudgetError} <= seen


@pytest.mark.parametrize("kind", ONE_LEVEL_CASES)
def test_a_one_level_walk_over_a_closed_form_is_the_reference_walk(kind, monkeypatch):
    seen, (params, local) = _column_draws(("c0",), (kind,), monkeypatch)
    assert ("d0_0" not in local) == ("resk0" in params) == (kind == "constant")
    if kind == "raises":
        assert seen == {OverflowError}
    elif kind == "nan":
        assert seen == {QuadratureBudgetError}
    else:
        # Only a logged column's calls show a halving.  A constant column has the same error per unit length
        # on every panel, so its walk is accepted on the first or exhausts.
        assert {"accepted", QuadratureBudgetError} <= seen and ("halved" in seen) == (kind == "logged")


@pytest.mark.parametrize("case", ["both_constant", "constant_q", "both_varying"])
def test_a_walk_over_closed_form_columns_halves_in_both_directions(case, monkeypatch):
    levels = ("c0", quadrature._W)
    tight = (1e-13, 1e-13), (1e-12, 1e-12)
    for a, b in ((0.0, 6.0), (6.0, 0.0), (-1.0, 2.5)):
        result = _columns_both(levels, COLUMN_CASES[case], (0.25, 0.25), tight, a, b, monkeypatch)[0][0]
        assert not isinstance(result[0], type)


def test_unit_coefficient_tail_walks_sample_no_node(monkeypatch):
    # certify t4_2 on unit coefficients from t0 = 0, the benchmark's Van der Pol config: both tail columns
    # are constants, so no (K, W) walk reads a column or integrates K at a node.
    built, in_kw, node_integrals, walks = [], [], [], []
    walker = quadrature._walker

    def recording(levels, sample):
        walk = walker(levels, sample)
        if levels != ("c0", quadrature._W):
            return walk
        built.append(walk)

        def recording_walk(*args):
            in_kw.append(True)
            walks.append(args[:2])
            try:
                return walk(*args)
            finally:
                in_kw.pop()

        return recording_walk

    quadrature._node_integrals(0.0, 1.0, (0.0,) * len(_NODES))  # compiles it, so it no longer replaces itself
    compiled = quadrature._node_integrals

    def counted(*args):
        if in_kw:
            node_integrals.append(args)
        return compiled(*args)

    monkeypatch.setattr(quadrature, "_walker", recording)
    monkeypatch.setattr(quadrature, "_node_integrals", counted)
    one = rcert.time_function_from_json({"kind": "constant", "value": 1.0}, "f")
    v = rcert.VdPParams(lam=one, mu=one, nu=one)
    cert = rcert.check_t4_2(rcert.vdp_equation(v), v, eps0=1.0, grid=rcert.GridSpec(9, 9))
    assert cert.status == rcert.VERIFIED
    assert built and all(not {"sample", "tk", "d0_0", "d0_1"} & set(walk.__code__.co_varnames) for walk in built)
    assert len(walks) > len(built) and node_integrals == []
