"""Hypothesis checkers that produce machine-readable certificates.

Each checker samples the hypotheses of one solvability or oscillation
criterion on a finite (t, w) grid and emits a :class:`Certificate`:

* ``Verified``   -- every sampled inequality holds; the certificate carries
  the guaranteed conclusion and, where applicable, the growth envelope.
* ``Falsified``  -- some hypothesis fails; the certificate carries the first
  concrete witness point in scan order.
* ``Inconclusive`` -- a precondition fails, an envelope overflows, or the
  scan of a hypothesis sampled no grid point; neither conclusion is claimed.

Grid falsification, not proof: the "for all w" hypotheses are checked on the
recorded rectangle at the grid times, and a Verified region's ``coverage``
says how: "rows" when every row cleared from ranges, so at every float w of
it, "grid" when the checks held at the grid points.  Components that no
finite computation can decide (oscillation of a comparison family,
divergence of improper integrals) are decided heuristically and flagged.

Every checker runs on one scan primitive, :func:`fields._scan`, over an ordered
table of pointwise checks and row rules.  The witness is the first failure in
t-major order, then w, then table order.  A row (fixed t) clears without
samples only when closed-form ranges prove every sample finite and passing;
any other row is sampled, so a non-finite sample anywhere on it raises, and
a scan that reaches a point with p0 <= 0 under q0/p0 raises DomainError.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field as dc_field
from typing import Callable, NamedTuple, Sequence

from .dynamics import IntegrationOptions, integrate
from .errors import DomainError, FieldEvaluationError, RangeOverflowError
from .fields import (
    BoundTriple,
    EquationSpec,
    GridSpec,
    InitialData,
    Rectangle,
    _axis_ends,
    _closed_form_field,
    _even_monotone_break,
    _first_where,
    _Product,
    _rows,
    _scan,
)
from .quadrature import (
    ABS_TOL,
    CONVERGING,
    DIVERGING,
    CumulativeIntegral,
    FBound,
    GBound,
    REL_TOL,
    TimeFunction,
    divergence_probe,
    weighted_tail_integrand,
)

__all__ = [
    "VERIFIED",
    "FALSIFIED",
    "INCONCLUSIVE",
    "GLOBAL_MONOTONE",
    "SINGULAR_SECOND_KIND_IF_NONEXTENDABLE",
    "OSC_OR_SINGULAR_FIRST_KIND",
    "GLOBAL_FOR_ALL_IC",
    "Witness",
    "Certificate",
    "ComparisonFamily",
    "check_t3_1",
    "check_t3_2",
    "check_t3_3",
    "check_t3_4",
    "check_t3_5",
    "check_t3_6",
]

VERIFIED = "Verified"
FALSIFIED = "Falsified"
INCONCLUSIVE = "Inconclusive"

GLOBAL_MONOTONE = "GLOBAL_MONOTONE"
SINGULAR_SECOND_KIND_IF_NONEXTENDABLE = "SINGULAR_SECOND_KIND_IF_NONEXTENDABLE"
OSC_OR_SINGULAR_FIRST_KIND = "OSC_OR_SINGULAR_FIRST_KIND"
GLOBAL_FOR_ALL_IC = "GLOBAL_FOR_ALL_IC"

#: A comparison family maps a band parameter eps to time-only coefficients
#: (p_eps, q_eps, r_eps) of a linear comparison equation.
ComparisonFamily = Callable[[float], tuple[TimeFunction, TimeFunction, TimeFunction]]


@dataclass(frozen=True)
class Witness:
    """A concrete grid point at which a hypothesis inequality fails."""

    hypothesis: str
    t: float
    w: float | None
    detail: str

    def to_dict(self) -> dict:
        return {"hypothesis": self.hypothesis, "t": self.t, "w": self.w, "detail": self.detail}


@dataclass
class Certificate:
    theorem: str
    status: str
    hypotheses: tuple[str, ...]
    region: dict
    conclusion: str | None = None
    epsilon: float | None = None
    witness: Witness | None = None
    reason: str | None = None
    bound: Callable[[float], float] | None = None
    bound_samples: list[tuple[float, float]] | None = None
    uniform_bound: float | None = None
    heuristic_flags: tuple[str, ...] = ()
    details: dict = dc_field(default_factory=dict)
    parts: list["Certificate"] = dc_field(default_factory=list)

    @property
    def verified(self) -> bool:
        return self.status == VERIFIED

    def to_dict(self) -> dict:
        doc = {
            "theorem": self.theorem,
            "status": self.status,
            "conclusion": self.conclusion,
            "hypotheses": list(self.hypotheses),
            "region": self.region,
            "epsilon": self.epsilon,
            "witness": self.witness.to_dict() if self.witness else None,
            "reason": self.reason,
            "bound_samples": [[t, v] for t, v in self.bound_samples] if self.bound_samples else None,
            "uniform_bound": self.uniform_bound,
            "heuristic_flags": list(self.heuristic_flags),
            "details": self.details,
        }
        if self.parts:
            doc["parts"] = [p.to_dict() for p in self.parts]
        return doc


def _region_record(ts, w_lo, w_hi, nw: int, sampled: tuple[float, float] | None) -> dict:
    # ``nt`` and ``nw`` are the axis sizes scanned (an axis with equal bounds
    # has one point); envelope checks, whose w axis changes per row, pass the
    # most w points a scanned row held, 0 when no row had one, and +-inf caps:
    # the JSON record then carries only the w-range actually checked.
    finite_w = w_lo is not None and math.isfinite(w_lo) and math.isfinite(w_hi)
    rec = {
        "t": [ts[0], ts[-1]],
        "w": [w_lo, w_hi] if finite_w else None,
        "nt": len(ts),
        "nw": nw,
    }
    if sampled is not None:
        rec["w_sampled"] = [sampled[0], sampled[1]]
    return rec


def _covered(rec: dict, covered: bool) -> dict:
    """A Verified region record: "rows" when every row was cleared at every float w, "grid" when at its points."""
    return {**rec, "coverage": "rows" if covered else "grid"}


def _ratio_precondition(ic: InitialData) -> str | None:
    if ic.phi0 == 0.0:
        return "phi0 must be nonzero"
    if ic.phi1 / ic.phi0 < 0.0:
        return "phi1/phi0 must be nonnegative"
    return None


# ---------------------------------------------------------------------------
# The hypothesis scan
# ---------------------------------------------------------------------------


class _Check(NamedTuple):
    """A pointwise check that fails where ``quantity op bound`` holds.

    The detail writes a bound of t as ``label=value`` and a constant as ``label``.
    """

    hypothesis: str
    quantity: str
    op: str
    bound: Callable[[float], float] | float
    label: str
    note: str = ""


_OPS = {"<": operator.lt, ">": operator.gt}


def _ratio(num: str, den: str):
    """The derived row num/den; the only place a q/p field ratio is computed.

    The row stops at the first w where den <= 0, and a check that reaches
    that point raises :class:`DomainError` instead of dividing.  Its range is
    that of the corner quotients when den > 0: division rounds monotonically.
    """

    def derive(t, ws, row):
        n, d = row[num], row[den]
        j = _first_where(d, operator.le, 0.0)
        values = list(map(operator.truediv, n[:j], d[:j]))
        return values, None if j is None else DomainError(f"{den} is not positive at (t={t!r}, w={ws[j]!r}): {d[j]!r}")

    def enclose(ranges):
        (a, b), (c, d) = ranges[num], ranges[den]
        if c > 0.0:  # else None: a row where den may be <= 0 is sampled, and stops there
            corners = (a / c, a / d, b / c, b / d)
            return min(corners), max(corners)

    derive.enclose = enclose
    return derive


_PQR = ("p0", "q0", "r0", "q0/p0")


def _eq_fields(eq: EquationSpec, *names: str) -> dict:
    """The rows a scan takes from ``eq``, among p0, q0, r0 and q0/p0."""
    known = {"p0": eq.p0, "q0": eq.q0, "r0": eq.r0, "q0/p0": _ratio("q0", "p0")}
    return {name: known[name] for name in names}


def _points(*checks: _Check):
    """A stage of pointwise checks: the first failure in w order, then table order.

    A derived row that stops early fails its checks at the stop point, where
    the stop decides the outcome.  A bound of t that is not finite at t raises
    :class:`FieldEvaluationError`, named by its label: no sample fails a check
    against NaN, nor a lower bound of -inf, so the check would hold vacuously.
    It clears a row whose ranges clear every check (see :func:`fields._scan`).
    """

    def bounds(t):
        for c in checks:
            bound = c.bound(t) if callable(c.bound) else c.bound
            if not math.isfinite(bound):
                raise FieldEvaluationError(c.label, t, None, bound)
            yield bound

    def clears(t, ranges):
        return all(_first_where(ranges[c.quantity], _OPS[c.op], bound) is None for c, bound in zip(checks, bounds(t)))

    def stage(t, ws, row, stops):
        hit = None
        for c, bound in zip(checks, bounds(t)):
            values = row[c.quantity]
            j = _first_where(values, _OPS[c.op], bound)
            if j is None and c.quantity in stops:
                j = len(values)
            if j is not None and (hit is None or j < hit[0]):
                hit = j, c, bound
        if hit is None:
            return None
        j, c, bound = hit
        values = row[c.quantity]
        if j == len(values):
            return j, stops[c.quantity]
        rhs = f"{c.label}={bound!r}" if callable(c.bound) else c.label
        return j, Witness(c.hypothesis, t, ws[j], f"{c.quantity}={values[j]!r} {c.op} {rhs}{c.note}")

    stage.clears = clears
    return stage


def _stopped(row, stops, *names):
    """The hit of a rule that reads whole rows, when one of ``names`` stops early."""
    for name in names:
        if name in stops:
            return len(row[name]), stops[name]
    return None


def _even_monotone(hypothesis: str, *names: str):
    """A row rule: each named row, in turn, must be even-monotone in w."""

    def rule(t, ws, row, stops):
        for name in names:
            hit = _stopped(row, stops, name)
            if hit is not None:
                return hit
            broken = _even_monotone_break(ws, row[name])
            if broken is not None:
                j, verb, side = broken
                return j + 1, Witness(hypothesis, t, ws[j + 1], f"{name} {verb} on the {side} side")
        return None

    return rule


def _cross_term(t, ws, row):
    """|p0*r0/q0| of T3_2: 0 where q0 = r0 = 0; the row stops where q0 = 0 but r0 != 0."""
    values = []
    for j, (p, q, r) in enumerate(zip(row["p0"], row["q0"], row["r0"])):
        if q == 0.0 and r != 0.0:
            return values, f"ratio undefined: q0 = 0 with r0 = {r!r} at (t={t!r}, w={ws[j]!r})"
        values.append(0.0 if q == 0.0 else abs(p * r / q))
    return values, None


# ---------------------------------------------------------------------------
# The criteria
# ---------------------------------------------------------------------------


def _envelope_check(theorem, hypotheses, eq, ic, region, grid, epsilon, make_envelope, fields, stages) -> Certificate:
    """T3_1 and T3_2: precondition, growth envelope, then the scan of |w| <= envelope + epsilon."""
    if region is None:
        region = Rectangle(ic.t1, eq.t0 + 50.0, -math.inf, math.inf)
    if region.t_min != ic.t1:
        raise DomainError(f"{theorem} scans its envelope from ic.t1 = {ic.t1!r}, so region.t_min must equal it, got {region.t_min!r}")
    ts = grid.t_axis(ic.t1, region.t_max)
    pre = _ratio_precondition(ic)
    if pre is not None:
        rec = _region_record(ts, None, None, 0, None)
        return Certificate(theorem, INCONCLUSIVE, hypotheses, rec, reason=f"precondition: {pre}")
    eps = 1e-3 * abs(ic.phi0) if epsilon is None else epsilon
    c1 = ic.phi0
    c2 = eq.p0(ic.t1, ic.phi0) * ic.phi1 / ic.phi0
    envelope = make_envelope(c1, c2, ts)
    try:
        bound_vals = [envelope(t) for t in ts]
    except RangeOverflowError as exc:
        rec = _region_record(ts, None, None, 0, None)
        return Certificate(theorem, INCONCLUSIVE, hypotheses, rec, epsilon=eps, reason=f"range: {exc}")

    nw = 0

    def rows():
        nonlocal nw
        for t, v in zip(ts, bound_vals):
            lo, hi, n = _axis_ends(max(region.w_min, -(v + eps)), min(region.w_max, v + eps), grid.nw)
            nw = max(nw, n)
            yield t, ((lo, hi),), n

    seen = [math.inf, -math.inf]
    outcome, covered = _scan(rows(), fields, stages, seen)
    sampled = tuple(seen) if seen[0] <= seen[1] else None
    rec = _region_record(ts, region.w_min, region.w_max, nw, sampled)
    if outcome is None and sampled is None:
        outcome = "no grid point sampled: the band |w| <= envelope + epsilon is empty on the region"
    if isinstance(outcome, str):
        return Certificate(theorem, INCONCLUSIVE, hypotheses, rec, epsilon=eps, reason=outcome)
    if outcome is not None:
        return Certificate(theorem, FALSIFIED, hypotheses, rec, epsilon=eps, witness=outcome)
    details = {"c1": c1, "c2": c2}
    if ic.phi1 != 0.0:
        details["derivative_nonvanishing"] = True
    return Certificate(
        theorem,
        VERIFIED,
        hypotheses,
        _covered(rec, covered),
        conclusion=GLOBAL_MONOTONE,
        epsilon=eps,
        bound=envelope,
        bound_samples=list(zip(ts, bound_vals)),
        details=details,
    )


def check_t3_1(
    eq: EquationSpec,
    ic: InitialData,
    b: BoundTriple,
    region: Rectangle | None = None,
    grid: GridSpec = GridSpec(),
    epsilon: float | None = None,
    *,
    quad_abs_tol: float = ABS_TOL,
    quad_rel_tol: float = REL_TOL,
) -> Certificate:
    """Monotone global-existence certificate with the F growth envelope.

    Verifies, for every grid time t and every sampled w with
    |w| <= F(t) + epsilon, that p0 >= P, q0/p0 >= Q and R <= r0 <= 0.  On
    success the solution through ``ic`` is certified global with |phi|
    positive, nondecreasing and bounded by the envelope; if phi'(t1) != 0
    the derivative never vanishes either.
    """
    hypotheses = ("p0 >= P", "q0/p0 >= Q", "R <= r0 <= 0")
    sandwich = _points(
        _Check("p0 >= P", "p0", "<", b.P, "P"),
        _Check("q0/p0 >= Q", "q0/p0", "<", b.Q, "Q"),
        _Check("R <= r0 <= 0", "r0", ">", 0.0, "0"),
        _Check("R <= r0 <= 0", "r0", "<", b.R, "R"),
    )

    def envelope(c1, c2, ts):
        return FBound(b, ic.t1, c1, c2, abs_tol=quad_abs_tol, rel_tol=quad_rel_tol)

    return _envelope_check("T3_1", hypotheses, eq, ic, region, grid, epsilon, envelope, _eq_fields(eq, *_PQR), [sandwich])


def check_t3_2(
    eq: EquationSpec,
    ic: InitialData,
    b: BoundTriple,
    qtilde: TimeFunction,
    region: Rectangle | None = None,
    grid: GridSpec = GridSpec(),
    epsilon: float | None = None,
    *,
    quad_abs_tol: float = ABS_TOL,
    quad_rel_tol: float = REL_TOL,
) -> Certificate:
    """Global-existence certificate driven by the G envelope.

    The cross term |p0 * r0 / q0| must be dominated by ``qtilde``; the
    envelope feeds the running maximum of ``qtilde`` into the exponent.
    Division by a vanishing q0 at a point with nonzero r0 is reported as
    Inconclusive rather than guessed around.
    """
    hypotheses = ("p0 >= P", "q0 >= Q >= 0", "r0 <= 0", "|p0*r0/q0| <= Qtilde")

    def q_sign(t, ws, row, stops):
        Qv = b.Q(t)
        return (None, Witness("q0 >= Q >= 0", t, None, f"Q={Qv!r} < 0")) if Qv < 0.0 else None

    points = _points(
        _Check("p0 >= P", "p0", "<", b.P, "P"),
        _Check("q0 >= Q >= 0", "q0", "<", b.Q, "Q"),
        _Check("r0 <= 0", "r0", ">", 0.0, "0"),
        _Check("|p0*r0/q0| <= Qtilde", "|p0*r0/q0|", ">", qtilde, "Qtilde"),
    )

    def envelope(c1, c2, ts):
        # Running maximum of qtilde, sampled on a refinement of the time grid.
        fine = GridSpec(nt=4 * (grid.nt - 1) + 1, nw=2).t_axis(ts[0], ts[-1])
        cummax: list[float] = []
        acc = -math.inf
        for t in fine:
            acc = max(acc, qtilde(t))
            cummax.append(acc)

        def running_max(tau: float) -> float:
            idx = max(0, min(len(fine) - 1, bisect_right(fine, tau) - 1))
            return max(cummax[idx], qtilde(tau))

        return GBound(b, running_max, ic.t1, c1, c2, abs_tol=quad_abs_tol, rel_tol=quad_rel_tol)

    fields = {**_eq_fields(eq, "p0", "q0", "r0"), "|p0*r0/q0|": _cross_term}
    return _envelope_check("T3_2", hypotheses, eq, ic, region, grid, epsilon, envelope, fields, [q_sign, points])


#: Relative tolerance to which T3_3 requires p0 == p1.
_P_MATCH_RTOL = 1e-12


def check_t3_3(
    eq0: EquationSpec,
    eq1: EquationSpec,
    majorant,
    ic0: InitialData,
    region: Rectangle | None = None,
    grid: GridSpec = GridSpec(nt=65, nw=65),
) -> Certificate:
    """Comparison certificate against a nonvanishing majorant trajectory.

    ``majorant`` solves ``eq1`` on its span.  The initial orderings are
    numerical preconditions; the coefficient orderings over matched pairs
    |w| <= |w1| are sampled with symmetric w grids and prefix extrema.
    """
    hypotheses = (
        "initial ordering of values and derivatives",
        "initial ratio ordering",
        "p0 == p1, even-monotone in w",
        "r1(w1) <= r0(w) <= 0 for |w| <= |w1|",
        "q0/p0(w) <= q1/p1(w1) for |w| <= |w1|",
    )
    theorem = "T3_3"
    if region is None:
        region = Rectangle(eq0.t0, majorant.t_end, -1.0, 1.0)
    ts = grid.t_axis(region.t_min, region.t_max)
    whole = _region_record(ts, None, None, 0, None)
    if majorant.zeros or majorant.tangential:
        return Certificate(theorem, INCONCLUSIVE, hypotheses, whole, reason="majorant has a zero on its span")
    t_base = majorant.t_start
    if abs(ic0.t1 - t_base) > 1e-12 * max(1.0, abs(t_base)):
        raise DomainError("comparison initial data must start where the majorant starts")

    phi1_0 = majorant.phis[0]
    dphi1_0 = majorant.dphis[0]
    positive_branch = phi1_0 >= ic0.phi0 > 0.0 and dphi1_0 > ic0.phi1 >= 0.0
    negative_branch = phi1_0 <= ic0.phi0 < 0.0 and dphi1_0 < ic0.phi1 <= 0.0
    if not (positive_branch or negative_branch):
        reason = "precondition: initial ordering of values/derivatives fails"
        return Certificate(theorem, INCONCLUSIVE, hypotheses, whole, reason=reason)
    y0 = eq0.p0(ic0.t1, ic0.phi0) * ic0.phi1 / ic0.phi0
    y1 = eq1.p0(t_base, phi1_0) * dphi1_0 / phi1_0
    if not y0 < y1:
        reason = f"precondition: initial ratio ordering fails (y0={y0!r} >= y1={y1!r})"
        return Certificate(theorem, INCONCLUSIVE, hypotheses, whole, reason=reason)

    W = max(abs(region.w_min), abs(region.w_max))
    nw = grid.nw if grid.nw % 2 == 1 else grid.nw + 1
    half = (nw - 1) // 2
    # Mirrored, ws[nw - 1 - i] == -ws[i], so an even field gives equal samples at +-w.
    lower = [-W + 2.0 * W * i / (nw - 1) for i in range(half)]
    ws = [*lower, 0.0, *(-w for w in reversed(lower))]

    def p_match(t, ws, row, stops):
        for j, (a, c) in enumerate(zip(row["p0"], row["p1"])):
            if abs(a - c) > _P_MATCH_RTOL * max(1.0, abs(a), abs(c)):
                return j, Witness(hypotheses[2], t, ws[j], f"p0={a!r} != p1={c!r}")
        return None

    def band(t, ws, row, stops):
        # Matched pairs |w| <= |w1|: prefix extrema of the band grow from w = 0 outwards.
        hit = _stopped(row, stops, "q0/p0", "q1/p1")
        if hit is not None:
            return hit
        r0, q0, r1, q1 = row["r0"], row["q0/p0"], row["r1"], row["q1/p1"]
        min_r, max_q = r0[half], q0[half]
        for k in range(half + 1):
            lo, hi = half - k, half + k
            min_r = min(min_r, r0[lo], r0[hi])
            max_q = max(max_q, q0[lo], q0[hi])
            for j in (hi,) if k == 0 else (lo, hi):
                if r0[j] > 0.0:
                    return j, Witness(hypotheses[3], t, ws[j], f"r0={r0[j]!r} > 0")
                if r1[j] > min_r:
                    return j, Witness(hypotheses[3], t, ws[j], f"r1(w1)={r1[j]!r} > min r0 over band = {min_r!r}")
                if max_q > q1[j]:
                    return j, Witness(hypotheses[4], t, ws[j], f"max q0/p0 over band = {max_q!r} > q1/p1(w1)={q1[j]!r}")
        return None

    fields = {**_eq_fields(eq0, *_PQR), "p1": eq1.p0, "q1": eq1.q0, "r1": eq1.r0, "q1/p1": _ratio("q1", "p1")}
    stages = [p_match, _even_monotone(hypotheses[2], "p0"), band]
    witness, covered = _scan(_rows(ts, ws), fields, stages)
    rec = _region_record(ts, -W, W, nw, (-W, W))
    if witness is not None:
        return Certificate(theorem, FALSIFIED, hypotheses, rec, witness=witness)
    return Certificate(
        theorem,
        VERIFIED,
        hypotheses,
        _covered(rec, covered),
        conclusion=GLOBAL_MONOTONE,
        details={"y0": y0, "y1": y1, "majorant_span": [majorant.t_start, majorant.t_end]},
    )


def check_t3_4(
    eq: EquationSpec,
    b: BoundTriple,
    region: Rectangle | None = None,
    grid: GridSpec = GridSpec(),
) -> Certificate:
    """Conditional classification certificate for nonnegative restoring fields.

    Verified means: any solution that fails to extend to the horizon of its
    maximal interval (finite escape) must change sign infinitely often as it
    approaches the escape time.  The conclusion applies only to trajectories
    whose integration actually ends in finite escape.
    """
    hypotheses = ("p0 >= P", "q0/p0 >= Q", "r0 >= 0")
    theorem = "T3_4"
    if region is None:
        region = Rectangle(eq.t0, eq.t0 + 50.0, -10.0, 10.0)
    ts = grid.t_axis(region.t_min, region.t_max)
    ws = grid.w_axis(region.w_min, region.w_max)
    points = _points(
        _Check("p0 >= P", "p0", "<", b.P, "P"),
        _Check("q0/p0 >= Q", "q0/p0", "<", b.Q, "Q"),
        _Check("r0 >= 0", "r0", "<", 0.0, "0"),
    )
    witness, covered = _scan(_rows(ts, ws), _eq_fields(eq, *_PQR), [points])
    rec = _region_record(ts, region.w_min, region.w_max, len(ws), (ws[0], ws[-1]))
    if witness is not None:
        return Certificate(theorem, FALSIFIED, hypotheses, rec, witness=witness)
    return Certificate(theorem, VERIFIED, hypotheses, _covered(rec, covered), conclusion=SINGULAR_SECOND_KIND_IF_NONEXTENDABLE)


def _family_checks(hypothesis: str, eps: float, p_e: TimeFunction, ratio: tuple, r_e: TimeFunction) -> list[_Check]:
    """p0 <= p_eps, the q0/p0 ordering ``ratio`` = (op, bound, label) and r0 >= r_eps, noted with eps."""
    note = f" (eps={eps!r})"
    return [
        _Check(hypothesis, "p0", ">", p_e, "p_eps", note),
        _Check(hypothesis, "q0/p0", *ratio, note),
        _Check(hypothesis, "r0", "<", r_e, "r_eps", note),
    ]


def check_t3_5(
    eq: EquationSpec,
    b: BoundTriple,
    family: ComparisonFamily,
    N: float,
    eps0: float,
    region: Rectangle | None = None,
    grid: GridSpec = GridSpec(nt=65, nw=65),
    *,
    eps_samples: Sequence[float] | None = None,
    eps_tail_samples: Sequence[float] | None = None,
    osc_horizon: float = 50.0,
    osc_min_zeros: int = 5,
) -> Certificate:
    """Oscillation-or-first-kind certificate via a comparison family.

    Three ingredient groups: (a) coefficient orderings against the family on
    the outer band |w| >= eps for finitely many eps in (0, eps0], the caps on
    |w| <= N and the orderings on each annulus N <= |w| <= eps; (b) zero
    counting of the comparison equations over a finite horizon as the
    oscillation check; (c) divergence probes for the reciprocal-weight tail
    and the double-integral tail.  (b) and (c) are heuristics and are flagged
    in the certificate; the sampled eps values are recorded because no finite
    reduction of the "for every eps" hypothesis exists.

    The grid decides first: every band scan of (a) runs, in that order, before
    any probe or zero count, and a band that sampled no grid point is
    Inconclusive without running them.
    """
    hypotheses = (
        "r0 >= 0",
        "band ordering vs family for |w| >= eps",
        "comparison equations oscillate (zero count)",
        "p0 <= P, q0/p0 <= Q for |w| <= N with diverging reciprocal tail",
        "band ordering vs family on N <= |w| <= eps with diverging double tail",
    )
    sign, outer, oscillate, capped, annulus = hypotheses
    theorem = "T3_5"
    if region is None:
        region = Rectangle(eq.t0, eq.t0 + 20.0, -8.0, 8.0)
    if eps0 <= 0 or N <= 0:
        raise DomainError("check_t3_5 needs eps0 > 0 and N > 0")
    eps_list = list(eps_samples) if eps_samples is not None else [eps0 * 0.5 ** k for k in range(5)]
    eps_tail = list(eps_tail_samples) if eps_tail_samples is not None else [N, 2.0 * N, 4.0 * N]
    ts = grid.t_axis(region.t_min, region.t_max)
    ws = grid.w_axis(region.w_min, region.w_max)
    rec = _region_record(ts, region.w_min, region.w_max, len(ws), (ws[0], ws[-1]))
    details: dict = {"eps_samples": eps_list, "eps_tail_samples": eps_tail, "N": N, "eps0": eps0}
    flags = ("comparison_oscillation_zero_count", "tail_divergence_probe")

    def falsified(witness: Witness) -> Certificate:
        return Certificate(theorem, FALSIFIED, hypotheses, rec, witness=witness, heuristic_flags=flags, details=details)

    # Phase 1, the grid: one band scan per row, in order (hypothesis, lo <= |w| <= hi, fields, checks).
    pqr = _eq_fields(eq, *_PQR)
    scans = [(sign, 0.0, math.inf, _eq_fields(eq, "r0"), [_Check(sign, "r0", "<", 0.0, "0")])]
    outer_family, tail_family = [], []
    for eps in eps_list:
        if not 0.0 < eps <= eps0:
            raise DomainError(f"eps sample {eps!r} outside (0, eps0]")
        p_e, q_e, r_e = comparison = family(eps)
        outer_family.append((eps, comparison))
        ratio = ("<", lambda t, p_e=p_e, q_e=q_e: q_e(t) / p_e(t), "q_eps/p_eps")
        scans.append((outer, eps, math.inf, pqr, _family_checks(outer, eps, p_e, ratio, r_e)))
    checks = [_Check(capped, "p0", ">", b.P, "P"), _Check(capped, "q0/p0", ">", b.Q, "Q")]
    scans.append((capped, 0.0, N, _eq_fields(eq, "p0", "q0", "q0/p0"), checks))
    for eps in eps_tail:
        if eps < N:
            raise DomainError(f"tail eps sample {eps!r} below N")
        p_e, q_e, r_e = comparison = family(eps)
        tail_family.append((eps, comparison))
        scans.append((annulus, N, eps, pqr, _family_checks(annulus, eps, p_e, (">", q_e, "q_eps"), r_e)))
    # The w range each band hypothesis sampled; one that sampled nothing is never Verified.
    seen = {h: [math.inf, -math.inf] for h in (outer, capped, annulus)}
    covered = True
    for hypothesis, lo, hi, fields, checks in scans:
        band = [w for w in ws if lo <= abs(w) <= hi]  # with lo > 0, two runs: ranges leave out the gap
        halves = ([w for w in band if w < 0.0], [w for w in band if w >= 0.0]) if lo > 0.0 else (band,)
        rows = _rows(ts, band, tuple((h[0], h[-1]) for h in halves if h))
        witness, band_covered = _scan(rows, fields, [_points(*checks)], seen.get(hypothesis))
        if witness is not None:
            return falsified(witness)
        covered = covered and band_covered
    unsampled = [h for h, (lo, hi) in seen.items() if lo > hi]
    if unsampled:
        reason = f"no grid point sampled for '{unsampled[0]}'"
        return Certificate(theorem, INCONCLUSIVE, hypotheses, rec, reason=reason, heuristic_flags=flags, details=details)

    # Phase 2, the heuristics: the tail probes, then the zero counts.
    def probe(integrand, statuses: dict, key: str, hypothesis: str, converged: str, inconclusive: str) -> Certificate | None:
        # A converging tail falsifies its hypothesis; only a diverging one lets the check go on.
        status = statuses[key] = divergence_probe(integrand, eq.t0).status
        if status == CONVERGING:
            return falsified(Witness(hypothesis, eq.t0, None, converged))
        if status != DIVERGING:
            return Certificate(theorem, INCONCLUSIVE, hypotheses, rec, reason=inconclusive, heuristic_flags=flags, details=details)
        return None

    VQ = CumulativeIntegral(b.Q, eq.t0, abs_rate=1e-13, rel_tol=1e-11)

    def reciprocal_tail(tau: float) -> float:
        p = b.P(tau)
        if p <= 0.0:
            raise DomainError(f"P({tau!r}) = {p!r} <= 0")
        return math.exp(-VQ(tau)) / p

    converged, inconclusive = "reciprocal-weight tail probe converged", "reciprocal tail probe inconclusive"
    outcome = probe(reciprocal_tail, details, "reciprocal_tail_status", capped, converged, inconclusive)
    if outcome is not None:
        return outcome
    tail_status = details["double_tail_status"] = {}
    for eps, (p_e, q_e, r_e) in tail_family:
        integrand = weighted_tail_integrand(b.P, q_e, r_e, eq.t0)
        at = f" at eps={eps!r}"
        converged, inconclusive = "double-integral tail probe converged" + at, "double tail probe inconclusive" + at
        outcome = probe(integrand, tail_status, repr(eps), annulus, converged, inconclusive)
        if outcome is not None:
            return outcome

    # Oscillation of each sampled comparison equation, by zero counting.
    zero_counts = details["comparison_zero_counts"] = {}
    for eps, (p_e, q_e, r_e) in outer_family:
        count = zero_counts[repr(eps)] = _comparison_zero_count(eq.t0, p_e, q_e, r_e, osc_horizon)
        if count < osc_min_zeros:
            detail = f"comparison equation at eps={eps!r} produced {count} zero(s) < {osc_min_zeros} on horizon {osc_horizon!r}"
            return falsified(Witness(oscillate, eq.t0, None, detail))

    return Certificate(
        theorem,
        VERIFIED,
        hypotheses,
        _covered(rec, covered),
        conclusion=OSC_OR_SINGULAR_FIRST_KIND,
        heuristic_flags=flags,
        details=details,
    )


def _comparison_zero_count(
    t0: float,
    p_e: TimeFunction,
    q_e: TimeFunction,
    r_e: TimeFunction,
    osc_horizon: float,
) -> int:
    eq = EquationSpec(
        p0=_closed_form_field([_Product(1.0, tau=p_e)], {"positive"}, "p_eps"),
        q0=_closed_form_field([_Product(1.0, tau=q_e)], name="q_eps"),
        r0=_closed_form_field([_Product(1.0, tau=r_e)], name="r_eps"),
        t0=t0,
    )
    opts = IntegrationOptions(rel_tol=1e-6, abs_tol=1e-9, horizon=t0 + osc_horizon, escape_threshold=1e30)
    traj = integrate(eq, InitialData(t1=t0, phi0=1.0, phi1=0.0), opts)
    return len(traj.zeros)


def check_t3_6(
    eq: EquationSpec,
    region: Rectangle | None = None,
    grid: GridSpec = GridSpec(),
) -> Certificate:
    """Global-existence-for-all-data certificate from even monotone structure.

    Samples r0 >= 0 and the even monotonicity in w of p0, q0/p0 and -r0.
    Verified certifies global extension of the solution for every initial
    pair on the sampled region.
    """
    hypotheses = ("r0 >= 0", "p0, q0/p0, -r0 even-monotone in w")
    theorem = "T3_6"
    if region is None:
        region = Rectangle(eq.t0, eq.t0 + 50.0, -10.0, 10.0)
    ts = grid.t_axis(region.t_min, region.t_max)
    ws = grid.w_axis(region.w_min, region.w_max)
    fields = {**_eq_fields(eq, *_PQR), "-r0": lambda t, ws, row: ([-v for v in row["r0"]], None)}
    stages = [_points(_Check("r0 >= 0", "r0", "<", 0.0, "0")), _even_monotone(hypotheses[1], "p0", "q0/p0", "-r0")]
    witness, covered = _scan(_rows(ts, ws), fields, stages)
    rec = _region_record(ts, region.w_min, region.w_max, len(ws), (ws[0], ws[-1]))
    if witness is not None:
        return Certificate(theorem, FALSIFIED, hypotheses, rec, witness=witness)
    return Certificate(theorem, VERIFIED, hypotheses, _covered(rec, covered), conclusion=GLOBAL_FOR_ALL_IC)
