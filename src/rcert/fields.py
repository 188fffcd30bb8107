"""Coefficient fields, equation specifications, and structural-property probes.

The equations handled by this package have the divergence form

    (p0(t, phi) * phi')' + q0(t, phi) * phi' + r0(t, phi) * phi = 0,   t >= t0,

with p0 > 0.  Coefficients are black-box evaluators ``(t, w) -> float``.
Structural claims about them (signs, even monotonicity in ``w``) are declared
as tags and verified by sampling on finite grids: a numerical toolkit can
falsify such claims but never prove them, so every downstream certificate
records the rectangle and grid on which its hypotheses were actually checked.

This is the bottom layer of the package: it imports nothing from it but
``errors``, and it holds the row-wise hypothesis scan that the tag verifier
and the certificate checkers share.  It is also the one place that turns a
closed form (a sum of products c * tau(t) * t**a * g(w)) into evaluators.
Building fields and equations from JSON specs belongs to the config schema,
in ``config``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, count, repeat
from types import CodeType
from typing import Callable, NamedTuple, Sequence

from .errors import DomainError, FieldEvaluationError

__all__ = [
    "KNOWN_TAGS",
    "ScalarField",
    "EquationSpec",
    "InitialData",
    "BoundTriple",
    "Rectangle",
    "GridSpec",
    "TagCheck",
    "TagReport",
    "verify_structural_tags",
    "system_rhs",
]

#: Structural claims a field may declare.  ``monotone_in_w_even`` means
#: nonincreasing in w on (-inf, 0] and nondecreasing on [0, +inf) for each t.
KNOWN_TAGS = frozenset({"positive", "nonnegative", "nonpositive", "monotone_in_w_even"})


@dataclass(frozen=True)
class ScalarField:
    """A coefficient field ``(t, w) -> float`` with optional declared tags.

    Tags are claims to be sample-verified, never trusted blindly.  Evaluation
    through :meth:`__call__` enforces finiteness: a NaN/inf sample raises
    :class:`FieldEvaluationError`.

    ``row_fn``, when given, evaluates a whole row ``(t, ws) -> list[float]``
    for :meth:`sample_row` and must give every sample bit for bit as
    ``__call__`` would.  Closed forms get theirs from :func:`_closed_form_field`
    and keep ``products`` and ``start``, for :func:`_enclose`; opaque callables have none.
    """

    fn: Callable[[float, float], float]
    tags: frozenset = frozenset()
    name: str = ""
    row_fn: Callable[[float, Sequence[float]], list[float]] | None = None
    products: tuple[_Product, ...] | None = None
    start: float | None = None

    def __post_init__(self):
        tags = frozenset(self.tags)
        unknown = tags - KNOWN_TAGS
        if unknown:
            raise ValueError(f"unknown field tags: {sorted(unknown)}")
        object.__setattr__(self, "tags", tags)

    def __call__(self, t: float, w: float) -> float:
        try:
            value = float(self.fn(t, w))
        except (OverflowError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise FieldEvaluationError(self.name, t, w, float("nan")) from exc
        if not math.isfinite(value):
            raise FieldEvaluationError(self.name, t, w, value)
        return value

    def sample_row(self, t: float, ws: Sequence[float]) -> list[float]:
        """``[self(t, w) for w in ws]``, in one call when the field has a row evaluator.

        A row the evaluator cannot give (it raises, or a sample is not a
        finite float) is sampled again point by point, so the error names the
        first failing w, its value and its cause exactly as the scalar loop
        does.  The test sums the row: any non-finite or complex sample makes
        the sum non-finite or complex, and a finite row whose sum overflows
        only takes the slow path.
        """
        if self.row_fn is not None:
            try:
                values = self.row_fn(t, ws)
            except (OverflowError, TypeError, ValueError, ZeroDivisionError):
                pass
            else:
                total = sum(values, 0.0)
                if type(total) is float and math.isfinite(total):
                    return values
        return [self(t, w) for w in ws]


class _Product(NamedTuple):
    """One product ``c * tau(t) * t**a * g(w)`` of a closed-form coefficient.

    ``g`` names a w-factor of :data:`_W_FACTORS` (None for none) and ``b`` is
    its exponent; ``tau`` is an opaque time factor, or None.  ``w_first``
    evaluates g(w) before the time part: the value is the same, but a sample
    that fails in both parts raises from g(w).
    """

    c: float
    a: float = 0.0
    g: str | None = None
    b: float = 0.0
    tau: Callable[[float], float] | None = None
    w_first: bool = False


#: The source of each w-factor at w, with ``{b}`` its exponent.
#: libm ``pow`` is not correctly rounded, so ``w * w`` is a factor of its own.
_W_FACTORS = {"|w|^b": "abs(w) ** {b}", "w^b": "w ** {b}", "w^2-1": "(w * w - 1.0)"}


def _times(c: str, value: float, factors: list[str]) -> str:
    """The source of ``c * f1 * f2 * ...``, with a coefficient of +-1 left out."""
    if not factors:
        return c
    return {1.0: "", -1.0: "-"}.get(value, f"{c} * ") + " * ".join(factors)


@lru_cache(maxsize=256)
def _compiled(source: str) -> CodeType:
    """The code of a closed form's source, compiled once per source text.

    The source names its coefficients and time factors (``c0``, ``tau0``, ...)
    rather than holding their values, so closed forms of one shape share it.
    """
    return compile(source, "<closed form>", "exec")


def _closed_form(products: Sequence[_Product], start: float | None = None) -> dict:
    """Compile ``start + P0 + P1 + ...`` into ``fn(t, w)``, ``row(t, ws)`` and, without w-factors, ``time(t)``.

    Sums and products run left to right, and with ``start`` None the value is
    the one product.  As :mod:`dataclasses` compiles ``__init__``, the source
    holds only the operations the products need: it leaves out zero exponents
    and coefficients of +-1, since ``x ** 0.0 == 1.0`` and ``+-1.0 * x == +-x``
    for every float.  ``row`` takes each product's time part once per row, as
    a float, so a time part that is not a real number sends the row to the
    scalar loop.  A form without a w-factor is evaluated once per row.  The
    source is compiled once per text (see :func:`_compiled`) and run in a
    fresh namespace, which holds this form's own coefficients.
    Each form gets its own copy of the functions' code: the interpreter keeps
    its caches of global lookups in the code object, so forms sharing one
    would evict each other's caches whenever they are called in turn.
    """
    env = {"start": start}
    values, terms, scales = ["start"] * (start is not None), ["start"] * (start is not None), []
    for k, p in enumerate(products):
        env.update({f"c{k}": p.c, f"a{k}": p.a, f"b{k}": p.b, f"tau{k}": p.tau})
        factors = [f"tau{k}(t)"] * (p.tau is not None) + [f"t ** a{k}"] * (p.a != 0.0)
        time_part = _times(f"c{k}", p.c, factors)
        scales.append(f"    s{k} = float({time_part})\n")
        if p.g is None or (p.b == 0.0 and p.g != "w^2-1"):  # |w| ** 0.0 == w ** 0.0 == 1.0
            values.append(time_part)
            terms.append(f"s{k}")
        else:
            at_w = _W_FACTORS[p.g].format(b=f"b{k}")
            values.append(f"{at_w} * ({time_part})" if p.w_first and factors else _times(f"c{k}", p.c, factors + [at_w]))
            terms.append(f"s{k} * {at_w}")
    value, row = " + ".join(values), " + ".join(terms)
    source = f"def fn(t, w):\n    return {value}\ndef row(t, ws):\n{''.join(scales)}"
    if "w" in row:  # a w-factor: ``start`` and ``s<k>`` hold no w
        source += f"    return [{row} for w in ws]\n"
    else:  # no w-factor: one value for the whole row
        source += f"    return [{row}] * len(ws)\ndef time(t):\n    return {value}\n"
    code = _compiled(source)
    exec(code.replace(co_consts=tuple(c.replace() if isinstance(c, CodeType) else c for c in code.co_consts)), env)
    return env


def _closed_form_field(products: Sequence[_Product], tags=frozenset(), name: str = "", start: float | None = None) -> ScalarField:
    """The field of a sum of products, with its row evaluator (see :func:`_closed_form`)."""
    env = _closed_form(products, start)
    return ScalarField(env["fn"], frozenset(tags), name, env["row"], tuple(products), start)


def _closed_form_time(products: Sequence[_Product], start: float | None = None) -> Callable[[float], float]:
    """The time function of a sum of products without w-factors (see :func:`_closed_form`)."""
    return _closed_form(products, start)["time"]


@dataclass(frozen=True)
class EquationSpec:
    """The coefficient triple (p0, q0, r0) plus the start time t0.

    ``p0`` must carry the ``positive`` tag; positivity itself is re-checked at
    every point the integrator and the probes actually touch.
    """

    p0: ScalarField
    q0: ScalarField
    r0: ScalarField
    t0: float

    def __post_init__(self):
        if "positive" not in self.p0.tags:
            raise ValueError("p0 must be tagged 'positive'")
        if not math.isfinite(self.t0):
            raise ValueError("t0 must be finite")


@dataclass(frozen=True)
class InitialData:
    """Initial values phi(t1) = phi0 and phi'(t1) = phi1."""

    t1: float
    phi0: float
    phi1: float

    def __post_init__(self):
        for label, v in (("t1", self.t1), ("phi0", self.phi0), ("phi1", self.phi1)):
            if not math.isfinite(v):
                raise ValueError(f"{label} must be finite")


@dataclass(frozen=True)
class BoundTriple:
    """Time-only envelope functions P, Q, R sandwiching the coefficient fields.

    ``R`` may be omitted for checks that do not use it.  P(t) > 0 is enforced
    wherever P is sampled by the quadrature layer.
    """

    P: Callable[[float], float]
    Q: Callable[[float], float]
    R: Callable[[float], float] | None = None


@dataclass(frozen=True)
class Rectangle:
    """A finite (t, w) rectangle on which hypotheses are sampled."""

    t_min: float
    t_max: float
    w_min: float = -1.0
    w_max: float = 1.0

    def __post_init__(self):
        if not (self.t_min <= self.t_max and self.w_min <= self.w_max):
            raise ValueError("rectangle bounds out of order")


@dataclass(frozen=True)
class GridSpec:
    """Uniform sampling resolution per axis.

    The 2**k + 1 default makes nested refinements contain every coarse point,
    which is what the refinement-monotonicity guarantees rely on.
    """

    nt: int = 129
    nw: int = 129

    def __post_init__(self):
        if self.nt < 2 or self.nw < 2:
            raise ValueError("grids need at least 2 points per axis")

    def t_axis(self, lo: float, hi: float) -> list[float]:
        return _linspace(lo, hi, self.nt)

    def w_axis(self, lo: float, hi: float) -> list[float]:
        return _linspace(lo, hi, self.nw)

    def refined(self, factor: int = 2) -> "GridSpec":
        return GridSpec(nt=(self.nt - 1) * factor + 1, nw=(self.nw - 1) * factor + 1)


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """``lo + i * step`` for i < n - 1, then ``hi``; no point when lo > hi (see :func:`_axis_ends`)."""
    lo, hi, n = _axis_ends(lo, hi, n)
    if n < 2:
        return [lo] * n
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


def _axis_ends(lo: float, hi: float, n: int) -> tuple[float, float, int]:
    """The first and last point and the size of :func:`_linspace`'s axis; an overflowing span raises, as its step is inf."""
    if lo > hi:
        return math.inf, -math.inf, 0
    if n == 1 or lo == hi:
        return lo, lo, 1
    if not math.isfinite(hi - lo):
        raise DomainError(f"grid axis over [{lo!r}, {hi!r}] spans {hi - lo!r}: the region is too wide to grid")
    return lo + 0.0, hi, n  # the first point is lo + 0.0 * step, and -0.0 + 0.0 is 0.0


@dataclass(frozen=True)
class TagCheck:
    tag: str
    holds: bool
    witness: tuple[float, float] | None = None
    detail: str = ""


@dataclass(frozen=True)
class TagReport:
    field_name: str
    region: Rectangle
    grid: GridSpec
    checks: tuple[TagCheck, ...]

    def __getitem__(self, tag: str) -> TagCheck:
        for c in self.checks:
            if c.tag == tag:
                return c
        raise KeyError(tag)

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)


def _rows(ts, ws, spans=None) -> list[tuple[float, tuple, list[float]]]:
    """(t, spans, w-row) rows over a fixed w axis; ``spans`` holds the (first, last) w of its runs, by default one."""
    spans = spans if spans is not None else ((ws[0], ws[-1]),) if ws else ()
    return [(t, spans, ws) for t in ts]


def _scan(rows, fields: dict, stages, seen: list[float] | None = None) -> tuple[object, bool]:
    """The first failure of a hypothesis scan over (t, w), one row at a time, and whether every row cleared.

    ``rows`` gives (t, spans, ws): the (first, last) w of each run of the row,
    and the w values or the size n of the axis ``_linspace(lo, hi, n)`` of one
    span.  A row clears, unbuilt and unsampled, when each field has a finite
    range over its spans (:func:`_enclose`, or a derived row's ``enclose``) on
    which each stage ``clears``: its checks hold at every float w of them.  Any
    other row samples every :class:`ScalarField` at every w before any check,
    so a non-finite sample raises; derived rows may stop early (see
    :func:`certificates._ratio`).  Stages return None or a hit
    (j, outcome), j indexing ws (None for no w); the first hit ends the scan,
    raising an exception or returning a Witness or Inconclusive reason.
    ``seen`` becomes [min, max] of the w checked.
    """
    decided = all(hasattr(s, "clears") for s in stages)
    covered = decided = decided and all(f.products is not None if isinstance(f, ScalarField) else hasattr(f, "enclose") for f in fields.values())
    for t, spans, ws in rows:
        if not (decided and ws and _row_clears(t, spans, fields, stages)):
            covered = covered and not ws
            ws = _linspace(*spans[0], ws) if type(ws) is int else ws
            row, stops, sampled = {}, {}, {}
            for name, f in fields.items():
                if isinstance(f, ScalarField):
                    if id(f) not in sampled:
                        sampled[id(f)] = f.sample_row(t, ws)
                    row[name] = sampled[id(f)]
                else:
                    row[name], stop = f(t, ws, row)
                    if stop is not None:
                        stops[name] = stop
            for stage in stages:
                hit = stage(t, ws, row, stops)
                if hit is not None:
                    j, outcome = hit
                    if isinstance(outcome, Exception):
                        raise outcome
                    if seen is not None and j is not None:
                        seen[:] = [min(seen[0], ws[0]), max(seen[1], ws[j])]
                    return outcome, False
        if seen is not None and ws:
            seen[:] = [min(seen[0], spans[0][0]), max(seen[1], spans[-1][1])]  # ws[0] and ws[-1]
    return None, covered


def _row_clears(t: float, spans, fields: dict, stages) -> bool:
    """Whether every field has a finite range over the spans at t, and every stage clears on them (see :func:`_scan`)."""
    ranges = {}
    for name, f in fields.items():
        r = _enclose(f, t, spans) if isinstance(f, ScalarField) else f.enclose(ranges)
        if r is None or not (math.isfinite(r[0]) and math.isfinite(r[1])):
            return False
        ranges[name] = r
    return all(stage.clears(t, ranges) for stage in stages)


def _enclose(fld: ScalarField, t: float, spans) -> tuple[float, float] | None:
    """(min, max) of every sample of a closed form at t with w in the spans; None, or a non-finite end, if one may fail.

    Each w-factor is monotone on either side of 0, so has its extremes at the
    ends of the spans or at 0 inside one.  ``w * w - 1.0``, products and sums
    are correctly rounded, so monotone: the row evaluator's operations on the
    ranges bound its samples.  Only pow's range is widened, but not below 0
    where no power is negative.  The time part is the row evaluator's to the
    bit (``x * 1.0 == x``, ``t ** 0.0 == 1.0``).  A pole, an overflow or a
    complex power raises.
    """
    ends = [w for lo, hi in spans for w in ((lo, hi, 0.0) if lo < 0.0 < hi else (lo, hi))]
    bottom = top = 0.0 if fld.start is None else fld.start  # 0.0 + x == x, but for the sign of a zero
    try:
        for p in fld.products:
            s = float(p.c * (1.0 if p.tau is None else p.tau(t)) * t ** p.a)
            if p.g is None or (p.b == 0.0 and p.g != "w^2-1"):
                low = high = 1.0
            elif p.g == "w^2-1":
                low, high = min(w * w for w in ends) - 1.0, max(w * w for w in ends) - 1.0
            else:
                powers = [(abs(w) if p.g == "|w|^b" else w) ** p.b for w in ends]
                low, high = min(powers), max(powers)
                for _ in range(8):  # pow is within one ulp of the power: CHANGES.md derives this margin
                    low, high = math.nextafter(low, -math.inf), math.nextafter(high, math.inf)
                if p.g == "|w|^b" or min(ends) >= 0.0 or p.b % 2.0 == 0.0:
                    low = max(low, 0.0)
            low, high = (s * low, s * high) if s >= 0.0 else (s * high, s * low)
            bottom, top = bottom + low, top + high
    except (ArithmeticError, TypeError, ValueError):
        return None
    return bottom, top


def verify_structural_tags(fld: ScalarField, region: Rectangle, grid: GridSpec = GridSpec()) -> TagReport:
    """Check each declared tag of ``fld`` on a uniform grid over ``region``.

    For every tag the report carries either a confirmation on all grid points
    or the first counterexample point in (t-major, w-minor) scan order.  A tag
    falsified on some grid stays falsified on every refinement that contains
    the witness point.  The grid is scanned one row at a time and the scan
    ends at the row where the last open tag fails; a field without tags is
    not sampled at all.
    """
    tags = sorted(fld.tags)
    if not tags:
        return TagReport(field_name=fld.name, region=region, grid=grid, checks=())
    found: dict[str, TagCheck] = {}

    def rule(t, ws, row, stops):
        values = row["value"]
        for tag in tags:
            if tag not in found:
                hit = _tag_violation(tag, t, ws, values)
                if hit is not None:
                    found[tag] = hit
        # A hit without an outcome ends the scan once every tag has its witness.
        return (None, None) if found and len(found) == len(tags) else None

    ts = grid.t_axis(region.t_min, region.t_max)
    _scan(_rows(ts, grid.w_axis(region.w_min, region.w_max)), {"value": fld}, [rule])
    checks = tuple(found.get(tag, TagCheck(tag, True)) for tag in tags)
    return TagReport(field_name=fld.name, region=region, grid=grid, checks=checks)


#: The comparison with 0.0 that falsifies each sign tag.
_SIGN_VIOLATIONS = {"positive": operator.le, "nonnegative": operator.lt, "nonpositive": operator.gt}


#: For each comparison, the row extremum and the test on it that show no value
#: satisfies the comparison.  A nan that min or max skips never satisfies it
#: either, and one that they return fails the test.
_CLEARED = {operator.lt: (min, operator.ge), operator.le: (min, operator.gt), operator.gt: (max, operator.le)}


def _first_where(values, op, bound) -> int | None:
    """Index of the first ``v`` in ``values`` with ``op(v, bound)``, or None; a (min, max) range is a row of two."""
    if values and op in _CLEARED:
        extremum, clear = _CLEARED[op]
        if clear(extremum(values), bound):
            return None
    return next(compress(count(), map(op, values, repeat(bound))), None)


def _even_monotone_break(ws, values) -> tuple[int, str, str] | None:
    """The first adjacent pair (j, j + 1) that breaks even monotonicity in w.

    A pair with ``ws[j + 1] <= 0`` must not increase and a pair with
    ``ws[j] >= 0`` must not decrease.  Returns (j, verb, side), or None.
    """
    for j in range(len(ws) - 1):
        if ws[j + 1] <= 0.0 and values[j] < values[j + 1]:
            return j, "increases", "nonpositive"
        if ws[j] >= 0.0 and values[j] > values[j + 1]:
            return j, "decreases", "nonnegative"
    return None


def _tag_violation(tag: str, t: float, ws, values) -> TagCheck | None:
    if tag == "monotone_in_w_even":
        hit = _even_monotone_break(ws, values)
        if hit is None:
            return None
        j, verb, side = hit
        return TagCheck(tag, False, (t, ws[j + 1]), f"{verb} across w in [{ws[j]!r}, {ws[j + 1]!r}] on the {side} side")
    j = _first_where(values, _SIGN_VIOLATIONS[tag], 0.0)
    if j is None:
        return None
    return TagCheck(tag, False, (t, ws[j]), f"value {values[j]!r} violates '{tag}'")


def system_rhs(eq: EquationSpec) -> Callable[[float, float, float], tuple[float, float]]:
    """First-order right-hand side (f1, f2) of the equivalent system.

    f1 = v / p0(t, u) and f2 = -r0(t, u) u - q0(t, u) / p0(t, u) * v, in the
    state variables u = phi and v = psi = p0 * phi'.

    When all three fields have a row evaluator (the builtins and the JSON kinds),
    the rhs calls their raw ``fn``s.  A point where one raises anything, a sample
    is not a float, the sum of the samples is not finite or p0 <= 0 is evaluated
    again through the wrapped fields, so it raises or returns exactly what they do.
    Opaque fields are only called through the wrapped fields, once per point.
    """

    p0, q0, r0 = eq.p0, eq.q0, eq.r0

    def f(t: float, u: float, v: float) -> tuple[float, float]:
        p = p0(t, u)
        if p <= 0.0:
            raise DomainError(f"p0 is not positive at (t={t!r}, w={u!r}): {p!r}")
        return v / p, -r0(t, u) * u - q0(t, u) / p * v

    if p0.row_fn is None or q0.row_fn is None or r0.row_fn is None:
        return f
    p_fn, q_fn, r_fn, isfinite = p0.fn, q0.fn, r0.fn, math.isfinite

    def raw(t: float, u: float, v: float) -> tuple[float, float]:
        try:
            p, r, q = p_fn(t, u), r_fn(t, u), q_fn(t, u)
        except Exception:
            return f(t, u, v)
        if type(p) is type(r) is type(q) is float and isfinite(p + r + q) and p > 0.0:
            return v / p, -r * u - q / p * v
        return f(t, u, v)

    return raw

