"""Coefficient fields, equation specifications, and the row-wise hypothesis scan.

The equations handled by this package have the divergence form

    (p0(t, phi) * phi')' + q0(t, phi) * phi' + r0(t, phi) * phi = 0,   t >= t0,

with p0 > 0.  Coefficients are black-box evaluators ``(t, w) -> float``.
Claims about them (signs, even monotonicity in ``w``) are checked by the
certificates, by sampling on finite grids: a numerical toolkit can falsify
such claims but never prove them, so every certificate records the rectangle
and grid on which its hypotheses were actually checked.

This is the bottom layer of the package: it imports nothing from it but
``errors``.  It holds the row-wise hypothesis scan, its ranges and axes, and
is the one place that compiles a closed form (a sum of products
c * tau(t) * t**a * g(w)): into one function ``fn(t, w=0.0)``, which is the
field's evaluator, its row sampler's and, without a w-factor, the time
function ``fn(t)``.  A tau that is itself a closed form is written into the
source of its product, so a sample makes one call at any depth.  It writes
the chains' columns (``_compiled_columns``) and the samples at a point of the
loop's in-place rhs and the oracles' panel samplers (``_compiled_points``);
:func:`system_rhs` is the reference rhs, through the wrapped fields.
Building fields and equations from JSON specs belongs to the config schema,
in ``config``.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import CodeType
from typing import Callable, NamedTuple, Sequence

from .errors import DomainError, FieldEvaluationError

__all__ = [
    "ScalarField",
    "EquationSpec",
    "InitialData",
    "BoundTriple",
    "Rectangle",
    "GridSpec",
    "system_rhs",
]


@dataclass(frozen=True)
class ScalarField:
    """A coefficient field ``(t, w) -> float``.

    Evaluation through :meth:`__call__` enforces finiteness: a NaN/inf sample
    raises :class:`FieldEvaluationError`.

    Closed forms come from :func:`_closed_form_field` and keep ``products``
    and ``start``, for :meth:`sample_row` and :func:`_enclose`; opaque
    callables have none.
    """

    fn: Callable[[float, float], float]
    name: str = ""
    products: tuple[_Product, ...] | None = None
    start: float | None = None

    def __call__(self, t: float, w: float) -> float:
        try:
            value = float(self.fn(t, w))
        except (OverflowError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise FieldEvaluationError(self.name, t, w, float("nan")) from exc
        if not math.isfinite(value):
            raise FieldEvaluationError(self.name, t, w, value)
        return value

    def sample_row(self, t: float, ws: Sequence[float]) -> list[float]:
        """``[self(t, w) for w in ws]``; a closed form calls its ``fn`` unwrapped, once per row without a w-factor.

        A row the closed form cannot give (it raises, or a sample is not a
        finite float) is sampled again point by point, so the error names the
        first failing w, its value and its cause exactly as the scalar loop
        does.  The test sums the row: any non-finite or complex sample makes
        the sum non-finite or complex, and a finite row whose sum overflows
        only takes the slow path.
        """
        if self.products is not None:
            fn = self.fn
            try:
                # float(): a time factor may give an int (an empty polynomial is the integer 0)
                values = [float(fn(t))] * len(ws) if self._w_free else [fn(t, w) for w in ws]
            except (OverflowError, TypeError, ValueError, ZeroDivisionError):
                pass
            else:
                total = sum(values, 0.0)
                if type(total) is float and math.isfinite(total):
                    return values
        return [self(t, w) for w in ws]

    @cached_property
    def _w_free(self) -> bool:
        return all(p.w_free for p in self.products)


class _Product(NamedTuple):
    """One product ``c * tau(t) * t**a * g(w)`` of a closed-form coefficient.

    ``g`` names a w-factor of :data:`_W_FACTORS` (None for none) and ``b`` is
    its exponent; ``tau`` is a time factor, or None (a closed-form one is
    written into the product's source, see :func:`_form_source`).  ``w_first``
    evaluates g(w) before the time part: the value is the same, but a sample
    that fails in both parts raises from g(w).
    """

    c: float
    a: float = 0.0
    g: str | None = None
    b: float = 0.0
    tau: Callable[[float], float] | None = None
    w_first: bool = False

    @property
    def w_free(self) -> bool:
        """Whether the product has no w-factor: ``|w| ** 0.0 == w ** 0.0 == 1.0``."""
        return self.g is None or (self.b == 0.0 and self.g != "w^2-1")


#: The source of each w-factor at ``{w}``, with ``{b}`` its exponent.
#: libm ``pow`` is not correctly rounded, so ``w * w`` is a factor of its own.
_W_FACTORS = {"|w|^b": "abs({w}) ** {b}", "w^b": "{w} ** {b}", "w^2-1": "({w} * {w} - 1.0)"}


def _times(c: str, value: float, factors: list[str]) -> str:
    """The source of ``c * f1 * f2 * ...``, with a coefficient of +-1 left out."""
    if not factors:
        return c
    return {1.0: "", -1.0: "-"}.get(value, f"{c} * ") + " * ".join(factors)


@lru_cache(maxsize=256)
def _compiled(source: str, filename: str = "<rcert.fields closed form>") -> CodeType:
    """The code of a generated source, compiled once per source text under ``filename``, the kind it names in a profile.

    The source names its coefficients and time factors (``c0``, ``tau0``, ...)
    rather than holding their values, so closed forms of one shape share it.
    """
    return compile(source, filename, "exec")


def _closed_form(products: Sequence[_Product], start: float | None = None) -> Callable[..., float]:
    """Compile ``start + P0 + P1 + ...`` into one ``fn(t, w=0.0)``; without a w-factor, ``fn(t)`` is its time function.

    Sums and products run left to right, and with ``start`` None the value is
    the one product.  As :mod:`dataclasses` compiles ``__init__``, the source
    holds only the operations the products need: it leaves out zero exponents
    and coefficients of +-1, since ``x ** 0.0 == 1.0`` and ``+-1.0 * x == +-x``
    for every float.
    """
    env, terms = _form_source(products, start)
    return _run(f"def fn(t, w=0.0):\n    return {' + '.join(terms)}\n", env)["fn"]


def _form_source(products: Sequence[_Product], start: float | None, prefix: str = "", t: str = "t", w: str = "w") -> tuple[dict, list[str]]:
    """The namespace and the terms of the value source, ``" + ".join(terms)``, of a closed form at the variables ``t`` and ``w``; every name in the namespace starts with ``prefix``.

    A ``tau`` that is itself a closed-form time function (it has ``products``)
    is written in, in parentheses and under the prefix ``{prefix}tau{k}_``, in
    place of the call ``tau{k}(t)``: the same operations on the same t.
    """
    env = {f"{prefix}start": start}
    values = [f"{prefix}start"] * (start is not None)
    for k, p in enumerate(products):
        c, a, b, tau = (f"{prefix}{n}{k}" for n in ("c", "a", "b", "tau"))
        env.update({c: p.c, a: p.a, b: p.b})
        if getattr(p.tau, "products", None) is not None:
            tau_env, tau_terms = _form_source(p.tau.products, p.tau.start, f"{tau}_", t)
            env.update(tau_env)
            time = [f"({' + '.join(tau_terms)})"]
        else:
            env[tau] = p.tau
            time = [f"{tau}({t})"] * (p.tau is not None)
        factors = time + [f"{t} ** {a}"] * (p.a != 0.0)
        if p.w_free:
            values.append(_times(c, p.c, factors))
        else:
            at_w = _W_FACTORS[p.g].format(b=b, w=w)
            values.append(f"{at_w} * ({_times(c, p.c, factors)})" if p.w_first and factors else _times(c, p.c, factors + [at_w]))
    return env, values


def _run(source: str, env: dict, scope: dict | None = None, filename: str = "<rcert.fields closed form>") -> dict:
    """``env`` after running ``source`` in it, or ``scope`` after running it there with the globals ``env`` (compiled once per text, see :func:`_compiled`).

    Each run gets its own copy of the functions' code: the interpreter keeps
    its caches of global lookups in the code object, so forms sharing one
    would evict each other's caches whenever they are called in turn.
    """
    code = _compiled(source, filename)
    exec(code.replace(co_consts=tuple(c.replace() if isinstance(c, CodeType) else c for c in code.co_consts)), env, scope)
    return env if scope is None else scope


def _closed_form_field(products: Sequence[_Product], name: str = "", start: float | None = None) -> ScalarField:
    """The field ``name`` of a sum of products, keeping them for :meth:`ScalarField.sample_row` and :func:`_enclose` (see :func:`_closed_form`)."""
    return ScalarField(_closed_form(products, start), name, tuple(products), start)


def _closed_form_time(products: Sequence[_Product], start: float | None = None) -> Callable[[float], float]:
    """The time function of a sum of products without w-factors (see :func:`_closed_form`).

    It keeps ``products`` and ``start`` as attributes, for the envelope's closed form (``quadrature.FBound``).
    """
    if not all(p.w_free for p in products):
        raise ValueError("a time function takes no w-factor")
    time = _closed_form(products, start)
    time.products, time.start = tuple(products), start
    return time


def _compiled_columns(fns: Sequence[Callable[[float], float]], write: Callable[[tuple], str], env: dict, filename: str = "<rcert.fields closed form>") -> dict | None:
    """The namespace of ``write(sources)`` run with the globals ``env`` (compiled as ``filename``), ``sources[j]`` the source of ``fns[j]`` at ``{t}``; None if one is opaque.

    A source's names start with ``col{j}_``.  One that reads no t and whose
    ``fns[j](0.0)`` is a finite float is None, that value ``col{j}``.
    """
    if any(getattr(f, "products", None) is None for f in fns):
        return None
    scope, sources = {}, []
    for j, f in enumerate(fns):
        form_env, terms = _form_source(f.products, f.start, f"col{j}_", "{t}")
        scope.update(form_env)
        value = " + ".join(terms)
        with suppress(Exception):  # a constant that raises is sampled at each node
            x = None if "{t}" in value else f(0.0)
            if type(x) is float and math.isfinite(x):
                scope[f"col{j}"], value = x, None
        sources.append(value)
    return _run(write(tuple(sources)), env, scope, filename)


@dataclass(frozen=True)
class EquationSpec:
    """The coefficient triple (p0, q0, r0) plus the start time t0.

    p0 > 0 is not declared but enforced where it is used: the rhs (both
    :func:`system_rhs` and the loop's) and the scans' ``q0/p0`` row raise
    :class:`DomainError` at a point where p0 <= 0.
    """

    p0: ScalarField
    q0: ScalarField
    r0: ScalarField
    t0: float

    def __post_init__(self):
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
    are correctly rounded, so monotone: the evaluator's operations on the
    ranges bound its samples.  Only pow's range is widened, but not below 0
    where no power is negative.  The time part is the evaluator's to the
    bit (``x * 1.0 == x``, ``t ** 0.0 == 1.0``).  A pole, an overflow or a
    complex power raises.
    """
    ends = [w for lo, hi in spans for w in ((lo, hi, 0.0) if lo < 0.0 < hi else (lo, hi))]
    bottom = top = 0.0 if fld.start is None else fld.start  # 0.0 + x == x, but for the sign of a zero
    try:
        for p in fld.products:
            s = float(p.c * (1.0 if p.tau is None else p.tau(t)) * t ** p.a)
            if p.w_free:
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


def system_rhs(eq: EquationSpec) -> Callable[[float, float, float], tuple[float, float]]:
    """First-order right-hand side (f1, f2) of the equivalent system: the reference rhs, through the wrapped fields.

    f1 = v / p0(t, w) and f2 = -r0(t, w) w - q0(t, w) / p0(t, w) * v, in the
    state variables w = phi and v = psi = p0 * phi'; p0, r0 and q0 are sampled
    in that order, and p0 <= 0 raises :class:`DomainError`.  The integration
    loop writes the only compiled rhs in place, and falls back on this one.
    """
    p0, q0, r0 = eq.p0, eq.q0, eq.r0

    def f(t: float, w: float, v: float) -> tuple[float, float]:
        p = p0(t, w)
        if p <= 0.0:
            raise DomainError(f"p0 is not positive at (t={t!r}, w={w!r}): {p!r}")
        return v / p, -r0(t, w) * w - q0(t, w) / p * v

    return f


def _compiled_points(eq: EquationSpec, write: Callable[[tuple, tuple, tuple], str], env: dict, filename: str, which: str = "prq") -> dict:
    """A copy of ``env``, with the ``names`` of the coefficients it reads, after running the source ``write(names, bind, stage)`` compiled as ``filename``.

    ``stage`` holds the lines of a point at ({t}, {w}) (see :func:`_at_point`):
    they take the samples p, r and q of p0, r0 and q0 named in ``which``, in
    that order, each with its field's ``fn`` source, then run {result} where
    none raises, all are floats, their sum is finite and p > 0, and {fallback} elsewhere.  A
    constant sample (its source reads no t and no w) is taken once, by the
    lines ``bind``, and left out of the tests, which are decided here on its
    value: a point's path changes only where all samples are finite floats,
    p > 0 and a sum overflows, where {fallback} gives what {result} does.
    If a constant fails, or a field is opaque, every point runs {fallback}.
    ``bind`` also sums the leading terms of a sample that read no t and no w,
    two or more of float coefficients: sums run left to right, and never raise.
    The integration loop (its rhs) and ``riccati._panel_sampler`` call it.
    """
    bind, samples, coefficients = [], [], {}
    for name in which:
        fld = getattr(eq, f"{name}0")
        if fld.products is None:
            break
        form_env, terms = _form_source(fld.products, fld.start, f"{name}_", "{t}", "{w}")
        coefficients.update(form_env)
        value = " + ".join(terms)
        if "{t}" in value or "{w}" in value:
            lead = next(k for k, term in enumerate(terms) if "{" in term)
            if lead > 1 and all(type(v) is float for v in form_env.values() if v is not None and not callable(v)):
                bind.append(f"{name}_lead = {' + '.join(terms[:lead])}")
                value = " + ".join([f"{name}_lead", *terms[lead:]])
            samples.append((name, value))
            continue
        try:
            x = fld.fn(0.0)
        except Exception:
            break
        if not (type(x) is float and math.isfinite(x) and (x > 0.0 or name != "p")):
            break
        bind.append(f"{name} = {value}")
    else:
        taken = [name for name, _ in samples]
        # 0.0 * x == 0.0 holds for a finite float x and fails for inf and NaN (0.0 * inf is NaN).
        rule = f"type({') is type('.join(taken)}) is float and 0.0 * ({' + '.join(taken)}) == 0.0" + " and p > 0.0" * ("p" in taken)
        stage = ("{result}",)
        if samples:  # a sample that raises leaves None in each, which fails the rule
            stage = ("try:", *(f"    {name} = {value}" for name, value in samples), "except Exception:", f"    {' = '.join(taken)} = None")
            stage += (f"if {rule}:", "    {result}", "else:", "    {fallback}")
        names = {n: v for n, v in coefficients.items() if n in "".join(bind + list(stage))}
        return _run(write(tuple(names), tuple(bind), stage), {**env, **names}, None, filename)
    return _run(write((), (), ("{fallback}",)), dict(env), None, filename)


def _at_point(stage: tuple[str, ...], t: str, w: str, result: str, fallback: str) -> list[str]:
    """The lines of a :func:`_compiled_points` stage at (t, w); an expression ``t`` that a sample reads is bound to ``tk`` first."""
    timed = not t.isidentifier() and any("{t}" in line for line in stage)
    return [f"tk = {t}"] * timed + [line.format(t="tk" if timed else t, w=w, result=result, fallback=fallback) for line in stage]
