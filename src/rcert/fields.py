"""Coefficient fields, equation specifications, and structural-property probes.

The equations handled by this package have the divergence form

    (p0(t, phi) * phi')' + q0(t, phi) * phi' + r0(t, phi) * phi = 0,   t >= t0,

with p0 > 0.  Coefficients are black-box evaluators ``(t, w) -> float``.
Structural claims about them (signs, even monotonicity in ``w``) are declared
as tags and verified by sampling on finite grids: a numerical toolkit can
falsify such claims but never prove them, so every downstream certificate
records the rectangle and grid on which its hypotheses were actually checked.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, replace
from itertools import compress, count, repeat
from typing import Callable, Mapping

from .errors import ConfigError, DomainError, FieldEvaluationError

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
    "LipschitzEstimate",
    "verify_structural_tags",
    "lipschitz_estimate",
    "uniqueness_interval",
    "system_rhs",
    "equation_from_json",
    "time_function_from_json",
    "load_equation",
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
    """

    fn: Callable[[float, float], float]
    tags: frozenset = frozenset()
    name: str = ""

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
    if n == 1 or lo == hi:
        return [lo]
    step = (hi - lo) / (n - 1)
    pts = [lo + i * step for i in range(n)]
    pts[-1] = hi
    return pts


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


def verify_structural_tags(fld: ScalarField, region: Rectangle, grid: GridSpec = GridSpec()) -> TagReport:
    """Check each declared tag of ``fld`` on a uniform grid over ``region``.

    For every tag the report carries either a confirmation on all grid points
    or the first counterexample point in (t-major, w-minor) scan order.  A tag
    falsified on some grid stays falsified on every refinement that contains
    the witness point.  The grid is scanned one row at a time and the scan
    ends at the row where the last open tag fails.
    """
    from .certificates import _rows, _scan

    tags = sorted(fld.tags)
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


def _first_where(values, op, bound) -> int | None:
    """Index of the first ``v`` in ``values`` with ``op(v, bound)``, or None."""
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


@dataclass(frozen=True)
class LipschitzEstimate:
    """Grid estimate of the Lipschitz constant of a field in its w argument."""

    value: float
    unbounded: bool
    witness: tuple[float, float] | None = None
    history: tuple[float, ...] = ()


def lipschitz_estimate(
    fld: ScalarField,
    region: Rectangle,
    grid: GridSpec = GridSpec(),
    *,
    refinements: int = 3,
    growth_ratio: float = 1.25,
) -> LipschitzEstimate:
    """Estimate ``sup |d(field)/dw|`` over a rectangle by finite differences.

    The grid is refined ``refinements`` times; when the estimate keeps growing
    by ``growth_ratio`` or more across the last two refinements it is flagged
    unbounded (a |w|**a singularity grows the estimate by 2**(1-a) per
    refinement, while estimates of genuinely Lipschitz fields level off).  A
    non-finite sample inside the probe region is treated as an unbounded-slope
    witness rather than an error, so that regions touching a singular set of
    the field are reported as not Lipschitz instead of aborting the probe.
    """
    history: list[float] = []
    g = grid
    for _ in range(max(1, refinements + 1)):
        ts = g.t_axis(region.t_min, region.t_max)
        ws = g.w_axis(region.w_min, region.w_max)
        best = 0.0
        witness = None
        for t in ts:
            prev = None
            for j, w in enumerate(ws):
                try:
                    val = fld(t, w)
                except FieldEvaluationError:
                    return LipschitzEstimate(math.inf, True, (t, w), tuple(history))
                if prev is not None:
                    slope = abs(val - prev) / (w - ws[j - 1])
                    if slope > best:
                        best = slope
                        witness = (t, w)
                prev = val
        history.append(best)
        g = g.refined()

    ratios = [b / a for a, b in zip(history, history[1:]) if a > 0.0]
    unbounded = len(ratios) >= 2 and all(r >= growth_ratio for r in ratios[-2:])
    return LipschitzEstimate(history[-1], unbounded, witness, tuple(history))


def system_rhs(eq: EquationSpec) -> Callable[[float, float, float], tuple[float, float]]:
    """First-order right-hand side (f1, f2) of the equivalent system.

    f1 = v / p0(t, u) and f2 = -r0(t, u) u - q0(t, u) / p0(t, u) * v, in the
    state variables u = phi and v = psi = p0 * phi'.
    """

    def f(t: float, u: float, v: float) -> tuple[float, float]:
        p = eq.p0(t, u)
        if p <= 0.0:
            raise DomainError(f"p0 is not positive at (t={t!r}, w={u!r}): {p!r}")
        return v / p, -eq.r0(t, u) * u - eq.q0(t, u) / p * v

    return f


def uniqueness_interval(
    eq: EquationSpec,
    ic: InitialData,
    delta: float,
    M: float,
    N: float,
    grid: tuple[int, int, int] = (33, 33, 33),
) -> float:
    """Guaranteed length of the unique-solution interval from grid maximization.

    Returns ``t2 = min(delta, sqrt(M^2 + N^2) / M0)`` where ``M0`` is the grid
    maximum of ``sqrt(f1^2 + f2^2)`` over the box |t - t1| <= delta,
    |u - phi0| <= M, |v - phi1| <= N (clipped at t0).  Grid maximization
    under-estimates the true supremum, so the returned t2 is an upper estimate
    of the certified interval; refine the grid to tighten it.
    """
    if delta <= 0 or M < 0 or N < 0:
        raise DomainError("uniqueness_interval needs delta > 0 and M, N >= 0")
    nt, nu, nv = grid
    ts = _linspace(max(eq.t0, ic.t1 - delta), ic.t1 + delta, max(2, nt))
    us = _linspace(ic.phi0 - M, ic.phi0 + M, max(1, nu))
    vs = _linspace(ic.phi1 - N, ic.phi1 + N, max(1, nv))

    m0_sq = 0.0
    for t in ts:
        for u in us:
            p = eq.p0(t, u)
            if p <= 0.0:
                raise DomainError(f"region touches a zero of p0 at (t={t!r}, w={u!r})")
            # |f2| is unchanged by the sign convention used for r0 * u.
            base = eq.r0(t, u) * u
            ratio = eq.q0(t, u) / p
            for v in vs:
                f1 = v / p
                f2 = base + ratio * v
                m0_sq = max(m0_sq, f1 * f1 + f2 * f2)
    m0 = math.sqrt(m0_sq)
    if m0 == 0.0:
        return delta
    return min(delta, math.hypot(M, N) / m0)


# ---------------------------------------------------------------------------
# JSON equation documents
# ---------------------------------------------------------------------------

_EQUATION_KINDS = ("custom", "emden_fowler", "van_der_pol")


def _require_keys(doc: Mapping, allowed: set[str], required: set[str], path: str) -> None:
    if not isinstance(doc, Mapping):
        raise ConfigError(path, f"expected an object, got {type(doc).__name__}")
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}", "unknown key")
    missing = required - set(doc)
    if missing:
        raise ConfigError(f"{path}.{sorted(missing)[0]}", "missing required key")


def _number(doc: Mapping, key: str, path: str, default=None) -> float:
    if key not in doc:
        if default is not None:
            return default
        raise ConfigError(f"{path}.{key}", "missing required key")
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key}", f"expected a number, got {v!r}")
    return float(v)


def time_function_from_json(doc: Mapping, path: str) -> Callable[[float], float]:
    """Build a time-only function from a JSON spec.

    Kinds: ``constant`` ``{value}``, ``power`` ``{coeff, power}`` meaning
    coeff * t**power, ``polynomial`` ``{coeffs}`` with ascending powers of t.
    """
    _require_keys(doc, {"kind", "value", "coeff", "power", "coeffs"}, {"kind"}, path)
    kind = doc["kind"]
    if kind == "constant":
        _require_keys(doc, {"kind", "value"}, {"kind", "value"}, path)
        c = _number(doc, "value", path)
        return lambda t: c
    if kind == "power":
        _require_keys(doc, {"kind", "coeff", "power"}, {"kind", "power"}, path)
        coeff = _number(doc, "coeff", path, default=1.0)
        expo = _number(doc, "power", path)
        return lambda t: coeff * t ** expo
    if kind == "polynomial":
        _require_keys(doc, {"kind", "coeffs"}, {"kind", "coeffs"}, path)
        coeffs = doc["coeffs"]
        if not isinstance(coeffs, list) or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in coeffs):
            raise ConfigError(f"{path}.coeffs", "expected a list of numbers")
        cs = [float(c) for c in coeffs]
        return lambda t: sum(c * t ** k for k, c in enumerate(cs))
    raise ConfigError(f"{path}.kind", f"unknown time-function kind {kind!r}")


def _scalar_field_from_json(doc: Mapping, path: str, name: str) -> ScalarField:
    _require_keys(
        doc,
        {"kind", "value", "coeff", "t_power", "w_power", "w_abs", "terms", "tags"},
        {"kind"},
        path,
    )
    kind = doc["kind"]
    tags = doc.get("tags", [])
    if not isinstance(tags, list) or not all(isinstance(s, str) for s in tags):
        raise ConfigError(f"{path}.tags", "expected a list of strings")
    tagset = frozenset(tags)
    if tagset - KNOWN_TAGS:
        raise ConfigError(f"{path}.tags", f"unknown tag {sorted(tagset - KNOWN_TAGS)[0]!r}")

    if kind == "constant":
        _require_keys(doc, {"kind", "value", "tags"}, {"kind", "value"}, path)
        c = _number(doc, "value", path)
        return ScalarField(lambda t, w: c, tags=tagset, name=name)
    if kind == "power":
        # coeff * t**t_power * (|w| or w)**w_power
        _require_keys(doc, {"kind", "coeff", "t_power", "w_power", "w_abs", "tags"}, {"kind"}, path)
        coeff = _number(doc, "coeff", path, default=1.0)
        tp = _number(doc, "t_power", path, default=0.0)
        wp = _number(doc, "w_power", path, default=0.0)
        w_abs = doc.get("w_abs", True)
        if not isinstance(w_abs, bool):
            raise ConfigError(f"{path}.w_abs", "expected a boolean")

        def fn(t, w, coeff=coeff, tp=tp, wp=wp, w_abs=w_abs):
            base = abs(w) if w_abs else w
            wfac = 1.0 if wp == 0.0 else base ** wp
            tfac = 1.0 if tp == 0.0 else t ** tp
            return coeff * tfac * wfac

        return ScalarField(fn, tags=tagset, name=name)
    if kind == "polynomial":
        _require_keys(doc, {"kind", "terms", "tags"}, {"kind", "terms"}, path)
        terms = doc["terms"]
        if not isinstance(terms, list):
            raise ConfigError(f"{path}.terms", "expected a list of term objects")
        parsed = []
        for k, term in enumerate(terms):
            tpath = f"{path}.terms[{k}]"
            _require_keys(term, {"c", "t", "w"}, {"c"}, tpath)
            parsed.append((_number(term, "c", tpath), _number(term, "t", tpath, default=0.0), _number(term, "w", tpath, default=0.0)))

        def poly(t, w, parsed=tuple(parsed)):
            total = 0.0
            for c, a, b in parsed:
                total += c * (t ** a if a else 1.0) * (w ** b if b else 1.0)
            return total

        return ScalarField(poly, tags=tagset, name=name)
    raise ConfigError(f"{path}.kind", f"unknown field kind {kind!r}")


def equation_from_json(doc: Mapping, path: str = "equation") -> EquationSpec:
    """Build an :class:`EquationSpec` from a JSON document.

    Builtin kinds: ``emden_fowler`` (rho, sigma, n, variant, t0),
    ``van_der_pol`` (lambda, mu, nu time-function specs, t0), and ``custom``
    with explicit ``p0``/``q0``/``r0`` field specs of kind ``power``,
    ``constant`` or ``polynomial``.  Arbitrary expressions are out of scope.
    """
    if not isinstance(doc, Mapping) or "kind" not in doc:
        raise ConfigError(f"{path}.kind", "missing required key")
    kind = doc["kind"]

    if kind == "emden_fowler":
        from .applications import EFParams, ef_equation

        _require_keys(doc, {"kind", "rho", "sigma", "n", "variant", "t0"}, {"kind", "rho", "sigma", "n"}, path)
        variant = doc.get("variant", "absolute")
        if variant not in ("absolute", "signed"):
            raise ConfigError(f"{path}.variant", f"expected 'absolute' or 'signed', got {variant!r}")
        params = EFParams(rho=_number(doc, "rho", path), sigma=_number(doc, "sigma", path), n=_number(doc, "n", path), variant=variant)
        return ef_equation(params, t0=_number(doc, "t0", path, default=1.0))

    if kind == "van_der_pol":
        from .applications import VdPParams, vdp_equation

        _require_keys(doc, {"kind", "lambda", "mu", "nu", "t0"}, {"kind", "lambda", "mu", "nu"}, path)
        lam = time_function_from_json(doc["lambda"], f"{path}.lambda")
        mu = time_function_from_json(doc["mu"], f"{path}.mu")
        nu = time_function_from_json(doc["nu"], f"{path}.nu")
        t0 = _number(doc, "t0", path, default=0.0)
        return vdp_equation(VdPParams(lam=lam, mu=mu, nu=nu), t0=t0)

    if kind == "custom":
        _require_keys(doc, {"kind", "t0", "p0", "q0", "r0"}, {"kind", "t0", "p0", "q0", "r0"}, path)
        p0 = _scalar_field_from_json(doc["p0"], f"{path}.p0", "p0")
        if "positive" not in p0.tags:
            p0 = replace(p0, tags=p0.tags | {"positive"})
        q0 = _scalar_field_from_json(doc["q0"], f"{path}.q0", "q0")
        r0 = _scalar_field_from_json(doc["r0"], f"{path}.r0", "r0")
        return EquationSpec(p0=p0, q0=q0, r0=r0, t0=_number(doc, "t0", path))

    raise ConfigError(f"{path}.kind", f"unknown equation kind {kind!r} (expected one of {_EQUATION_KINDS})")


def load_equation(path: str) -> EquationSpec:
    """Load an equation spec from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return equation_from_json(doc)
