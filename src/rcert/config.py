"""Run-configuration schema: strict validation with path-qualified messages.

Configs are JSON documents with a versioned schema, and this module is the
only one that reads them: the equation and its field and time-function
specs, the bounds, the options and the per-command requirements.  Unknown
keys are rejected everywhere, and so are non-finite numbers and values out
of their range; every error message carries the dotted path to the offending
entry so misconfigured runs fail fast and legibly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Callable, Mapping

from .applications import EFParams, VdPParams, ef_bound_triple, ef_equation, vdp_bound_triple, vdp_equation
from .dynamics import IntegrationOptions
from .errors import ConfigError
from .fields import BoundTriple, EquationSpec, GridSpec, InitialData, Rectangle, ScalarField, _closed_form_field, _closed_form_time, _Product
from .quadrature import ABS_TOL, REL_TOL

__all__ = ["RunOptions", "SweepSpec", "RunConfig", "parse_config", "load_config", "equation_from_json", "time_function_from_json"]

_COMMANDS = ("certify", "integrate", "classify", "sweep", "emden", "vdp")
_THEOREMS = ("t3_1", "t3_2", "t3_3", "t3_4", "t3_5", "t3_6", "t4_2")
# The builtin equation each command, or each theorem under certify, needs.
_NEEDED_EQUATION = {
    "emden": (EFParams, "an emden_fowler equation"),
    "t3_3": (EFParams, "an emden_fowler equation (explicit-power majorant)"),
    **dict.fromkeys(("vdp", "t3_5", "t4_2"), (VdPParams, "a van_der_pol equation")),
}
_EQUATION_KINDS = ("custom", "emden_fowler", "van_der_pol")


@dataclass(frozen=True)
class RunOptions(IntegrationOptions):
    """The ``options`` section: the integration options, passed to ``integrate``
    and ``sweep`` as they are, plus the options of single commands."""

    epsilon: float | None = None
    seed: int = 0
    eps0: float = 1.0
    osc_horizon: float = 50.0
    osc_min_zeros: int = 5
    n_random_ics: int = 10
    ic_box: tuple[tuple[float, float], tuple[float, float]] = ((-5.0, 5.0), (-5.0, 5.0))
    n_stability_ics: int = 5
    stability_eps: float = 1.0
    quad_abs_tol: float = ABS_TOL
    quad_rel_tol: float = REL_TOL


# Options that must be positive, options that must not be negative, and the
# smallest value of integer options that have one.
_POSITIVE_OPTIONS = ("rel_tol", "abs_tol", "escape_threshold", "min_step", "eps0", "osc_horizon", "stability_eps", "quad_abs_tol", "quad_rel_tol")
_NONNEGATIVE_OPTIONS = ("epsilon", "zero_tol")
_MIN_INT_OPTIONS = {"seed": 0, "max_zeros": 1, "osc_min_zeros": 1, "n_random_ics": 0, "n_stability_ics": 0}


@dataclass(frozen=True)
class SweepSpec:
    phi: tuple[float, float]
    dphi: tuple[float, float]
    resolution: tuple[int, int]


@dataclass
class RunConfig:
    """A validated config.  ``params`` holds a builtin equation's parameters (None
    for ``custom``), and ``bounds`` defaults to their envelope triple."""

    command: str
    theorem: str | None
    doc: dict
    equation: EquationSpec
    params: EFParams | VdPParams | None
    options: RunOptions
    grid: GridSpec
    initial: InitialData | None = None
    bounds: BoundTriple | None = None
    qtilde: Callable[[float], float] | None = None
    region: Rectangle | None = None
    sweep: SweepSpec | None = None


def _require_keys(doc: Mapping, allowed: set[str], required: set[str], path: str) -> None:
    if not isinstance(doc, Mapping):
        raise ConfigError(path, f"expected an object, got {type(doc).__name__}")
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}", "unknown key")
    missing = required - set(doc)
    if missing:
        raise ConfigError(f"{path}.{sorted(missing)[0]}", "missing required key")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _finite(v, path: str) -> float:
    if not _is_number(v):
        raise ConfigError(path, f"expected a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:  # an integer past the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(path, f"expected a finite number, got {v!r}")
    return x


def _number(doc: Mapping, key: str, path: str, default=None) -> float:
    if key not in doc:
        if default is not None:
            return default
        raise ConfigError(f"{path}.{key}", "missing required key")
    return _finite(doc[key], f"{path}.{key}")


def _int(doc: Mapping, key: str, path: str, default: int, low: int | None = None) -> int:
    if key not in doc:
        return default
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}.{key}", f"expected an integer, got {v!r}")
    if low is not None and v < low:
        raise ConfigError(f"{path}.{key}", f"expected an integer >= {low}, got {v!r}")
    return v


def _pair(value, path: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2 or not all(map(_is_number, value)):
        raise ConfigError(path, f"expected a pair of numbers, got {value!r}")
    return _finite(value[0], path), _finite(value[1], path)


def _ordered_pair(value, path: str) -> tuple[float, float]:
    lo, hi = _pair(value, path)
    if not lo <= hi:
        raise ConfigError(path, f"expected lower <= upper, got {value!r}")
    return lo, hi


def time_function_from_json(doc: Mapping, path: str) -> Callable[[float], float]:
    """Build a time-only function from a JSON spec.

    Kinds: ``constant`` ``{value}``, ``power`` ``{coeff, power}`` meaning
    coeff * t**power, ``polynomial`` ``{coeffs}`` with ascending powers of t.
    """
    _require_keys(doc, {"kind", "value", "coeff", "power", "coeffs"}, {"kind"}, path)
    kind = doc["kind"]
    if kind == "constant":
        _require_keys(doc, {"kind", "value"}, {"kind", "value"}, path)
        return _closed_form_time([_Product(_number(doc, "value", path))])
    if kind == "power":
        _require_keys(doc, {"kind", "coeff", "power"}, {"kind", "power"}, path)
        return _closed_form_time([_Product(_number(doc, "coeff", path, default=1.0), a=_number(doc, "power", path))])
    if kind == "polynomial":
        _require_keys(doc, {"kind", "coeffs"}, {"kind", "coeffs"}, path)
        coeffs = doc["coeffs"]
        if not isinstance(coeffs, list) or not all(map(_is_number, coeffs)):
            raise ConfigError(f"{path}.coeffs", "expected a list of numbers")
        # Summed from the integer 0: an empty polynomial is the integer 0.
        products = [_Product(_finite(c, f"{path}.coeffs[{k}]"), a=float(k)) for k, c in enumerate(coeffs)]
        return _closed_form_time(products, start=0)
    raise ConfigError(f"{path}.kind", f"unknown time-function kind {kind!r}")


def _scalar_field_from_json(doc: Mapping, path: str, name: str) -> ScalarField:
    _require_keys(doc, {"kind", "value", "coeff", "t_power", "w_power", "w_abs", "terms", "tags"}, {"kind"}, path)
    kind = doc["kind"]
    # ``tags``: [] on any field, or ["positive"] on p0, a no-op that states what the rhs enforces.
    tags = doc.get("tags", [])
    if not isinstance(tags, list) or not all(isinstance(s, str) for s in tags):
        raise ConfigError(f"{path}.tags", "expected a list of strings")
    for tag in tags:
        if name != "p0":
            raise ConfigError(f"{path}.tags", f"{name} takes no tags, got {tag!r}")
        if tag != "positive":
            raise ConfigError(f"{path}.tags", f"unknown tag {tag!r}")

    if kind == "constant":
        _require_keys(doc, {"kind", "value", "tags"}, {"kind", "value"}, path)
        return _closed_form_field([_Product(_number(doc, "value", path))], name)
    if kind == "power":
        # coeff * t**t_power * (|w| or w)**w_power
        _require_keys(doc, {"kind", "coeff", "t_power", "w_power", "w_abs", "tags"}, {"kind"}, path)
        coeff, tp, wp = (_number(doc, key, path, default) for key, default in (("coeff", 1.0), ("t_power", 0.0), ("w_power", 0.0)))
        w_abs = doc.get("w_abs", True)
        if not isinstance(w_abs, bool):
            raise ConfigError(f"{path}.w_abs", "expected a boolean")
        return _closed_form_field([_Product(coeff, a=tp, g="|w|^b" if w_abs else "w^b", b=wp, w_first=True)], name)
    if kind == "polynomial":
        _require_keys(doc, {"kind", "terms", "tags"}, {"kind", "terms"}, path)
        terms = doc["terms"]
        if not isinstance(terms, list):
            raise ConfigError(f"{path}.terms", "expected a list of term objects")
        products = []
        for k, term in enumerate(terms):
            tpath = f"{path}.terms[{k}]"
            _require_keys(term, {"c", "t", "w"}, {"c"}, tpath)
            c, a, b = (_number(term, key, tpath, default) for key, default in (("c", None), ("t", 0.0), ("w", 0.0)))
            products.append(_Product(c, a=a, g="w^b", b=b))
        return _closed_form_field(products, name, start=0.0)
    raise ConfigError(f"{path}.kind", f"unknown field kind {kind!r}")


def _equation(doc: Mapping, path: str) -> tuple[EquationSpec, EFParams | VdPParams | None]:
    """The equation of a JSON document and the parameters of its builtin kind (None for ``custom``)."""
    if not isinstance(doc, Mapping) or "kind" not in doc:
        raise ConfigError(f"{path}.kind", "missing required key")
    kind = doc["kind"]

    if kind == "emden_fowler":
        _require_keys(doc, {"kind", "rho", "sigma", "n", "variant", "t0"}, {"kind", "rho", "sigma", "n"}, path)
        variant = doc.get("variant", "absolute")
        if variant not in ("absolute", "signed"):
            raise ConfigError(f"{path}.variant", f"expected 'absolute' or 'signed', got {variant!r}")
        ef = EFParams(rho=_number(doc, "rho", path), sigma=_number(doc, "sigma", path), n=_number(doc, "n", path), variant=variant)
        return ef_equation(ef, t0=_number(doc, "t0", path, default=1.0)), ef

    if kind == "van_der_pol":
        _require_keys(doc, {"kind", "lambda", "mu", "nu", "t0"}, {"kind", "lambda", "mu", "nu"}, path)
        lam = time_function_from_json(doc["lambda"], f"{path}.lambda")
        mu = time_function_from_json(doc["mu"], f"{path}.mu")
        nu = time_function_from_json(doc["nu"], f"{path}.nu")
        vdp = VdPParams(lam=lam, mu=mu, nu=nu)
        return vdp_equation(vdp, t0=_number(doc, "t0", path, default=0.0)), vdp

    if kind == "custom":
        _require_keys(doc, {"kind", "t0", "p0", "q0", "r0"}, {"kind", "t0", "p0", "q0", "r0"}, path)
        p0 = _scalar_field_from_json(doc["p0"], f"{path}.p0", "p0")
        q0 = _scalar_field_from_json(doc["q0"], f"{path}.q0", "q0")
        r0 = _scalar_field_from_json(doc["r0"], f"{path}.r0", "r0")
        return EquationSpec(p0=p0, q0=q0, r0=r0, t0=_number(doc, "t0", path)), None

    raise ConfigError(f"{path}.kind", f"unknown equation kind {kind!r} (expected one of {_EQUATION_KINDS})")


def equation_from_json(doc: Mapping, path: str = "equation") -> EquationSpec:
    """Build an :class:`EquationSpec` from a JSON document.

    Builtin kinds: ``emden_fowler`` (rho, sigma, n, variant, t0),
    ``van_der_pol`` (lambda, mu, nu time-function specs, t0), and ``custom``
    with explicit ``p0``/``q0``/``r0`` field specs of kind ``power``,
    ``constant`` or ``polynomial``.  Arbitrary expressions are out of scope.
    """
    return _equation(doc, path)[0]


def _options(doc, path: str) -> RunOptions:
    """The options section, each key checked in :class:`RunOptions` field order."""
    spec = fields(RunOptions)
    _require_keys(doc, {f.name for f in spec}, set(), path)
    values = {}
    for f in (f for f in spec if f.name in doc):
        if f.name == "ic_box":
            box = doc["ic_box"]
            if not isinstance(box, list) or len(box) != 2:
                raise ConfigError(f"{path}.ic_box", "expected [[lo, hi], [lo, hi]]")
            values["ic_box"] = (_ordered_pair(box[0], f"{path}.ic_box[0]"), _ordered_pair(box[1], f"{path}.ic_box[1]"))
        elif f.type == "int":
            values[f.name] = _int(doc, f.name, path, 0, _MIN_INT_OPTIONS.get(f.name))
        else:
            value = values[f.name] = _number(doc, f.name, path)
            if f.name in _POSITIVE_OPTIONS and not value > 0.0:
                raise ConfigError(f"{path}.{f.name}", f"expected a positive number, got {doc[f.name]!r}")
            if f.name in _NONNEGATIVE_OPTIONS and not value >= 0.0:
                raise ConfigError(f"{path}.{f.name}", f"expected a nonnegative number, got {doc[f.name]!r}")
    return RunOptions(**values)


def parse_config(doc: dict, command: str, theorem: str | None = None) -> RunConfig:
    """Validate the document against the schema for the given command."""
    if command not in _COMMANDS:
        raise ConfigError("command", f"unknown command {command!r}")
    if command == "certify":
        if theorem is None:
            raise ConfigError("command", "certify needs a theorem id")
        if theorem not in _THEOREMS:
            raise ConfigError("command", f"unknown theorem id {theorem!r}")
    elif theorem is not None:
        raise ConfigError("command", f"theorem id {theorem!r} given to command {command!r}, which takes none")

    _require_keys(doc, {"version", "equation", "initial", "bounds", "qtilde", "region", "grid", "options", "sweep"}, set(), "config")
    version = doc.get("version")
    if version != 1:
        raise ConfigError("config.version", f"expected 1, got {version!r}")
    if "equation" not in doc:
        raise ConfigError("config.equation", "missing required key")
    equation, params = _equation(doc["equation"], "config.equation")
    options = _options(doc.get("options", {}), "config.options")

    grid_doc = doc.get("grid", {})
    _require_keys(grid_doc, {"nt", "nw"}, set(), "config.grid")
    grid = GridSpec(nt=_int(grid_doc, "nt", "config.grid", 129, 2), nw=_int(grid_doc, "nw", "config.grid", 129, 2))

    initial = None
    if "initial" in doc:
        ic_doc = doc["initial"]
        _require_keys(ic_doc, {"t1", "phi0", "phi1"}, set(), "config.initial")
        initial = InitialData(
            t1=_number(ic_doc, "t1", "config.initial", equation.t0),
            phi0=_number(ic_doc, "phi0", "config.initial"),
            phi1=_number(ic_doc, "phi1", "config.initial"),
        )

    bounds = None
    if "bounds" in doc:
        b_doc = doc["bounds"]
        _require_keys(b_doc, {"P", "Q", "R"}, set(), "config.bounds")
        if "P" not in b_doc or "Q" not in b_doc:
            raise ConfigError("config.bounds", "P and Q are required")
        R = time_function_from_json(b_doc["R"], "config.bounds.R") if "R" in b_doc else None
        bounds = BoundTriple(
            P=time_function_from_json(b_doc["P"], "config.bounds.P"),
            Q=time_function_from_json(b_doc["Q"], "config.bounds.Q"),
            R=R,
        )
    elif isinstance(params, EFParams):
        bounds = ef_bound_triple(params)
    elif isinstance(params, VdPParams):
        bounds = vdp_bound_triple(params)

    qtilde = None
    if "qtilde" in doc:
        qtilde = time_function_from_json(doc["qtilde"], "config.qtilde")

    region = None
    if "region" in doc:
        r_doc = doc["region"]
        _require_keys(r_doc, {"t", "w"}, {"t"}, "config.region")
        t_lo, t_hi = _ordered_pair(r_doc["t"], "config.region.t")
        if "w" in r_doc:
            w_lo, w_hi = _ordered_pair(r_doc["w"], "config.region.w")
        else:
            w_lo, w_hi = float("-inf"), float("inf")
        region = Rectangle(t_lo, t_hi, w_lo, w_hi)

    sweep_spec = None
    if "sweep" in doc:
        s_doc = doc["sweep"]
        _require_keys(s_doc, {"phi", "dphi", "resolution"}, set(), "config.sweep")
        for key in ("phi", "dphi", "resolution"):
            if key not in s_doc:
                raise ConfigError(f"config.sweep.{key}", "missing required key")
        res = s_doc["resolution"]
        if not isinstance(res, list) or len(res) != 2 or any(isinstance(x, bool) or not isinstance(x, int) for x in res):
            raise ConfigError("config.sweep.resolution", "expected a pair of integers")
        if min(res) < 2:
            raise ConfigError("config.sweep.resolution", f"expected integers >= 2, got {res!r}")
        sweep_spec = SweepSpec(
            phi=_pair(s_doc["phi"], "config.sweep.phi"),
            dphi=_pair(s_doc["dphi"], "config.sweep.dphi"),
            resolution=(res[0], res[1]),
        )

    # Per-command requirements, keyed by the theorem under certify and by the command otherwise.
    key = theorem if command == "certify" else command
    what = f"certify {theorem}" if command == "certify" else f"command {command!r}"
    if key in ("integrate", "classify", "emden", "t3_1", "t3_2", "t3_3") and initial is None:
        raise ConfigError("config.initial", f"required by command {command!r}" + (f" {theorem}" if theorem else ""))
    if key == "sweep" and sweep_spec is None:
        raise ConfigError("config.sweep", f"required by {what}")
    if key == "t3_2" and qtilde is None:
        raise ConfigError("config.qtilde", f"required by {what}")
    # Hypotheses sampled on a fixed w axis (t3_1 and t3_2 clip w to their envelope).
    fixed_w = key in ("t3_3", "t3_4", "t3_5", "t3_6", "t4_2", "vdp")
    if fixed_w and region is not None and not (math.isfinite(region.w_min) and math.isfinite(region.w_max)):
        raise ConfigError("config.region.w", f"a finite w range is required by {what} when a region is given")
    if key in ("t3_1", "t3_2") or (key == "emden" and isinstance(params, EFParams) and params.rho > 1.0):
        scan = f"{what}{' with rho > 1' if key == 'emden' else ''} scans its envelope from initial.t1 = {initial.t1!r}"
        if region is not None and region.t_min != initial.t1:
            raise ConfigError("config.region.t", f"{scan}, so the lower bound must equal it, got {region.t_min!r}")
        if region is None and initial.t1 > options.horizon:
            raise ConfigError("config.options.horizon", f"{scan}, so the horizon must not lie before it, got {options.horizon!r}")
    if key in _NEEDED_EQUATION and not isinstance(params, _NEEDED_EQUATION[key][0]):
        raise ConfigError("config.equation.kind", f"{what} needs {_NEEDED_EQUATION[key][1]}")
    # Coefficients checked against the bound triple P, Q, R.
    if key in ("t3_1", "t3_2", "t3_4") and bounds is None:
        raise ConfigError("config.bounds", "required for custom equations")

    return RunConfig(
        command=command,
        theorem=theorem,
        doc=doc,
        equation=equation,
        params=params,
        options=options,
        grid=grid,
        initial=initial,
        bounds=bounds,
        qtilde=qtilde,
        region=region,
        sweep=sweep_spec,
    )


def load_config(path: str, command: str, theorem: str | None = None, options: Mapping | None = None) -> RunConfig:
    """Read and validate a config file; ``options`` entries replace the document's own before validation."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("config", "top-level document must be an object")
    if options and isinstance(doc.get("options", {}), dict):
        doc["options"] = {**doc.get("options", {}), **options}
    return parse_config(doc, command, theorem)
