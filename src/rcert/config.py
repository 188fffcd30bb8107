"""Run-configuration schema: strict validation with path-qualified messages.

Configs are JSON documents with a versioned schema.  Unknown keys are
rejected everywhere; every error message carries the dotted path to the
offending entry so misconfigured runs fail fast and legibly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Mapping

from .errors import ConfigError
from .fields import (
    BoundTriple,
    EquationSpec,
    GridSpec,
    InitialData,
    Rectangle,
    equation_from_json,
    time_function_from_json,
)

__all__ = ["RunOptions", "SweepSpec", "RunConfig", "parse_config", "load_config"]

_COMMANDS = ("certify", "integrate", "classify", "sweep", "emden", "vdp")
_THEOREMS = ("t3_1", "t3_2", "t3_3", "t3_4", "t3_5", "t3_6", "t4_2")
# Theorems whose hypotheses are sampled on a fixed w axis (t3_1 and t3_2 clip w to their envelope).
_FIXED_W_THEOREMS = ("t3_3", "t3_4", "t3_5", "t3_6", "t4_2")


@dataclass(frozen=True)
class RunOptions:
    horizon: float = 50.0
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    epsilon: float | None = None
    escape_threshold: float = 1e8
    min_step: float = 1e-12
    zero_tol: float = 1e-9
    max_zeros: int = 10000
    seed: int = 0
    eps0: float = 1.0
    osc_horizon: float = 50.0
    osc_min_zeros: int = 5
    n_random_ics: int = 10
    ic_box: tuple[tuple[float, float], tuple[float, float]] = ((-5.0, 5.0), (-5.0, 5.0))
    n_stability_ics: int = 5
    stability_eps: float = 1.0
    quad_abs_tol: float = 1e-10
    quad_rel_tol: float = 1e-8


@dataclass(frozen=True)
class SweepSpec:
    phi: tuple[float, float]
    dphi: tuple[float, float]
    resolution: tuple[int, int]


@dataclass
class RunConfig:
    command: str
    theorem: str | None
    doc: dict
    equation: EquationSpec
    eq_kind: str
    eq_doc: dict
    options: RunOptions
    grid: GridSpec
    initial: InitialData | None = None
    bounds: BoundTriple | None = None
    qtilde: Callable[[float], float] | None = None
    region: Rectangle | None = None
    sweep: SweepSpec | None = None


def _expect(doc: Mapping, allowed: set[str], path: str) -> None:
    if not isinstance(doc, Mapping):
        raise ConfigError(path, f"expected an object, got {type(doc).__name__}")
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", "unknown key")


def _num(doc: Mapping, key: str, path: str, default=None):
    if key not in doc:
        if default is None:
            raise ConfigError(f"{path}.{key}", "missing required key")
        return default
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key}", f"expected a number, got {v!r}")
    return float(v)


def _int(doc: Mapping, key: str, path: str, default: int) -> int:
    if key not in doc:
        return default
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}.{key}", f"expected an integer, got {v!r}")
    return v


def _pair(value, path: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2 or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in value):
        raise ConfigError(path, f"expected a pair of numbers, got {value!r}")
    return float(value[0]), float(value[1])


def _ordered_pair(value, path: str) -> tuple[float, float]:
    lo, hi = _pair(value, path)
    if not lo <= hi:
        raise ConfigError(path, f"expected lower <= upper, got {value!r}")
    return lo, hi


def parse_config(doc: dict, command: str, theorem: str | None = None) -> RunConfig:
    """Validate the document against the schema for the given command."""
    if command not in _COMMANDS:
        raise ConfigError("command", f"unknown command {command!r}")
    if command == "certify":
        if theorem is None:
            raise ConfigError("command", "certify needs a theorem id")
        if theorem not in _THEOREMS:
            raise ConfigError("command", f"unknown theorem id {theorem!r}")

    _expect(doc, {"version", "equation", "initial", "bounds", "qtilde", "region", "grid", "options", "sweep"}, "config")
    version = doc.get("version")
    if version != 1:
        raise ConfigError("config.version", f"expected 1, got {version!r}")
    if "equation" not in doc:
        raise ConfigError("config.equation", "missing required key")
    eq_doc = doc["equation"]
    equation = equation_from_json(eq_doc, "config.equation")
    eq_kind = eq_doc["kind"]

    opts_doc = doc.get("options", {})
    _expect(
        opts_doc,
        {
            "horizon",
            "rel_tol",
            "abs_tol",
            "epsilon",
            "escape_threshold",
            "min_step",
            "zero_tol",
            "max_zeros",
            "seed",
            "eps0",
            "osc_horizon",
            "osc_min_zeros",
            "n_random_ics",
            "ic_box",
            "n_stability_ics",
            "stability_eps",
            "quad_abs_tol",
            "quad_rel_tol",
        },
        "config.options",
    )
    defaults = RunOptions()
    ic_box = defaults.ic_box
    if "ic_box" in opts_doc:
        box = opts_doc["ic_box"]
        if not isinstance(box, list) or len(box) != 2:
            raise ConfigError("config.options.ic_box", "expected [[lo, hi], [lo, hi]]")
        ic_box = (_pair(box[0], "config.options.ic_box[0]"), _pair(box[1], "config.options.ic_box[1]"))
    epsilon = None
    if "epsilon" in opts_doc:
        epsilon = _num(opts_doc, "epsilon", "config.options")
    options = RunOptions(
        horizon=_num(opts_doc, "horizon", "config.options", defaults.horizon),
        rel_tol=_num(opts_doc, "rel_tol", "config.options", defaults.rel_tol),
        abs_tol=_num(opts_doc, "abs_tol", "config.options", defaults.abs_tol),
        epsilon=epsilon,
        escape_threshold=_num(opts_doc, "escape_threshold", "config.options", defaults.escape_threshold),
        min_step=_num(opts_doc, "min_step", "config.options", defaults.min_step),
        zero_tol=_num(opts_doc, "zero_tol", "config.options", defaults.zero_tol),
        max_zeros=_int(opts_doc, "max_zeros", "config.options", defaults.max_zeros),
        seed=_int(opts_doc, "seed", "config.options", defaults.seed),
        eps0=_num(opts_doc, "eps0", "config.options", defaults.eps0),
        osc_horizon=_num(opts_doc, "osc_horizon", "config.options", defaults.osc_horizon),
        osc_min_zeros=_int(opts_doc, "osc_min_zeros", "config.options", defaults.osc_min_zeros),
        n_random_ics=_int(opts_doc, "n_random_ics", "config.options", defaults.n_random_ics),
        ic_box=ic_box,
        n_stability_ics=_int(opts_doc, "n_stability_ics", "config.options", defaults.n_stability_ics),
        stability_eps=_num(opts_doc, "stability_eps", "config.options", defaults.stability_eps),
        quad_abs_tol=_num(opts_doc, "quad_abs_tol", "config.options", defaults.quad_abs_tol),
        quad_rel_tol=_num(opts_doc, "quad_rel_tol", "config.options", defaults.quad_rel_tol),
    )

    grid_doc = doc.get("grid", {})
    _expect(grid_doc, {"nt", "nw"}, "config.grid")
    grid = GridSpec(nt=_int(grid_doc, "nt", "config.grid", 129), nw=_int(grid_doc, "nw", "config.grid", 129))

    initial = None
    if "initial" in doc:
        ic_doc = doc["initial"]
        _expect(ic_doc, {"t1", "phi0", "phi1"}, "config.initial")
        initial = InitialData(
            t1=_num(ic_doc, "t1", "config.initial", equation.t0),
            phi0=_num(ic_doc, "phi0", "config.initial"),
            phi1=_num(ic_doc, "phi1", "config.initial"),
        )

    bounds = None
    if "bounds" in doc:
        b_doc = doc["bounds"]
        _expect(b_doc, {"P", "Q", "R"}, "config.bounds")
        if "P" not in b_doc or "Q" not in b_doc:
            raise ConfigError("config.bounds", "P and Q are required")
        R = time_function_from_json(b_doc["R"], "config.bounds.R") if "R" in b_doc else None
        bounds = BoundTriple(
            P=time_function_from_json(b_doc["P"], "config.bounds.P"),
            Q=time_function_from_json(b_doc["Q"], "config.bounds.Q"),
            R=R,
        )

    qtilde = None
    if "qtilde" in doc:
        qtilde = time_function_from_json(doc["qtilde"], "config.qtilde")

    region = None
    if "region" in doc:
        r_doc = doc["region"]
        _expect(r_doc, {"t", "w"}, "config.region")
        if "t" not in r_doc:
            raise ConfigError("config.region.t", "missing required key")
        t_lo, t_hi = _ordered_pair(r_doc["t"], "config.region.t")
        if "w" in r_doc:
            w_lo, w_hi = _ordered_pair(r_doc["w"], "config.region.w")
        else:
            w_lo, w_hi = float("-inf"), float("inf")
        region = Rectangle(t_lo, t_hi, w_lo, w_hi)

    sweep_spec = None
    if "sweep" in doc:
        s_doc = doc["sweep"]
        _expect(s_doc, {"phi", "dphi", "resolution"}, "config.sweep")
        for key in ("phi", "dphi", "resolution"):
            if key not in s_doc:
                raise ConfigError(f"config.sweep.{key}", "missing required key")
        res = s_doc["resolution"]
        if not isinstance(res, list) or len(res) != 2 or any(isinstance(x, bool) or not isinstance(x, int) for x in res):
            raise ConfigError("config.sweep.resolution", "expected a pair of integers")
        sweep_spec = SweepSpec(
            phi=_pair(s_doc["phi"], "config.sweep.phi"),
            dphi=_pair(s_doc["dphi"], "config.sweep.dphi"),
            resolution=(res[0], res[1]),
        )

    # Per-command requirements.
    needs_initial = command in ("integrate", "classify", "emden") or (
        command == "certify" and theorem in ("t3_1", "t3_2", "t3_3")
    )
    if needs_initial and initial is None:
        raise ConfigError("config.initial", f"required by command {command!r}" + (f" {theorem}" if theorem else ""))
    if command == "sweep" and sweep_spec is None:
        raise ConfigError("config.sweep", "required by command 'sweep'")
    if command == "certify" and theorem == "t3_2" and qtilde is None:
        raise ConfigError("config.qtilde", "required by certify t3_2")
    fixed_w = command == "vdp" or (command == "certify" and theorem in _FIXED_W_THEOREMS)
    if fixed_w and region is not None and not (math.isfinite(region.w_min) and math.isfinite(region.w_max)):
        what = f"certify {theorem}" if command == "certify" else f"command {command!r}"
        raise ConfigError("config.region.w", f"a finite w range is required by {what} when a region is given")
    if command in ("emden",) and eq_kind != "emden_fowler":
        raise ConfigError("config.equation.kind", "command 'emden' needs an emden_fowler equation")
    if command in ("vdp",) and eq_kind != "van_der_pol":
        raise ConfigError("config.equation.kind", "command 'vdp' needs a van_der_pol equation")
    if command == "certify" and theorem in ("t3_5", "t4_2") and eq_kind != "van_der_pol":
        raise ConfigError("config.equation.kind", f"certify {theorem} needs a van_der_pol equation")
    if command == "certify" and theorem == "t3_3" and eq_kind != "emden_fowler":
        raise ConfigError("config.equation.kind", "certify t3_3 needs an emden_fowler equation (explicit-power majorant)")

    return RunConfig(
        command=command,
        theorem=theorem,
        doc=doc,
        equation=equation,
        eq_kind=eq_kind,
        eq_doc=eq_doc,
        options=options,
        grid=grid,
        initial=initial,
        bounds=bounds,
        qtilde=qtilde,
        region=region,
        sweep=sweep_spec,
    )


def load_config(path: str, command: str, theorem: str | None = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("config", "top-level document must be an object")
    return parse_config(doc, command, theorem)
