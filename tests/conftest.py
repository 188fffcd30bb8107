import math

import pytest

from rcert import EquationSpec, InitialData, IntegrationOptions, ScalarField, integrate


def const_field(value, name=""):
    return ScalarField(lambda t, w: value, name=name or str(value))


def make_eq(p=1.0, q=0.0, r=0.0, t0=0.0, r_fn=None, q_fn=None, p_fn=None):
    """Build an equation from constants or (t, w) callables."""
    p0 = ScalarField(p_fn) if p_fn else const_field(p)
    q0 = ScalarField(q_fn) if q_fn else const_field(q)
    r0 = ScalarField(r_fn) if r_fn else const_field(r)
    return EquationSpec(p0=p0, q0=q0, r0=r0, t0=t0)


@pytest.fixture(scope="session")
def harmonic_eq():
    # phi'' + phi = 0; solution cos from (1, 0)
    return make_eq(p=1.0, q=0.0, r=1.0)


@pytest.fixture(scope="session")
def damped_eq():
    # phi'' + phi' + phi = 0
    return make_eq(p=1.0, q=1.0, r=1.0)


@pytest.fixture(scope="session")
def constant_eq():
    # phi'' = 0; constants stay constant
    return make_eq()


@pytest.fixture(scope="session")
def cube_blowup_eq():
    # phi'' = |phi|^2 phi, finite-time escape when phi * phi' > 0
    return make_eq(r_fn=lambda t, w: -abs(w) ** 2)


@pytest.fixture(scope="session")
def harmonic_traj(harmonic_eq):
    return integrate(harmonic_eq, InitialData(0.0, 1.0, 0.0), IntegrationOptions(horizon=10.0))


def rk4_system(f, t0, y0, h, t_end, stop_norm=None):
    """Fixed-step classical Runge-Kutta oracle, independent of the package stepper.

    Returns (ts, ys); stops early when the 1-norm of the state passes
    ``stop_norm``.
    """
    t, y = t0, tuple(y0)
    ts, ys = [t], [y]
    n = len(y)
    while t < t_end - 1e-12:
        k1 = f(t, y)
        k2 = f(t + h / 2, tuple(y[i] + h / 2 * k1[i] for i in range(n)))
        k3 = f(t + h / 2, tuple(y[i] + h / 2 * k2[i] for i in range(n)))
        k4 = f(t + h, tuple(y[i] + h * k3[i] for i in range(n)))
        y = tuple(y[i] + h / 6 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i]) for i in range(n))
        t += h
        ts.append(t)
        ys.append(y)
        if stop_norm is not None and sum(abs(v) for v in y) > stop_norm:
            break
        if not all(math.isfinite(v) for v in y):
            break
    return ts, ys


_CERT_REQUIRED = {
    "theorem": str,
    "status": str,
    "hypotheses": list,
    "region": dict,
    "heuristic_flags": list,
}
_CERT_OPTIONAL = {
    "conclusion": (str, type(None)),
    "epsilon": (int, float, type(None)),
    "witness": (dict, type(None)),
    "reason": (str, type(None)),
    "bound_samples": (list, type(None)),
    "uniform_bound": (int, float, type(None)),
    "details": dict,
    "parts": list,
}


def validate_certificate_dict(doc: dict, path: str = "certificate") -> None:
    """Raise ValueError when a serialized certificate misses its contract."""
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected an object")
    for key, typ in _CERT_REQUIRED.items():
        if key not in doc:
            raise ValueError(f"{path}.{key}: missing")
        if not isinstance(doc[key], typ):
            raise ValueError(f"{path}.{key}: wrong type {type(doc[key]).__name__}")
    if doc["status"] not in ("Verified", "Falsified", "Inconclusive"):
        raise ValueError(f"{path}.status: unknown status {doc['status']!r}")
    for key, typs in _CERT_OPTIONAL.items():
        if key in doc and not isinstance(doc[key], typs):
            raise ValueError(f"{path}.{key}: wrong type {type(doc[key]).__name__}")
    if doc["status"] == "Falsified" and not doc.get("witness") and not doc.get("parts"):
        raise ValueError(f"{path}: falsified certificates must carry a witness")
    for i, part in enumerate(doc.get("parts", [])):
        validate_certificate_dict(part, f"{path}.parts[{i}]")
