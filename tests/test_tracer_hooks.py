"""The benchmark's tracer still finds every name it wraps in ``rcert``.

``perfbench/tracing.py`` patches ``adaptive_quad`` in every module that binds
it, ``CumulativeIntegral.__call__`` and the ``__init__``/``__call__``/
``exponent`` methods of ``FBound`` and ``GBound``, each looked up in the
class's own ``__dict__``, and counts every call of a residual oracle.  A
change that removes one of them, or moves an oracle out of the layers the
tracer wraps, breaks the traced benchmark runs; these tests make it break
tier-1 too.
"""

import math
from pathlib import Path

import rcert
import rcert.cli  # noqa: F401  (the tracer wraps every layer; the benchmark imports the CLI too)
import rcert.quadrature as quadrature
from rcert import BoundTriple, InitialData, IntegrationOptions
from conftest import make_eq

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_counts_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    originals = (quadrature.adaptive_quad, quadrature.CumulativeIntegral.__dict__["__call__"], quadrature.FBound.__dict__["exponent"])
    tracer = tracing.Tracer()
    try:
        tracer.install()
        b = BoundTriple(P=lambda t: 1.0, Q=lambda t: 0.0, R=lambda t: -1.0)
        envelope = quadrature.FBound(b, 0.0, 1.0, 0.0)(1.0)
        antiderivative = quadrature.CumulativeIntegral(math.cos, 0.0)(1.0)
        integral = quadrature.adaptive_quad(math.exp, 0.0, 1.0)
        peak = quadrature.adaptive_quad(lambda x: 1.0 / (1e-3 + (x - 0.3) ** 2), -1.0, 1.0)
    finally:
        tracer.uninstall()

    assert abs(envelope / math.exp(0.5) - 1.0) < 1e-12
    assert abs(antiderivative - math.sin(1.0)) < 1e-12
    assert abs(integral - math.expm1(1.0)) < 1e-12
    assert abs(peak * math.sqrt(1e-3) / (math.atan(0.7 / math.sqrt(1e-3)) + math.atan(1.3 / math.sqrt(1e-3))) - 1.0) < 1e-8
    assert tracer.counts["quadrature.quad_calls"] == 2
    # One panel for exp, then the 27 panels of the peak's tree.
    assert tracer.counts["quadrature.integrand_evals"] == 15 + 405
    assert tracer.counts["quadrature.cumint_queries"] == 1
    assert tracer.group_time["envelope"] > 0.0
    restored = (quadrature.adaptive_quad, quadrature.CumulativeIntegral.__dict__["__call__"], quadrature.FBound.__dict__["exponent"])
    assert restored == originals


def test_tracer_counts_the_trajectory_oracles(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    traj = rcert.integrate(make_eq(r=1.0), InitialData(0.0, 1.0, 0.0), IntegrationOptions(horizon=1.0))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        # Looked up on the package at call time, as the benchmark does, so the tracer's wrappers run.
        residuals = [
            rcert.flux_residual(traj),
            rcert.volterra_residual(traj),
            rcert.cauchy_residual(rcert.transform(traj, (0.0, 1.0))),
        ]
    finally:
        tracer.uninstall()

    assert max(residuals) <= 1e-8
    assert tracer.counts["riccati.residual_calls"] == 3
    assert tracer.counts["dynamics.dense_evals"] > 0
