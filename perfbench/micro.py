"""Layer microbenchmarks through public entry points, run with tracing off.

Each returns the median of five timed repeats, in the unit the ROADMAP
baselines use: nanoseconds per ``ScalarField`` call, microseconds per GK15
panel through ``adaptive_quad`` and microseconds per accepted DP5 step.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import rcert
from setup_probe import oracle_equations

REPEATS = 5
FIELD_CALLS = 100_000  # ScalarField calls per timed repeat
PANEL_CALLS = 10_000  # single-panel adaptive_quad calls per timed repeat


def _median_time(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def fields_ns_per_call() -> float:
    fld = rcert.ScalarField(lambda t, w: t + w, name="t_plus_w")

    def loop():
        for _ in range(FIELD_CALLS):
            fld(1.0, 0.5)

    return _median_time(loop) / FIELD_CALLS * 1e9


def quadrature_us_per_panel() -> float:
    evals = []

    def square(x):
        evals.append(x)
        return x * x

    rcert.adaptive_quad(square, 0.0, 1.0)
    if len(evals) != 15:  # a quadratic is exact in one GK15 panel
        raise RuntimeError(f"adaptive_quad took {len(evals)} evaluations for one panel, expected 15")

    def loop():
        for _ in range(PANEL_CALLS):
            rcert.adaptive_quad(lambda x: x * x, 0.0, 1.0)

    return _median_time(loop) / PANEL_CALLS * 1e6


def dynamics_us_per_step() -> float:
    eq = oracle_equations()["van_der_pol"]
    ic = rcert.InitialData(0.0, 1.0, 0.5)
    opts = rcert.IntegrationOptions(horizon=20.0)
    steps = len(rcert.integrate(eq, ic, opts).ts) - 1
    return _median_time(lambda: rcert.integrate(eq, ic, opts)) / steps * 1e6


def run_all() -> dict[str, float]:
    return {
        "fields.ns_per_call": fields_ns_per_call(),
        "quadrature.us_per_panel": quadrature_us_per_panel(),
        "dynamics.us_per_step": dynamics_us_per_step(),
    }
