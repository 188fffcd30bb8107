"""Time one set-up in a fresh interpreter: import rcert, load the config, build the equations.

Usage: ``python3 setup_probe.py <src dir> config <config.json> <command> [theorem]``
or ``python3 setup_probe.py <src dir> oracles``.  Prints the seconds taken and,
on the same line, the reference kernel's time measured in this process before
and after the set-up (see ``calibrate.py``).
"""

import sys
from time import perf_counter

from calibrate import reference_time


def oracle_equations() -> dict:
    """The Van der Pol (lambda = mu = nu = 1) and power-law (rho=4, sigma=0, n=3) equations."""
    import rcert

    one = rcert.time_function_from_json({"kind": "constant", "value": 1.0}, "benchmark")
    return {
        "van_der_pol": rcert.vdp_equation(rcert.VdPParams(lam=one, mu=one, nu=one), t0=0.0),
        "power_law": rcert.ef_equation(rcert.EFParams(rho=4.0, sigma=0.0, n=3.0), t0=1.0),
    }


def main(argv: list[str]) -> float:
    start = perf_counter()
    sys.path.insert(0, argv[1])
    import rcert
    from rcert.config import load_config

    if argv[2] == "config":
        built = [load_config(argv[3], argv[4], argv[5] if len(argv) > 5 else None).equation]
    else:
        built = list(oracle_equations().values())
    elapsed = perf_counter() - start
    if not all(isinstance(eq, rcert.EquationSpec) for eq in built):
        raise SystemExit("set-up built no equation")
    return elapsed


if __name__ == "__main__":
    kernel_before = reference_time()
    elapsed = main(sys.argv)
    print(repr(elapsed), repr(0.5 * (kernel_before + reference_time())))
