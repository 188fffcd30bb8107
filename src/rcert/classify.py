"""Trajectory taxonomy: monotone-global, oscillatory, and singular classes.

"Infinitely many sign changes" cannot be observed in finite arithmetic, so
the singular second-kind label uses a falsifiable surrogate: finite escape
together with zero gaps that shrink geometrically toward the escape time.
Likewise the first-kind label can only ever be a *candidate*: under the
uniqueness conditions of the underlying theory the class is provably empty
(the trivial solution is the unique one through a tangential zero), so a
dead-banded trajectory signals either lost uniqueness or plain numerical
flatlining, never a confirmed first-kind solution.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .dynamics import (
    FINITE_ESCAPE,
    STEP_COLLAPSE,
    IntegrationOptions,
    Trajectory,
    integrate,
)
from .errors import RcertError
from .fields import EquationSpec, InitialData
from .serialize import format_float

__all__ = [
    "GLOBAL_MONOTONE_NONVANISHING",
    "OSCILLATORY",
    "SINGULAR_SECOND_KIND",
    "SINGULAR_FIRST_KIND_CANDIDATE",
    "GLOBAL_NON_OSCILLATORY",
    "UNDETERMINED",
    "Classification",
    "classify",
    "sweep",
    "SweepCell",
    "export_raster_csv",
]

GLOBAL_MONOTONE_NONVANISHING = "GlobalMonotoneNonvanishing"
OSCILLATORY = "Oscillatory"
SINGULAR_SECOND_KIND = "SingularOscillatorySecondKind"
SINGULAR_FIRST_KIND_CANDIDATE = "SingularOscillatoryFirstKindCandidate"
GLOBAL_NON_OSCILLATORY = "GlobalNonOscillatory"
UNDETERMINED = "Undetermined"

# Thresholds mapping finite evidence to the taxonomy labels.  The last
# GAP_COUNT zero gaps contracting by at most GAP_RATIO each is the finite
# surrogate of infinitely many sign changes before an escape time.  The dead
# band is |phi|, |phi'| <= DEAD_BAND_FACTOR * zero_tol sustained over the final
# DEAD_BAND_SPAN of the span; Oscillatory needs MIN_ZEROS zeros, the last one
# in the final WINDOW of the span; a monotone |phi| may dip MONOTONE_TOL
# relative.
MIN_ZEROS = 5
WINDOW = 0.25
GAP_RATIO = 0.9
GAP_COUNT = 4
MONOTONE_TOL = 1e-6
DEAD_BAND_FACTOR = 10.0
DEAD_BAND_SPAN = 0.05


@dataclass(frozen=True)
class Classification:
    kind: str
    zero_count: int
    terminal: str
    monotone: bool
    zero_gap_ratios: tuple[float, ...] = ()
    escape_time: float | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _is_nondecreasing_abs(traj: Trajectory) -> bool:
    prev = abs(traj.phis[0])
    scale = max(1.0, max(map(abs, traj.phis)))
    for v in traj.phis[1:]:
        cur = abs(v)
        if cur < prev - MONOTONE_TOL * scale:
            return False
        prev = max(prev, cur)
    return True


def _gap_ratios(zeros: list[float]) -> tuple[float, ...]:
    if len(zeros) < GAP_COUNT + 1:
        return ()
    gaps = [b - a for a, b in zip(zeros, zeros[1:])][-GAP_COUNT:]
    return tuple(g2 / g1 for g1, g2 in zip(gaps, gaps[1:]) if g1 > 0)


def _dead_band_entry(traj: Trajectory) -> float | None:
    band = DEAD_BAND_FACTOR * traj.opts.zero_tol
    entry = None
    for t, phi, dphi in zip(traj.ts, traj.phis, traj.dphis):
        if abs(phi) <= band and abs(dphi) <= band:
            if entry is None:
                entry = t
        else:
            entry = None
    if entry is None:
        return None
    span = traj.t_end - traj.t_start
    if span <= 0 or (traj.t_end - entry) < DEAD_BAND_SPAN * span:
        return None
    return entry


def classify(traj: Trajectory) -> Classification:
    """Deterministically map a finished trajectory to a taxonomy label.

    Ambiguity (step collapse, tangential zeros, escape without zero-gap
    accumulation) maps to ``Undetermined`` rather than to a guess.
    """
    zeros = traj.zeros
    terminal = traj.terminal.kind
    monotone = _is_nondecreasing_abs(traj)
    ratios, escape_time, detail = (), None, ""

    if terminal == STEP_COLLAPSE or traj.tangential:
        kind, detail = UNDETERMINED, "step collapse or tangential zero"
    elif terminal == FINITE_ESCAPE:
        ratios, escape_time = _gap_ratios(zeros), traj.terminal.time
        if len(ratios) == GAP_COUNT - 1 and all(r <= GAP_RATIO for r in ratios):
            kind, detail = SINGULAR_SECOND_KIND, "zero gaps contract geometrically toward the escape time"
        else:
            kind, detail = UNDETERMINED, "finite escape without accumulating sign changes"
    else:  # reached the horizon
        entry = _dead_band_entry(traj)
        span = traj.t_end - traj.t_start
        if entry is not None:
            kind, detail = SINGULAR_FIRST_KIND_CANDIDATE, f"phi and phi' inside the dead band from t={entry!r}; candidate only"
        elif len(zeros) >= MIN_ZEROS and zeros[-1] >= traj.t_end - WINDOW * span:
            kind = OSCILLATORY
        elif not zeros and monotone and max(map(abs, traj.phis)) > traj.opts.zero_tol:
            kind = GLOBAL_MONOTONE_NONVANISHING
        else:
            kind = GLOBAL_NON_OSCILLATORY
    return Classification(kind, len(zeros), terminal, monotone, ratios, escape_time, detail)


@dataclass(frozen=True)
class SweepCell:
    phi0: float
    phi1: float
    kind: str
    zero_count: int
    escape_time: float | None
    error: str = ""


def sweep(
    eq: EquationSpec,
    ic_rectangle: tuple[tuple[float, float], tuple[float, float]],
    resolution: tuple[int, int],
    opts: IntegrationOptions = IntegrationOptions(),
) -> list[SweepCell]:
    """Classify the trajectory from ``eq.t0`` for every initial pair on a raster.

    A cell whose integration fails with a toolkit or arithmetic error is
    recorded as an ``Undetermined`` cell whose ``error`` names the exception
    class and message; the sweep goes on.  Any other exception is a bug and
    propagates.  Cells are integrated one after another in raster order, so
    the output is deterministic.
    """
    (p_lo, p_hi), (d_lo, d_hi) = ic_rectangle
    n_phi, n_dphi = resolution
    if n_phi < 2 or n_dphi < 2:
        raise ValueError("sweep needs at least a 2x2 raster")

    cells_ic = [
        (
            p_lo + (p_hi - p_lo) * i / (n_phi - 1),
            d_lo + (d_hi - d_lo) * j / (n_dphi - 1),
        )
        for i in range(n_phi)
        for j in range(n_dphi)
    ]

    def run(phi0: float, phi1: float) -> SweepCell:
        try:
            traj = integrate(eq, InitialData(t1=eq.t0, phi0=phi0, phi1=phi1), opts)
        except (RcertError, ArithmeticError) as exc:
            return SweepCell(phi0, phi1, UNDETERMINED, 0, None, error=f"{type(exc).__name__}: {exc}")
        c = classify(traj)
        return SweepCell(phi0, phi1, c.kind, c.zero_count, c.escape_time)

    return [run(phi0, phi1) for phi0, phi1 in cells_ic]


def export_raster_csv(cells: list[SweepCell], path) -> None:
    lines = ["ic_phi,ic_dphi,kind,zero_count,escape_time"]
    for c in cells:
        esc = "" if c.escape_time is None else format_float(c.escape_time)
        lines.append(f"{format_float(c.phi0)},{format_float(c.phi1)},{c.kind},{c.zero_count},{esc}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
