import math
import re

import pytest

from rcert import (
    InitialData,
    IntegrationOptions,
    classify,
    export_raster_csv,
    integrate,
    sweep,
)
from rcert.classify import (
    GLOBAL_MONOTONE_NONVANISHING,
    GLOBAL_NON_OSCILLATORY,
    OSCILLATORY,
    SINGULAR_FIRST_KIND_CANDIDATE,
    SINGULAR_SECOND_KIND,
    UNDETERMINED,
)
from rcert.applications import EFParams, ef_equation
from conftest import make_eq


class TestClassify:
    def test_harmonic_is_oscillatory(self, harmonic_eq):
        traj = integrate(harmonic_eq, InitialData(0.0, 1.0, 0.0), IntegrationOptions(horizon=50.0))
        c = classify(traj)
        assert c.kind == OSCILLATORY
        assert c.zero_count >= 15

    def test_certified_power_law_is_monotone(self):
        eq = ef_equation(EFParams(rho=4.0, sigma=0.0, n=3.0), t0=1.0)
        traj = integrate(eq, InitialData(1.0, 0.5, 0.0), IntegrationOptions(horizon=50.0))
        c = classify(traj)
        assert c.kind == GLOBAL_MONOTONE_NONVANISHING
        assert c.monotone

    def test_constant_counts_as_monotone(self, constant_eq):
        traj = integrate(constant_eq, InitialData(0.0, 1.0, 0.0), IntegrationOptions(horizon=50.0))
        assert classify(traj).kind == GLOBAL_MONOTONE_NONVANISHING

    def test_monotone_escape_is_undetermined_not_singular(self, cube_blowup_eq):
        traj = integrate(cube_blowup_eq, InitialData(0.0, 1.0, 1.0), IntegrationOptions(horizon=10.0))
        c = classify(traj)
        assert traj.terminal.kind == "finite_escape"
        assert c.zero_count == 0
        assert c.kind == UNDETERMINED
        assert c.kind != SINGULAR_SECOND_KIND

    def test_single_crossing_is_non_oscillatory(self, constant_eq):
        # phi = 1 - t crosses zero once and keeps drifting
        traj = integrate(constant_eq, InitialData(0.0, 1.0, -1.0), IntegrationOptions(horizon=50.0))
        c = classify(traj)
        assert c.zero_count == 1
        assert c.kind == GLOBAL_NON_OSCILLATORY

    def test_deterministic(self, harmonic_eq):
        traj = integrate(harmonic_eq, InitialData(0.0, 1.0, 0.0), IntegrationOptions(horizon=50.0))
        assert classify(traj) == classify(traj)

    def test_labels_persist_under_horizon_doubling(self, harmonic_eq):
        eq_mono = ef_equation(EFParams(rho=4.0, sigma=0.0, n=3.0), t0=1.0)
        for eq, ic, expected in (
            (harmonic_eq, InitialData(0.0, 1.0, 0.0), OSCILLATORY),
            (eq_mono, InitialData(1.0, 0.5, 0.0), GLOBAL_MONOTONE_NONVANISHING),
        ):
            short = classify(integrate(eq, ic, IntegrationOptions(horizon=25.0)))
            long = classify(integrate(eq, ic, IntegrationOptions(horizon=50.0)))
            assert short.kind == expected
            assert long.kind == expected

    def test_sign_change_not_tangential_for_nonnegative_restoring(self, harmonic_eq):
        # with r0 >= 0, every recorded zero is a strict sign change
        traj = integrate(harmonic_eq, InitialData(0.0, 1.0, 0.0), IntegrationOptions(horizon=20.0))
        assert not traj.tangential
        eps = 1e-3
        for z in traj.zeros:
            assert traj.phi_at(z - eps) * traj.phi_at(z + eps) < 0


def _record_cases():
    """One trajectory per branch of ``classify``: (equation, initial data, options, full record)."""
    def record(kind, zero_count, terminal, monotone, ratios=(), escape_time=None, detail=""):
        return {
            "kind": kind,
            "zero_count": zero_count,
            "terminal": terminal,
            "monotone": monotone,
            "zero_gap_ratios": ratios,
            "escape_time": escape_time,
            "detail": detail,
        }

    return {
        # phi = 1/(1 - t) ended step_collapse at 1 - t ~ 1.06e-4, short of its pole (ROADMAP item 2(b)),
        # until steps past norm 1e3 were tested per step; it now escapes with T* = 1 inside its bracket.
        "collapse": (
            make_eq(q_fn=lambda t, w: -2.0 / (1.0 - t)),
            InitialData(0.0, 1.0, 1.0),
            IntegrationOptions(horizon=2.0),
            record(UNDETERMINED, 0, "finite_escape", True, (), 0.9999655792292174, "finite escape without accumulating sign changes"),
        ),
        # r0 = -1e300: no stage of the first step is finite, so the run collapses at t = 0.
        "non_finite_collapse": (
            make_eq(r=-1e300),
            InitialData(0.0, 1.0, 0.0),
            IntegrationOptions(horizon=1.0),
            record(UNDETERMINED, 0, "step_collapse", True, detail="step collapse or tangential zero"),
        ),
        # (1 - t)^-2 cos(5 log(1 - t)): zero gaps shrink by e^{-pi/5} toward t = 1.
        "second_kind": (
            make_eq(q_fn=lambda t, w: -5.0 / (1.0 - t), r_fn=lambda t, w: 29.0 / (1.0 - t) ** 2),
            InitialData(0.0, 1.0, 0.0),
            IntegrationOptions(horizon=2.0, rel_tol=1e-6),
            record(
                SINGULAR_SECOND_KIND,
                38,
                "finite_escape",
                False,
                (0.533486239372562, 0.5334881849335651, 0.5334892653669946),
                0.999999999955955,
                "zero gaps contract geometrically toward the escape time",
            ),
        ),
        "escape": (
            make_eq(r_fn=lambda t, w: -abs(w) ** 2),
            InitialData(0.0, 1.0, 1.0),
            IntegrationOptions(horizon=10.0),
            record(UNDETERMINED, 0, "finite_escape", True, (), 1.3109872371542097, "finite escape without accumulating sign changes"),
        ),
        "dead_band": (
            make_eq(),
            InitialData(0.0, 5e-9, 0.0),
            IntegrationOptions(horizon=10.0),
            record(
                SINGULAR_FIRST_KIND_CANDIDATE, 0, "reached_horizon", True, detail="phi and phi' inside the dead band from t=0.0; candidate only"
            ),
        ),
        "oscillatory": (make_eq(r=1.0), InitialData(0.0, 1.0, 0.0), IntegrationOptions(horizon=15.0), record(OSCILLATORY, 5, "reached_horizon", False)),
        "monotone": (
            ef_equation(EFParams(rho=4.0, sigma=0.0, n=3.0), t0=1.0),
            InitialData(1.0, 0.5, 0.0),
            IntegrationOptions(horizon=50.0),
            record(GLOBAL_MONOTONE_NONVANISHING, 0, "reached_horizon", True),
        ),
        "non_oscillatory": (
            make_eq(),
            InitialData(0.0, 1.0, -1.0),
            IntegrationOptions(horizon=50.0),
            record(GLOBAL_NON_OSCILLATORY, 1, "reached_horizon", False),
        ),
    }


class TestClassificationRecords:
    """The whole record of one trajectory per branch of ``classify``."""

    @pytest.mark.parametrize("case", list(_record_cases()))
    def test_record(self, case):
        eq, ic, opts, expected = _record_cases()[case]
        assert classify(integrate(eq, ic, opts)).to_dict() == expected


class TestSweep:
    def test_linear_drift_cells(self, constant_eq):
        cells = sweep(constant_eq, ((0.5, 1.5), (-1.0, 1.0)), (3, 3), IntegrationOptions(horizon=20.0))
        assert len(cells) == 9
        for c in cells:
            assert c.kind in (GLOBAL_MONOTONE_NONVANISHING, GLOBAL_NON_OSCILLATORY)

    def test_blowup_rectangle_all_escape(self, cube_blowup_eq):
        cells = sweep(cube_blowup_eq, ((0.1, 2.0), (0.1, 2.0)), (3, 3), IntegrationOptions(horizon=20.0))
        assert all(c.escape_time is not None for c in cells)

    def test_oscillatory_rectangle(self, harmonic_eq):
        cells = sweep(harmonic_eq, ((0.5, 2.0), (0.5, 2.0)), (3, 3), IntegrationOptions(horizon=50.0))
        assert all(c.kind == OSCILLATORY for c in cells)

    def test_cell_errors_do_not_abort(self):
        # p0 vanishes for |w| >= 2: those cells fail and are recorded as such
        eq = make_eq(p_fn=lambda t, w: 4.0 - w * w)
        cells = sweep(eq, ((0.0, 3.0), (0.0, 0.0)), (4, 2), IntegrationOptions(horizon=5.0))
        errored = [c for c in cells if c.error]
        assert errored
        assert all(c.kind == UNDETERMINED for c in errored)
        assert all(c.error.startswith("DomainError: ") for c in errored)

    def test_raster_csv_layout(self, tmp_path, harmonic_eq):
        cells = sweep(harmonic_eq, ((0.5, 1.0), (0.0, 1.0)), (2, 2), IntegrationOptions(horizon=30.0))
        path = tmp_path / "raster.csv"
        export_raster_csv(cells, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "ic_phi,ic_dphi,kind,zero_count,escape_time"
        assert len(lines) == 5
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 5
            assert fields[2] == OSCILLATORY
            assert fields[4] == ""  # no escapes

    def test_programming_error_propagates(self):
        # A bug in a coefficient (here a KeyError) is not a numerical failure
        # and must not be turned into an Undetermined cell.
        def broken(t, w):
            return {}["missing"]

        eq = make_eq(r_fn=broken)
        with pytest.raises(KeyError):
            sweep(eq, ((0.5, 1.0), (0.0, 1.0)), (2, 2), IntegrationOptions(horizon=5.0))


class TestThresholds:
    def test_min_zeros_threshold(self, harmonic_eq):
        # cos t has 4 zeros before t = 13 and its 5th at 9*pi/2 ~ 14.14; Oscillatory needs 5
        short = classify(integrate(harmonic_eq, InitialData(0.0, 1.0, 0.0), IntegrationOptions(horizon=13.0)))
        assert (short.kind, short.zero_count) == (GLOBAL_NON_OSCILLATORY, 4)
        long = classify(integrate(harmonic_eq, InitialData(0.0, 1.0, 0.0), IntegrationOptions(horizon=15.0)))
        assert (long.kind, long.zero_count) == (OSCILLATORY, 5)

    def test_escape_without_sign_changes_is_undetermined(self, cube_blowup_eq):
        traj = integrate(cube_blowup_eq, InitialData(0.0, 1.0, 1.0), IntegrationOptions(horizon=10.0))
        c = classify(traj)
        # a finite escape needs accumulating sign changes to be called singular
        assert (c.kind, c.zero_count, c.zero_gap_ratios) == (UNDETERMINED, 0, ())
        assert c.detail == "finite escape without accumulating sign changes"


class TestDeadBand:
    """|phi|, |phi'| <= 10 * zero_tol (1e-8 by default) held over the last 5% of the span: a first-kind candidate."""

    def test_flat_start_is_a_candidate_from_t0(self, constant_eq):
        c = classify(integrate(constant_eq, InitialData(0.0, 5e-9, 0.0), IntegrationOptions(horizon=10.0)))
        assert (c.kind, c.zero_count, c.terminal) == (SINGULAR_FIRST_KIND_CANDIDATE, 0, "reached_horizon")
        assert c.detail == "phi and phi' inside the dead band from t=0.0; candidate only"

    def test_decay_into_the_band_is_a_candidate_from_its_entry(self):
        # phi = 5e-9 + 1e-3 e^-t: |phi'| <= 1e-8 from ln(1e5) ~ 11.51, |phi| <= 1e-8 from ln(2e5) ~ 12.21.
        eq = make_eq(q=1.0)
        c = classify(integrate(eq, InitialData(0.0, 1e-3 + 5e-9, -1e-3), IntegrationOptions(horizon=20.0)))
        assert c.kind == SINGULAR_FIRST_KIND_CANDIDATE
        entry = float(re.fullmatch(r"phi and phi' inside the dead band from t=(.*); candidate only", c.detail).group(1))
        assert math.log(2e5) <= entry < 12.3

    def test_entry_in_the_last_five_percent_is_not_a_candidate(self):
        # The same decay to horizon 12.7: it stays in the band for 0.45 < 0.05 * 12.7 of the span.
        eq = make_eq(q=1.0)
        c = classify(integrate(eq, InitialData(0.0, 1e-3 + 5e-9, -1e-3), IntegrationOptions(horizon=12.7)))
        assert (c.kind, c.zero_count, c.detail) == (GLOBAL_NON_OSCILLATORY, 0, "")
