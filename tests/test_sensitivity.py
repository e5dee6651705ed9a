"""Thermal responsivity chain: permittivity slope -> bare-puck drift ->
per-mode drift sharing, plus the operating-point bookkeeping around it."""

import math

import numpy as np
import pytest

from cavpuck.cmt import CoupledSystem, ModeLabel, beta_coefficients, coupled_eigenmodes
from cavpuck.materials import (
    ConstantPermittivity,
    InverseTPermittivity,
    TablePermittivity,
    default_sto_permittivity,
)
from cavpuck.resonator import DielectricPuck, puck_frequency_hz
from cavpuck.sensitivity import (
    OperatingPoint,
    dfsto_dt,
    make_operating_point,
    responsivity,
    responsivity_report,
)

PUCK = DielectricPuck(8.17, 7.26, 2.0)


# ---------------------------------------------------------------------------
# permittivity derivative

def test_every_permittivity_model_reports_its_own_slope():
    inv = InverseTPermittivity(1.0e5, 20.0, 80.0)
    table = TablePermittivity((20.0, 80.0), (5000.0, 1250.0))
    for model in (ConstantPermittivity(318.0), inv, table):
        assert callable(model.deriv)
    for t in (20.0, 33.3, 50.0, 80.0):
        assert inv.deriv(t) == -1.0e5 / t**2


def test_constant_permittivity_slope_is_exactly_zero():
    assert ConstantPermittivity(318.0).deriv(50.0) == 0.0


def test_dense_table_matches_the_analytic_derivative():
    inv = default_sto_permittivity()
    t = np.linspace(20.0, 80.0, 601)
    table = TablePermittivity(tuple(t.tolist()), tuple((1e5 / t).tolist()))
    assert table.deriv(50.0) == pytest.approx(inv.deriv(50.0), rel=1e-4)
    # at the table edges the step is clipped to one side, which is
    # first-order accurate
    assert table.deriv(20.0) == pytest.approx(inv.deriv(20.0), rel=1e-2)
    assert table.deriv(80.0) == pytest.approx(inv.deriv(80.0), rel=1e-2)


def test_two_row_table_reduces_to_the_secant():
    table = TablePermittivity((40.0, 60.0), (2500.0, 1666.6666666666667))
    secant = (1666.6666666666667 - 2500.0) / 20.0
    assert table.deriv(50.0) == pytest.approx(secant, rel=1e-10)


def test_table_narrower_than_the_step_gives_its_secant():
    # 0.01 K wide at 40 K: T +/- 1e-3*T leaves the table on both sides
    table = TablePermittivity((40.0, 40.01), (2500.0, 2499.0))
    for t in (40.0, 40.005, 40.01):
        assert table.deriv(t) == pytest.approx(-100.0, rel=1e-9)


def test_table_slope_refuses_zero_kelvin():
    with pytest.raises(ValueError, match="T=0"):
        TablePermittivity((0.0, 10.0), (300.0, 290.0)).deriv(0.0)


def test_step_near_a_table_end_is_clipped_to_the_table():
    # knots 0.03 K in from each end: within 1e-3*T of an end the secant runs
    # from that end across the knot, not over [T, T + h] or [T - h, T]
    table = TablePermittivity((40.0, 40.03, 59.97, 60.0), (2500.0, 2490.0, 1700.0, 1660.0))
    middle = (1700.0 - 2490.0) / (59.97 - 40.03)
    hi = 40.02 * 1.001
    assert table.deriv(40.02) == pytest.approx(
        (-10.0 + middle * (hi - 40.03)) / (hi - 40.0), rel=1e-12
    )
    lo = 59.97 * 0.999
    assert table.deriv(59.97) == pytest.approx(
        (-40.0 + middle * (59.97 - lo)) / (60.0 - lo), rel=1e-12
    )


# ---------------------------------------------------------------------------
# bare-puck drift

def test_bare_drift_reference_value():
    # eps_r = 1e5/T at 50 K: eps = 2000, deps/dT = -40, and the inverse
    # square-root frequency rule turns that into +4.26 MHz/K
    assert dfsto_dt(PUCK, default_sto_permittivity(), 50.0) == pytest.approx(
        4257607.757152178, rel=1e-12
    )


def test_constant_permittivity_does_not_drift():
    assert dfsto_dt(PUCK, ConstantPermittivity(318.0), 50.0) == 0.0


def test_drift_sign_tracks_the_permittivity_slope():
    # cooling raises eps_r, so on warming (deps/dT < 0) the frequency rises
    assert dfsto_dt(PUCK, default_sto_permittivity(), 30.0) > 0
    rising = TablePermittivity((20.0, 80.0), (200.0, 400.0))
    assert dfsto_dt(PUCK, rising, 50.0) < 0


# ---------------------------------------------------------------------------
# operating point

def test_operating_point_chain_sets_the_puck_frequency():
    inv = default_sto_permittivity()
    op = make_operating_point(PUCK, inv, 50.0, 1297124900.0, 4.2e7, 0.0278, 1.01e4)
    assert op.sys.f_sto_hz == pytest.approx(puck_frequency_hz(PUCK, 2000.0), rel=1e-14)
    assert op.t_k == 50.0


def test_operating_point_rejects_a_mismatched_system():
    sys = CoupledSystem(4.3e8, 1e4, 1.3e9, 4.2e7, 0.03)
    with pytest.raises(ValueError, match="does not match the model chain"):
        OperatingPoint(PUCK, default_sto_permittivity(), 50.0, sys)


# ---------------------------------------------------------------------------
# responsivity report

@pytest.fixture(scope="module")
def report_50k():
    op = make_operating_point(
        PUCK, default_sto_permittivity(), 50.0, 1297124900.0, 4.2e7, 0.0278, 1.01e4
    )
    return responsivity(op)


def test_report_reference_values(report_50k):
    rep = report_50k
    assert rep.dfsto_dt_hz_per_k == pytest.approx(4257607.757152178, rel=1e-12)
    assert rep.beta.beta1 == pytest.approx(0.9857649753894929, rel=1e-12)
    assert rep.beta.beta2 == pytest.approx(1.01356097764023, rel=1e-12)
    assert rep.df2_dt_hz_per_k == pytest.approx(4315345.080747789, rel=1e-12)
    assert rep.figure_of_merit_2 == pytest.approx(97389.20386906587, rel=1e-9)
    assert rep.formula_caveat is False


def test_report_falls_back_to_eigenmodes_when_detuned(report_50k):
    # at 50 K the puck sits at 426 MHz, far from the 1.3 GHz cavity: the
    # report must carry the detuned eigenmodes with bare-mode labels
    modes = report_50k.modes
    assert modes.f1_hz == pytest.approx(425576367.03911066, rel=1e-10)
    assert modes.q1 == pytest.approx(10101.05584045019, rel=1e-10)
    assert modes.label1 is ModeLabel.STO
    assert modes.label2 is ModeLabel.CAVITY


def test_figure_of_merit_identity(report_50k):
    rep = report_50k
    assert rep.figure_of_merit_1 == abs(rep.df1_dt_hz_per_k) * rep.modes.q1 / rep.modes.f1_hz
    assert rep.figure_of_merit_2 == abs(rep.df2_dt_hz_per_k) * rep.modes.q2 / rep.modes.f2_hz


def test_report_as_dict_keys(report_50k):
    assert sorted(report_50k.as_dict()) == [
        "beta1", "beta2", "df1_dt_hz_per_k", "df2_dt_hz_per_k",
        "dfsto_dt_hz_per_k", "f1_hz", "f2_hz", "f_sto_source", "figure_of_merit_1",
        "figure_of_merit_2", "formula_caveat", "q1", "q2", "t_k",
    ]
    assert report_50k.as_dict()["f_sto_source"] == "permittivity"


def test_off_band_puck_sets_the_caveat_flag():
    thin = DielectricPuck(2.0, 14.0, 0.0)
    assert thin.aspect_ratio < 0.3
    op = make_operating_point(thin, default_sto_permittivity(), 50.0, 1.3e9, 4.2e7, 0.03, 1e4)
    assert responsivity(op).formula_caveat is True


# ---------------------------------------------------------------------------
# how the modes actually share a puck drift

def _fd_mode_slopes(q_sto, q_cav, kappa, f0=1.3e9, dfs=1e4):
    hi = coupled_eigenmodes(CoupledSystem(f0 + dfs, q_sto, f0, q_cav, kappa))
    lo = coupled_eigenmodes(CoupledSystem(f0 - dfs, q_sto, f0, q_cav, kappa))
    return (hi.f1_hz - lo.f1_hz) / (2 * dfs), (hi.f2_hz - lo.f2_hz) / (2 * dfs)


def test_betas_match_finite_differences_at_equal_q():
    sys = CoupledSystem(1.3e9, 1e4, 1.3e9, 1e4, 0.03)
    beta = beta_coefficients(sys)
    fd1, fd2 = _fd_mode_slopes(1e4, 1e4, 0.03)
    assert fd1 == pytest.approx(beta.beta1, rel=0.03)
    assert fd2 == pytest.approx(beta.beta2, rel=0.03)


def test_resonant_drift_splits_evenly_at_unequal_q():
    # exactly on resonance the frequency drift is shared half-half no
    # matter how asymmetric the losses; the beta convention instead folds
    # the loss asymmetry in, so the two differ by 2/(1 + Qs/Qc)
    q_sto, q_cav, kappa = 1.01e4, 4.2e7, 0.0278
    fd1, fd2 = _fd_mode_slopes(q_sto, q_cav, kappa)
    assert fd1 == pytest.approx(math.sqrt(1 - kappa) / 2, rel=1e-6)
    assert fd2 == pytest.approx(math.sqrt(1 + kappa) / 2, rel=1e-6)
    beta = beta_coefficients(CoupledSystem(1.3e9, q_sto, 1.3e9, q_cav, kappa))
    expected_ratio = 2.0 / (1.0 + q_sto / q_cav)
    assert beta.beta1 / fd1 == pytest.approx(expected_ratio, rel=1e-6)
    assert beta.beta2 / fd2 == pytest.approx(expected_ratio, rel=1e-6)


def test_report_accepts_an_external_drift_number():
    sys = CoupledSystem(1.3e9, 1e4, 1.3e9, 4.2e7, 0.03)
    rep = responsivity_report(sys, 1e4)
    beta = beta_coefficients(sys)
    assert rep.df1_dt_hz_per_k == pytest.approx(beta.beta1 * 1e4, rel=1e-12)
    assert rep.df2_dt_hz_per_k == pytest.approx(beta.beta2 * 1e4, rel=1e-12)
    assert math.isnan(rep.t_k)
