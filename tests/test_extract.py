"""Resonance extraction: three independent estimators, their noise
robustness, and the permittivity-responsivity products built on them."""

import math

import numpy as np
import pytest

from conftest import (
    NOISE_SEEDS,
    REF_KAPPA,
    driven_model,
    lorentzian_spectrum,
    with_noise,
)
from cavpuck.cmt import coupled_eigenmodes
from cavpuck.errors import (
    BandEdgeClippedError,
    GridTooCoarseError,
    NoConvergenceError,
    PeaksNotResolvedError,
)
from cavpuck.extract import (
    Method,
    _Detuning,
    _least_squares,
    _lorentz_model,
    _window,
    fit_lorentzian,
    q_internal_from_loaded,
    q_phase_slope,
    q_three_db,
    sensitivity_q_product,
    sensitivity_to_eps,
)
from cavpuck.network import (
    Spectrum,
    default_frequency_grid,
    find_peaks_and_notch,
    synthesize_s21,
)
from cavpuck.resonator import (
    DielectricPuck,
    eps_for_frequency,
    puck_frequency_hz,
    puck_frequency_slope_eps,
)
from cavpuck.scenario import bundled_scenario

METHODS = (q_three_db, fit_lorentzian, q_phase_slope)


# ---------------------------------------------------------------------------
# clean-spectrum accuracy

@pytest.mark.parametrize("f0, q, amp", [(1.3e9, 1e4, 0.5), (2.45e9, 5e4, 0.2)])
@pytest.mark.parametrize("method", METHODS)
def test_clean_extraction(f0, q, amp, method):
    spec = lorentzian_spectrum(f0, q, amplitude=amp)
    est = method(spec, f0)
    # the averaged 3 dB pass trades a known small bias for noise immunity
    q_tol = 1e-2 if method is q_three_db else 1e-6
    assert est.q_loaded == pytest.approx(q, rel=q_tol)
    assert est.f0_hz == pytest.approx(f0, rel=1e-6)
    assert est.amplitude == pytest.approx(amp, rel=1e-2)


def test_methods_agree_pairwise_on_clean_data():
    spec = lorentzian_spectrum(1.3e9, 1e4)
    qs = [method(spec, 1.3e9).q_loaded for method in METHODS]
    assert max(qs) / min(qs) - 1 < 0.02


def test_fit_reproduces_its_own_curve():
    est = fit_lorentzian(lorentzian_spectrum(1.3e9, 1e4), 1.3e9)
    f = lorentzian_spectrum(1.3e9, 1e4).f_hz
    curve = est.amplitude / (1 + 2j * est.q_loaded * (f - est.f0_hz) / est.f0_hz)
    refit = fit_lorentzian(Spectrum(f, curve), 1.3e9)
    assert refit.f0_hz == pytest.approx(est.f0_hz, rel=1e-9)
    assert refit.q_loaded == pytest.approx(est.q_loaded, rel=1e-6)
    assert refit.residual < 1e-8


def test_estimate_reporting():
    spec = lorentzian_spectrum(1.3e9, 1e4)
    est = fit_lorentzian(spec, 1.3e9)
    assert est.method is Method.LORENTZ_FIT
    assert est.as_dict() == {
        "f0_hz": est.f0_hz,
        "q_loaded": est.q_loaded,
        "method": "lorentz",
        "residual": est.residual,
    }
    assert q_three_db(spec, 1.3e9).as_dict()["method"] == "3db"
    assert q_phase_slope(spec, 1.3e9).as_dict()["method"] == "phase"


# ---------------------------------------------------------------------------
# noise robustness (fixed seeds: these are Monte-Carlo bounds, not flakes)

def _noise_errors(method, snr_db=30.0):
    spec = lorentzian_spectrum(1.3e9, 1e4)
    q_err, f_err = [], []
    for seed in NOISE_SEEDS:
        est = method(with_noise(spec, snr_db, seed), 1.3e9)
        q_err.append(est.q_loaded / 1e4 - 1.0)
        f_err.append(est.f0_hz / 1.3e9 - 1.0)
    return np.asarray(q_err), np.asarray(f_err)


def test_three_db_under_noise():
    q_err, f_err = _noise_errors(q_three_db)
    # individual trials scatter to ~8%; the ensemble stays centered
    assert abs(float(q_err.mean())) < 0.02
    assert float(np.max(np.abs(q_err))) < 0.10
    assert float(np.max(np.abs(f_err))) < 1e-5


def test_lorentzian_fit_under_noise():
    q_err, f_err = _noise_errors(fit_lorentzian)
    assert abs(float(q_err.mean())) < 0.005
    assert float(np.max(np.abs(q_err))) < 0.03
    assert float(np.max(np.abs(f_err))) < 2e-6


def test_phase_slope_under_noise():
    q_err, f_err = _noise_errors(q_phase_slope)
    assert abs(float(q_err.mean())) < 0.005
    assert float(np.max(np.abs(q_err))) < 0.03
    assert float(np.max(np.abs(f_err))) < 2e-6


def test_window_choice_does_not_move_the_answer():
    noisy = with_noise(lorentzian_spectrum(1.3e9, 1e4), 30.0, 0)
    for method in METHODS:
        a = method(noisy, 1.3e9, window_hz=3e6)
        b = method(noisy, 1.3e9, window_hz=6e6)
        assert a.q_loaded == pytest.approx(b.q_loaded, rel=1e-12)
        assert a.f0_hz == pytest.approx(b.f0_hz, rel=1e-12)


# ---------------------------------------------------------------------------
# driven spectra: per-mode loaded Q from the phase slope

def test_phase_slope_separates_mode_qs():
    # eps_r = 300 detunes the puck well below the cavity: the lower mode
    # keeps the lossy puck Q (~1e4) while the upper keeps a ~1e6 loaded Q.
    model = driven_model(300.0)
    pair = coupled_eigenmodes(model.sys)
    ests = []
    for f_mode, q_mode in ((pair.f1_hz, pair.q1), (pair.f2_hz, pair.q2)):
        lw = f_mode * (1.0 / q_mode + 2.0 / 8.6e7)
        grid = np.linspace(f_mode - 400 * lw, f_mode + 400 * lw, 16001)
        spec = synthesize_s21(model, grid)
        f_driven = float(grid[int(np.argmax(np.abs(spec.s21)))])
        ests.append(q_phase_slope(spec, f_driven))
    q1, q2 = ests[0].q_loaded, ests[1].q_loaded
    assert q1 == pytest.approx(pair.q1, rel=0.05)
    assert 1e6 < q2 < 2e6
    assert q2 / q1 > 50.0


def test_estimators_agree_on_the_cli_default_two_mode_spectrum():
    # The spectrum `cavpuck spectrum` writes for the room scenario holds both
    # hybridized peaks and the notch between them.  With no window each
    # estimator must still read the one mode it was pointed at.
    model = bundled_scenario("paper-room").two_port(eps_r=230.0, kappa=0.03)
    spec = synthesize_s21(model)
    summary = find_peaks_and_notch(spec)
    pair = coupled_eigenmodes(model.sys)
    ext = 1.0 / model.q_ext1 + 1.0 / model.q_ext2
    for f_peak, q_mode in ((summary.f_peak1_hz, pair.q1), (summary.f_peak2_hz, pair.q2)):
        q_model = 1.0 / (1.0 / q_mode + ext)  # loaded: 8766.2 lower, 21942.1 upper
        qs = [method(spec, f_peak).q_loaded for method in METHODS]
        assert max(qs) / min(qs) - 1 < 0.02
        for q in qs:
            assert q == pytest.approx(q_model, rel=0.02)


# q_phase_slope on both peaks of a 60 dB SNR (noise seed 7), 100,001-point
# paper-room spectrum (eps_r 230, kappa 0.03) spanning five splittings
# either side of the pair: (f0_hz, q_loaded), unwindowed and in a
# 5-linewidth window alike.
PHASE_SLOPE_GOLDENS = (
    (1248385425.6274133, 8699.556247448),
    (1307114853.5974953, 22303.781566235044),
)


def test_phase_slope_goldens_on_a_noisy_two_mode_spectrum():
    model = bundled_scenario("paper-room").two_port(eps_r=230.0, kappa=0.03)
    pair = coupled_eigenmodes(model.sys)
    center, split = 0.5 * (pair.f1_hz + pair.f2_hz), pair.f2_hz - pair.f1_hz
    clean = synthesize_s21(model, np.linspace(center - 5 * split, center + 5 * split, 100_001))
    noisy = with_noise(clean, 60.0, 7)
    summary = find_peaks_and_notch(clean)
    ext = 1.0 / model.q_ext1 + 1.0 / model.q_ext2
    peaks = ((summary.f_peak1_hz, pair.q1), (summary.f_peak2_hz, pair.q2))
    for (f_peak, q_mode), (f0, q) in zip(peaks, PHASE_SLOPE_GOLDENS):
        for window_hz in (None, 5.0 * f_peak * (1.0 / q_mode + ext)):
            est = q_phase_slope(noisy, f_peak, window_hz)
            assert est.f0_hz == pytest.approx(f0, rel=1e-12)
            assert est.q_loaded == pytest.approx(q, rel=1e-12)


def test_default_window_stops_short_of_a_close_neighbour():
    # two equal resonances 8 linewidths apart: a fixed +-10-linewidth window
    # takes in the neighbour, the default one stops halfway to it
    f1, q = 1.3e9, 1e4
    lw = f1 / q
    f2 = f1 + 8.0 * lw
    f = np.linspace(f1 - 40.0 * lw, f1 + 60.0 * lw, 5001)
    s21 = 0.5 / (1.0 + 2j * q * (f - f1) / f1) + 0.5 / (1.0 + 2j * q * (f - f2) / f2)
    spec = Spectrum(f, s21)
    assert fit_lorentzian(spec, f1).q_loaded == pytest.approx(q, rel=0.02)
    assert fit_lorentzian(spec, f1, window_hz=10.0 * lw).q_loaded > 1.2 * q


def test_default_window_survives_a_seed_fooled_by_noise():
    # at 15 dB SNR a noise spike on the peak can stop the 3 dB walk at once:
    # with these two noise draws the seed Q is 13-15x too high, and a window
    # of 10 seed linewidths holds too little of the line to fit
    spec = lorentzian_spectrum(1.3e9, 1e4)
    for seed in (3, 10):
        noisy = with_noise(spec, 15.0, seed)
        assert q_three_db(noisy, 1.3e9).q_loaded > 10 * 1e4
        assert fit_lorentzian(noisy, 1.3e9).q_loaded == pytest.approx(1e4, rel=0.1)


# ---------------------------------------------------------------------------
# permittivity responsivity of the spectral features

def test_notch_slope_matches_the_analytic_puck_slope():
    sens = sensitivity_to_eps(driven_model, 230.0)
    analytic = puck_frequency_slope_eps(DielectricPuck(8.17, 7.26, 2.0), 230.0)
    assert sens.dfnotch_deps == pytest.approx(analytic, rel=1e-4)
    assert sens.dfpeak1_deps < 0 and sens.dfpeak2_deps < 0
    assert abs(sens.dfpeak1_deps) < abs(analytic)
    assert abs(sens.dfpeak2_deps) < 0.2 * abs(analytic)


def test_mode_slopes_obey_the_trace_sum_rule():
    # d(f1^2 + f2^2)/deps = d(fs^2)/deps: the cavity frequency and kappa
    # are eps-independent, so the peak slopes must share the bare drift.
    model = driven_model(230.0)
    pair = coupled_eigenmodes(model.sys)
    sens = sensitivity_to_eps(driven_model, 230.0)
    f_sto = model.sys.f_sto_hz
    analytic = puck_frequency_slope_eps(DielectricPuck(8.17, 7.26, 2.0), 230.0)
    lhs = pair.f1_hz * sens.dfpeak1_deps + pair.f2_hz * sens.dfpeak2_deps
    assert lhs == pytest.approx(f_sto * analytic, rel=1e-2)


def test_notch_slope_converges_quadratically_in_step_size():
    # halving the central-difference step divides the quadratic error term
    # by 4: successive slope differences should shrink ~4x
    analytic = puck_frequency_slope_eps(DielectricPuck(8.17, 7.26, 2.0), 230.0)
    slopes = [
        sensitivity_to_eps(driven_model, 230.0, delta=d).dfnotch_deps
        for d in (2.0, 1.0, 0.5)
    ]
    for s in slopes:
        assert s == pytest.approx(analytic, rel=5e-5)
    assert slopes[-1] == pytest.approx(analytic, rel=1e-5)
    ratio = (slopes[0] - slopes[1]) / (slopes[1] - slopes[2])
    assert 3.0 < ratio < 5.5


def test_q_products_cluster_at_the_crossing():
    # with a wall-loss-free cavity all three trackable features give a
    # comparable responsivity-sharpness product near the crossing
    puck = DielectricPuck(8.17, 7.26, 2.0)
    eps_star = eps_for_frequency(puck, 1.3e9)
    for d_eps in (-2.0, 0.0, 2.0):
        qp = sensitivity_q_product(driven_model, eps_star + d_eps)
        values = (qp.mode1, qp.mode2, qp.notch)
        assert max(values) / min(values) - 1 < 0.20


def test_copper_walls_leave_the_notch_as_best_feature():
    puck = DielectricPuck(8.17, 7.26, 2.0)
    eps_star = eps_for_frequency(puck, 1.3e9)
    qp = sensitivity_q_product(lambda e: driven_model(e, q_cav=2.89e4), eps_star)
    assert qp.notch > qp.mode1
    assert qp.notch > qp.mode2


def test_uncoupled_puck_has_no_trackable_split():
    for fn in (sensitivity_to_eps, sensitivity_q_product):
        with pytest.raises(PeaksNotResolvedError):
            fn(lambda e: driven_model(e, kappa=0.0), 230.0)


# ---------------------------------------------------------------------------
# dressing / bookkeeping helpers

def test_internal_q_from_insertion_loss():
    assert q_internal_from_loaded(8000.0, 30.0) == pytest.approx(8261.24345626974, rel=1e-12)
    with pytest.raises(ValueError, match="positive"):
        q_internal_from_loaded(8000.0, 0.0)
    with pytest.raises(ValueError, match="positive"):
        q_internal_from_loaded(8000.0, -3.0)


# ---------------------------------------------------------------------------
# failure modes

def test_band_edge_clipping_is_reported():
    narrow = lorentzian_spectrum(1.3e9, 1e4, span_linewidths=0.8)
    with pytest.raises(BandEdgeClippedError, match="half-power crossing"):
        q_three_db(narrow, 1.3e9)


def test_window_must_keep_five_samples():
    spec = lorentzian_spectrum(1.3e9, 1e4)
    with pytest.raises(ValueError, match="fewer than 5"):
        q_three_db(spec, 1.3e9, window_hz=100.0)


def test_window_bisection_selects_the_mask_samples():
    """_window's slice holds exactly the samples with abs(f - near) <= window,
    also where near -+ window lands on a sample or one ulp either side of it,
    and where the rounded bisection bounds alone would be off by one."""
    rng = np.random.default_rng(11)
    grids = [np.linspace(1.2e9, 1.3e9, 2001), 1.25e9 + 1e4 * np.cumsum(rng.random(2001))]
    off_by_rounding = 0
    for f in grids:
        spec = Spectrum(f, np.ones(f.size, dtype=complex))
        for _ in range(400):
            i, j = rng.integers(0, f.size, 2)
            near = f[i] if rng.random() < 0.5 else f[i] + rng.random() * (f[1] - f[0])
            edge = abs(f[j] - near)  # puts sample j exactly on the window edge
            for window in (edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)):
                inside = np.flatnonzero(np.abs(f - near) <= window)
                bounds = (np.searchsorted(f, near - window), np.searchsorted(f, near + window, "right"))
                if inside.size < 5:
                    with pytest.raises(ValueError, match="fewer than 5"):
                        _window(spec, near, window)
                    continue
                sel = _window(spec, near, window)
                assert (sel.start, sel.stop) == (inside[0], inside[-1] + 1)
                off_by_rounding += bounds != (inside[0], inside[-1] + 1)
    assert off_by_rounding > 0  # the cases the predicate itself must settle


def test_dead_spectrum_is_rejected():
    f = np.linspace(1.2e9, 1.4e9, 101)
    with pytest.raises(PeaksNotResolvedError, match="identically zero"):
        q_three_db(Spectrum(f, np.zeros(101, dtype=complex)), 1.3e9)


def test_flat_phase_has_no_slope_extremum():
    f = np.linspace(1e9, 1.1e9, 501)
    flat = Spectrum(f, np.full(501, 0.25 + 0.1j))
    with pytest.raises(PeaksNotResolvedError, match="no extremum"):
        q_phase_slope(flat, 1.05e9)


def test_phase_slope_raises_when_its_seed_fails():
    # a window inside the half-power points clips the 3 dB seed; the error
    # propagates instead of a finite-difference Q being returned
    spec = lorentzian_spectrum(1.3e9, 1e4)
    with pytest.raises(BandEdgeClippedError, match="half-power crossing"):
        q_phase_slope(spec, 1.3e9, window_hz=0.3 * 1.3e9 / 1e4)


def test_phase_slope_refuses_a_fit_window_under_eight_samples():
    # one sample per linewidth: +-4 seed linewidths are too few to fit
    sparse = lorentzian_spectrum(1.3e9, 1e4, n=41)
    with pytest.raises(GridTooCoarseError, match="under 8 samples"):
        q_phase_slope(sparse, 1.3e9)


def test_phase_slope_refuses_an_unresolved_model_grid():
    # the cavity-like mode at eps_r = 300 is unresolved on this grid, so the
    # refusal comes before any window is read, even one on the lower mode
    model = driven_model(300.0)
    spec = synthesize_s21(model, default_frequency_grid(model, n=20001))
    f1 = coupled_eigenmodes(model.sys).f1_hz
    for window_hz in (None, 1e6):
        with pytest.raises(GridTooCoarseError, match="points per linewidth"):
            q_phase_slope(spec, f1, window_hz)


def test_solver_reports_the_last_iterate_on_nonconvergence():
    spec = lorentzian_spectrum(1.3e9, 1e4)
    det = _Detuning(1.3e9, 3e3)  # detuning scaled to a poor seed, Q = 3e3
    model = _lorentz_model(det, det.t(spec.f_hz))
    y = np.abs(spec.s21) ** 2 / 0.25
    p0 = [0.3, det.t(1.3e9 * 1.0002), 1.0, 0.05]
    valid = lambda p: det.valid(p[1], p[2])
    with pytest.raises(NoConvergenceError, match="2 iterations") as exc_info:
        _least_squares(model, y, p0, accept=valid, max_iter=2)
    err = exc_info.value
    assert err.last_params is not None
    assert err.last_residual > 0
    # the same start converges when given room
    p, rms = _least_squares(model, y, p0, accept=valid)
    assert det.q(p[2]) == pytest.approx(1e4, rel=1e-9)
    assert rms < 1e-10
