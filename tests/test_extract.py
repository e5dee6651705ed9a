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
from cavpuck import extract
from cavpuck.extract import (
    Method,
    _Detuning,
    _fit_power,
    _fit_window,
    _least_squares,
    _lorentz_model,
    _three_db,
    _trace,
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
    (1248240271.8197548, 8842.267969472548),
    (1306972560.249631, 21945.833961400138),
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
# the reach: with no window an estimate reads only the samples about its
# peak, with the result it has over the whole band

def _lorentzian_over_the_band(spec, near_hz):
    """fit_lorentzian with no window, computed over the whole band."""
    band = _trace(spec, slice(None))
    seed = _three_db(band, near_hz)
    try:
        w = _fit_window(band, seed)
        est = _fit_power(band.f[w], band.power[w], seed)
    except (ValueError, NoConvergenceError):
        est = None
    if est is None or not 0.5 < est.q_loaded / seed.q_loaded < 2.0:
        rough = _fit_power(band.f, band.power, seed)
        w = _fit_window(band, rough)
        est = _fit_power(band.f[w], band.power[w], rough)
    return est


WHOLE_BAND = (
    (q_three_db, lambda spec, near: _three_db(_trace(spec, slice(None)), near)),
    (fit_lorentzian, _lorentzian_over_the_band),
    (q_phase_slope, lambda spec, near: q_phase_slope(spec, near, math.inf)),
)


def _outcome(fn, spec, near_hz):
    try:
        est = fn(spec, near_hz)
    except Exception as exc:  # the oracle must raise the same error
        return type(exc), str(exc)
    return est.f0_hz, est.q_loaded, est.amplitude


def _assert_reach_matches_the_band(spec, nears):
    for near in nears:
        for method, over_the_band in WHOLE_BAND:
            assert _outcome(method, spec, near) == _outcome(over_the_band, spec, near), (
                method.__name__, near)


def _two_mode_spectra():
    """Both scenarios at eps_r 230: the clean spectrum on the default grid,
    and noisy ones as a measurement would come, with no model snapshot, on
    8,001 points over one splitting either side of the pair's centre."""
    for name, kwargs in (("paper-room", {"eps_r": 230.0, "kappa": 0.03}),
                         ("paper-pec", {"eps_r": 230.0})):
        model = bundled_scenario(name).two_port(**kwargs)
        clean = synthesize_s21(model)
        yield clean, find_peaks_and_notch(clean)
        pair = coupled_eigenmodes(model.sys)
        center, split = 0.5 * (pair.f1_hz + pair.f2_hz), pair.f2_hz - pair.f1_hz
        clean = synthesize_s21(model, np.linspace(center - split, center + split, 8_001))
        summary = find_peaks_and_notch(clean)
        for snr_db, seed in ((40.0, 5), (20.0, 6)):
            yield Spectrum(clean.f_hz, with_noise(clean, snr_db, seed).s21), summary


def test_reach_gives_the_whole_band_result_on_two_mode_spectra():
    rng = np.random.default_rng(29)
    for spec, summary in _two_mode_spectra():
        f = spec.f_hz
        span = f[-1] - f[0]
        nears = [summary.f_peak1_hz, summary.f_peak2_hz, summary.f_notch_hz,
                 f[0] + 0.01 * span, f[-1] - 0.01 * span, *(f[0] + span * rng.random(2))]
        _assert_reach_matches_the_band(spec, nears)


@pytest.mark.parametrize("margin", [extract._REACH_WIDTHS, 0.0])
def test_reach_gives_the_whole_band_result_at_the_edge_cases(monkeypatch, margin):
    # with no margin past the raw 3 dB pass, every later walk and window
    # must grow the reach itself
    monkeypatch.setattr(extract, "_REACH_WIDTHS", margin)
    # a band inside the half-power points: every estimate raises
    narrow = lorentzian_spectrum(1.3e9, 1e4, span_linewidths=0.8)
    _assert_reach_matches_the_band(narrow, [1.3e9])
    # a seed fooled by noise: fit_lorentzian falls back to the band
    spec = lorentzian_spectrum(1.3e9, 1e4)
    for seed in (3, 10):
        _assert_reach_matches_the_band(with_noise(spec, 15.0, seed), [1.3e9])
    # a line 500 samples wide: the first walks run past the first window
    _assert_reach_matches_the_band(lorentzian_spectrum(1.3e9, 1e4, n=20_001), [1.3e9])
    # a neighbour 15 linewidths off clips the Lorentzian window at 7.5
    f1, q = 1.3e9, 1e4
    f = np.linspace(f1 - 60.0 * f1 / q, f1 + 60.0 * f1 / q, 6001)
    f2 = f1 + 15.0 * f1 / q
    pair = Spectrum(f, 0.5 / (1.0 + 2j * q * (f - f1) / f1) + 0.5 / (1.0 + 2j * q * (f - f2) / f2))
    _assert_reach_matches_the_band(pair, [f1, f2])
    # a flat top through an edge of the first window, nearer near_hz than
    # the spike inside it: the band's nearest local maximum is the top
    f = np.linspace(1.29e9, 1.31e9, 2001)
    for sign in (1, -1):
        mag = np.full(f.size, 0.1)
        mag[1000 - sign * np.arange(9, 41)] = 1.0
        mag[1000 + 28 * sign] = 1.0
        _assert_reach_matches_the_band(Spectrum(f, mag.astype(complex)), [f[1000]])
    # quantized traces: flat tops, and flat runs through the edges of a
    # reach, about the peak and out on the tails
    rng = np.random.default_rng(3)
    noisy = with_noise(lorentzian_spectrum(1.3e9, 1e4, span_linewidths=400.0, n=10_001), 30.0, 1)
    for step in (1.0 / 64.0, 1.0 / 16.0):
        quantized = Spectrum(noisy.f_hz, np.round(noisy.s21 / step) * step)
        power = np.abs(quantized.s21) ** 2
        assert np.count_nonzero(power[1:] == power[:-1]) > 3_000
        _assert_reach_matches_the_band(quantized, [*np.linspace(1.3e9 - 2e6, 1.3e9 + 2e6, 3),
                                                   *rng.choice(noisy.f_hz, 4)])
    # near_hz far out on a clean tail: the nearest local maximum is the
    # peak, thousands of samples away, and the reach grows to it
    wide = lorentzian_spectrum(1.3e9, 1e4, span_linewidths=2000.0, n=200_001)
    _assert_reach_matches_the_band(wide, [wide.f_hz[1000], 1.3e9 + 600 * 1.3e5])


def test_unwindowed_estimates_read_only_the_samples_about_their_peak(monkeypatch):
    # 1,000,001 samples, 30 per linewidth: each estimate reads under 2% of them
    spec = lorentzian_spectrum(1.3e9, 1e5, span_linewidths=1e6 / 30.0, n=1_000_001)
    read = []

    def recording_trace(spec, sel, **kwargs):
        read.append(len(range(*sel.indices(spec.f_hz.size))))
        return _trace(spec, sel, **kwargs)

    monkeypatch.setattr(extract, "_trace", recording_trace)
    for method in METHODS:
        read.clear()
        assert method(spec, 1.3e9).q_loaded == pytest.approx(1e5, rel=1e-2)
        assert 0 < sum(read) <= 0.02 * spec.f_hz.size, method.__name__


def test_reach_takes_its_grid_step_from_the_samples_about_the_peak():
    # dense about the peak (30 samples per linewidth over +-300 linewidths),
    # coarse (2 linewidths a step) elsewhere and in the majority, so the
    # band's median step is the coarse one and the reach's the dense one
    f0, q = 1.3e9, 1e5
    lw = f0 / q
    dense = f0 + lw * np.linspace(-300.0, 300.0, 18_001)
    coarse = f0 + lw * np.arange(302.0, 60_000.0, 2.0)
    f = np.concatenate([2.0 * f0 - coarse[::-1], dense, coarse])
    spec = Spectrum(f, 0.5 / (1.0 + 2j * q * (f - f0) / f0))
    assert coarse.size > dense.size
    sel = _window(spec, f0, None)
    assert dense[0] <= f[sel.start] and f[sel.stop - 1] <= dense[-1]
    reach_only = Spectrum(f[sel], spec.s21[sel])
    assert q_three_db(spec, f0) == q_three_db(reach_only, f0, math.inf)
    # over the whole band the coarse step leaves the trace unaveraged
    assert q_three_db(spec, f0) != q_three_db(spec, f0, math.inf)
    # dense only within +-0.01 linewidth: the first reach's median step asks
    # for an average longer than the reach, which grows until its median
    # step is the coarse one, as over the band
    dense = f0 + lw * np.linspace(-0.01, 0.01, 1001)
    coarse = f0 + lw * np.arange(0.5, 30_000.0, 0.5)
    f = np.concatenate([2.0 * f0 - coarse[::-1], dense, coarse])
    spec = Spectrum(f, 0.5 / (1.0 + 2j * q * (f - f0) / f0))
    for method in (q_three_db, q_phase_slope):
        assert method(spec, f0) == method(spec, f0, math.inf)


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
