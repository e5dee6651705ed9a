"""Driven two-port transmission: synthesis, grid policy, peak/notch
location, phase analysis, and the CSV round trip."""

import math
import time

import numpy as np
import pytest

from conftest import (
    REF_F_CAV, REF_Q_EXT, dense_extremum, driven_model, feature_errors, with_noise,
)
from cavpuck.cmt import CoupledSystem, coupled_eigenmodes
from cavpuck.errors import GridTooCoarseError, PeaksNotResolvedError
from cavpuck.extract import fit_lorentzian, q_three_db
from cavpuck.materials import load_loss_csv, load_permittivity_csv
from cavpuck.network import (
    Spectrum,
    TwoPortModel,
    _local_maxima,
    _prominences,
    _refine,
    default_frequency_grid,
    find_peaks_and_notch,
    model_features,
    phase_curve,
    phase_derivative,
    phase_slope,
    read_spectrum_csv,
    synthesize_s21,
    write_spectrum_csv,
)
from cavpuck.resonator import load_frequency_csv
from cavpuck.scenario import bundled_scenario

# The workhorse operating point for this module: puck at eps_r = 230
# (f_sto = 1255500032.509563 Hz), wall-loss-free cavity at 1.3 GHz,
# kappa = 0.03, both ports at 8.6e7.
F_STO_230 = 1255500032.509563


@pytest.fixture(scope="module")
def canonical():
    model = driven_model(230.0)
    spec = synthesize_s21(model)
    return model, spec


# ---------------------------------------------------------------------------
# synthesis basics

def _single_pole():
    """Puck decoupled: one clean resonance, 16001 points over 80 linewidths."""
    model = driven_model(230.0, kappa=0.0)
    width = REF_F_CAV / model.loaded_system().q_cav
    grid = np.linspace(REF_F_CAV - 40 * width, REF_F_CAV + 40 * width, 16001)
    return model, synthesize_s21(model, grid)


def test_single_resonance_height_at_center():
    # At the center of an isolated pole |S21| = sqrt(ge1*ge2)/(gc+ge1+ge2).
    model, spec = _single_pole()
    assert model.loaded_system().q_cav == pytest.approx(
        1.0 / (1.0 / 4.2e7 + 2.0 / 8.6e7), rel=1e-15
    )
    assert spec.f_hz[8000] == REF_F_CAV
    expected = (1.0 / 8.6e7) / (1.0 / 4.2e7 + 2.0 / 8.6e7)
    assert abs(spec.s21[8000]) == pytest.approx(expected, rel=1e-12)


def test_single_resonance_extracts_loaded_q():
    model, spec = _single_pole()
    ql = model.loaded_system().q_cav
    rough = q_three_db(spec, REF_F_CAV)
    assert rough.q_loaded == pytest.approx(ql, rel=1e-2)
    assert rough.f0_hz == pytest.approx(REF_F_CAV, rel=1e-12)
    fit = fit_lorentzian(spec, REF_F_CAV)
    assert fit.q_loaded == pytest.approx(ql, rel=1e-8)
    assert fit.f0_hz == pytest.approx(REF_F_CAV, rel=1e-12)


def test_transmission_is_passive():
    # sqrt(ge1*ge2) <= (ge1+ge2)/2 caps |S21| at 1/2 even without wall loss.
    wide = np.linspace(0.9e9, 1.5e9, 200001)
    for model, grid in (
        (driven_model(230.0), None),
        (driven_model(230.0, q_ext=1e4), None),
        (driven_model(300.0, kappa=0.2, q_sto=1e3), wide),
    ):
        spec = synthesize_s21(model, grid)
        assert float(np.max(np.abs(spec.s21))) <= 0.5 + 1e-12


def test_transmission_is_reciprocal():
    sys = CoupledSystem(F_STO_230, 1e4, REF_F_CAV, 4.2e7, 0.03)
    grid = np.linspace(1.24e9, 1.32e9, 2001)
    fwd = synthesize_s21(TwoPortModel(sys, 4.3e7, 8.6e7), grid)
    rev = synthesize_s21(TwoPortModel(sys, 8.6e7, 4.3e7), grid)
    assert np.array_equal(fwd.s21, rev.s21)


def test_lossless_notch_is_an_exact_zero():
    sys = CoupledSystem(1.3e9, math.inf, 1.3e9, math.inf, 0.03)
    model = TwoPortModel(sys, REF_Q_EXT, REF_Q_EXT)
    grid = np.linspace(1.25e9, 1.35e9, 10001)  # midpoint hits 1.3e9 exactly
    spec = synthesize_s21(model, grid)
    i = int(np.argmin(np.abs(grid - 1.3e9)))
    assert grid[i] == 1.3e9
    assert spec.s21[i] == 0
    # the interpolated phase stays finite and unwrapped through the zero
    assert np.all(np.isfinite(phase_curve(spec)))


def test_synthesized_meta_snapshots_the_model(canonical):
    _, spec = canonical
    assert spec.meta["source"] == "synthesized"
    assert spec.meta["kappa"] == 0.03
    assert spec.meta["f_sto_hz"] == pytest.approx(F_STO_230, rel=1e-12)
    assert set(spec.meta) == {
        "source", "f_sto_hz", "q_sto", "f_cav_hz", "q_cav",
        "kappa", "q_ext1", "q_ext2",
    }


# ---------------------------------------------------------------------------
# default grid policy

def test_default_grid_resolves_the_narrowest_mode(canonical):
    model, spec = canonical
    grid = spec.f_hz
    assert grid.size == 295734
    steps = np.diff(grid)
    assert float(steps.max()) == pytest.approx(1985.9988030195236, rel=1e-9)
    assert float(steps.max() - steps.min()) < 1e-3
    pair = coupled_eigenmodes(model.sys)
    delta = pair.f2_hz - pair.f1_hz
    assert grid[0] < pair.f1_hz - 4 * delta
    assert grid[-1] > pair.f2_hz + 4 * delta
    # narrowest loaded linewidth keeps >= 8 points
    lw = pair.f2_hz * (1.0 / pair.q2 + 2.0 / REF_Q_EXT)
    assert lw / float(steps.max()) >= 8.0


def test_default_grid_refuses_nonpositive_frequencies():
    model = TwoPortModel(CoupledSystem(1e8, 1e4, 1e9, 1e6, 0.01), REF_Q_EXT, REF_Q_EXT)
    with pytest.raises(ValueError, match="below 0 Hz"):
        default_frequency_grid(model)


# ---------------------------------------------------------------------------
# peak / notch location

def test_two_peaks_and_notch_reference_values(canonical):
    _, spec = canonical
    summary = find_peaks_and_notch(spec)
    assert summary.f_peak1_hz == pytest.approx(1248239641.27, abs=1.0)
    assert summary.f_peak2_hz == pytest.approx(1306972533.85, abs=1.0)
    assert summary.f_notch_hz == pytest.approx(1255500497.63, abs=1.0)
    assert summary.depth_db == pytest.approx(-116.5254, abs=1e-3)
    assert summary.depth_db < -40.0


def test_notch_reads_out_the_bare_puck_frequency(canonical):
    _, spec = canonical
    summary = find_peaks_and_notch(spec)
    assert summary.f_notch_hz == pytest.approx(F_STO_230, rel=5e-6)


@pytest.mark.parametrize("model", [
    driven_model(230.0),
    bundled_scenario("paper-room").two_port(eps_r=230.0, kappa=0.03),
], ids=["canonical", "paper-room"])
def test_sampled_peaks_sit_on_the_loaded_eigenmodes(model):
    # the driven peaks are the poles of S21, the eigenmodes of the loaded
    # matrix; these peaks sit 51-71 linewidths from the zero, far enough
    # that the zero pushes them off their poles by under 0.01 linewidth
    summary = find_peaks_and_notch(synthesize_s21(model))
    pair = coupled_eigenmodes(model.loaded_system())
    assert abs(summary.f_peak1_hz - pair.f1_hz) < 0.01 * pair.f1_hz / pair.q1
    assert abs(summary.f_peak2_hz - pair.f2_hz) < 0.01 * pair.f2_hz / pair.q2


@pytest.mark.parametrize("kappa", [0.01, 0.02])
def test_a_peak_near_the_zero_is_pushed_off_its_pole(kappa):
    # Near its pole p a peak sees the zero z as S21 ~ (w - z)/(w - p), so
    # |S21| peaks 1/(4 d) linewidth off the pole, away from the zero, at
    # d = (p - z)/lw linewidths.  At 0.7 linewidth from the zero the peak
    # lands about 0.25 linewidth off its pole: such a peak is not Lorentzian.
    model = bundled_scenario("paper-room").two_port(eps_r=230.0, kappa=kappa)
    pair = coupled_eigenmodes(model.loaded_system())
    lw = pair.f1_hz / pair.q1
    grid = np.linspace(pair.f1_hz - 3 * lw, pair.f1_hz + 3 * lw, 60001)
    db = 20 * np.log10(np.abs(synthesize_s21(model, grid).s21))
    offset = (_refine(grid, db, int(np.argmax(db)))[0] - pair.f1_hz) / lw
    d = (pair.f1_hz - model.sys.f_sto_hz) / lw
    assert d < -5  # puck-like pole below the zero
    assert offset == pytest.approx(1.0 / (4.0 * d), rel=0.1)


def test_s21_has_the_loaded_eigenmodes_as_poles_and_the_puck_as_zero():
    # conj(S21) (lam1 - w^2)(lam2 - w^2) / (w (ws~^2 - w^2)) = 2i sqrt(ge1 ge2)
    # on every default grid, with lam_i the squared complex loaded eigenmodes
    rng = np.random.default_rng(20261020)
    for name in ("paper-pec", "paper-room"):
        scenario = bundled_scenario(name)
        for _ in range(5):
            model = scenario.two_port(
                eps_r=float(rng.uniform(204.0, 300.0)), kappa=float(rng.uniform(0.005, 0.05))
            )
            spec = synthesize_s21(model)
            loaded = model.loaded_system()
            pair = coupled_eigenmodes(loaded)
            lam1, lam2 = (
                (2 * np.pi * f * (1 + 0.5j / q)) ** 2
                for f, q in ((pair.f1_hz, pair.q1), (pair.f2_hz, pair.q2))
            )
            w = 2 * np.pi * spec.f_hz
            w2 = w * w
            ratio = np.conj(spec.s21) * (lam1 - w2) * (lam2 - w2) / (w * (loaded.matrix()[0] - w2))
            wc = 2 * np.pi * model.sys.f_cav_hz
            const = 2j * np.sqrt(wc / (2 * model.q_ext1) * (wc / (2 * model.q_ext2)))
            np.testing.assert_allclose(ratio, const, rtol=1e-8, atol=0, err_msg=name)


def test_peaks_track_eigenmodes_on_a_coarse_grid(canonical):
    model, _ = canonical
    grid = default_frequency_grid(model, n=2001)
    summary = find_peaks_and_notch(synthesize_s21(model, grid))
    pair = coupled_eigenmodes(model.sys)
    step = float(grid[1] - grid[0])
    assert abs(summary.f_peak1_hz - pair.f1_hz) < step
    assert abs(summary.f_peak2_hz - pair.f2_hz) < step


def test_weakly_split_peaks_still_resolve():
    model = driven_model(230.0, kappa=0.004, f_cav_hz=F_STO_230)
    grid = default_frequency_grid(model)
    summary = find_peaks_and_notch(synthesize_s21(model, grid))
    pair = coupled_eigenmodes(model.sys)
    qmix = 1.0 / (0.5 * (1.0 / 1e4 + 1.0 / 4.2e7))
    tol = F_STO_230 / (10.0 * qmix) + float(grid[1] - grid[0])
    assert abs(summary.f_peak1_hz - pair.f1_hz) < tol
    assert abs(summary.f_peak2_hz - pair.f2_hz) < tol


def test_single_peak_raises_with_its_location():
    model = driven_model(230.0, kappa=0.0)
    with pytest.raises(PeaksNotResolvedError, match="found 1") as exc_info:
        find_peaks_and_notch(synthesize_s21(model))
    assert exc_info.value.single_peak_hz == pytest.approx(REF_F_CAV, abs=1.0)


@pytest.mark.parametrize(
    "trace, maxima",
    [
        ([0, 1, 0], [1]),
        ([0, 2, 2, 2, 0], [2]),            # flat top: its middle sample
        ([0, 2, 2, 2, 2, 0], [2]),         # even flat top: left of the middle pair
        ([1, 3, 3, 5], []),                # shoulder on a rise
        ([5, 3, 3, 1], []),                # shoulder on a fall
        ([0, 3, 3, 5, 4], [3]),
        ([4, 1, 2, 1, 4], [2]),            # the end samples are never maxima
        ([2, 2, 1, 1, 3, 3], []),          # flat runs into both ends
        ([0, 1, 1, 0, 1, 1, 0], [1, 4]),
        ([1, 1, 1, 1], []),
        ([1, 2], []),
        ([], []),
    ],
)
def test_local_maxima_fixtures(trace, maxima):
    assert _local_maxima(np.asarray(trace, dtype=float)).tolist() == maxima


def test_prominence_fixtures():
    # the two middle peaks share a height, so each base lies past the other
    y = np.array([0.0, 2.0, 4.0, 3.0, 4.0, 2.0, 0.0, 2.0, 0.0])
    peaks = _local_maxima(y)
    assert peaks.tolist() == [2, 4, 7]
    assert _prominences(y, peaks).tolist() == [4.0, 4.0, 2.0]
    # a sawtooth rising to a flat top and falling back: each tooth's walk
    # runs to the trace end on one side and stops after one sample on the
    # other, so every tooth stands 0.5 over its base and the top all of 1000.5
    rise = np.arange(2000) // 2 + 1.5 * (np.arange(2000) % 2)
    y = np.concatenate([rise, rise[::-1]])
    peaks = _local_maxima(y)
    assert peaks.size == 1999 and peaks[999] == 1999
    expected = np.full(peaks.size, 0.5)
    expected[999] = 1000.5
    np.testing.assert_array_equal(_prominences(y, peaks), expected)


def test_equal_height_peaks_over_a_shallow_valley_are_refused():
    # both peaks have 4 dB of prominence, but stand only 1 dB over the
    # valley between them
    db = np.array([0, 2, 4, 3, 4, 2, 0, 2, 0], dtype=float)
    spec = Spectrum(np.arange(db.size) + 1e9, 10.0 ** (db / 20.0))
    with pytest.raises(PeaksNotResolvedError, match="less than 3 dB above") as exc_info:
        find_peaks_and_notch(spec)
    assert exc_info.value.single_peak_hz == pytest.approx(1e9 + 2.0, abs=0.5)


def test_noisy_spectrum_with_20k_maxima_is_refused_quickly(canonical):
    _, spec = canonical
    noisy = with_noise(spec, 40.0, 0)
    assert _local_maxima(np.abs(noisy.s21)).size > 20000
    t0 = time.perf_counter()
    with pytest.raises(PeaksNotResolvedError, match="expected two resolved peaks"):
        find_peaks_and_notch(noisy)
    assert time.perf_counter() - t0 < 1.0


def _random_trace(rng, kind):
    n = int(rng.integers(0, 80))
    if kind == 0:
        return rng.normal(size=n)
    if kind == 1:  # few levels: flat tops, shoulders and ties everywhere
        return rng.integers(0, 4, size=n).astype(float)
    if kind == 2:  # a rounded random walk: long flat runs at varied heights
        return np.round(np.cumsum(rng.normal(size=n)))
    return np.repeat(rng.normal(size=(n + 2) // 3), 3)[:n]  # plateaus of three


def test_peak_rules_match_scipy_on_random_traces():
    signal = pytest.importorskip("scipy.signal")
    rng = np.random.default_rng(20241018)
    for trial in range(5000):
        y = _random_trace(rng, trial % 4)
        ref, _ = signal.find_peaks(y)
        peaks = _local_maxima(y)
        np.testing.assert_array_equal(peaks, ref, err_msg=str(y.tolist()))
        prom = _prominences(y, peaks)
        if ref.size:
            np.testing.assert_array_equal(
                prom, signal.peak_prominences(y, ref)[0], err_msg=str(y.tolist())
            )
        threshold = float(rng.uniform(0.0, 3.0))
        ref, _ = signal.find_peaks(y, prominence=threshold)
        np.testing.assert_array_equal(peaks[prom >= threshold], ref, err_msg=str(y.tolist()))


# ---------------------------------------------------------------------------
# exact peak / notch location

def _sampled_features(model):
    return find_peaks_and_notch(synthesize_s21(model))


def _operating_points():
    """Seeded draws over both bundled scenarios: eps_r up to 300 at any
    coupling, points within 2 linewidths of the zero (paper-room eps near
    230, kappa 0.0025-0.008), and paper-pec's 20-80 K."""
    rng = np.random.default_rng(20261027)
    room, pec = bundled_scenario("paper-room"), bundled_scenario("paper-pec")
    for _ in range(12):
        kappa = float(np.exp(rng.uniform(np.log(1e-3), np.log(0.05))))
        yield room.two_port(eps_r=float(rng.uniform(204.0, 300.0)), kappa=kappa)
        yield room.two_port(eps_r=float(rng.uniform(226.0, 234.0)),
                            kappa=float(rng.uniform(0.0025, 0.008)))
        yield pec.two_port(eps_r=float(rng.uniform(204.0, 300.0)))
        yield pec.two_port(eps_r=float(rng.uniform(204.0, 300.0)),
                           kappa=float(rng.uniform(0.005, 0.05)))
        yield pec.two_port(t_k=float(rng.uniform(20.0, 80.0)))


def test_exact_features_match_dense_local_grids():
    resolved, near_zero = 0, 0
    for model in _operating_points():
        try:
            summary = model_features(model)
        except PeaksNotResolvedError as exc:
            assert str(exc) == "expected two resolved peaks, found 1"
            continue
        resolved += 1
        *lw_errors, db_error = feature_errors(model, summary)
        assert max(lw_errors) < 1e-3, model
        assert db_error < 1e-3, model
        pair = coupled_eigenmodes(model.loaded_system())
        f_sto = model.sys.f_sto_hz
        near_zero += min(abs(f - f_sto) * q / f for f, q in
                         ((pair.f1_hz, pair.q1), (pair.f2_hz, pair.q2))) < 2.0
    assert resolved >= 50
    assert near_zero >= 3


def test_exact_and_sampled_verdicts_flip_at_the_same_coupling():
    # paper-room eps 230: below about kappa 1.72e-3 the puck-like peak no
    # longer stands 3 dB over the notch
    room = bundled_scenario("paper-room")

    def resolves(finder, kappa):
        try:
            finder(room.two_port(eps_r=230.0, kappa=kappa))
        except PeaksNotResolvedError as exc:
            assert str(exc) == "expected two resolved peaks, found 1"
            return False
        return True

    thresholds = []
    for finder in (model_features, _sampled_features):
        lo, hi = 1e-3, 3e-3
        assert not resolves(finder, lo) and resolves(finder, hi)
        while hi / lo > 1.0 + 1e-4:
            mid = math.sqrt(lo * hi)
            lo, hi = (lo, mid) if resolves(finder, mid) else (mid, hi)
        thresholds.append(hi)
    assert thresholds[0] == pytest.approx(thresholds[1], rel=1e-3)


def test_exact_features_at_zero_coupling_find_the_cavity_line():
    model = driven_model(230.0, kappa=0.0)
    with pytest.raises(PeaksNotResolvedError, match="found 1") as exc_info:
        model_features(model)
    assert exc_info.value.single_peak_hz == pytest.approx(REF_F_CAV, abs=1.0)


def test_exact_notch_of_a_lossless_puck_is_f_sto_at_minus_infinity():
    model = driven_model(230.0, q_sto=math.inf)
    summary = model_features(model)
    assert summary.f_notch_hz == pytest.approx(F_STO_230, rel=1e-15)
    assert summary.depth_db == -math.inf
    pair = coupled_eigenmodes(model.loaded_system())
    for f, pole_hz, q in ((summary.f_peak1_hz, pair.f1_hz, pair.q1),
                          (summary.f_peak2_hz, pair.f2_hz, pair.q2)):
        assert abs(f - dense_extremum(model, f, pole_hz / q, "max")[0]) < 1e-3 * pole_hz / q


# ---------------------------------------------------------------------------
# phase analysis

def test_phase_swings_pi_across_a_resonance():
    model = driven_model(230.0, kappa=0.0)
    ql = model.loaded_system().q_cav
    width = REF_F_CAV / ql
    grid = np.linspace(REF_F_CAV - 40 * width, REF_F_CAV + 40 * width, 16001)
    phase = phase_curve(synthesize_s21(model, grid))
    assert phase[-1] - phase[0] == pytest.approx(math.pi, abs=0.05)


def test_phase_derivative_peak_equals_2q_over_f0():
    model = driven_model(230.0, kappa=0.0)
    ql = model.loaded_system().q_cav
    width = REF_F_CAV / ql
    grid = np.linspace(REF_F_CAV - 40 * width, REF_F_CAV + 40 * width, 16001)
    dphi = phase_derivative(synthesize_s21(model, grid))
    assert float(dphi.max()) == pytest.approx(2.0 * ql / REF_F_CAV, rel=0.02)


def test_phase_derivative_sign_flips_at_the_notch(canonical):
    _, spec = canonical
    summary = find_peaks_and_notch(spec)
    dphi = phase_derivative(spec)

    def at(f_hz):
        return float(dphi[int(np.argmin(np.abs(spec.f_hz - f_hz)))])

    assert at(summary.f_peak1_hz) > 0
    assert at(summary.f_peak2_hz) > 0
    assert at(summary.f_notch_hz) < 0


def test_phase_derivative_of_flat_spectrum_is_zero():
    f = np.linspace(1e9, 1.1e9, 101)
    spec = Spectrum(f, np.full(f.size, 0.3 + 0.1j))
    assert np.all(phase_derivative(spec) == 0.0)


def test_phase_derivative_refuses_an_unresolved_grid():
    # eps_r = 300 detunes the puck far below the cavity; the cavity-like
    # mode keeps a ~1.3e6 loaded Q whose linewidth a 20001-point default
    # span cannot resolve.
    model = driven_model(300.0)
    grid = default_frequency_grid(model, n=20001)
    with pytest.raises(GridTooCoarseError, match="points per linewidth"):
        phase_derivative(synthesize_s21(model, grid))


def test_narrow_explicit_grid_restores_phase_analysis():
    model = driven_model(300.0)
    pair = coupled_eigenmodes(model.sys)
    lw = pair.f2_hz * (1.0 / pair.q2 + 2.0 / REF_Q_EXT)
    grid = np.linspace(pair.f2_hz - 300 * lw, pair.f2_hz + 300 * lw, 5001)
    spec = synthesize_s21(model, grid)
    dphi = phase_derivative(spec)
    assert np.all(np.isfinite(dphi))
    # the slope extremum marks the driven pole, the loaded eigenmode
    f_pole = coupled_eigenmodes(model.loaded_system()).f2_hz
    assert grid[int(np.argmax(dphi))] == pytest.approx(f_pole, abs=5 * lw)


def test_phase_slope_matches_local_differences_at_every_feature():
    # the closed form against central differences of the synthesized phase
    # over +-1e-3 of each feature's own width (pole linewidth, notch width)
    for name, eps_r in (("paper-pec", 215.0), ("paper-pec", 260.0), ("paper-pec", 300.0),
                        ("paper-room", 230.0)):
        for kappa in (0.03, 0.005):
            model = bundled_scenario(name).two_port(eps_r=eps_r, kappa=kappa)
            features = model_features(model)
            poles = coupled_eigenmodes(model.loaded_system())
            for f, width in ((features.f_peak1_hz, poles.f1_hz / poles.q1),
                             (features.f_peak2_hz, poles.f2_hz / poles.q2),
                             (features.f_notch_hz, model.sys.f_sto_hz / model.sys.q_sto)):
                grid = f + width * np.linspace(-1e-3, 1e-3, 201)
                phase = np.unwrap(np.angle(synthesize_s21(model, grid).s21))
                assert phase_slope(model, f) == pytest.approx(
                    np.gradient(phase, grid)[100], rel=1e-5), (name, eps_r, kappa, f)


def test_phase_slope_signs_and_the_lorentzian_limit(canonical):
    model, _ = canonical
    features = model_features(model)
    assert phase_slope(model, features.f_peak1_hz) > 0
    assert phase_slope(model, features.f_peak2_hz) > 0
    assert phase_slope(model, features.f_notch_hz) < 0
    # a lone loaded cavity line: 2 Q_L / f0 at its centre
    lone = driven_model(230.0, kappa=1e-9)
    ql = lone.loaded_system().q_cav
    assert phase_slope(lone, REF_F_CAV) == pytest.approx(2.0 * ql / REF_F_CAV, rel=1e-6)
    # a lossless puck's zero steps the phase and turns it nowhere
    lossless = driven_model(230.0, q_sto=math.inf)
    assert phase_slope(lossless, F_STO_230 * (1 + 1e-6)) > 0


# ---------------------------------------------------------------------------
# construction validation

def test_spectrum_rejects_bad_grids():
    with pytest.raises(ValueError, match="at least 2"):
        Spectrum(np.array([1.0]), np.array([1.0 + 0j]))
    with pytest.raises(ValueError, match="same shape"):
        Spectrum(np.array([1.0, 2.0]), np.array([1.0 + 0j]))
    with pytest.raises(ValueError, match="strictly increasing"):
        Spectrum(np.array([1.0, 2.0, 2.0]), np.ones(3, dtype=complex))


def test_two_port_model_rejects_bad_ports():
    sys = CoupledSystem(1.3e9, 1e4, 1.3e9, 4.2e7, 0.03)
    with pytest.raises(ValueError, match="q_ext1"):
        TwoPortModel(sys, 0.0, 8.6e7)
    with pytest.raises(ValueError, match="q_ext2"):
        TwoPortModel(sys, 8.6e7, math.inf)


# ---------------------------------------------------------------------------
# CSV round trip

def test_native_round_trip_is_exact(tmp_path):
    model = driven_model(230.0)
    spec = synthesize_s21(model, np.linspace(1.24e9, 1.32e9, 501))
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(spec, path)
    back = read_spectrum_csv(path)
    assert np.array_equal(back.f_hz, spec.f_hz)
    assert np.array_equal(back.s21, spec.s21)
    assert back.meta["kappa"] == 0.03
    assert back.meta["source"] == "synthesized"


def test_written_meta_lines_are_sorted(tmp_path):
    spec = synthesize_s21(driven_model(230.0), np.linspace(1.24e9, 1.32e9, 11))
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(spec, path)
    meta_keys = [
        line[2:].split("=", 1)[0]
        for line in path.read_text().splitlines()
        if line.startswith("# ")
    ]
    assert meta_keys == sorted(meta_keys)
    assert len(meta_keys) == 8


def test_db_phase_import(tmp_path):
    spec = synthesize_s21(driven_model(230.0), np.linspace(1.24e9, 1.32e9, 201))
    path = tmp_path / "vna_export.csv"
    with open(path, "w") as fh:
        fh.write("f_hz,s21_db,s21_phase_rad\n")
        for f, s in zip(spec.f_hz, spec.s21):
            fh.write(f"{f:.17g},{20 * np.log10(abs(s)):.17g},{np.angle(s):.17g}\n")
    back = read_spectrum_csv(path)
    assert np.allclose(back.s21, spec.s21, rtol=1e-12, atol=0.0)
    assert back.meta["source"] == str(path)


def test_random_round_trip_is_bit_exact(tmp_path):
    """Every float64 a spectrum can hold reads back with the same bits."""
    rng = np.random.default_rng(7)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, 0.1, 1 / 3, math.inf, -math.inf]

    def draw(n):
        """n random 17-digit values over the whole exponent range, a fifth special."""
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 308, n)
        return np.where(rng.random(n) < 0.2, rng.choice(special, n), values)

    for n in (2, 37, 20_000):  # 20,000 rows span three write blocks
        f = draw(n)
        f = np.unique(np.concatenate([f[np.isfinite(f)], [-1.0, 1.0]]))
        s21 = np.empty(f.size, dtype=complex)
        s21.real, s21.imag = draw(f.size), draw(f.size)
        spec = Spectrum(f, s21, {"q_sto": math.inf, "kappa": float(rng.random()), "note": "a=b"})
        path = tmp_path / f"rt{n}.csv"
        write_spectrum_csv(spec, path)
        back = read_spectrum_csv(path)
        assert back.f_hz.tobytes() == spec.f_hz.tobytes()
        assert back.s21.tobytes() == spec.s21.tobytes()
        assert back.meta == {**spec.meta, "source": str(path)}


# Each case is one malformed spectrum file and the error it must raise.
# test_table_loaders_reject_malformed_files runs the same cases on the
# two-column table loaders, one column fewer per row.
MALFORMED_FILES = [
    ("f_hz,magnitude\n1e9,0.5\n", "unrecognized header"),
    ("f_hz,s21_re,s21_im\n1e9,0.5\n", ":2: expected 3 columns"),
    ("f_hz,s21_re,s21_im\n1e9,0.5,0.0\n1.1e9,oops,0.0\n", ":3: non-numeric value"),
    ("", "no data rows"),
    ("f_hz,s21_re,s21_im\n", "no data rows"),
    # float() reads 1_0 as 10, numpy's parser refuses it
    ("f_hz,s21_re,s21_im\n1e9,0.5,0.0\n1_0,0.5,0.0\n", ":3: non-numeric value"),
    # the last row, after meta and a blank line, with no final newline
    ("# q=1\nf_hz,s21_re,s21_im\n1e9,0.5,0.0\n\n1.1e9,0.5,0.0\n1.2e9,1e,0.0", ":6: non-numeric value"),
    ('f_hz,s21_re,s21_im\n1e9,"0.5",0.0\n', ":2: non-numeric value"),
    ("f_hz,s21_re,s21_im\n\n# comment\n  \n", "no data rows"),
]


@pytest.mark.parametrize("content, match", MALFORMED_FILES)
def test_import_rejects_malformed_files(tmp_path, content, match):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(ValueError, match=match):
        read_spectrum_csv(path)


def _as_table(content, header):
    """A MALFORMED_FILES case for a two-column table under header."""
    lines = []
    for line in content.split("\n"):
        if line == "f_hz,s21_re,s21_im":
            line = header
        elif line.strip() and not line.startswith(("#", "f_hz")):
            line = line.rsplit(",", 1)[0]
        lines.append(line)
    return "\n".join(lines)


@pytest.mark.parametrize(
    "load, header",
    [
        (load_permittivity_csv, "T_K,eps_r"),
        (load_loss_csv, "T_K,tan_delta"),
        (load_frequency_csv, "T_K,f_Hz"),
    ],
    ids=["eps_r", "tan_delta", "f_Hz"],
)
@pytest.mark.parametrize("content, match", MALFORMED_FILES)
def test_table_loaders_reject_malformed_files(tmp_path, load, header, content, match):
    path = tmp_path / "bad.csv"
    path.write_text(_as_table(content, header))
    with pytest.raises(ValueError, match=match.replace("3 columns", "2 columns")):
        load(path)


def test_header_error_names_the_accepted_headers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f_hz,bogus\n1,2\n")
    with pytest.raises(ValueError) as info:
        read_spectrum_csv(path)
    assert str(info.value) == (
        f"{path}:1: unrecognized header 'f_hz,bogus' "
        "(expected header 'f_hz,s21_re,s21_im' or 'f_hz,s21_db,s21_phase_rad')"
    )


def test_reader_skips_blank_and_comment_lines_after_the_header(tmp_path):
    path = tmp_path / "spaced.csv"
    path.write_text("# kappa=0.03\n\nf_hz,s21_re,s21_im\n1e9,0.5,0\n   \n# note\n2e9,0.25,-1\n")
    back = read_spectrum_csv(path)
    assert back.f_hz.tolist() == [1e9, 2e9]
    assert back.s21.tolist() == [0.5, 0.25 - 1j]
    assert back.meta == {"kappa": 0.03, "source": str(path)}


def test_a_line_of_spaces_keeps_the_bulk_parse(tmp_path, monkeypatch):
    # numpy reads "   " as a row of one empty cell, which fails the first
    # bulk parse; the rows must still come from one more call, not from a
    # call per line
    spec = synthesize_s21(driven_model(230.0), np.linspace(1.24e9, 1.32e9, 500))
    clean, spaced = tmp_path / "clean.csv", tmp_path / "spaced.csv"
    write_spectrum_csv(spec, clean)
    lines = clean.read_text().splitlines(keepends=True)
    spaced.write_text("".join(lines[:-100] + ["   \n"] + lines[-100:]))
    calls = []
    loadtxt = np.loadtxt

    def counting(*args, **kwargs):
        calls.append(1)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting)
    back = read_spectrum_csv(spaced)
    assert len(calls) <= 2
    assert back.f_hz.tobytes() == spec.f_hz.tobytes()
    assert back.s21.tobytes() == spec.s21.tobytes()
