"""Shared fixtures: reference geometry, canonical coupled systems, and
synthetic Lorentzian spectra with reproducible noise."""

import json

import numpy as np
import pytest

from cavpuck.cmt import CoupledSystem, coupled_eigenmodes
from cavpuck.network import Spectrum, TwoPortModel, _refine, synthesize_s21
from cavpuck.resonator import DielectricPuck, puck_frequency_hz

# Fixed seed list: the Monte-Carlo acceptance numbers are reproducible
# bit-for-bit from these.
NOISE_SEEDS = tuple(range(100))

# Canonical operating numbers used across the suite.
REF_RADIUS_MM = 8.17
REF_HEIGHT_MM = 7.26
REF_HOLE_MM = 2.0
REF_Q_STO = 1.01e4
REF_Q_CAV = 4.2e7
COPPER_Q_CAV = 2.89e4
REF_Q_EXT = 8.6e7
REF_F_CAV = 1.3e9
REF_KAPPA = 0.0278


@pytest.fixture(scope="session")
def ref_puck() -> DielectricPuck:
    return DielectricPuck(REF_RADIUS_MM, REF_HEIGHT_MM, REF_HOLE_MM)


# The C07 parabola: f_sto(T) = 116.88 - 0.008 T + 0.012 T^2 MHz.
STO_FIT_MHZ = (116.88, -0.008, 0.012)


@pytest.fixture(scope="session")
def fit_driven_scenario(tmp_path_factory):
    """Path of a scenario file whose puck frequency follows the C07 parabola.

    paper-pec's puck, cavity and coupling, no ports, and an inverse-T
    permittivity extended down to 0.1 K, which puts the puck at 53.8 MHz at
    0.8 K where the fit says 116.88 MHz: a caller that takes the wrong chain
    shows.  `load_scenario(path)` gives the Scenario.
    """
    k0, k1, k2 = STO_FIT_MHZ
    doc = {
        "schema_version": 1,
        "name": "fit-driven",
        "puck": {"radius_mm": REF_RADIUS_MM, "height_mm": REF_HEIGHT_MM,
                 "hole_radius_mm": REF_HOLE_MM},
        "permittivity": {"type": "inverse_t", "coeff": 1.0e5, "t_min": 0.1, "t_max": 80.0},
        "loss": {"type": "constant", "tan_delta": 1.25e-4},
        "cavity": {"frequency": "1297.1249 MHz", "q": REF_Q_CAV},
        "kappa": REF_KAPPA,
        "sto_frequency_fit": {"k0_mhz": k0, "k1_mhz_per_k": k1, "k2_mhz_per_k2": k2},
    }
    path = tmp_path_factory.mktemp("scenarios") / "fit_driven.json"
    path.write_text(json.dumps(doc))
    return path


def resonant_system(kappa=REF_KAPPA, q_sto=REF_Q_STO, q_cav=REF_Q_CAV,
                    f_hz=REF_F_CAV) -> CoupledSystem:
    """Both bare resonators at the same frequency."""
    return CoupledSystem(f_hz, q_sto, f_hz, q_cav, kappa)


def driven_model(eps_r, kappa=0.03, q_sto=1e4, q_cav=REF_Q_CAV,
                 q_ext=REF_Q_EXT, f_cav_hz=REF_F_CAV) -> TwoPortModel:
    """Two-port model with the puck frequency set by eps_r."""
    puck = DielectricPuck(REF_RADIUS_MM, REF_HEIGHT_MM, REF_HOLE_MM)
    f_sto = puck_frequency_hz(puck, eps_r)
    return TwoPortModel(CoupledSystem(f_sto, q_sto, f_cav_hz, q_cav, kappa), q_ext, q_ext)


def lorentzian_spectrum(f0_hz, q, amplitude=0.5, span_linewidths=40.0,
                        n=2000) -> Spectrum:
    """Ideal transmission resonance: S21 = A / (1 + 2iQ (f - f0)/f0)."""
    width = f0_hz / q
    f = np.linspace(f0_hz - 0.5 * span_linewidths * width,
                    f0_hz + 0.5 * span_linewidths * width, n)
    return Spectrum(f, amplitude / (1.0 + 2j * q * (f - f0_hz) / f0_hz))


def with_noise(spec: Spectrum, snr_db: float, seed: int) -> Spectrum:
    """Additive complex Gaussian noise, sigma = peak * 10^(-SNR/20) split
    evenly between quadratures."""
    rng = np.random.default_rng(seed)
    sigma = float(np.max(np.abs(spec.s21))) * 10.0 ** (-snr_db / 20.0)
    re, im = rng.normal(scale=sigma / np.sqrt(2.0), size=(2, spec.f_hz.size))
    return Spectrum(spec.f_hz, spec.s21 + re + 1j * im, dict(spec.meta))


def dense_extremum(model: TwoPortModel, f_hz, width_hz, kind, n=4001):
    """(frequency, dB) of the maximum (kind "max") or the minimum ("min") of
    |S21| sampled at n points over f_hz +- 3 width_hz, parabola-refined: a
    grid oracle local to one feature."""
    grid = np.linspace(f_hz - 3.0 * width_hz, f_hz + 3.0 * width_hz, n)
    db = 20.0 * np.log10(np.abs(synthesize_s21(model, grid).s21))
    i = int(np.argmax(db) if kind == "max" else np.argmin(db))
    assert 0 < i < n - 1, f"the {kind} of |S21| lies outside +-3 widths of {f_hz} Hz"
    return _refine(grid, db, i)


def feature_errors(model: TwoPortModel, summary):
    """How far summary's peaks and notch sit from dense_extremum, each in
    its own linewidth (the loaded pole's for a peak, f_sto/Q_sto for the
    notch), and how far its depth_db is from the grid's, in dB."""
    pair = coupled_eigenmodes(model.loaded_system())
    errors, peak_db = [], []
    for f, pole_hz, q in ((summary.f_peak1_hz, pair.f1_hz, pair.q1),
                          (summary.f_peak2_hz, pair.f2_hz, pair.q2)):
        width = pole_hz / q
        f_grid, db = dense_extremum(model, f, width, "max")
        errors.append(abs(f - f_grid) / width)
        peak_db.append(db)
    width = model.sys.f_sto_hz / model.sys.q_sto
    f_grid, notch_db = dense_extremum(model, summary.f_notch_hz, width, "min")
    errors.append(abs(summary.f_notch_hz - f_grid) / width)
    errors.append(abs(summary.depth_db - (notch_db - max(peak_db))))
    return errors
