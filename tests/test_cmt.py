"""Coupled two-mode model: closed forms, eigen path, split inversion,
labels, loss bookkeeping, and drift-sharing coefficients."""

import math

import numpy as np
import pytest

from conftest import resonant_system
from cavpuck.cmt import (
    KAPPA_BY_PUCK_OFFSET,
    BetaCoefficients,
    CoupledSystem,
    ModeLabel,
    ModePair,
    beta_coefficients,
    coupled_eigenmodes,
    energy_balance_check,
    kappa_from_split,
    on_resonance_modes,
)
from cavpuck.errors import NotResonantError, UnphysicalModeError


# ---------------------------------------------------------------------------
# split inversion

def test_split_inversion_reference_values():
    kappa, f_cav = kappa_from_split(1.279e9, 1.315e9)
    assert round(kappa, 4) == 0.0278
    assert kappa == pytest.approx(0.027751015879034766, rel=1e-14)
    assert f_cav == pytest.approx(1297124897.6100953, rel=1e-14)


def test_split_round_trip_is_exact():
    kappa, f_cav = kappa_from_split(1.279e9, 1.315e9)
    pair = on_resonance_modes(CoupledSystem(f_cav, 1.01e4, f_cav, 4.2e7, kappa))
    assert pair.f1_hz == 1.279e9
    assert pair.f2_hz == 1.315e9


def test_split_round_trip_property():
    rng = np.random.default_rng(5)
    for _ in range(200):
        f0 = rng.uniform(0.1e9, 10e9)
        kappa = rng.uniform(1e-6, 0.9)
        pair = on_resonance_modes(CoupledSystem(f0, 1e5, f0, 1e5, kappa))
        k_back, f_back = kappa_from_split(pair.f1_hz, pair.f2_hz)
        assert k_back == pytest.approx(kappa, rel=1e-12)
        assert f_back == pytest.approx(f0, rel=1e-12)


def test_split_of_equal_frequencies_means_no_coupling():
    assert kappa_from_split(1.3e9, 1.3e9) == (0.0, 1.3e9)


def test_split_input_validation():
    with pytest.raises(ValueError):
        kappa_from_split(1.315e9, 1.279e9)
    with pytest.raises(ValueError):
        kappa_from_split(0.0, 1.3e9)


# ---------------------------------------------------------------------------
# closed-form path

def test_on_resonance_reference_qs():
    pair = on_resonance_modes(resonant_system())
    assert pair.q1 == pytest.approx(19912.452502867756, rel=1e-12)
    assert pair.q2 == pytest.approx(20473.93174833264, rel=1e-12)
    assert pair.label1 is ModeLabel.DEGENERATE
    assert pair.label2 is ModeLabel.DEGENERATE
    # both in the advertised window
    assert 1.9e4 <= pair.q1 <= 2.1e4
    assert 1.9e4 <= pair.q2 <= 2.1e4


def test_on_resonance_frequency_split_formula():
    sys = resonant_system(kappa=0.04, f_hz=2.0e9)
    pair = on_resonance_modes(sys)
    assert pair.f1_hz == pytest.approx(2.0e9 * math.sqrt(0.96), rel=1e-14)
    assert pair.f2_hz == pytest.approx(2.0e9 * math.sqrt(1.04), rel=1e-14)


def test_on_resonance_rejects_detuning():
    with pytest.raises(NotResonantError, match="detuning"):
        on_resonance_modes(CoupledSystem(1.3e9 * (1 + 1e-6), 1e4, 1.3e9, 4.2e7, 0.03))
    with pytest.raises(NotResonantError):
        on_resonance_modes(CoupledSystem(1.3e9 * (1 + 1e-10), 1e4, 1.3e9, 4.2e7, 0.03))


def test_negative_kappa_keeps_modes_ordered():
    plus = on_resonance_modes(resonant_system(kappa=0.03))
    minus = on_resonance_modes(resonant_system(kappa=-0.03))
    assert minus.f1_hz == pytest.approx(plus.f1_hz, rel=1e-14)
    assert minus.f2_hz == pytest.approx(plus.f2_hz, rel=1e-14)
    assert minus.q1 == pytest.approx(plus.q1, rel=1e-14)
    assert minus.f1_hz < minus.f2_hz


def test_lossless_pair_splits_exactly():
    sys = CoupledSystem(1.3e9, math.inf, 1.3e9, math.inf, 0.03)
    for pair in (on_resonance_modes(sys), coupled_eigenmodes(sys)):
        assert pair.f1_hz == pytest.approx(1.3e9 * math.sqrt(0.97), rel=1e-12)
        assert pair.f2_hz == pytest.approx(1.3e9 * math.sqrt(1.03), rel=1e-12)
        assert math.isinf(pair.q1) and math.isinf(pair.q2)
        assert energy_balance_check(sys, pair) == (0.0, 0.0)


def test_one_lossless_partner_keeps_finite_q():
    pair = on_resonance_modes(CoupledSystem(1.3e9, math.inf, 1.3e9, 4.2e7, 0.0278))
    # mixing with a lossless partner doubles the lossy Q before the split factor
    assert pair.q1 == pytest.approx(math.sqrt(1 - 0.0278) * 2 * 4.2e7, rel=1e-12)
    assert pair.q2 == pytest.approx(math.sqrt(1 + 0.0278) * 2 * 4.2e7, rel=1e-12)


# ---------------------------------------------------------------------------
# eigen path and cross-checks

def test_eigen_matches_closed_form_at_reference_point():
    sys = resonant_system()
    closed = on_resonance_modes(sys)
    eigen = coupled_eigenmodes(sys)
    assert eigen.f1_hz == pytest.approx(closed.f1_hz, rel=1e-7)
    assert eigen.f2_hz == pytest.approx(closed.f2_hz, rel=1e-7)
    assert eigen.q1 == pytest.approx(closed.q1, rel=0.03)
    assert eigen.q2 == pytest.approx(closed.q2, rel=0.03)


def test_eigen_matches_closed_form_high_q_ensemble():
    rng = np.random.default_rng(17)
    for _ in range(200):
        f0 = 10 ** rng.uniform(math.log10(5e8), math.log10(5e9))
        kappa = rng.uniform(1e-4, 0.05)
        sys = CoupledSystem(f0, 10 ** rng.uniform(6.5, 9), f0, 10 ** rng.uniform(6.5, 9), kappa)
        closed = on_resonance_modes(sys)
        eigen = coupled_eigenmodes(sys)
        assert eigen.f1_hz == pytest.approx(closed.f1_hz, rel=1e-10)
        assert eigen.f2_hz == pytest.approx(closed.f2_hz, rel=1e-10)
        assert eigen.q1 == pytest.approx(closed.q1, rel=0.03)
        assert eigen.q2 == pytest.approx(closed.q2, rel=0.03)


def test_decoupled_system_returns_bare_modes():
    pair = coupled_eigenmodes(CoupledSystem(1.1e9, 1e4, 1.3e9, 4.2e7, 0.0))
    assert pair.f1_hz == pytest.approx(1.1e9, rel=1e-14)
    assert pair.q1 == pytest.approx(1e4, rel=1e-12)
    assert pair.f2_hz == pytest.approx(1.3e9, rel=1e-14)
    assert pair.q2 == pytest.approx(4.2e7, rel=1e-12)
    assert pair.label1 is ModeLabel.STO
    assert pair.label2 is ModeLabel.CAVITY


def test_labels_follow_dominant_component():
    detuned = coupled_eigenmodes(CoupledSystem(1.0993e9, 1e4, 1.3e9, 4.2e7, 0.03))
    assert (detuned.label1, detuned.label2) == (ModeLabel.STO, ModeLabel.CAVITY)
    above = coupled_eigenmodes(CoupledSystem(1.5e9, 1e4, 1.3e9, 4.2e7, 0.03))
    assert (above.label1, above.label2) == (ModeLabel.CAVITY, ModeLabel.STO)
    tied = coupled_eigenmodes(resonant_system())
    assert (tied.label1, tied.label2) == (ModeLabel.HYBRIDIZED, ModeLabel.HYBRIDIZED)


def test_uncoupled_edge_cases_keep_their_labels_and_order():
    # kappa = 0: the bare pair, whatever the detuning.  Modes of equal
    # frequency come puck first, cavity second.
    S, C = ModeLabel.STO, ModeLabel.CAVITY
    cases = (
        ((1.3e9, 1e4, 1.3e9, 1e4), (1.3e9, 1e4, S, 1.3e9, 1e4, C)),
        ((1.3e9, 1e4, 1.3e9, 4.2e7), (1.3e9, 1e4, S, 1.3e9, 4.2e7, C)),
        ((1.3e9, 4.2e7, 1.3e9, 1e4), (1.3e9, 4.2e7, S, 1.3e9, 1e4, C)),
        ((1.31e9, 1e4, 1.3e9, 4.2e7), (1.3e9, 4.2e7, C, 1.31e9, 1e4, S)),
        ((1.29e9, 1e4, 1.3e9, 4.2e7), (1.29e9, 1e4, S, 1.3e9, 4.2e7, C)),
        ((1.3e9, math.inf, 1.3e9, math.inf), (1.3e9, math.inf, S, 1.3e9, math.inf, C)),
    )
    for (f_sto, q_sto, f_cav, q_cav), (f1, q1, l1, f2, q2, l2) in cases:
        pair = coupled_eigenmodes(CoupledSystem(f_sto, q_sto, f_cav, q_cav, 0.0))
        assert (pair.label1, pair.label2) == (l1, l2)
        assert pair.f1_hz == pytest.approx(f1, rel=1e-15)
        assert pair.f2_hz == pytest.approx(f2, rel=1e-15)
        assert pair.q1 == pytest.approx(q1, rel=1e-12)
        assert pair.q2 == pytest.approx(q2, rel=1e-12)
    lossless = coupled_eigenmodes(CoupledSystem(1.3e9, math.inf, 1.3e9, math.inf, 0.03))
    assert (lossless.label1, lossless.label2) == (ModeLabel.HYBRIDIZED, ModeLabel.HYBRIDIZED)
    assert math.isinf(lossless.q1) and math.isinf(lossless.q2)


def _eig_modes(sys):
    """(f1, q1, label1, f2, q2, label2) from a general eigensolver: the
    oracle for the explicit roots."""
    a, b, d = sys.matrix()
    lam, vec = np.linalg.eig(np.array([[a, b], [b, d]]))
    wt = np.sqrt(lam)
    out = []
    for i in np.argsort(wt.real, kind="stable"):
        v = np.abs(vec[:, i])
        if abs(v[0] - v[1]) <= 0.01 * max(v):
            label = ModeLabel.HYBRIDIZED
        else:
            label = ModeLabel.STO if v[0] > v[1] else ModeLabel.CAVITY
        w = complex(wt[i])
        out += [w.real / (2.0 * math.pi), w.real / (2.0 * w.imag) if w.imag > 0 else math.inf, label]
    return tuple(out)


def test_explicit_roots_match_a_general_eigensolver():
    rng = np.random.default_rng(31)
    n = 10_000
    f_sto = rng.uniform(0.5e9, 2e9, n)
    f_cav = np.where(np.arange(n) % 4 == 0, f_sto, rng.uniform(0.5e9, 2e9, n))  # a quarter on resonance
    q_sto, q_cav = 10.0 ** rng.uniform(2.0, 9.0, (2, n))
    kappa = np.where(np.arange(n) % 8 < 2, 0.0, rng.uniform(-0.9, 0.9, n))  # kappa = 0 at and off resonance
    worst_f = worst_q = 0.0
    for sys in map(CoupledSystem, f_sto, q_sto, f_cav, q_cav, kappa):
        pair = coupled_eigenmodes(sys)
        f1, q1, l1, f2, q2, l2 = _eig_modes(sys)
        assert (pair.label1, pair.label2) == (l1, l2), sys
        worst_f = max(worst_f, abs(pair.f1_hz - f1) / f1, abs(pair.f2_hz - f2) / f2)
        worst_q = max(worst_q, abs(pair.q1 - q1) / q1, abs(pair.q2 - q2) / q2)
    assert worst_f <= 1e-12
    assert worst_q <= 1e-9


def test_a_growing_mode_is_reported_with_its_rate(monkeypatch):
    sys = CoupledSystem(1.3e9, 1e4, 1.3e9, 4.2e7, 0.03)
    a, b, d = sys.matrix()
    monkeypatch.setattr(CoupledSystem, "eigenvalues", lambda self: (a, a.conjugate()))
    with pytest.raises(UnphysicalModeError, match=r"^growing mode: Im\(w~\) = -\d[\d.e+-]*$"):
        coupled_eigenmodes(sys)


def test_far_detuned_modes_stay_bare():
    # Perturbation floor: with the detuning at least 100x the coupling and
    # kappa small enough that the second-order repulsion kappa^2/2 stays
    # under 1e-4, each mode keeps its bare frequency to 1e-4 and its bare Q
    # to 5% (Q mixing also needs the bare-Q contrast bounded).
    rng = np.random.default_rng(7)
    for _ in range(400):
        kappa = rng.uniform(1e-3, 0.012)
        mult = rng.uniform(101.0, 1000.0)
        f_cav = rng.uniform(0.5e9, 5e9)
        if rng.random() < 0.5:
            f_sto = f_cav * (1 + mult * kappa)
        else:
            f_sto = f_cav / (1 + mult * kappa)
        q_sto = 10 ** rng.uniform(4, 7)
        q_cav = q_sto * 10 ** rng.uniform(-3, 3)
        pair = coupled_eigenmodes(CoupledSystem(f_sto, q_sto, f_cav, q_cav, kappa))
        bare = sorted(((f_sto, q_sto), (f_cav, q_cav)))
        got = sorted(((pair.f1_hz, pair.q1), (pair.f2_hz, pair.q2)))
        for (f_b, q_b), (f_g, q_g) in zip(bare, got):
            assert f_g == pytest.approx(f_b, rel=1e-4)
            assert q_g == pytest.approx(q_b, rel=5e-2)


def test_level_repulsion_minimum_gap_at_crossing():
    f_cav, kappa = 1.3e9, 0.0278
    grid = np.linspace(0.9 * f_cav, 1.1 * f_cav, 801)
    gaps = []
    for f_sto in grid:
        pair = coupled_eigenmodes(CoupledSystem(float(f_sto), 1e6, f_cav, 1e6, kappa))
        gaps.append(pair.f2_hz - pair.f1_hz)
    gaps = np.asarray(gaps)
    i_min = int(np.argmin(gaps))
    step = grid[1] - grid[0]
    # The minimum gap sits a fraction kappa^2/2 below the bare crossing:
    # detuning widens the eigenvalue gap quadratically while the mean
    # frequency (which divides it) still grows linearly.
    f_min_expected = f_cav * (1.0 - kappa**2 / 2.0)
    assert abs(grid[i_min] - f_min_expected) <= step
    # the avoided-crossing gap never closes below the on-resonance split
    split = f_cav * (math.sqrt(1 + kappa) - math.sqrt(1 - kappa))
    assert gaps[i_min] >= 0.999 * split
    assert gaps[i_min] == pytest.approx(split, rel=1e-3)
    # and grows monotonically away from the crossing
    assert np.all(np.diff(gaps[: i_min - 1]) < 0)
    assert np.all(np.diff(gaps[i_min + 1 :]) > 0)


# ---------------------------------------------------------------------------
# loss bookkeeping

def test_energy_balance_is_exact_for_closed_form():
    for kappa in (0.0, 0.006, 0.0278, 0.2):
        sys = resonant_system(kappa=kappa)
        res = energy_balance_check(sys, on_resonance_modes(sys))
        assert max(res) < 1e-12


def test_energy_balance_eigen_band_at_resonance():
    sys = resonant_system()
    res = energy_balance_check(sys, coupled_eigenmodes(sys))
    assert 0.005 < max(res) < 0.05


# ---------------------------------------------------------------------------
# drift-sharing coefficients

def test_beta_reference_values():
    b1 = beta_coefficients(resonant_system(kappa=0.006))
    assert b1.beta1 == pytest.approx(0.9967557904138475, rel=1e-12)
    assert b1.beta2 == pytest.approx(1.002754374897528, rel=1e-12)
    b2 = beta_coefficients(resonant_system(kappa=0.03))
    assert b2.beta1 == pytest.approx(0.9846489955402068, rel=1e-12)
    assert b2.beta2 == pytest.approx(1.0146451585068192, rel=1e-12)


def test_beta_ratio_identity_and_bound():
    rng = np.random.default_rng(23)
    for _ in range(500):
        kappa = rng.uniform(-0.99, 0.99)
        q_sto = 10 ** rng.uniform(2, 9)
        q_cav = 10 ** rng.uniform(2, 9)
        b = beta_coefficients(CoupledSystem(1.3e9, q_sto, 1.3e9, q_cav, kappa))
        ratio = math.sqrt((1 + abs(kappa)) / (1 - abs(kappa)))
        assert b.beta2 / b.beta1 == pytest.approx(ratio, rel=1e-12)
        assert b.beta2 <= math.sqrt(2.0) / (1.0 + q_sto / q_cav) + 1e-15
        assert b.beta2 <= math.sqrt(2.0)
        assert b.beta1 > 0


def test_q_interpolation_with_high_q_cavity():
    # with q_cav at least 4x q_sto and moderate coupling, both hybrid Qs sit
    # strictly between the bare values
    rng = np.random.default_rng(29)
    for _ in range(300):
        q_sto = 10 ** rng.uniform(3, 7)
        q_cav = q_sto * rng.uniform(4.0, 1e4)
        kappa = rng.uniform(1e-4, 0.5)
        pair = on_resonance_modes(CoupledSystem(1.3e9, q_sto, 1.3e9, q_cav, kappa))
        for q in (pair.q1, pair.q2):
            assert q_sto < q < q_cav


# ---------------------------------------------------------------------------
# plumbing

def test_system_validation():
    with pytest.raises(ValueError):
        CoupledSystem(-1.0, 1e4, 1.3e9, 4.2e7, 0.03)
    with pytest.raises(ValueError):
        CoupledSystem(1.3e9, 0.0, 1.3e9, 4.2e7, 0.03)
    with pytest.raises(ValueError):
        CoupledSystem(1.3e9, 1e4, 1.3e9, -2.0, 0.03)
    with pytest.raises(ValueError):
        CoupledSystem(1.3e9, 1e4, 1.3e9, 4.2e7, 1.0)
    with pytest.raises(ValueError):
        CoupledSystem(1.3e9, 1e4, 1.3e9, 4.2e7, math.nan)
    with pytest.raises(ValueError, match="ordered"):
        ModePair(1.315e9, 1e4, ModeLabel.STO, 1.279e9, 1e4, ModeLabel.CAVITY)


def test_beta_type_is_plain_pair():
    b = BetaCoefficients(0.99, 1.01)
    assert (b.beta1, b.beta2) == (0.99, 1.01)


def test_offset_calibration_table():
    assert KAPPA_BY_PUCK_OFFSET == {"10mm": 0.006, "50mm": 0.03}
