"""Parameter sweeps: grid evaluation, per-row error isolation, output
files, and byte-for-byte determinism across worker counts."""

import csv
import json

import numpy as np
import pytest

from conftest import feature_errors
from cavpuck.network import PeakNotchSummary
from cavpuck.resonator import DielectricPuck, eps_for_frequency, puck_frequency_hz
from cavpuck.scenario import bundled_scenario, load_scenario
from cavpuck.sweep import (
    COLUMNS,
    SweepPlan,
    SweepVariable,
    _resolve_workers,
    run_sweep,
    write_sweep_csv,
    write_sweep_json,
)

PUCK = DielectricPuck(8.17, 7.26, 2.0)


def _col(result, name):
    return [row[result.columns.index(name)] for row in result.rows]


@pytest.fixture(scope="module")
def eps_sweep():
    plan = SweepPlan(
        SweepVariable.EPS_R, tuple(np.linspace(206.0, 226.0, 61)), bundled_scenario("paper-pec")
    )
    return run_sweep(plan, workers=1)


# ---------------------------------------------------------------------------
# permittivity sweep across the crossing

def test_eps_sweep_shape(eps_sweep):
    assert eps_sweep.columns == COLUMNS
    assert len(eps_sweep.rows) == 61
    assert all(err == "" for err in _col(eps_sweep, "error"))


def test_eps_sweep_finds_the_avoided_crossing(eps_sweep):
    gaps = np.asarray(_col(eps_sweep, "f2_hz")) - np.asarray(_col(eps_sweep, "f1_hz"))
    eps = np.asarray(_col(eps_sweep, "eps_r"))
    i = int(np.argmin(gaps))
    eps_star = eps_for_frequency(PUCK, 1297124900.0)
    assert abs(eps[i] - eps_star) <= float(eps[1] - eps[0])
    assert gaps[i] == pytest.approx(0.0278 * 1297124900.0, rel=1e-3)


def test_eps_sweep_labels_swap_across_the_crossing(eps_sweep):
    label1 = _col(eps_sweep, "label1")
    label2 = _col(eps_sweep, "label2")
    # low eps_r: puck sits above the cavity, so the lower mode is cavity-like
    assert (label1[0], label2[0]) == ("cavity", "sto")
    assert (label1[-1], label2[-1]) == ("sto", "cavity")


def test_eps_sweep_sto_branch_falls_monotonically(eps_sweep):
    sto_branch = [
        row[eps_sweep.columns.index("f2_hz")]
        if row[eps_sweep.columns.index("label2")] == "sto"
        else row[eps_sweep.columns.index("f1_hz")]
        for row in eps_sweep.rows
    ]
    assert all(b < a for a, b in zip(sto_branch, sto_branch[1:]))


def test_eps_sweep_notch_tracks_the_bare_puck(eps_sweep):
    fs = np.asarray(_col(eps_sweep, "f_sto_hz"))
    notch = np.asarray(_col(eps_sweep, "f_notch_hz"))
    assert float(np.max(np.abs(notch / fs - 1.0))) < 1e-5


# ---------------------------------------------------------------------------
# coupling sweep

def test_kappa_sweep_keeps_going_past_a_failed_row():
    plan = SweepPlan(
        SweepVariable.KAPPA, (0.0, 0.01, 0.02), bundled_scenario("paper-pec"),
        fixed_eps_r=215.5,
    )
    result = run_sweep(plan, workers=1)
    errors = _col(result, "error")
    # kappa = 0 leaves a single peak: that row reports it and the rest run
    assert "PeaksNotResolvedError: expected two resolved peaks, found 1" == errors[0]
    assert errors[1] == "" and errors[2] == ""
    # the eigenmode columns are still filled for the failed row (bare modes)
    f1 = _col(result, "f1_hz")
    f2 = _col(result, "f2_hz")
    assert f1[0] == pytest.approx(puck_frequency_hz(PUCK, 215.5), rel=1e-12)
    assert f2[0] == 1297124900.0
    assert result.rows[0][result.columns.index("f_peak1_hz")] is None
    assert _col(result, "f_peak1_hz")[1] == pytest.approx(1290586044.00, abs=1.0)
    assert _col(result, "f_peak2_hz")[1] == pytest.approx(1303557296.51, abs=1.0)


def test_kappa_sweep_needs_a_pinned_permittivity():
    plan = SweepPlan(SweepVariable.KAPPA, (0.01, 0.02), bundled_scenario("paper-pec"))
    result = run_sweep(plan, workers=1)
    for err in _col(result, "error"):
        assert "kappa sweep needs fixed_eps_r" in err


def test_kappa_sweep_uses_a_constant_scenario_permittivity():
    plan = SweepPlan(SweepVariable.KAPPA, (0.02, 0.03), bundled_scenario("paper-room"))
    result = run_sweep(plan, workers=1)
    assert _col(result, "f_sto_hz")[0] == pytest.approx(
        puck_frequency_hz(PUCK, 318.0), rel=1e-12
    )
    assert _col(result, "kappa") == [0.02, 0.03]


# ---------------------------------------------------------------------------
# temperature sweep

def test_temperature_sweep_through_the_permittivity_model():
    scenario = bundled_scenario("paper-pec")
    plan = SweepPlan(SweepVariable.TEMPERATURE, tuple(np.linspace(20.0, 80.0, 61)), scenario)
    result = run_sweep(plan, workers=1)
    fs = _col(result, "f_sto_hz")
    assert fs[0] == pytest.approx(269274757.92403865, rel=1e-12)
    assert all(b > a for a, b in zip(fs, fs[1:]))
    # the whole documented range, 0.76-1.03 GHz below the cavity, has every
    # feature
    assert all(err == "" for err in _col(result, "error"))
    features = ("f_peak1_hz", "f_peak2_hz", "f_notch_hz", "notch_depth_db")
    for t_k, *cells in zip(_col(result, "t_k"), *(_col(result, c) for c in features)):
        *lw_errors, db_error = feature_errors(
            scenario.two_port(t_k=t_k), PeakNotchSummary(*cells)
        )
        assert max(lw_errors) < 1e-3, t_k
        assert db_error < 1e-3, t_k


def test_rows_synthesize_no_spectrum(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep row sampled a spectrum")

    for name in ("synthesize_s21", "find_peaks_and_notch"):
        monkeypatch.setattr(f"cavpuck.sweep.{name}", refuse)
        monkeypatch.setattr(f"cavpuck.network.{name}", refuse)
    pec = bundled_scenario("paper-pec")
    single = "PeaksNotResolvedError: expected two resolved peaks, found 1"
    for plan, errors in (
        (SweepPlan(SweepVariable.EPS_R, (206.0, 300.0), pec), ["", ""]),
        (SweepPlan(SweepVariable.KAPPA, (0.0, 0.02), pec, fixed_eps_r=215.5), [single, ""]),
        (SweepPlan(SweepVariable.TEMPERATURE, (20.0, 80.0), pec), ["", ""]),
    ):
        result = run_sweep(plan, workers=1)
        assert _col(result, "error") == errors
        assert _col(result, "f_notch_hz")[-1] is not None


def test_temperature_sweep_prefers_a_frequency_fit(fit_driven_scenario):
    scenario = load_scenario(fit_driven_scenario)
    grid = tuple(np.round(np.arange(0.05, 0.655, 0.01), 10))
    result = run_sweep(SweepPlan(SweepVariable.TEMPERATURE, grid, scenario), workers=1)
    assert all(err == "" for err in _col(result, "error"))
    fs = _col(result, "f_sto_hz")
    assert fs[0] == pytest.approx(scenario.sto_fit.eval_hz(0.05), rel=1e-14)
    # quadratic fit bottoms out at T = -k1/(2 k2) = 1/3
    t = _col(result, "t_k")
    assert t[int(np.argmin(fs))] == pytest.approx(1.0 / 3.0, abs=0.011)


def test_fit_driven_scenario_requires_fixed_eps_for_kappa_sweeps(fit_driven_scenario):
    scenario = load_scenario(fit_driven_scenario)
    result = run_sweep(SweepPlan(SweepVariable.KAPPA, (0.01, 0.02), scenario), workers=1)
    for err in _col(result, "error"):
        assert "fit-driven scenario needs fixed_eps_r" in err


# ---------------------------------------------------------------------------
# plan validation and worker resolution

def test_plan_validation():
    scenario = bundled_scenario("paper-pec")
    with pytest.raises(ValueError, match="at least 2 points"):
        SweepPlan(SweepVariable.EPS_R, (230.0,), scenario)
    with pytest.raises(ValueError, match="strictly increasing"):
        SweepPlan(SweepVariable.EPS_R, (230.0, 229.0), scenario)


def test_worker_resolution(monkeypatch):
    monkeypatch.delenv("CAVPUCK_WORKERS", raising=False)
    assert _resolve_workers(2) == 2
    monkeypatch.setenv("CAVPUCK_WORKERS", "3")
    assert _resolve_workers(None) == 3
    monkeypatch.setenv("CAVPUCK_WORKERS", "zippy")
    with pytest.raises(ValueError, match="not an integer"):
        _resolve_workers(None)
    with pytest.raises(ValueError, match=">= 1"):
        _resolve_workers(0)


# ---------------------------------------------------------------------------
# output files

def test_csv_output_is_deterministic_across_workers(tmp_path, eps_sweep):
    plan = SweepPlan(
        SweepVariable.EPS_R, tuple(np.linspace(206.0, 226.0, 61)), bundled_scenario("paper-pec")
    )
    p1 = tmp_path / "w1.csv"
    p4 = tmp_path / "w4.csv"
    write_sweep_csv(run_sweep(plan, workers=1), p1)
    write_sweep_csv(run_sweep(plan, workers=4), p4)
    assert p1.read_bytes() == p4.read_bytes()


def test_csv_layout(tmp_path):
    plan = SweepPlan(
        SweepVariable.KAPPA, (0.0, 0.01, 0.02), bundled_scenario("paper-pec"),
        fixed_eps_r=215.5,
    )
    result = run_sweep(plan, workers=1)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(result, path)
    lines = path.read_text().splitlines()
    meta_lines = [l for l in lines if l.startswith("# ")]
    assert meta_lines == sorted(meta_lines)
    assert "# cavity.f_hz=1297124900.0" in meta_lines
    assert "# sweep.variable=kappa" in meta_lines
    assert "# sweep.fixed_eps_r=215.5" in meta_lines
    header = lines[len(meta_lines)]
    assert header == ",".join(COLUMNS)
    # a comma inside the error message must not add a field
    first_row = next(csv.reader([lines[len(meta_lines) + 1]]))
    assert len(first_row) == len(COLUMNS)
    assert first_row[COLUMNS.index("f_peak1_hz")] == ""
    assert first_row[-1] == "PeaksNotResolvedError: expected two resolved peaks, found 1"


def test_json_layout(tmp_path):
    plan = SweepPlan(SweepVariable.EPS_R, (214.0, 216.0), bundled_scenario("paper-pec"))
    result = run_sweep(plan, workers=1)
    path = tmp_path / "sweep.json"
    write_sweep_json(result, path)
    doc = json.loads(path.read_text())
    assert list(doc) == ["meta", "columns", "rows"]
    assert doc["columns"] == list(COLUMNS)
    assert doc["meta"]["scenario"] == "paper-pec"
    assert doc["meta"]["sweep.variable"] == "eps_r"
    assert doc["meta"]["sweep.points"] == 2
    assert len(doc["rows"]) == 2
    assert isinstance(doc["rows"][0], list)
