"""End-to-end tests of the command-line front end.

Every invocation goes through ``cli.main`` so the exit-code contract is
exercised exactly as a shell would see it: 0 success, 2 usage/configuration
problem, 3 model/extraction failure.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cavpuck
from cavpuck import cli
from cavpuck.cmt import CoupledSystem, coupled_eigenmodes
from cavpuck.network import read_spectrum_csv
from cavpuck.scenario import load_scenario
from cavpuck.sweep import COLUMNS


def run_cli(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# modes


def test_modes_detuned_takes_eigen_path(capsys):
    got = run_json(capsys, ["modes", "--scenario", "paper-pec", "--temp", "50"])
    assert got["path"] == "eigen"
    assert got["f1_hz"] == pytest.approx(425576367.03911066, rel=1e-12)
    assert got["q1"] == pytest.approx(10101.05584045019, rel=1e-12)
    assert got["label1"] == "sto"
    assert got["f2_hz"] == pytest.approx(1297185414.7171671, rel=1e-12)
    assert got["q2"] == pytest.approx(29275029.56217291, rel=1e-12)
    assert got["label2"] == "cavity"


def test_modes_near_crossing_is_hybridized(capsys):
    got = run_json(capsys, ["modes", "--scenario", "paper-pec", "--eps-r", "215.48"])
    assert got["path"] == "eigen"
    assert got["f1_hz"] == pytest.approx(1278960987.2402866, rel=1e-12)
    assert got["f2_hz"] == pytest.approx(1315024297.3700593, rel=1e-12)
    assert got["label1"] == got["label2"] == "hybridized"
    assert got["q1"] == pytest.approx(20187.400860425845, rel=1e-12)
    assert got["q2"] == pytest.approx(20202.892203504187, rel=1e-12)


def test_modes_on_resonance_takes_closed_form_path(capsys):
    got = run_json(
        capsys, ["modes", "--scenario", "paper-pec", "--eps-r", "215.4754022294353"]
    )
    assert got["path"] == "closed_form"
    assert got["label1"] == got["label2"] == "degenerate"
    assert got["f1_hz"] == pytest.approx(1278967782.4822834, rel=1e-12)
    assert got["q1"] == pytest.approx(19912.452502867756, rel=1e-12)
    assert got["f2_hz"] == pytest.approx(1315031339.4639575, rel=1e-12)
    assert got["q2"] == pytest.approx(20473.93174833264, rel=1e-12)


def test_modes_kappa_override_on_room_scenario(capsys):
    got = run_json(
        capsys,
        ["modes", "--scenario", "paper-room", "--eps-r", "230", "--kappa", "0.03"],
    )
    assert got["f1_hz"] == pytest.approx(1248240001.9829764, rel=1e-12)
    assert got["q1"] == pytest.approx(8768.018693438358, rel=1e-12)
    assert got["label1"] == "sto"
    assert got["f2_hz"] == pytest.approx(1306972543.0821877, rel=1e-12)
    assert got["q2"] == pytest.approx(21953.306725018294, rel=1e-12)
    assert got["label2"] == "cavity"


def test_modes_without_pinned_kappa_is_config_error(capsys):
    code, _, err = run_cli(capsys, ["modes", "--scenario", "paper-room", "--eps-r", "230"])
    assert code == 2
    assert "does not pin kappa" in err


def test_modes_from_scenario_file_matches_bundled(capsys, tmp_path):
    doc = {
        "schema_version": 1,
        "name": "file-room",
        "puck": {"radius_mm": 8.17, "height_mm": 7.26, "hole_radius_mm": 2.0},
        "permittivity": {"type": "constant", "eps_r": 230.0},
        "loss": {"type": "constant", "tan_delta": 1.25e-4},
        "cavity": {"frequency": "1.3 GHz", "q": 2.89e4},
        "kappa": 0.03,
        "ports": {"q_ext1": 8.6e7, "q_ext2": 8.6e7},
    }
    path = tmp_path / "room.json"
    path.write_text(json.dumps(doc))
    got = run_json(capsys, ["modes", "--scenario", str(path), "--eps-r", "230"])
    want = run_json(
        capsys,
        ["modes", "--scenario", "paper-room", "--eps-r", "230", "--kappa", "0.03"],
    )
    assert got == want


def test_modes_unknown_bundled_scenario(capsys):
    code, _, err = run_cli(capsys, ["modes", "--scenario", "paper-nope", "--eps-r", "230"])
    assert code == 2
    assert "no bundled scenario named 'paper-nope'" in err


# ---------------------------------------------------------------------------
# spectrum


@pytest.fixture(scope="module")
def spectrum_file(tmp_path_factory):
    """Synthesized two-peak spectrum for the room scenario, plus its summary."""
    path = tmp_path_factory.mktemp("spectra") / "room230.csv"
    out, err, code = None, None, None
    import io, contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(
            [
                "spectrum",
                "--scenario",
                "paper-room",
                "--eps-r",
                "230",
                "--kappa",
                "0.03",
                "--out",
                str(path),
            ]
        )
    assert code == 0
    return path, json.loads(buf.getvalue())


def test_spectrum_summary_values(spectrum_file):
    path, got = spectrum_file
    assert got["out"] == str(path)
    assert got["points"] == 78884
    assert got["f_peak1_hz"] == pytest.approx(1248239379.5476687, abs=1.0)
    assert got["f_peak2_hz"] == pytest.approx(1306972585.4736404, abs=1.0)
    assert got["f_notch_hz"] == pytest.approx(1255500762.7231548, abs=1.0)
    assert got["depth_db"] == pytest.approx(-103.10556073343237, abs=1e-6)


def test_spectrum_file_round_trips(spectrum_file):
    path, got = spectrum_file
    spec = read_spectrum_csv(path)
    assert spec.f_hz.size == got["points"]
    assert spec.meta["kappa"] == 0.03
    assert spec.meta["f_cav_hz"] == 1.3e9


def test_spectrum_single_peak_is_reported_not_failed(capsys, tmp_path):
    got = run_json(
        capsys,
        [
            "spectrum",
            "--scenario",
            "paper-room",
            "--eps-r",
            "230",
            "--kappa",
            "0.0",
            "--out",
            str(tmp_path / "k0.csv"),
        ],
    )
    assert set(got) == {"out", "points", "f_peak_hz", "f_notch_hz"}
    assert got["points"] == 79090
    assert got["f_peak_hz"] == pytest.approx(1.3e9, abs=20.0)
    assert got["f_notch_hz"] is None


def test_spectrum_unwritable_output_is_config_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        [
            "spectrum",
            "--scenario",
            "paper-room",
            "--eps-r",
            "230",
            "--kappa",
            "0.03",
            "--out",
            str(tmp_path / "missing_dir" / "x.csv"),
        ],
    )
    assert code == 2
    assert "No such file or directory" in err


# ---------------------------------------------------------------------------
# fit


FIT_GOLDENS = {
    "3db": (1248239367.1081069, 8672.142869458654, None),
    "lorentz": (1248238783.2481842, 8767.61655371354, 0.002231721560462754),
    "phase": (1248240000.8539221, 8768.067430817122, None),
}


@pytest.mark.parametrize("method", sorted(FIT_GOLDENS))
def test_fit_methods_on_written_spectrum(capsys, spectrum_file, method):
    path, _ = spectrum_file
    got = run_json(
        capsys,
        ["fit", "--in", str(path), "--near", "1248239379.5", "--method", method],
    )
    f0, q, residual = FIT_GOLDENS[method]
    assert got["method"] == method
    assert got["f0_hz"] == pytest.approx(f0, rel=1e-12)
    assert got["q_loaded"] == pytest.approx(q, rel=1e-12)
    if residual is None:
        assert got["residual"] is None
    else:
        assert got["residual"] == pytest.approx(residual, rel=1e-9)


def _openblas_with_dynamic_arch_on_avx2():
    """OPENBLAS_CORETYPE picks a kernel only in an OpenBLAS built with
    DYNAMIC_ARCH, and the Haswell kernel needs a CPU with AVX2."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict form of its config
        return False
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return False
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get("AVX2"))


@pytest.mark.skipif(
    not _openblas_with_dynamic_arch_on_avx2(),
    reason="needs numpy on OpenBLAS built with DYNAMIC_ARCH, on a CPU with AVX2",
)
@pytest.mark.parametrize("method", ["lorentz", "phase"])
def test_fit_does_not_depend_on_the_blas_kernel(capsys, spectrum_file, method):
    # The fits are well conditioned and run to their roundoff-level fixed
    # point, so another OpenBLAS kernel changes only the last bits.
    path, _ = spectrum_file
    argv = ["fit", "--in", str(path), "--near", "1248239379.5", "--method", method]
    here = run_json(capsys, argv)
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
    src = str(Path(cavpuck.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "cavpuck.cli", *argv],
        env=env, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    there = json.loads(proc.stdout)
    assert there["f0_hz"] == pytest.approx(here["f0_hz"], rel=1e-12)
    assert there["q_loaded"] == pytest.approx(here["q_loaded"], rel=1e-12)


def test_fit_near_accepts_unit_strings(capsys, spectrum_file):
    path, _ = spectrum_file
    bare = run_json(capsys, ["fit", "--in", str(path), "--near", "1248239379.5"])
    mhz = run_json(capsys, ["fit", "--in", str(path), "--near", "1248.2393795 MHz"])
    assert mhz == bare


def test_fit_default_method_is_lorentz(capsys, spectrum_file):
    path, _ = spectrum_file
    got = run_json(capsys, ["fit", "--in", str(path), "--near", "1248239379.5"])
    assert got["method"] == "lorentz"


def test_fit_malformed_csv_is_config_error(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("f_hz,bogus\n1,2\n")
    code, _, err = run_cli(capsys, ["fit", "--in", str(bad), "--near", "1 GHz"])
    assert code == 2
    assert "unrecognized header" in err


def test_fit_missing_file_is_config_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, ["fit", "--in", str(tmp_path / "nope.csv"), "--near", "1 GHz"]
    )
    assert code == 2
    assert "No such file or directory" in err


def test_fit_dead_spectrum_is_model_error(capsys, tmp_path):
    dead = tmp_path / "dead.csv"
    rows = ["f_hz,s21_re,s21_im"]
    rows += [f"{1e9 + i * 1e3},0.0,0.0" for i in range(200)]
    dead.write_text("\n".join(rows) + "\n")
    code, _, err = run_cli(
        capsys, ["fit", "--in", str(dead), "--near", "1000100000", "--method", "3db"]
    )
    assert code == 3
    assert "error: PeaksNotResolvedError: spectrum is identically zero" in err


def test_fit_rejects_unknown_method(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, ["fit", "--in", "x.csv", "--near", "1 GHz", "--method", "bogus"]
    )
    assert code == 2
    assert "invalid choice" in err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_writes_csv_and_reports_counts(capsys, tmp_path):
    out = tmp_path / "sw.csv"
    got = run_json(
        capsys,
        [
            "sweep", "--scenario", "paper-pec", "--var", "eps_r",
            "--from", "206", "--to", "226", "--steps", "5",
            "--out", str(out), "--workers", "1",
        ],
    )
    assert got == {"out": str(out), "rows": 5, "rows_with_errors": 0, "errors_by_type": {}}
    lines = out.read_text().splitlines()
    meta = [ln for ln in lines if ln.startswith("# ")]
    body = [ln for ln in lines if not ln.startswith("# ")]
    assert meta and body[0] == ",".join(COLUMNS)
    assert len(body) == 6  # header + 5 rows


def test_sweep_writes_json_when_asked(capsys, tmp_path):
    out = tmp_path / "sw.json"
    got = run_json(
        capsys,
        [
            "sweep", "--scenario", "paper-pec", "--var", "eps_r",
            "--from", "206", "--to", "226", "--steps", "5",
            "--out", str(out), "--json", "--workers", "1",
        ],
    )
    assert got["rows"] == 5 and got["rows_with_errors"] == 0
    doc = json.loads(out.read_text())
    assert list(doc) == ["meta", "columns", "rows"]
    assert len(doc["rows"]) == 5


def test_sweep_counts_error_rows(capsys, tmp_path):
    # kappa = 0 row cannot produce a two-peak spectrum; it is reported, not fatal
    got = run_json(
        capsys,
        [
            "sweep", "--scenario", "paper-pec", "--var", "kappa",
            "--from", "0.0", "--to", "0.03", "--steps", "2",
            "--eps-r", "215.5", "--out", str(tmp_path / "swk.csv"), "--workers", "1",
        ],
    )
    assert got["rows"] == 2 and got["rows_with_errors"] == 1
    assert got["errors_by_type"] == {"PeaksNotResolvedError": 1}


def test_sweep_summary_counts_errors_by_type_in_stdout_only(capsys, tmp_path):
    # kappa = 0 leaves one peak, kappa = 1 is no valid system
    out = tmp_path / "swk.json"
    got = run_json(
        capsys,
        [
            "sweep", "--scenario", "paper-pec", "--var", "kappa",
            "--from", "0.0", "--to", "1.0", "--steps", "2", "--eps-r", "215.5",
            "--out", str(out), "--json", "--workers", "1",
        ],
    )
    assert got["rows_with_errors"] == 2
    assert got["errors_by_type"] == {"PeaksNotResolvedError": 1, "ValueError": 1}
    assert "errors_by_type" not in out.read_text()


def test_sweep_rejects_single_step(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        [
            "sweep", "--scenario", "paper-pec", "--var", "eps_r",
            "--from", "206", "--to", "226", "--steps", "1",
            "--out", str(tmp_path / "x.csv"),
        ],
    )
    assert code == 2
    assert "--steps must be at least 2" in err


# ---------------------------------------------------------------------------
# sensitivity


def test_sensitivity_report_values(capsys):
    got = run_json(capsys, ["sensitivity", "--scenario", "paper-pec", "--temp", "50"])
    assert got["t_k"] == 50.0
    assert got["dfsto_dt_hz_per_k"] == pytest.approx(4257607.757152178, rel=1e-12)
    assert got["beta1"] == pytest.approx(0.9857649753894929, rel=1e-12)
    assert got["beta2"] == pytest.approx(1.01356097764023, rel=1e-12)
    assert got["df1_dt_hz_per_k"] == pytest.approx(4197000.605947231, rel=1e-12)
    assert got["df2_dt_hz_per_k"] == pytest.approx(4315345.080747789, rel=1e-12)
    assert got["figure_of_merit_2"] == pytest.approx(97389.20386906587, rel=1e-12)
    assert got["formula_caveat"] is False
    assert got["f1_hz"] == pytest.approx(425576367.03911066, rel=1e-12)
    assert got["q2"] == pytest.approx(29275029.56217291, rel=1e-12)
    assert got["f_sto_source"] == "permittivity"
    assert got["path"] == "eigen"


def test_constant_permittivity_prints_an_unsigned_zero_drift(capsys):
    # the falling frequency rule times a zero eps slope is -0.0, which JSON
    # would print as a negative drift
    argv = ["sensitivity", "--scenario", "paper-room", "--kappa", "0.03", "--temp", "50"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    assert "-0.0" not in out
    got = json.loads(out)
    for key in ("dfsto_dt_hz_per_k", "df1_dt_hz_per_k", "df2_dt_hz_per_k"):
        assert math.copysign(1.0, got[key]) == 1.0 and got[key] == 0.0, key


def test_fit_driven_scenario_has_one_f_sto_chain(capsys, tmp_path, fit_driven_scenario):
    # modes, sensitivity and a temperature sweep all take f_sto from the
    # fit, so all three describe the one system built on fit.eval_hz(T)
    scenario = load_scenario(fit_driven_scenario)
    out = tmp_path / "temp.json"
    got = run_json(capsys, [
        "sweep", "--scenario", str(fit_driven_scenario), "--var", "temp",
        "--from", "0.16", "--to", "1.0", "--steps", "5", "--out", str(out), "--json",
    ])
    assert got["rows_with_errors"] == 0
    doc = json.loads(out.read_text())
    for row in doc["rows"]:
        cell = dict(zip(doc["columns"], row))
        t_k = cell["t_k"]
        f_sto = scenario.sto_fit.eval_hz(t_k)
        pair = coupled_eigenmodes(CoupledSystem(
            f_sto, cell["q_sto"], scenario.cavity.f_hz, scenario.cavity.q, scenario.kappa
        ))
        want = {"f1_hz": pair.f1_hz, "q1": pair.q1, "f2_hz": pair.f2_hz, "q2": pair.q2}
        assert cell["f_sto_hz"] == pytest.approx(f_sto, rel=1e-12)
        argv = ["--scenario", str(fit_driven_scenario), "--temp", repr(t_k)]
        modes = run_json(capsys, ["modes", *argv])
        sens = run_json(capsys, ["sensitivity", *argv])
        for key, value in want.items():
            assert cell[key] == pytest.approx(value, rel=1e-12), (t_k, key)
            assert modes[key] == pytest.approx(value, rel=1e-12), (t_k, key)
            assert sens[key] == pytest.approx(value, rel=1e-12), (t_k, key)


def test_sensitivity_reports_the_fit_slope(capsys, fit_driven_scenario):
    got = run_json(
        capsys, ["sensitivity", "--scenario", str(fit_driven_scenario), "--temp", "0.8"]
    )
    assert got["f_sto_source"] == "fit"
    # d/dT (116.88 - 0.008 T + 0.012 T^2) MHz at 0.8 K
    assert got["dfsto_dt_hz_per_k"] == pytest.approx(11200.0, rel=1e-12)


# ---------------------------------------------------------------------------
# argparse plumbing


def test_modes_operating_point_flags_are_exclusive(capsys):
    code, _, err = run_cli(
        capsys,
        ["modes", "--scenario", "paper-pec", "--eps-r", "230", "--temp", "50"],
    )
    assert code == 2
    assert "not allowed with" in err


def test_modes_requires_an_operating_point(capsys):
    code, _, err = run_cli(capsys, ["modes", "--scenario", "paper-pec"])
    assert code == 2
    assert "one of the arguments --eps-r --temp is required" in err


def test_import_leaves_scipy_unloaded():
    # scipy is a test oracle only; importing it would cost every CLI call ~1 s
    env = dict(os.environ)
    src = str(Path(cavpuck.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, cavpuck.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, ["--version"])
    assert code == 0
    assert out.startswith("cavpuck ")


def test_command_is_required(capsys):
    code, _, err = run_cli(capsys, [])
    assert code == 2
    assert "required" in err
