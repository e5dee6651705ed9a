"""Permittivity and loss models: values, ranges, tables, CSV ingestion."""

import dataclasses
import math

import numpy as np
import pytest

from cavpuck.errors import OutOfRangeError
from cavpuck.materials import (
    ConstantLoss,
    ConstantPermittivity,
    InverseTPermittivity,
    TableLoss,
    TablePermittivity,
    default_sto_loss,
    default_sto_permittivity,
    eval_loss_q,
    load_loss_csv,
    load_permittivity_csv,
)


def test_constant_permittivity_ignores_temperature():
    model = ConstantPermittivity(318.0)
    assert model.eval(4.0) == 318.0
    assert model.eval(293.0) == 318.0


@pytest.mark.parametrize("bad", [1.0, 0.5, -3.0, math.inf, math.nan])
def test_constant_permittivity_rejects_nonphysical(bad):
    with pytest.raises(ValueError, match="eps_r"):
        ConstantPermittivity(bad)


def test_inverse_t_values_and_derivative():
    model = default_sto_permittivity()
    assert model.eval(50.0) == pytest.approx(2000.0, rel=1e-12)
    assert model.eval(20.0) == pytest.approx(5000.0, rel=1e-12)
    assert model.deriv(50.0) == pytest.approx(-40.0, rel=1e-12)
    # derivative matches a central difference
    h = 1e-3
    fd = (model.eval(50.0 + h) - model.eval(50.0 - h)) / (2 * h)
    assert model.deriv(50.0) == pytest.approx(fd, rel=1e-6)


def test_inverse_t_range_is_inclusive():
    model = InverseTPermittivity(1.0e5, 20.0, 80.0)
    assert model.eval(20.0) == pytest.approx(5000.0)
    assert model.eval(80.0) == pytest.approx(1250.0)
    for t in (19.999, 80.001, 4.0, 300.0):
        with pytest.raises(OutOfRangeError, match="outside"):
            model.eval(t)


def test_inverse_t_rejects_bad_construction():
    with pytest.raises(ValueError):
        InverseTPermittivity(-1.0, 20.0, 80.0)
    with pytest.raises(ValueError):
        InverseTPermittivity(1e5, 80.0, 20.0)
    with pytest.raises(ValueError):
        InverseTPermittivity(1e5, 0.0, 80.0)


def test_table_permittivity_interpolates_linearly():
    table = TablePermittivity((10.0, 20.0, 40.0), (4000.0, 5000.0, 2500.0))
    assert table.eval(10.0) == 4000.0
    assert table.eval(15.0) == pytest.approx(4500.0)
    assert table.eval(30.0) == pytest.approx(3750.0)
    assert table.eval(40.0) == 2500.0
    assert table.t_range == (10.0, 40.0)
    with pytest.raises(OutOfRangeError):
        table.eval(9.999)
    with pytest.raises(OutOfRangeError):
        table.eval(40.001)


def test_table_stays_inside_data_hull():
    rng = np.random.default_rng(3)
    t = np.cumsum(rng.uniform(0.5, 3.0, size=12)) + 4.0
    v = rng.uniform(100.0, 5000.0, size=12)
    table = TablePermittivity(tuple(t), tuple(v))
    for tq in np.linspace(t[0], t[-1], 101):
        out = table.eval(float(tq))
        assert v.min() <= out <= v.max()


@pytest.mark.parametrize(
    "rows, msg",
    [
        (((20.0,), (5000.0,)), "at least 2 rows"),
        (((20.0, 20.0), (5000.0, 4000.0)), "strictly increasing"),
        (((30.0, 20.0), (5000.0, 4000.0)), "strictly increasing"),
        (((20.0, 30.0), (5000.0, math.nan)), "non-finite"),
        (((20.0, 30.0), (5000.0, 0.5)), "exceed 1"),
        (((20.0, 30.0), (5000.0,)), "mismatched"),
    ],
)
def test_table_permittivity_validation(rows, msg):
    with pytest.raises(ValueError, match=msg):
        TablePermittivity(*rows)


def test_loss_models_give_quality_factor():
    assert eval_loss_q(ConstantLoss(1.25e-4), 293.0) == pytest.approx(8000.0)
    assert eval_loss_q(default_sto_loss(), 4.0) == pytest.approx(8000.0)
    table = TableLoss((4.0, 300.0), (1e-4, 2e-4))
    assert eval_loss_q(table, 4.0) == pytest.approx(1e4)
    assert eval_loss_q(table, 152.0) == pytest.approx(1.0 / 1.5e-4)


def test_table_loss_rejects_nonpositive_values():
    with pytest.raises(ValueError, match="positive"):
        TableLoss((4.0, 300.0), (1e-4, 0.0))


def test_models_are_immutable():
    model = ConstantPermittivity(300.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.eps_r = 200.0
    loss = ConstantLoss(1e-4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        loss.tan_delta = 2e-4


def test_load_permittivity_csv_round_trip(tmp_path):
    path = tmp_path / "eps.csv"
    path.write_text("T_K,eps_r\n20,5000\n50,2000\n\n80,1250\n")
    table = load_permittivity_csv(path)
    assert table.t_k == (20.0, 50.0, 80.0)
    assert table.eval(50.0) == pytest.approx(2000.0)


def test_load_loss_csv(tmp_path):
    path = tmp_path / "loss.csv"
    path.write_text("T_K,tan_delta\n4,1e-4\n300,2e-4\n")
    table = load_loss_csv(path)
    assert eval_loss_q(table, 4.0) == pytest.approx(1e4)


def test_csv_wrong_header_is_rejected(tmp_path):
    path = tmp_path / "eps.csv"
    path.write_text("temp,eps\n20,5000\n")
    with pytest.raises(ValueError, match="expected header"):
        load_permittivity_csv(path)


def test_csv_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "eps.csv"
    path.write_text("T_K,eps_r\n20,5000\n50,oops\n")
    with pytest.raises(ValueError, match=r":3: non-numeric"):
        load_permittivity_csv(path)
    path.write_text("T_K,eps_r\n20,5000,extra\n")
    with pytest.raises(ValueError, match=r":2: expected 2 columns"):
        load_permittivity_csv(path)


def test_csv_empty_file(tmp_path):
    path = tmp_path / "eps.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_permittivity_csv(path)
