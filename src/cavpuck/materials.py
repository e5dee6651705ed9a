"""Temperature-dependent permittivity and dielectric-loss models.

All models are immutable value objects; evaluation never mutates state and
never extrapolates beyond a model's declared validity range.

Units: temperature in K, permittivity dimensionless, loss tangent
dimensionless.  Quality factor of the dielectric is 1/tan(delta).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._csvfile import read_table
from .errors import OutOfRangeError

# Room-temperature anchors for SrTiO3-like high-permittivity dielectrics.
STO_ROOM_EPS_R = 318.0
STO_ROOM_TAN_DELTA = 1.25e-4          # -> Q = 8000
# Curie-Weiss-like growth of eps_r on cooling, valid roughly 20..80 K.
STO_INVERSE_T_COEFF = 1.0e5           # eps_r ~ 1e5 / T[K]
STO_INVERSE_T_RANGE = (20.0, 80.0)


@dataclass(frozen=True)
class ConstantPermittivity:
    """Fixed relative permittivity, any temperature."""

    eps_r: float

    def __post_init__(self):
        if not (self.eps_r > 1.0 and np.isfinite(self.eps_r)):
            raise ValueError(f"eps_r must be finite and > 1, got {self.eps_r}")

    def eval(self, t_k: float) -> float:
        return self.eps_r


@dataclass(frozen=True)
class InverseTPermittivity:
    """eps_r(T) = coeff / T, valid only inside [t_min, t_max]."""

    coeff: float
    t_min: float
    t_max: float

    def __post_init__(self):
        if not (self.coeff > 0 and np.isfinite(self.coeff)):
            raise ValueError(f"coeff must be finite and > 0, got {self.coeff}")
        if not (0 < self.t_min < self.t_max):
            raise ValueError(f"need 0 < t_min < t_max, got [{self.t_min}, {self.t_max}]")

    def eval(self, t_k: float) -> float:
        self._check(t_k)
        return self.coeff / t_k

    def deriv(self, t_k: float) -> float:
        """Analytic d(eps_r)/dT in 1/K."""
        self._check(t_k)
        return -self.coeff / t_k**2

    def _check(self, t_k: float):
        if not (self.t_min <= t_k <= self.t_max):
            raise OutOfRangeError(
                f"T={t_k} K outside validity range [{self.t_min}, {self.t_max}] K"
            )


@dataclass(frozen=True)
class TablePermittivity:
    """Linear interpolation over (T, eps_r) rows; no extrapolation.

    Rows must be sorted by strictly increasing temperature, at least two of
    them.
    """

    t_k: tuple[float, ...]
    eps_r: tuple[float, ...] = field(repr=False)

    def __post_init__(self):
        _validate_table(self.t_k, self.eps_r, "eps_r")

    def eval(self, t_k: float) -> float:
        _check_hull(t_k, self.t_k)
        return float(np.interp(t_k, self.t_k, self.eps_r))

    @property
    def t_range(self) -> tuple[float, float]:
        return self.t_k[0], self.t_k[-1]


@dataclass(frozen=True)
class ConstantLoss:
    """Fixed loss tangent."""

    tan_delta: float

    def __post_init__(self):
        if not (self.tan_delta > 0 and np.isfinite(self.tan_delta)):
            raise ValueError(f"tan_delta must be finite and > 0, got {self.tan_delta}")

    def eval(self, t_k: float) -> float:
        return self.tan_delta


@dataclass(frozen=True)
class TableLoss:
    """Linear interpolation over (T, tan_delta) rows; no extrapolation."""

    t_k: tuple[float, ...]
    tan_delta: tuple[float, ...] = field(repr=False)

    def __post_init__(self):
        _validate_table(self.t_k, self.tan_delta, "tan_delta")

    def eval(self, t_k: float) -> float:
        _check_hull(t_k, self.t_k)
        return float(np.interp(t_k, self.t_k, self.tan_delta))


def default_sto_loss() -> ConstantLoss:
    return ConstantLoss(STO_ROOM_TAN_DELTA)


def default_sto_permittivity() -> InverseTPermittivity:
    return InverseTPermittivity(STO_INVERSE_T_COEFF, *STO_INVERSE_T_RANGE)


def eval_permittivity(model, t_k: float) -> float:
    """Relative permittivity at temperature t_k (pure, range checked)."""
    return model.eval(t_k)


def eval_loss_q(model, t_k: float) -> float:
    """Dielectric quality factor 1/tan(delta) at temperature t_k."""
    return 1.0 / model.eval(t_k)


def load_permittivity_csv(path) -> TablePermittivity:
    _, rows, _ = read_table(path, [("T_K", "eps_r")])
    return TablePermittivity(tuple(rows[:, 0].tolist()), tuple(rows[:, 1].tolist()))


def load_loss_csv(path) -> TableLoss:
    _, rows, _ = read_table(path, [("T_K", "tan_delta")])
    return TableLoss(tuple(rows[:, 0].tolist()), tuple(rows[:, 1].tolist()))


def _validate_table(t, v, what):
    if len(t) != len(v):
        raise ValueError(f"{what} table: mismatched column lengths")
    if len(t) < 2:
        raise ValueError(f"{what} table: need at least 2 rows, got {len(t)}")
    td = np.diff(t)
    if not np.all(td > 0):
        raise ValueError(f"{what} table: temperatures must be strictly increasing")
    arr = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} table: non-finite values")
    if what == "eps_r" and not np.all(arr > 1.0):
        raise ValueError("eps_r table: values must exceed 1")
    if what == "tan_delta" and not np.all(arr > 0.0):
        raise ValueError("tan_delta table: values must be positive")


def _check_hull(t_k, t_grid):
    if not (t_grid[0] <= t_k <= t_grid[-1]):
        raise OutOfRangeError(
            f"T={t_k} K outside table range [{t_grid[0]}, {t_grid[-1]}] K"
        )
