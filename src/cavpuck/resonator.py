"""Geometry of the dielectric puck and of the host cavity mode.

The shielded-puck TE01d frequency follows the usual semi-analytic rule

    f[GHz] = (34 / a[mm]) * (a/d + 3.45) / sqrt(eps_r)

with a the puck radius and d its height, both in mm.  The prefactor is the
only place where mm/GHz conventions appear; everything downstream works in
Hz.  The rule is quoted as a few-percent estimate for aspect ratios
0.3 < a/d < 3 — callers can query `aspect_ratio_ok` to tag results produced
outside that band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._csvfile import read_table
from .errors import DegenerateFitError

GHZ = 1.0e9
MHZ = 1.0e6

# validity band of the frequency rule, as aspect ratio a/d
_ASPECT_LO, _ASPECT_HI = 0.3, 3.0


@dataclass(frozen=True)
class DielectricPuck:
    """Cylindrical dielectric sample.  Dimensions in mm.

    The axial hole radius is carried along for provenance (sample mounting)
    but does not enter the frequency rule.
    """

    radius_mm: float
    height_mm: float
    hole_radius_mm: float = 0.0

    def __post_init__(self):
        if not (self.radius_mm > 0 and np.isfinite(self.radius_mm)):
            raise ValueError(f"radius_mm must be > 0, got {self.radius_mm}")
        if not (self.height_mm > 0 and np.isfinite(self.height_mm)):
            raise ValueError(f"height_mm must be > 0, got {self.height_mm}")
        if not (self.hole_radius_mm >= 0):
            raise ValueError(f"hole_radius_mm must be >= 0, got {self.hole_radius_mm}")

    @property
    def aspect_ratio(self) -> float:
        return self.radius_mm / self.height_mm


@dataclass(frozen=True)
class CavityMode:
    """Bare cavity mode: frequency in Hz and unloaded quality factor."""

    f_hz: float
    q: float

    def __post_init__(self):
        if not (self.f_hz > 0 and np.isfinite(self.f_hz)):
            raise ValueError(f"f_hz must be > 0, got {self.f_hz}")
        if not (self.q > 0 and np.isfinite(self.q)):
            raise ValueError(f"q must be > 0, got {self.q}")


def geometry_factor_ghz(puck: DielectricPuck) -> float:
    """Geometric prefactor of the frequency rule, in GHz (= f * sqrt(eps_r))."""
    a, d = puck.radius_mm, puck.height_mm
    return (34.0 / a) * (a / d + 3.45)


def puck_frequency_hz(puck: DielectricPuck, eps_r: float) -> float:
    """TE01d resonant frequency of the puck, in Hz."""
    if not (eps_r > 1.0 and np.isfinite(eps_r)):
        raise ValueError(f"eps_r must be finite and > 1, got {eps_r}")
    return geometry_factor_ghz(puck) / np.sqrt(eps_r) * GHZ


def puck_frequency_slope_eps(puck: DielectricPuck, eps_r: float) -> float:
    """d f / d eps_r in Hz per unit permittivity (negative: higher eps, lower f)."""
    if not (eps_r > 1.0 and np.isfinite(eps_r)):
        raise ValueError(f"eps_r must be finite and > 1, got {eps_r}")
    return -0.5 * geometry_factor_ghz(puck) * GHZ * eps_r**-1.5


def aspect_ratio_ok(puck: DielectricPuck) -> bool:
    """True when a/d sits inside the quoted validity band of the rule."""
    return _ASPECT_LO <= puck.aspect_ratio <= _ASPECT_HI


def eps_for_frequency(puck: DielectricPuck, f_hz: float) -> float:
    """Permittivity at which the puck would resonate at f_hz (rule inverse).

    Handy for locating the cavity crossing: eps* = eps_for_frequency(puck,
    f_cav).
    """
    if not (f_hz > 0 and np.isfinite(f_hz)):
        raise ValueError(f"f_hz must be > 0, got {f_hz}")
    return (geometry_factor_ghz(puck) * GHZ / f_hz) ** 2


@dataclass(frozen=True)
class TemperatureFrequencyFit:
    """Quadratic f(T) = k0 + k1*T + k2*T^2 with coefficients in MHz units.

    residual_norm is the rms misfit of the fit that produced the
    coefficients, in MHz (0 for hand-built fits).
    """

    k0_mhz: float
    k1_mhz_per_k: float
    k2_mhz_per_k2: float
    residual_norm_mhz: float = 0.0

    def eval_hz(self, t_k):
        t = np.asarray(t_k, dtype=float)
        f = (self.k0_mhz + self.k1_mhz_per_k * t + self.k2_mhz_per_k2 * t * t) * MHZ
        return f if f.ndim else float(f)


def fit_frequency_vs_temperature(points) -> TemperatureFrequencyFit:
    """Least-squares quadratic through (T[K], f[Hz]) samples.

    Solved by normal equations after scaling each column of the Vandermonde
    matrix to unit norm — three parameters, so conditioning is benign once
    the temperature columns are scaled.  Raises DegenerateFitError when the
    system is rank deficient (fewer than three distinct temperatures).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise ValueError("need at least 3 (T, f) points")
    t = pts[:, 0]
    f_mhz = pts[:, 1] / MHZ
    if np.unique(t).size < 3:
        raise DegenerateFitError(
            f"quadratic fit needs >= 3 distinct temperatures, got {np.unique(t).size}"
        )
    A = np.column_stack([np.ones_like(t), t, t * t])
    scale = np.linalg.norm(A, axis=0)
    As = A / scale
    try:
        coeffs = np.linalg.solve(As.T @ As, As.T @ f_mhz) / scale
    except np.linalg.LinAlgError:
        raise DegenerateFitError("normal equations are singular") from None
    resid = A @ coeffs - f_mhz
    rms = float(np.sqrt(np.mean(resid**2)))
    return TemperatureFrequencyFit(*coeffs, residual_norm_mhz=rms)


def fit_derivative_at(fit: TemperatureFrequencyFit, t_k: float) -> float:
    """df/dT of the fitted parabola at t_k, in Hz/K."""
    return (fit.k1_mhz_per_k + 2.0 * fit.k2_mhz_per_k2 * t_k) * MHZ


def load_frequency_csv(path):
    """Read (T[K], f[Hz]) rows from a `T_K,f_Hz` CSV, as an (n, 2) array."""
    return read_table(path, [("T_K", "f_Hz")])[1]
