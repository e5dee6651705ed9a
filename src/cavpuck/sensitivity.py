"""Thermal responsivity chain: temperature -> permittivity -> puck
frequency -> hybridized mode drift.

The bare-puck drift follows from the frequency rule by the chain rule,

    d f_sto / dT = -(F/2) * eps_r^(-3/2) * d eps_r / dT     (F in Hz)

and each hybridized mode inherits beta_i of it.  With eps_r ~ 1e5/T the
drift is strongly positive on cooling curves in the 20-80 K window
(~+4.3 MHz/K at 50 K for the reference puck).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cmt import (
    BetaCoefficients,
    CoupledSystem,
    ModePair,
    beta_coefficients,
    coupled_eigenmodes,
    on_resonance_modes,
)
from .errors import NotResonantError, OutOfRangeError
from .materials import eval_permittivity
from .resonator import (
    DielectricPuck,
    aspect_ratio_ok,
    geometry_factor_ghz,
    puck_frequency_hz,
)

_OPERATING_POINT_RTOL = 1e-12


@dataclass(frozen=True)
class OperatingPoint:
    """A temperature-resolved system state.

    The puck frequency inside ``sys`` must be the one implied by the
    permittivity model at ``t_k`` (checked to 1e-12 relative), so a report
    can never mix a hand-edited f_sto with model-derived derivatives.
    ``deps_dt`` overrides the model's d(eps_r)/dT when supplied (e.g. from
    a measured cooling curve).
    """

    puck: DielectricPuck
    eps_model: object
    t_k: float
    sys: CoupledSystem
    deps_dt: float | None = None

    def __post_init__(self):
        f_expected = puck_frequency_hz(self.puck, eval_permittivity(self.eps_model, self.t_k))
        if abs(self.sys.f_sto_hz - f_expected) > _OPERATING_POINT_RTOL * f_expected:
            raise ValueError(
                f"sys.f_sto_hz={self.sys.f_sto_hz} does not match the model chain "
                f"({f_expected}) at T={self.t_k} K"
            )


def make_operating_point(
    puck: DielectricPuck,
    eps_model,
    t_k: float,
    f_cav_hz: float,
    q_cav: float,
    kappa: float,
    q_sto: float,
    deps_dt: float | None = None,
) -> OperatingPoint:
    """Build an OperatingPoint with f_sto derived through the model chain."""
    f_sto = puck_frequency_hz(puck, eval_permittivity(eps_model, t_k))
    sys = CoupledSystem(f_sto, q_sto, f_cav_hz, q_cav, kappa)
    return OperatingPoint(puck, eps_model, t_k, sys, deps_dt)


def eps_derivative(eps_model, t_k: float, rel_step: float = 1e-3) -> float:
    """d(eps_r)/dT in 1/K: analytic where the model has one, finite
    differences otherwise (step 1e-3*T, shrunk or one-sided at table edges)."""
    if hasattr(eps_model, "deriv"):
        return eps_model.deriv(t_k)
    h = rel_step * t_k
    if h == 0:
        raise ValueError("cannot finite-difference at T=0")
    try:
        return (eval_permittivity(eps_model, t_k + h) - eval_permittivity(eps_model, t_k - h)) / (2 * h)
    except OutOfRangeError:
        pass
    # an edge of the validity hull: fall back to a one-sided difference
    try:
        return (eval_permittivity(eps_model, t_k + h) - eval_permittivity(eps_model, t_k)) / h
    except OutOfRangeError:
        return (eval_permittivity(eps_model, t_k) - eval_permittivity(eps_model, t_k - h)) / h


def dfsto_dt(puck: DielectricPuck, eps_model, t_k: float, deps_dt: float | None = None) -> float:
    """Bare-puck frequency drift in Hz/K at temperature t_k."""
    eps = eval_permittivity(eps_model, t_k)
    if deps_dt is None:
        deps_dt = eps_derivative(eps_model, t_k)
    return -0.5 * geometry_factor_ghz(puck) * 1e9 * eps**-1.5 * deps_dt


@dataclass(frozen=True)
class ResponsivityReport:
    """Per-mode thermal responsivity at an operating point.

    figure_of_merit_i = |df_i/dT| * Q_i / f_i is a convenience ranking
    (drift per fractional linewidth per kelvin) defined by this package,
    not a quantity with an external reference value.
    ``formula_caveat`` is set when the puck aspect ratio sits outside the
    validity band of the frequency rule, so absolute frequencies (not the
    ratios) deserve suspicion.  ``f_sto_source`` names where f_sto and its
    drift came from: ``"permittivity"`` (the eps_r(T) chain) or ``"fit"``
    (a measured f_sto(T) parabola).
    """

    t_k: float
    dfsto_dt_hz_per_k: float
    beta: BetaCoefficients
    df1_dt_hz_per_k: float
    df2_dt_hz_per_k: float
    modes: ModePair
    figure_of_merit_1: float
    figure_of_merit_2: float
    formula_caveat: bool
    f_sto_source: str = "permittivity"

    def as_dict(self) -> dict:
        return {
            "t_k": self.t_k,
            "dfsto_dt_hz_per_k": self.dfsto_dt_hz_per_k,
            "beta1": self.beta.beta1,
            "beta2": self.beta.beta2,
            "df1_dt_hz_per_k": self.df1_dt_hz_per_k,
            "df2_dt_hz_per_k": self.df2_dt_hz_per_k,
            "f1_hz": self.modes.f1_hz,
            "q1": self.modes.q1,
            "f2_hz": self.modes.f2_hz,
            "q2": self.modes.q2,
            "figure_of_merit_1": self.figure_of_merit_1,
            "figure_of_merit_2": self.figure_of_merit_2,
            "formula_caveat": self.formula_caveat,
            "f_sto_source": self.f_sto_source,
        }


def responsivity_report(
    sys: CoupledSystem, dfsto: float, t_k: float = float("nan"), formula_caveat: bool = False,
    f_sto_source: str = "permittivity",
) -> ResponsivityReport:
    """Attach mode structure and beta-weighted drifts to a known dfsto/dT."""
    try:
        modes = on_resonance_modes(sys)
    except NotResonantError:
        modes = coupled_eigenmodes(sys)
    beta = beta_coefficients(sys)
    df1 = beta.beta1 * dfsto
    df2 = beta.beta2 * dfsto
    return ResponsivityReport(
        t_k=t_k,
        dfsto_dt_hz_per_k=dfsto,
        beta=beta,
        df1_dt_hz_per_k=df1,
        df2_dt_hz_per_k=df2,
        modes=modes,
        figure_of_merit_1=abs(df1) * modes.q1 / modes.f1_hz,
        figure_of_merit_2=abs(df2) * modes.q2 / modes.f2_hz,
        formula_caveat=formula_caveat,
        f_sto_source=f_sto_source,
    )


def responsivity(op: OperatingPoint) -> ResponsivityReport:
    """Full-chain responsivity at an operating point."""
    dfsto = dfsto_dt(op.puck, op.eps_model, op.t_k, op.deps_dt)
    return responsivity_report(
        op.sys, dfsto, t_k=op.t_k, formula_caveat=not aspect_ratio_ok(op.puck)
    )
