"""Thermal responsivity chain: temperature -> permittivity -> puck
frequency -> hybridized mode drift.

The bare-puck drift follows from the frequency rule by the chain rule,

    d f_sto / dT = (d f_sto / d eps_r) * (d eps_r / dT)

with the first factor from ``resonator.puck_frequency_slope_eps`` and the
second from the permittivity model's own ``deriv``; each hybridized mode
inherits beta_i of it.  With eps_r ~ 1e5/T the drift is strongly positive
on cooling curves in the 20-80 K window (~+4.3 MHz/K at 50 K for the
reference puck).
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
from .errors import NotResonantError
from .resonator import (
    DielectricPuck,
    aspect_ratio_ok,
    puck_frequency_hz,
    puck_frequency_slope_eps,
)

_OPERATING_POINT_RTOL = 1e-12


@dataclass(frozen=True)
class OperatingPoint:
    """A temperature-resolved system state.

    The puck frequency inside ``sys`` must be the one implied by the
    permittivity model at ``t_k`` (checked to 1e-12 relative), so a report
    can never mix a hand-edited f_sto with model-derived derivatives.
    """

    puck: DielectricPuck
    eps_model: object
    t_k: float
    sys: CoupledSystem

    def __post_init__(self):
        f_expected = puck_frequency_hz(self.puck, self.eps_model.eval(self.t_k))
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
) -> OperatingPoint:
    """Build an OperatingPoint with f_sto derived through the model chain."""
    f_sto = puck_frequency_hz(puck, eps_model.eval(t_k))
    sys = CoupledSystem(f_sto, q_sto, f_cav_hz, q_cav, kappa)
    return OperatingPoint(puck, eps_model, t_k, sys)


def dfsto_dt(puck: DielectricPuck, eps_model, t_k: float) -> float:
    """Bare-puck frequency drift in Hz/K at temperature t_k.

    A zero permittivity slope gives +0.0: the falling frequency rule times
    it would otherwise print as a negative drift, -0.0.
    """
    return puck_frequency_slope_eps(puck, eps_model.eval(t_k)) * eps_model.deriv(t_k) + 0.0


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
    (a measured f_sto(T) parabola).  ``path`` is ``"closed_form"`` at
    exact resonance and ``"eigen"`` otherwise, as ``cavpuck modes`` says.
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
    path: str = "eigen"

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
            "path": self.path,
        }


def responsivity_report(
    sys: CoupledSystem, dfsto: float, t_k: float = float("nan"), formula_caveat: bool = False,
    f_sto_source: str = "permittivity",
) -> ResponsivityReport:
    """Attach mode structure and beta-weighted drifts to a known dfsto/dT."""
    try:
        modes, path = on_resonance_modes(sys), "closed_form"
    except NotResonantError:
        modes, path = coupled_eigenmodes(sys), "eigen"
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
        path=path,
    )


def responsivity(op: OperatingPoint) -> ResponsivityReport:
    """Full-chain responsivity at an operating point."""
    dfsto = dfsto_dt(op.puck, op.eps_model, op.t_k)
    return responsivity_report(
        op.sys, dfsto, t_k=op.t_k, formula_caveat=not aspect_ratio_ok(op.puck)
    )
