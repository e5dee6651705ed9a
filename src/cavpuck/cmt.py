"""Two-mode coupled-resonator model: a high-permittivity dielectric puck
mode hybridizing with a host cavity mode.

Two computational paths are provided on purpose:

* ``on_resonance_modes`` — closed forms valid only at exact resonance
  (f_sto == f_cav).  Frequencies split as f0*sqrt(1 -+ kappa) and the mode
  quality factors carry a sqrt(1 -+ |kappa|) times the harmonic-mean factor
  2*Qs*Qc/(Qs+Qc).
* ``coupled_eigenmodes`` — general detuned case via the 2x2 complex
  symmetric eigenproblem in angular-frequency squares.

The two paths deliberately disagree at O(kappa) in the quality factors: the
eigen path leaves the on-resonance loss mix unsplit (both modes decay at
the mean rate) while the closed form carries sqrt(1 -+ |kappa|).  At
kappa ~ 0.03 that is a ~1.5% spread, which is why Q cross-checks carry a 3%
tolerance while frequency cross-checks can be tight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NotResonantError, UnphysicalModeError

# Example coupling-strength calibration: kappa vs axial offset of the puck
# from the cavity mid-plane, from field-overlap simulations of the reference
# geometry.  Two support points only -- deliberately NOT interpolated, the
# overlap is strongly nonlinear in between.
KAPPA_BY_PUCK_OFFSET = {"10mm": 0.006, "50mm": 0.03}

_RESONANCE_RTOL = 1e-12
_TIE_RTOL = 0.01  # eigenvector components within 1% -> hybridized


class ModeLabel(str, Enum):
    STO = "sto"
    CAVITY = "cavity"
    HYBRIDIZED = "hybridized"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class CoupledSystem:
    """Bare parameters of the coupled pair.

    Frequencies in Hz.  Quality factors must be positive; ``math.inf`` is
    accepted as the lossless idealization.  |kappa| < 1 keeps both
    hybridized frequencies real.
    """

    f_sto_hz: float
    q_sto: float
    f_cav_hz: float
    q_cav: float
    kappa: float

    def __post_init__(self):
        for name in ("f_sto_hz", "f_cav_hz"):
            v = getattr(self, name)
            if not (v > 0 and np.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        for name in ("q_sto", "q_cav"):
            v = getattr(self, name)
            if not (v > 0):
                raise ValueError(f"{name} must be positive, got {v}")
        if not (abs(self.kappa) < 1 and np.isfinite(self.kappa)):
            raise ValueError(f"|kappa| must be < 1, got {self.kappa}")

    @property
    def detuning_rel(self) -> float:
        return abs(self.f_sto_hz - self.f_cav_hz) / self.f_cav_hz

    def matrix(self) -> tuple[complex, complex, complex]:
        """Entries (a, b, d) of the symmetric matrix [[a, b], [b, d]] whose
        eigenvalues are the squared complex mode frequencies (see
        coupled_eigenmodes)."""
        w1 = 2.0 * math.pi * self.f_sto_hz * (1.0 + 0.5j / self.q_sto)
        w2 = 2.0 * math.pi * self.f_cav_hz * (1.0 + 0.5j / self.q_cav)
        return w1 * w1, self.kappa * w1 * w2, w2 * w2


@dataclass(frozen=True)
class ModePair:
    """Hybridized modes, sorted so f1_hz <= f2_hz."""

    f1_hz: float
    q1: float
    label1: ModeLabel
    f2_hz: float
    q2: float
    label2: ModeLabel

    def __post_init__(self):
        if self.f1_hz > self.f2_hz:
            raise ValueError("mode pair must be ordered f1 <= f2")


@dataclass(frozen=True)
class BetaCoefficients:
    """Fraction of a bare-puck frequency shift inherited by each mode."""

    beta1: float
    beta2: float


def on_resonance_modes(sys: CoupledSystem) -> ModePair:
    """Closed-form hybridized modes at exact resonance.

    Raises NotResonantError unless f_sto and f_cav agree to 1e-12 relative;
    use coupled_eigenmodes for anything detuned.  Both labels come back
    DEGENERATE: on resonance each mode is an equal mix and pinning either
    resonator on it would be arbitrary.
    """
    if sys.detuning_rel > _RESONANCE_RTOL:
        raise NotResonantError(
            f"relative detuning {sys.detuning_rel:.3e} exceeds {_RESONANCE_RTOL}"
        )
    f0, k = sys.f_cav_hz, sys.kappa
    # harmonic-mean-of-two doubled, written in rates so Q = inf stays exact
    loss = 0.5 * (1.0 / sys.q_sto + 1.0 / sys.q_cav)
    qmix = 1.0 / loss if loss > 0 else math.inf
    f_lo = f0 * math.sqrt(1.0 - k)
    f_hi = f0 * math.sqrt(1.0 + k)
    q_lo = math.sqrt(1.0 - abs(k)) * qmix
    q_hi = math.sqrt(1.0 + abs(k)) * qmix
    if k < 0:
        # Frequency order flips with the sign of kappa, but the Qs were
        # built from |kappa| and are already (low, high): swapping them too
        # would break the kappa -> -kappa symmetry of the observables.
        f_lo, f_hi = f_hi, f_lo
    return ModePair(f_lo, q_lo, ModeLabel.DEGENERATE, f_hi, q_hi, ModeLabel.DEGENERATE)


def coupled_eigenmodes(sys: CoupledSystem) -> ModePair:
    """Hybridized modes of the detuned lossy pair.

    Forms complex angular frequencies w~ = 2*pi*f*(1 + i/(2Q)) and solves

        [[w1~^2,          kappa*w1~*w2~],
         [kappa*w1~*w2~,  w2~^2       ]]  v = lam v

    with index 1 the puck and 2 the cavity.  The principal square roots of
    the eigenvalues give mode frequency Re(w~)/2pi and quality factor
    Re(w~)/(2 Im(w~)).  A non-decaying root (Im < 0) means the input was
    unphysical.  Each mode is labelled by the dominant eigenvector
    component; components equal to within 1% give HYBRIDIZED.
    """
    a, b, d = sys.matrix()
    mat = np.array([[a, b], [b, d]])
    lam, vec = np.linalg.eig(mat)
    wt = np.sqrt(lam)  # principal branch: Re >= 0
    order = np.argsort(wt.real)
    wt, vec = wt[order], vec[:, order]
    if np.any(wt.imag < 0):
        raise UnphysicalModeError(f"growing mode: Im(w~) = {wt.imag}")

    out = []
    for i in range(2):
        f = float(wt[i].real) / (2.0 * np.pi)
        q = float(wt[i].real / (2.0 * wt[i].imag)) if wt[i].imag > 0 else math.inf
        out.append((f, q, _label_from_vector(vec[:, i])))
    (f1, q1, l1), (f2, q2, l2) = out
    return ModePair(f1, q1, l1, f2, q2, l2)


def _label_from_vector(v) -> ModeLabel:
    a_sto, a_cav = abs(v[0]), abs(v[1])
    if abs(a_sto - a_cav) <= _TIE_RTOL * max(a_sto, a_cav):
        return ModeLabel.HYBRIDIZED
    return ModeLabel.STO if a_sto > a_cav else ModeLabel.CAVITY


def beta_coefficients(sys: CoupledSystem) -> BetaCoefficients:
    """Frequency-pulling fractions of the two modes.

    beta_i = d f_i / d f_sto near resonance: how much of a bare-puck drift
    each hybridized mode inherits.  beta2 exceeds 1 (and is capped by
    sqrt(2)) because the upper mode rides sqrt(1+|kappa|); the Q_sto/Q_cav
    ratio in the denominator is the loss-weighting of the mode mix.
    """
    damp = 1.0 + sys.q_sto / sys.q_cav
    return BetaCoefficients(
        beta1=math.sqrt(1.0 - abs(sys.kappa)) / damp,
        beta2=math.sqrt(1.0 + abs(sys.kappa)) / damp,
    )


def kappa_from_split(f1_hz: float, f2_hz: float) -> tuple[float, float]:
    """Invert a measured mode split into (kappa, f_cav_hz).

    Exact algebraic inverse of the on-resonance split: with
    f1 = f0*sqrt(1-k) and f2 = f0*sqrt(1+k),

        kappa = (f2^2 - f1^2) / (f2^2 + f1^2)
        f0    = sqrt((f1^2 + f2^2) / 2)

    so round-tripping through on_resonance_modes reproduces the inputs to
    floating-point accuracy.
    """
    if not (0 < f1_hz <= f2_hz):
        raise ValueError(f"need 0 < f1 <= f2, got {f1_hz}, {f2_hz}")
    s1, s2 = f1_hz * f1_hz, f2_hz * f2_hz
    kappa = (s2 - s1) / (s2 + s1)
    f_cav = math.sqrt(0.5 * (s1 + s2))
    return kappa, f_cav


def energy_balance_check(sys: CoupledSystem, pair: ModePair) -> tuple[float, float]:
    """Relative residual of the loss-sharing identity for each mode.

    On resonance each hybridized mode dissipates the arithmetic mean of the
    bare loss rates: f_i/Q_i == (f_sto/Q_sto + f_cav/Q_cav)/2.  The residual
    is |lhs - rhs| / lhs.  It vanishes identically on the closed-form path
    and stays small (few percent at kappa ~ 0.03) for the eigen path.
    """
    target = 0.5 * (_rate(sys.f_sto_hz, sys.q_sto) + _rate(sys.f_cav_hz, sys.q_cav))
    out = []
    for f, q in ((pair.f1_hz, pair.q1), (pair.f2_hz, pair.q2)):
        rate = _rate(f, q)
        if rate > 0:
            out.append(abs(rate - target) / rate)
        else:
            out.append(0.0 if target == 0 else math.inf)
    return tuple(out)


def _rate(f_hz: float, q: float) -> float:
    return 0.0 if math.isinf(q) else f_hz / q
