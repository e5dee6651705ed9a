"""cavpuck: coupled-mode toolkit for a dielectric puck in a microwave cavity.

Layering, bottom up: _csvfile (the one CSV table format), materials
(permittivity/loss vs temperature), resonator (puck and cavity geometry),
cmt (two-mode hybridization), network (driven S21), extract (f0/Q
estimators), sensitivity (thermal responsivity), sweep (deterministic
parameter scans), scenario/cli (configuration and command line).
"""

__version__ = "0.1.0"

from .cmt import (
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
from .errors import (
    BandEdgeClippedError,
    CavpuckError,
    DegenerateFitError,
    GridTooCoarseError,
    NoConvergenceError,
    NotResonantError,
    OutOfRangeError,
    PeaksNotResolvedError,
    ScenarioError,
    UnphysicalModeError,
)
from .extract import (
    Method,
    ResonanceEstimate,
    fit_lorentzian,
    q_phase_slope,
    q_three_db,
    sensitivity_q_product,
    sensitivity_to_eps,
)
from .materials import (
    ConstantLoss,
    ConstantPermittivity,
    InverseTPermittivity,
    TableLoss,
    TablePermittivity,
    eval_loss_q,
)
from .network import (
    PeakNotchSummary,
    Spectrum,
    TwoPortModel,
    default_frequency_grid,
    find_peaks_and_notch,
    model_features,
    phase_curve,
    phase_derivative,
    phase_slope,
    read_spectrum_csv,
    synthesize_s21,
    write_spectrum_csv,
)
from .resonator import (
    CavityMode,
    DielectricPuck,
    TemperatureFrequencyFit,
    eps_for_frequency,
    fit_derivative_at,
    fit_frequency_vs_temperature,
    geometry_factor_ghz,
    puck_frequency_hz,
    puck_frequency_slope_eps,
)
from .scenario import Scenario, bundled_scenario, load_scenario, parse_frequency
from .sensitivity import (
    OperatingPoint,
    ResponsivityReport,
    dfsto_dt,
    make_operating_point,
    responsivity,
    responsivity_report,
)
from .sweep import SweepPlan, SweepVariable, run_sweep, write_sweep_csv, write_sweep_json
