"""Resonance parameter extraction from complex S21 spectra.

Three estimators, same ResonanceEstimate output, deliberately independent
routes so they can cross-check each other:

* 3 dB bandwidth  — peak plus half-power crossings interpolated in the dB
  domain on a lightly averaged trace (the VNA-style fast estimate).
* Lorentzian fit  — |S21|^2 = A/(1 + 4 Q^2 (f/f0 - 1)^2) + B by
  Levenberg-Marquardt, seeded from the 3 dB estimate, over +-10 seed
  linewidths unless a window is given.
* phase slope     — the phase-derivative extremum; for a Lorentzian the
  peak of |dphi/df| equals 2 Q_loaded / f0.  The extremum value is read
  off a least-squares arctangent model of the unwrapped phase over +-4
  seed linewidths, because finite-differencing a measured phase trace
  amplifies noise far past the slope itself; a failed seed or fit raises.

The estimates share scaffolding (windowing, the Levenberg-Marquardt loop)
but consume different aspects of the data — magnitude crossings, the full
power shape, the phase swing — so they still cross-check each other.
Every local-maximum search here (the 3 dB peak, the neighbours that clip
the Lorentzian window, the phase-derivative extrema of the Q products)
uses the one rule of the network peak finder, network._local_maxima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    BandEdgeClippedError,
    GridTooCoarseError,
    NoConvergenceError,
    PeaksNotResolvedError,
)
from .network import (
    Spectrum,
    _check_grid_resolution,
    _local_maxima,
    _refine,
    find_peaks_and_notch,
    phase_derivative,
    synthesize_s21,
)

_HALF_POWER_DB = 10.0 * math.log10(2.0)  # 3.0103 dB


class Method(str, Enum):
    THREE_DB = "3db"
    LORENTZ_FIT = "lorentz"
    PHASE_SLOPE = "phase"


@dataclass(frozen=True)
class ResonanceEstimate:
    f0_hz: float
    q_loaded: float
    amplitude: float          # |S21| at the peak
    method: Method
    residual: float | None = None   # rms misfit / peak power, fits only

    def as_dict(self) -> dict:
        return {
            "f0_hz": self.f0_hz,
            "q_loaded": self.q_loaded,
            "method": self.method.value,
            "residual": self.residual,
        }


def q_internal_from_loaded(q_loaded: float, insertion_loss_db: float) -> float:
    """Undress a loaded Q using the measured insertion loss (dB, positive).

    Q0 = QL / (1 - 10^(-IL/20)).  Only meaningful when the caller actually
    measured IL; nothing in this module applies it implicitly.
    """
    if insertion_loss_db <= 0:
        raise ValueError(f"insertion loss must be positive dB, got {insertion_loss_db}")
    return q_loaded / (1.0 - 10.0 ** (-insertion_loss_db / 20.0))


def _window(spec: Spectrum, near_hz: float, window_hz: float | None) -> slice:
    """Slice of the samples f with abs(f - near_hz) <= window_hz (all with no window).

    The grid is strictly increasing, so the selection is contiguous: two
    bisections on the rounded bounds near_hz -+ window_hz find it, then each
    end settles on the predicate itself.  Indexing with it takes a view.
    """
    if window_hz is None:
        return slice(None)
    f = spec.f_hz
    lo = int(np.searchsorted(f, near_hz - window_hz, "left"))
    hi = int(np.searchsorted(f, near_hz + window_hz, "right"))
    while lo > 0 and abs(f[lo - 1] - near_hz) <= window_hz:
        lo -= 1
    while lo < hi and not abs(f[lo] - near_hz) <= window_hz:
        lo += 1
    while hi < f.size and abs(f[hi] - near_hz) <= window_hz:
        hi += 1
    while hi > lo and not abs(f[hi - 1] - near_hz) <= window_hz:
        hi -= 1
    if hi - lo < 5:
        raise ValueError("analysis window contains fewer than 5 samples")
    return slice(lo, hi)


def _nearest_index(f, x) -> int:
    """argmin |f - x| on the increasing grid f (lower sample on a tie), by bisection."""
    j = min(max(int(np.searchsorted(f, x)), 1), f.size - 1)
    return j - 1 if x - f[j - 1] <= f[j] - x else j


def _trace(spec: Spectrum, sel: slice):
    """(f, |S21|^2, median grid step) over the samples sel."""
    f = spec.f_hz[sel]
    return f, np.abs(spec.s21[sel]) ** 2, float(np.median(np.diff(f)))


def _nearest_local_max(f, y, near_hz):
    peaks = _local_maxima(y)
    if peaks.size == 0:
        return int(np.argmax(y))
    return int(peaks[np.argmin(np.abs(f[peaks] - near_hz))])


def _boxcar(f, y, width_points):
    """Moving average of y; trims the half-window margins where the average
    would spill past the data, returning the matching slice of f."""
    w = int(width_points)
    if w % 2 == 0:
        w += 1
    w = min(w, max(1, (y.size - 1) // 10) | 1)
    if w < 3:
        return f, y
    half = w // 2
    return f[half:-half], np.convolve(y, np.full(w, 1.0 / w), mode="valid")


def _three_db_core(f, power, near_hz):
    """One 3 dB pass on a power trace: (f0, peak_db, f_hi, f_lo)."""
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(np.maximum(power, np.finfo(float).tiny))
    i = _nearest_local_max(f, db, near_hz)
    f0, peak_db = _refine(f, db, i)
    target = peak_db - _HALF_POWER_DB

    def cross(step):
        j = i
        while 0 <= j + step < f.size and db[j + step] > target:
            j += step
        if not (0 <= j + step < f.size):
            side = "upper" if step > 0 else "lower"
            raise BandEdgeClippedError(f"{side} half-power crossing is outside the band")
        # interpolate between the last sample above and the first below
        f_in, f_out = f[j], f[j + step]
        d_in, d_out = db[j], db[j + step]
        return f_in + (target - d_in) * (f_out - f_in) / (d_out - d_in)

    return f0, peak_db, cross(+1), cross(-1)


def _three_db(f, power, step, near_hz) -> ResonanceEstimate:
    """q_three_db on the power trace |S21|^2 over f, whose median step is step."""
    if np.all(power == 0):
        raise PeaksNotResolvedError("spectrum is identically zero in the window")
    f0, peak_db, f_hi, f_lo = _three_db_core(f, power, near_hz)

    points_per_lw = (f_hi - f_lo) / step
    f_s, power_s = _boxcar(f, power, round(points_per_lw / 12.0))
    if power_s is not power:
        try:
            f0, peak_db, f_hi, f_lo = _three_db_core(f_s, power_s, near_hz)
        except BandEdgeClippedError:
            pass  # crossing sits inside the margin the average trimmed; keep the raw pass

    return ResonanceEstimate(
        f0_hz=f0,
        q_loaded=f0 / (f_hi - f_lo),
        amplitude=10.0 ** (peak_db / 20.0),
        method=Method.THREE_DB,
    )


def q_three_db(spec: Spectrum, near_hz: float, window_hz: float | None = None) -> ResonanceEstimate:
    """Half-power-bandwidth estimate of the resonance nearest near_hz.

    Crossings are found by walking outward from the refined peak and
    linearly interpolating in the dB domain; if either crossing runs off
    the grid (or the analysis window) the band is too narrow and
    BandEdgeClippedError is raised.  A first raw pass sets the linewidth
    scale; the reported numbers come from a second pass over a trace
    averaged to about a twelfth of that linewidth, which suppresses noise
    on the crossings while biasing an ideal resonance by under 0.5%.
    """
    return _three_db(*_trace(spec, _window(spec, near_hz, window_hz)), near_hz)


# ---------------------------------------------------------------------------
# Levenberg-Marquardt in scaled detuning, shared by the |S21|^2 fit and the
# phase-model fit.

_EPS = float(np.finfo(float).eps)
_STEP_TOL = 1e-12         # a step this small (relative) ends a fit
_FIT_HALF_WIDTH = 10.0    # default Lorentzian window, seed linewidths either side
_OTHER_PEAK_MIN = 0.25    # weakest neighbour that clips the window, over the seed peak


@dataclass(frozen=True)
class _Detuning:
    """Scaled detuning about a seed resonance (f_ref, q_ref).

    t = 2 q_ref (f - f_ref) / f_ref counts seed half-linewidths.  A resonance
    (f0, Q) is carried as c = t(f0) and s = Q / q_ref, so the parameters and
    the Jacobian columns are O(1) at any Q; its normalized detuning
    2 Q (f/f0 - 1) is then u = s (t - c) / (1 + c / (2 q_ref)).
    """

    f_ref: float
    q_ref: float

    def t(self, f):
        return (f - self.f_ref) * (2.0 * self.q_ref / self.f_ref)

    def f0(self, c):
        return self.f_ref + c * (0.5 * self.f_ref / self.q_ref)

    def q(self, s):
        return s * self.q_ref

    def valid(self, c, s):
        return s > 0.0 and self.f0(c) > 0.0

    def u(self, t, c, s):
        """u and its partial derivatives (du/dc, du/ds)."""
        e = 0.5 / self.q_ref
        k = 1.0 / (1.0 + c * e)
        return s * (t - c) * k, -s * (1.0 + t * e) * (k * k), (t - c) * k


def _lorentz_model(det: _Detuning, t):
    """amp / (1 + u^2) + base and its Jacobian over (amp, c, s, base)."""

    def model(p):
        amp, c, s, base = p
        u, du_dc, du_ds = det.u(t, c, s)
        d = 1.0 / (1.0 + u * u)
        g = -2.0 * amp * u * d * d  # d(model)/du
        return amp * d + base, np.column_stack([d, g * du_dc, g * du_ds, np.ones_like(t)])

    return model


def _phase_model(det: _Detuning, t, sw):
    """sw * (phi0 + swing * atan(u)) and its Jacobian over (phi0, swing, c, s);
    sw are the square roots of the fit weights."""

    def model(p):
        phi0, swing, c, s = p
        u, du_dc, du_ds = det.u(t, c, s)
        at = np.arctan(u)
        g = swing / (1.0 + u * u)  # d(model)/du
        jac = np.column_stack([np.ones_like(t), at, g * du_dc, g * du_ds])
        return sw * (phi0 + swing * at), jac * sw[:, None]

    return model


def _least_squares(model, y, p0, *, accept=None, max_iter=100):
    """Levenberg-Marquardt fit of model(p) -> (values, jacobian) to y.

    Each damped step is the least-squares solution of the augmented system
    [J; sqrt(lam) D] d = [-r; 0], D the Jacobian column norms, taken through
    a QR factorization of [J r] rather than the normal equations (whose
    condition number is the square of J's).  The damping starts at 1e-3 and
    goes x10 on a rejected step, /10 on an accepted one.  A step is accepted
    unless it raises the SSR by more than the SSR's own rounding, so the
    iterate runs on to the roundoff-level fixed point instead of stalling
    where the SSR stops resolving the parameters.  The fit stops there, on
    the first step that moves no parameter by more than 1e-12 of
    max(1, |p|); that step, the Gauss-Newton correction still left, is
    applied.  Returns (params, rms_residual); NoConvergenceError carries
    the last iterate.
    """
    p = np.asarray(p0, dtype=float)
    m, jac = model(p)
    r = m - y
    n, k = jac.shape
    ssr = float(r @ r)
    y_norm = float(np.linalg.norm(y))
    lam = 1e-3
    refactor = True
    for _ in range(max_iter):
        if refactor:
            rr = np.linalg.qr(np.column_stack([jac, r]), mode="r")
            upper, qtr = rr[:k, :k], rr[:k, k]
            norms = np.linalg.norm(jac, axis=0)
            norms[norms == 0.0] = 1.0
            refactor = False
        aug = np.vstack([upper, math.sqrt(lam) * np.diag(norms)])
        step = np.linalg.lstsq(aug, np.concatenate([-qtr, np.zeros(k)]), rcond=None)[0]
        small = bool(np.all(np.abs(step) <= _STEP_TOL * np.maximum(1.0, np.abs(p))))
        cand = p + step
        ssr_new = math.inf
        if accept is None or accept(cand):
            m_new, jac_new = model(cand)
            r_new = m_new - y
            ssr_new = float(r_new @ r_new)
        # each residual carries rounding of a few eps |y_i|, so the SSR is
        # known only to about 2 |r| * (a few eps |y|)
        rounding = 16.0 * _EPS * math.sqrt(ssr) * y_norm
        if math.isfinite(ssr_new) and (small or ssr_new <= ssr + rounding):
            p, r, jac, ssr = cand, r_new, jac_new, ssr_new
            lam = max(lam / 10.0, 1e-14)
            refactor = True
        else:
            lam *= 10.0
        if small:
            return p, math.sqrt(ssr / n)
    raise NoConvergenceError(
        f"fit did not converge in {max_iter} iterations",
        last_params=p,
        last_residual=math.sqrt(ssr / n),
    )


def _fit_window(f, power, step, seed: ResonanceEstimate) -> slice:
    """Slice of f for the default Lorentzian window (power is |S21|^2 over f).

    +-10 seed linewidths about the seed f0, clipped on each side at the
    midpoint to the nearest other resonance there.  That is a local maximum
    of |S21|^2, averaged over a quarter seed linewidth, that reaches a
    quarter of the seed peak, with the averaged trace dipping below half
    its height on the way from the seed.  Local maxima follow the rule
    shared with the peak finder (network._local_maxima): a flat top counts
    once, at its middle sample, and a shoulder not at all.  Noise ripple is
    narrower than the average, and at 20 dB SNR or better it seldom rises
    that high and dips that deep; a weaker neighbour is left in the window.
    """
    f0 = seed.f0_hz
    lw = f0 / seed.q_loaded
    lo, hi = f0 - _FIT_HALF_WIDTH * lw, f0 + _FIT_HALF_WIDTH * lw
    fs, ps = _boxcar(f, power, round(0.25 * lw / step))
    i = _nearest_index(fs, f0)
    maxima = _local_maxima(ps)
    maxima = maxima[ps[maxima] >= _OTHER_PEAK_MIN * ps[i]]
    above = maxima[maxima > i]
    above = above[np.minimum.accumulate(ps[i:])[above - i] <= 0.5 * ps[above]]
    below = maxima[maxima < i]
    below = below[np.minimum.accumulate(ps[i::-1])[i - below] <= 0.5 * ps[below]]
    if above.size:
        hi = min(hi, 0.5 * (f0 + fs[above.min()]))
    if below.size:
        lo = max(lo, 0.5 * (f0 + fs[below.max()]))
    start, stop = np.searchsorted(f, lo, "left"), np.searchsorted(f, hi, "right")
    if stop - start < 5:
        raise ValueError("analysis window contains fewer than 5 samples")
    return slice(int(start), int(stop))


def _fit_power(f, y, seed: ResonanceEstimate) -> ResonanceEstimate:
    """Lorentzian plus constant on y = |S21|^2 over f, from seed's f0 and Q."""
    y_ref = float(np.max(y))
    yn = y / y_ref
    det = _Detuning(seed.f0_hz, seed.q_loaded)
    base0 = float(np.min(yn))
    p0 = [max(1.0 - base0, 1e-12), 0.0, 1.0, base0]
    p, rms = _least_squares(
        _lorentz_model(det, det.t(f)), yn, p0, accept=lambda p: det.valid(p[1], p[2])
    )
    amp, c, s, base = p
    return ResonanceEstimate(
        f0_hz=det.f0(c),
        q_loaded=det.q(s),
        amplitude=math.sqrt(max(amp + base, 0.0) * y_ref),
        method=Method.LORENTZ_FIT,
        residual=rms,  # yn was normalized, so this is already per unit peak power
    )


def fit_lorentzian(spec: Spectrum, near_hz: float, window_hz: float | None = None) -> ResonanceEstimate:
    """Least-squares Lorentzian on |S21|^2 with a constant baseline.

    Seeded from the 3 dB estimate.  With a window_hz the fit covers
    near_hz +- window_hz.  Without one it covers +-10 linewidths of the
    3 dB seed, centred on the seed f0 and clipped on each side at the
    midpoint to the nearest other resonance, so a second mode elsewhere in
    the band does not pull the fit.  Should that fit fail, or find a Q more
    than twice off the seed's (a noise spike on the peak can stop the 3 dB
    walk early at low SNR), the window is taken instead from a fit over the
    whole band.  Frequency is fitted in scaled detuning about the seed and
    power is normalized to the window maximum, so the problem is equally
    well conditioned at any Q and scale.  NoConvergenceError carries the
    last iterate.
    """
    # one trace, shared by the seed and the windows
    f, power, step = _trace(spec, _window(spec, near_hz, window_hz))
    seed = _three_db(f, power, step, near_hz)
    if window_hz is not None:
        return _fit_power(f, power, seed)
    try:
        w = _fit_window(f, power, step, seed)
        est = _fit_power(f[w], power[w], seed)
    except (ValueError, NoConvergenceError):
        est = None
    if est is None or not 0.5 < est.q_loaded / seed.q_loaded < 2.0:
        rough = _fit_power(f, power, seed)
        w = _fit_window(f, power, step, rough)
        est = _fit_power(f[w], power[w], rough)
    return est


def q_phase_slope(spec: Spectrum, near_hz: float, window_hz: float | None = None) -> ResonanceEstimate:
    """Loaded Q from the phase-derivative extremum nearest near_hz.

    Q = f0 * |dphi/df|_peak / 2.  The extremum value is read off a
    least-squares arctangent model of the unwrapped phase (weighted by
    |S21|^2, the inverse phase-noise variance) over +-4 linewidths of the
    3 dB seed, because finite differences of a measured phase trace carry
    noise on the order of the slope itself.  Raises GridTooCoarseError as
    phase_derivative does or on a fit window under 8 samples,
    PeaksNotResolvedError on an S21 constant over the window, and whatever
    the 3 dB seed or the fit raises (BandEdgeClippedError, NoConvergenceError).
    """
    _check_grid_resolution(spec)
    sel = _window(spec, near_hz, window_hz)
    s21 = spec.s21[sel]
    if np.all(s21 == s21[0]):
        raise PeaksNotResolvedError("phase derivative has no extremum in the window")
    f, power, step = _trace(spec, sel)
    seed = _three_db(f, power, step, near_hz)
    lw = seed.f0_hz / seed.q_loaded
    start = np.searchsorted(f, seed.f0_hz - 4.0 * lw, "left")
    stop = np.searchsorted(f, seed.f0_hz + 4.0 * lw, "right")
    if stop - start < 8:
        raise GridTooCoarseError("phase fit window (+-4 seed linewidths) has under 8 samples")
    s21 = s21[start:stop]
    phase = np.unwrap(np.angle(s21))
    det = _Detuning(seed.f0_hz, seed.q_loaded)
    t = det.t(f[start:stop])
    sw = np.abs(s21) / float(np.max(np.abs(s21)))  # sqrt of weights |S21|^2
    p0 = [float(phase[np.argmin(np.abs(t))]), float(phase[-1] - phase[0]) / math.pi, 0.0, 1.0]
    p, _ = _least_squares(
        _phase_model(det, t, sw), sw * phase, p0, accept=lambda p: det.valid(p[2], p[3])
    )
    # the model's own derivative extremum: |dphi/df| = 2|swing| Q / f0
    f0 = det.f0(float(p[2]))
    slope = 2.0 * abs(float(p[1])) * det.q(float(p[3])) / f0
    return ResonanceEstimate(
        f0_hz=f0,
        q_loaded=f0 * slope / 2.0,
        amplitude=float(np.abs(spec.s21[_nearest_index(spec.f_hz, f0)])),
        method=Method.PHASE_SLOPE,
    )


# ---------------------------------------------------------------------------
# Permittivity sensitivity of the spectral features.

@dataclass(frozen=True)
class EpsSensitivity:
    """Central-difference feature shifts per unit permittivity (Hz/unit)."""

    dfpeak1_deps: float
    dfpeak2_deps: float
    dfnotch_deps: float


@dataclass(frozen=True)
class QProducts:
    """|df/deps| x phase-derivative extremum, per feature (rad/unit).

    A readout figure of merit: frequency responsivity times phase sharpness
    at the feature one would actually track.
    """

    mode1: float
    mode2: float
    notch: float


def sensitivity_to_eps(builder, eps_r: float, delta: float = 0.5) -> EpsSensitivity:
    """Central differences of the three spectral features over eps_r +- delta.

    builder(eps_r) -> TwoPortModel; spectra are synthesized on each model's
    own default grid (the features are refined, so the grids need not
    match).  PeaksNotResolvedError from either endpoint propagates.
    """
    lo = find_peaks_and_notch(synthesize_s21(builder(eps_r - delta)))
    hi = find_peaks_and_notch(synthesize_s21(builder(eps_r + delta)))
    twod = 2.0 * delta
    return EpsSensitivity(
        dfpeak1_deps=(hi.f_peak1_hz - lo.f_peak1_hz) / twod,
        dfpeak2_deps=(hi.f_peak2_hz - lo.f_peak2_hz) / twod,
        dfnotch_deps=(hi.f_notch_hz - lo.f_notch_hz) / twod,
    )


def sensitivity_q_product(builder, eps_r: float, delta: float = 0.5) -> QProducts:
    """Feature responsivity times phase-derivative sharpness at eps_r."""
    sens = sensitivity_to_eps(builder, eps_r, delta)
    spec = synthesize_s21(builder(eps_r))
    summary = find_peaks_and_notch(spec)
    dphi = np.abs(phase_derivative(spec))
    f = spec.f_hz

    def sharpness(f_feature):
        i = _nearest_local_max(f, dphi, f_feature)
        _, val = _refine(f, dphi, i)
        return abs(val)

    return QProducts(
        mode1=abs(sens.dfpeak1_deps) * sharpness(summary.f_peak1_hz),
        mode2=abs(sens.dfpeak2_deps) * sharpness(summary.f_peak2_hz),
        notch=abs(sens.dfnotch_deps) * sharpness(summary.f_notch_hz),
    )
