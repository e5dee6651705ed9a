"""Driven two-port response of the coupled pair.

The drive enters and leaves through the cavity, with the puck hanging off
it.  S21 comes from the same 2x2 matrix that ``cmt.coupled_eigenmodes``
solves, with the cavity's Q replaced by its loaded Q,
1/Q_L = 1/Q_cav + (1/Q_ext1 + 1/Q_ext2) (``TwoPortModel.loaded_system``):

    S21(w) = conj( 2i w sqrt(ge1*ge2) (ws~^2 - w^2) / det(M_L - w^2 I) )

    M_L = [[ws~^2,            kappa*ws~*wc~],
           [kappa*ws~*wc~,    wc~^2        ]]

with complex angular frequencies w*~ = w*(1 + i/(2 Q*)), the cavity's
loaded, and port rates ge_i = wc/(2 Q_ext_i).  The conjugate makes the
phase rise through a peak.  The peaks are the poles of S21, which are the
eigenmodes of M_L: ``coupled_eigenmodes(model.loaded_system())`` gives
their frequencies and loaded Qs.  The zero sits at ws~, so the notch reads
out the bare puck frequency f_sto, mode pulling notwithstanding.  At
kappa = 0 the response is the loaded cavity line, of height
sqrt(ge1*ge2)/(gc + ge1 + ge2) with gc = wc/(2 Q_cav), to O(1/Q).

A peak d linewidths from the zero sits about 1/(4d) linewidth off its
pole, pushed away from the zero: within a few linewidths of the zero a
peak is not Lorentzian.  ``model_features`` and ``phase_slope`` give the
exact peaks, notch and phase slope, with no grid; ``find_peaks_and_notch``
and ``phase_derivative`` read them off a sampled spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._csvfile import meta_block, read_table
from .cmt import CoupledSystem, coupled_eigenmodes
from .errors import GridTooCoarseError, PeaksNotResolvedError

# Measured room-temperature Q of the copper-walled host cavity, and the
# simulated wall-loss-free (PEC) budget with the puck inserted.
COPPER_CAVITY_Q = 2.89e4
PEC_CAVITY_Q = 4.2e7
PORT_Q_DEFAULT = 8.6e7   # simulated external Q of each loop antenna

_DEFAULT_GRID_POINTS = 20001
_MAX_GRID_POINTS = 1_000_001
_MIN_POINTS_PER_LINEWIDTH = 8

# model_features: Newton on log|S21|^2 in x = w^2
_DB_PER_LOG_POWER = 10.0 / math.log(10.0)
_THREE_DB_LOG_POWER = 3.0 / _DB_PER_LOG_POWER
_NEWTON_STEPS = 100
_NEWTON_XTOL = 1e-10     # settled: a step under this fraction of the cap ...
_NEWTON_ULPS = 4         # ... or under a few units in the last place of x


@dataclass(frozen=True)
class TwoPortModel:
    """Coupled system probed through two external ports (external Qs)."""

    sys: CoupledSystem
    q_ext1: float
    q_ext2: float

    def __post_init__(self):
        for name in ("q_ext1", "q_ext2"):
            v = getattr(self, name)
            if not (v > 0 and np.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite, got {v}")

    def loaded_system(self) -> CoupledSystem:
        """The pair with the cavity's Q loaded by both ports: its
        eigenmodes are the poles of S21."""
        q_loaded = 1.0 / (1.0 / self.sys.q_cav + (1.0 / self.q_ext1 + 1.0 / self.q_ext2))
        return replace(self.sys, q_cav=q_loaded)


@dataclass(eq=False)
class Spectrum:
    """Complex S21 samples on a strictly increasing frequency grid.

    meta snapshots where the samples came from (model parameters for
    synthesized data, file provenance for imported data) so downstream
    analysis can estimate linewidths without re-deriving the model.
    """

    f_hz: np.ndarray
    s21: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.f_hz = np.asarray(self.f_hz, dtype=float)
        self.s21 = np.asarray(self.s21, dtype=complex)
        if self.f_hz.ndim != 1 or self.f_hz.size < 2:
            raise ValueError("need a 1-d grid of at least 2 frequencies")
        if self.s21.shape != self.f_hz.shape:
            raise ValueError("s21 and f_hz must have the same shape")
        if not np.all(np.diff(self.f_hz) > 0):
            raise ValueError("frequency grid must be strictly increasing")


def synthesize_s21(model: TwoPortModel, f_hz=None) -> Spectrum:
    """Evaluate the transmission model on a grid (default grid if omitted)."""
    if f_hz is None:
        f_hz = default_frequency_grid(model)
    f = np.asarray(f_hz, dtype=float)
    # With (a, b, d) the conjugated entries of M_L, the module formula is
    # S21 = scale*w / (d - w^2 - b^2/(a - w^2)).  Evaluated in place, one
    # ufunc per operation, without the expression's band-sized temporaries.
    a, b, d = (z.conjugate() for z in model.loaded_system().matrix())
    wc = 2.0 * np.pi * model.sys.f_cav_hz
    scale = -2j * np.sqrt(wc / (2.0 * model.q_ext1) * (wc / (2.0 * model.q_ext2)))
    w = np.multiply(2.0 * np.pi, f)
    s21 = np.multiply(w, w, out=np.empty(f.shape, dtype=complex))
    dead = None
    if b != 0:
        inner = np.subtract(a, s21, out=np.empty(f.shape, dtype=complex))
        dead = inner == 0  # lossless puck hit exactly on grid -> perfect zero
        inner[dead] = 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            np.true_divide(b * b, inner, out=inner)
    np.subtract(d, s21, out=s21)
    if dead is not None:
        s21 -= inner
    np.true_divide(w, s21, out=s21)
    s21 *= scale
    if dead is not None:
        s21[dead] = 0.0
    meta = {
        "source": "synthesized",
        "f_sto_hz": model.sys.f_sto_hz,
        "q_sto": model.sys.q_sto,
        "f_cav_hz": model.sys.f_cav_hz,
        "q_cav": model.sys.q_cav,
        "kappa": model.sys.kappa,
        "q_ext1": model.q_ext1,
        "q_ext2": model.q_ext2,
    }
    return Spectrum(f, s21, meta)


def default_frequency_grid(model: TwoPortModel, n: int | None = None) -> np.ndarray:
    """Grid centered between the hybridized modes, spanning 5 splittings
    either side.

    If n is not given, it starts at 20001 points and grows (up to 1e6+1) so
    that the narrowest expected loaded linewidth keeps at least 8 points.
    Far-detuned very-high-Q features can defeat the cap; phase analysis
    will then refuse with GridTooCoarseError and a narrower explicit grid
    around the feature is the way to go.
    """
    (f1, lw1), (f2, lw2) = _loaded_modes(model.sys, model.q_ext1, model.q_ext2)
    center = 0.5 * (f1 + f2)
    delta = max(f2 - f1, 20.0 * max(lw1, lw2))
    span = 10.0 * delta
    if n is None:
        need = int(np.ceil(span / (min(lw1, lw2) / _MIN_POINTS_PER_LINEWIDTH))) + 1
        n = min(max(_DEFAULT_GRID_POINTS, need), _MAX_GRID_POINTS)
    lo = center - 5.0 * delta
    if lo <= 0:
        raise ValueError("default grid would extend below 0 Hz; pass an explicit grid")
    return np.linspace(lo, center + 5.0 * delta, n)


def phase_curve(spec: Spectrum) -> np.ndarray:
    """Unwrapped transmission phase (rad), aligned with spec.f_hz.

    Exact transmission zeros have no phase; those samples take the phase of
    the straight line between their complex neighbors, which keeps the
    unwrap continuous across a lossless notch.
    """
    s = spec.s21
    dead = s == 0
    if np.any(dead):
        s = s.copy()
        idx = np.flatnonzero(dead)
        for i in idx:
            left = s[i - 1] if i > 0 else s[i + 1]
            right = s[i + 1] if i < s.size - 1 else s[i - 1]
            s[i] = 0.5 * (left + right)
        if np.any(s == 0):  # neighbors cancelled exactly; nudge off zero
            s[s == 0] = np.finfo(float).tiny
    return np.unwrap(np.angle(s))


def phase_derivative(spec: Spectrum) -> np.ndarray:
    """d(phase)/df in rad/Hz: central differences inside, one-sided at the ends.

    Refuses (GridTooCoarseError) when the model snapshot in spec.meta
    predicts a feature inside the grid whose linewidth spans fewer than 8
    grid points — a derivative through an unresolved resonance is garbage.
    """
    _check_grid_resolution(spec)
    return np.gradient(phase_curve(spec), spec.f_hz)


def _loaded_modes(sys: CoupledSystem, q_ext1: float, q_ext2: float):
    """(frequency, loaded linewidth) of each coupled mode, f_i (1/Q_i + 1/Q_ext1 + 1/Q_ext2)."""
    pair = coupled_eigenmodes(sys)
    ext = 1.0 / q_ext1 + 1.0 / q_ext2
    return [(f, f * (1.0 / q + ext)) for f, q in ((pair.f1_hz, pair.q1), (pair.f2_hz, pair.q2))]


def _model_features(meta: dict):
    """(frequency, loaded linewidth) pairs predicted by a meta snapshot."""
    keys = ("f_sto_hz", "q_sto", "f_cav_hz", "q_cav", "kappa", "q_ext1", "q_ext2")
    if not all(k in meta for k in keys):
        return []
    sys = CoupledSystem(
        meta["f_sto_hz"], meta["q_sto"], meta["f_cav_hz"], meta["q_cav"], meta["kappa"]
    )
    feats = _loaded_modes(sys, meta["q_ext1"], meta["q_ext2"])
    if np.isfinite(sys.q_sto):
        feats.append((sys.f_sto_hz, sys.f_sto_hz / sys.q_sto))  # notch width
    return feats


def _check_grid_resolution(spec: Spectrum):
    feats = _model_features(spec.meta)
    if not feats:
        return  # imported data without a model snapshot: caller's judgement
    step = np.max(np.diff(spec.f_hz))
    lo, hi = spec.f_hz[0], spec.f_hz[-1]
    for f, lw in feats:
        if lo - 2 * lw <= f <= hi + 2 * lw and lw < _MIN_POINTS_PER_LINEWIDTH * step:
            raise GridTooCoarseError(
                f"feature at {f:.6g} Hz has linewidth {lw:.3g} Hz but the grid "
                f"step is {step:.3g} Hz (< {_MIN_POINTS_PER_LINEWIDTH} points per linewidth)"
            )


@dataclass(frozen=True)
class PeakNotchSummary:
    """Two refined peak frequencies, the notch between them, notch depth.

    depth_db = 20*log10(|S21|_notch / |S21|_stronger_peak), i.e. negative.
    """

    f_peak1_hz: float
    f_peak2_hz: float
    f_notch_hz: float
    depth_db: float


def _parabolic_vertex(x, y):
    """Vertex of the parabola through three points; falls back to the middle
    point when the three are collinear.

    Solved in coordinates centered on the middle point: the raw-coordinate
    normal equations cancel ~10 significant digits when x is ~1e9 Hz and
    the y variation is ~1e-4, which is exactly the regime of a refined
    resonance peak.
    """
    t0, t2 = x[0] - x[1], x[2] - x[1]
    y0, y1, y2 = y
    d0, d2 = y0 - y1, y2 - y1
    denom = t0 * t2 * (t0 - t2)
    a = (t2 * d0 - t0 * d2) / denom
    if a == 0:
        return x[1], y1
    b = (t0 * t0 * d2 - t2 * t2 * d0) / denom
    tv = -b / (2 * a)
    yv = y1 + tv * (b + a * tv)
    return x[1] + tv, yv


def _mag_db(s21: np.ndarray) -> np.ndarray:
    mag = np.abs(s21)
    floor = np.min(mag[mag > 0]) * 1e-16 if np.any(mag > 0) else 1e-300
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(np.maximum(mag, floor))


def _refine(f, y, i, lo=None, hi=None):
    lo = 0 if lo is None else lo
    hi = y.size - 1 if hi is None else hi
    if lo < i < hi:
        return _parabolic_vertex(f[i - 1 : i + 2], y[i - 1 : i + 2])
    return f[i], y[i]


def _local_maxima(y: np.ndarray) -> np.ndarray:
    """Indices of the local maxima of y, in increasing order.

    A sample is a maximum when y rises strictly into it and falls strictly
    out of it, so a shoulder such as [1, 3, 3, 5] holds none.  A flat top
    counts once, at its middle sample (the left one of the two middle
    samples when it is even), and the first and last samples are never
    maxima.  tests/test_network.py checks these rules against the common
    signal-processing peak finder on randomized traces.
    """
    y = np.asarray(y)
    inner = y[1:-1]
    is_max = (inner > y[:-2]) & (inner > y[2:])  # is_max[i] is sample i + 1
    # flat runs: maximal stretches of equal neighbours, found from the ties
    # alone, so a trace without ties (every dense spectrum) pays one compare
    ties = np.flatnonzero(y[1:] == y[:-1])  # y[t] == y[t + 1]
    first = ties[np.diff(ties, prepend=-2) != 1]
    last = ties[np.diff(ties, append=-2) != 1] + 1
    inside = (first > 0) & (last < y.size - 1)
    first, last = first[inside], last[inside]
    top = (y[first - 1] < y[first]) & (y[last + 1] < y[last])
    is_max[(first[top] + last[top]) // 2 - 1] = True
    return np.flatnonzero(is_max) + 1


def _lowest_reach(heights, seg_mins):
    """For each peak in order, the lowest sample from it back to the nearest
    strictly higher peak (or the trace end): a monotonic stack over the
    peak heights, where seg_mins[k] is the lowest sample between peak k and
    the one before it."""
    reach = []
    stack_h, stack_low = [], []  # peaks not yet topped, heights descending
    for h, low in zip(heights, seg_mins):
        while stack_h and stack_h[-1] <= h:
            stack_h.pop()
            top_low = stack_low.pop()
            if top_low < low:
                low = top_low
        stack_h.append(h)
        stack_low.append(low)
        reach.append(low)
    return np.asarray(reach)


def _prominences(y: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """Topographic prominence of each of the local maxima y[peaks].

    The height of the peak over the higher of its two bases, where a base
    is the lowest sample between the peak and the nearest strictly higher
    sample on that side (or the trace end).  The nearest higher sample is
    always reached through a higher local maximum, or through a rise to
    the trace end that holds nothing lower, so only the minima between
    consecutive maxima are needed: O(n) for the minima, O(k) for the stacks,
    where a scan per peak would cost O(n k) on a noisy trace.
    """
    if peaks.size == 0:
        return np.empty(0)
    # mins[0] lies before the first peak, mins[k] between peaks k-1 and k,
    # mins[-1] after the last peak
    mins = np.minimum.reduceat(y, np.concatenate(([0], peaks)))
    heights = y[peaks].tolist()
    left = _lowest_reach(heights, mins[:-1].tolist())
    right = _lowest_reach(heights[::-1], mins[:0:-1].tolist())[::-1]
    return y[peaks] - np.maximum(left, right)


def find_peaks_and_notch(spec: Spectrum) -> PeakNotchSummary:
    """Locate the two hybridized peaks and the transmission notch between them.

    Requires exactly two local maxima of |S21| (_local_maxima) with at least
    3 dB of prominence (_prominences), each also standing 3 dB proud of the
    valley between the two; anything else raises
    PeaksNotResolvedError carrying the strongest single peak found.  All
    three features are refined with a three-point parabola in
    log-magnitude.
    """
    db = _mag_db(spec.s21)
    f = spec.f_hz
    peaks = _local_maxima(db)
    peaks = peaks[_prominences(db, peaks) >= 3.0]
    if peaks.size != 2:
        if peaks.size == 0:
            best = int(np.argmax(db))
        else:
            best = int(peaks[np.argmax(db[peaks])])
        f_best, _ = _refine(f, db, best)
        raise PeaksNotResolvedError(
            f"expected two resolved peaks, found {peaks.size}", single_peak_hz=f_best
        )
    i1, i2 = int(peaks[0]), int(peaks[1])
    between = slice(i1, i2 + 1)
    valley_db = float(np.min(db[between]))
    if db[i1] < valley_db + 3.0 or db[i2] < valley_db + 3.0:
        best = i1 if db[i1] >= db[i2] else i2
        f_best, _ = _refine(f, db, best)
        raise PeaksNotResolvedError(
            "peaks are less than 3 dB above the inter-peak minimum",
            single_peak_hz=f_best,
        )
    fp1, dbp1 = _refine(f, db, i1)
    fp2, dbp2 = _refine(f, db, i2)
    inotch = i1 + int(np.argmin(db[between]))
    fn, dbn = _refine(f, db, inotch, lo=i1, hi=i2)
    return PeakNotchSummary(
        f_peak1_hz=float(fp1),
        f_peak2_hz=float(fp2),
        f_notch_hz=float(fn),
        depth_db=float(dbn - max(dbp1, dbp2)),
    )


def model_features(model: TwoPortModel) -> PeakNotchSummary:
    """The two peaks and the notch of |S21| at the model's exact stationary
    points, with no grid.

    In x = w^2,

        log|S21|^2 = log x + log|a - x|^2 - log|lam1 - x|^2 - log|lam2 - x|^2 + const

    with the zero a = ws~^2 and the poles lam1, lam2, the eigenvalues of
    the loaded matrix.  Each term's first two x-derivatives are closed
    forms (_log_power).  Damped Newton finds a maximum from the real part
    of each pole (_peak) and the notch, the minimum between the two
    maxima, from that of the zero (_notch).  Two starts that land on one
    maximum find no notch under it, so the count below makes it one peak.

    The refusals are find_peaks_and_notch's: the stronger maximum is a
    peak, the weaker one only when it stands 3 dB over the notch, and
    fewer than two peaks raise PeaksNotResolvedError("expected two
    resolved peaks, found N") carrying the stronger maximum.  At
    kappa = 0 the response is the loaded cavity line alone, one peak.
    With Q_sto = inf the zero is exact: the notch sits at f_sto and
    depth_db is -inf.
    """
    loaded = model.loaded_system()
    a, b, d = loaded.matrix()
    if b == 0:
        x = _peak(d.real, d.imag, ((d, -1.0),))
        raise PeaksNotResolvedError(
            f"expected two resolved peaks, found {int(x is not None)}",
            single_peak_hz=None if x is None else _x_to_hz(x),
        )
    lam1, lam2 = loaded.eigenvalues()
    terms = ((a, 1.0), (lam1, -1.0), (lam2, -1.0))
    maxima = []  # (x, log power)
    for lam in (lam1, lam2):
        x = _peak(lam.real, lam.imag, terms)
        if x is not None:
            maxima.append((x, _log_power(x, terms)[0]))
    maxima.sort()
    if len(maxima) == 2:
        (x1, g1), (x2, g2) = maxima
        if a.imag == 0:  # lossless puck: an exact zero
            x_notch, g_notch = a.real, -math.inf
        else:
            x_notch = _notch(a.real, a.imag, x1, x2, terms)
            g_notch = _log_power(x_notch, terms)[0]
        if min(g1, g2) - g_notch >= _THREE_DB_LOG_POWER:
            return PeakNotchSummary(
                f_peak1_hz=_x_to_hz(x1),
                f_peak2_hz=_x_to_hz(x2),
                f_notch_hz=_x_to_hz(x_notch),
                depth_db=_DB_PER_LOG_POWER * (g_notch - max(g1, g2)),
            )
    best = max(maxima, key=lambda p: p[1], default=None)
    raise PeaksNotResolvedError(
        f"expected two resolved peaks, found {min(len(maxima), 1)}",
        single_peak_hz=None if best is None else _x_to_hz(best[0]),
    )


def phase_slope(model: TwoPortModel, f_hz: float) -> float:
    """d(phase)/df of S21 at f_hz in rad/Hz, exact: Im(S21'/S21) from the
    zero a and the poles lam_i.  With w = 2 pi f and x = w^2,

        dphi/df = 4 pi w (sum_i Im lam_i/|lam_i - x|^2 - Im a/|a - x|^2)

    A lossless puck's real zero steps the phase by pi at f_sto: no slope.
    """
    loaded = model.loaded_system()
    w = 2.0 * math.pi * f_hz
    turn = 0.0
    for c, sign in zip((loaded.matrix()[0], *loaded.eigenvalues()), (-1.0, 1.0, 1.0)):
        if c.imag:
            turn += sign * c.imag / ((w * w - c.real) ** 2 + c.imag ** 2)
    return 4.0 * math.pi * w * turn


def _x_to_hz(x: float) -> float:
    return math.sqrt(x) / (2.0 * math.pi)


def _settled(step: float, cap: float, x: float) -> bool:
    return abs(step) <= max(_NEWTON_XTOL * cap, _NEWTON_ULPS * math.ulp(x))


def _log_power(x: float, terms) -> tuple[float, float, float]:
    """log|S21|^2 up to a constant, and its first and second x-derivatives.

    terms holds (c, +1) for a zero and (c, -1) for a pole, each
    contributing +-log|c - x|^2 = +-log((x - Re c)^2 + (Im c)^2).
    """
    g, g1, g2 = math.log(x), 1.0 / x, -1.0 / (x * x)
    for c, sign in terms:
        u, v = x - c.real, c.imag
        r = u * u + v * v
        g += sign * math.log(r)
        g1 += sign * 2.0 * u / r
        g2 += sign * 2.0 * (v - u) * (v + u) / (r * r)
    return g, g1, g2


def _peak(x: float, cap: float, terms) -> float | None:
    """Damped Newton from x to a maximum of log|S21|^2, each step capped at
    `cap`.  None when an iterate's curvature is not negative (no maximum
    this start can reach), or the steps do not settle."""
    cap = abs(cap)
    for _ in range(_NEWTON_STEPS):
        _, g1, g2 = _log_power(x, terms)
        if g2 >= 0:
            return None
        step = min(max(-g1 / g2, -cap), cap)
        x += step
        if _settled(step, cap, x):
            return x
    return None


def _notch(x: float, cap: float, lo: float, hi: float, terms) -> float:
    """The minimum of log|S21|^2 between the maxima at lo < hi: damped Newton
    from x, each step capped at `cap` and kept inside the bracket where the
    slope turns from falling to rising, bisecting when it would leave it."""
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    for _ in range(_NEWTON_STEPS):
        _, g1, g2 = _log_power(x, terms)
        if g1 < 0:
            lo = x
        else:
            hi = x
        if g2 > 0:
            step = min(max(-g1 / g2, -cap), cap)
            if _settled(step, cap, x):
                return x + step
            x += step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
    return x


# ---------------------------------------------------------------------------
# CSV round trip.  Native format is f_hz,s21_re,s21_im at 17 significant
# digits (exact float64 round trip); import also accepts a dB/phase export.

_NATIVE_HEADER = ("f_hz", "s21_re", "s21_im")
_DB_PHASE_HEADER = ("f_hz", "s21_db", "s21_phase_rad")
_ROWS_PER_WRITE = 8192  # a block of rows per write keeps the text small next to the arrays


def write_spectrum_csv(spec: Spectrum, path):
    with open(path, "w", newline="") as fh:
        fh.write(meta_block(spec.meta))
        fh.write(",".join(_NATIVE_HEADER) + "\n")
        for lo in range(0, spec.f_hz.size, _ROWS_PER_WRITE):
            block = slice(lo, lo + _ROWS_PER_WRITE)
            s21 = spec.s21[block]
            rows = zip(spec.f_hz[block].tolist(), s21.real.tolist(), s21.imag.tolist())
            fh.write("".join(f"{f:.17g},{re:.17g},{im:.17g}\n" for f, re, im in rows))


def read_spectrum_csv(path) -> Spectrum:
    header, rows, meta = read_table(path, (_NATIVE_HEADER, _DB_PHASE_HEADER))
    if header == _NATIVE_HEADER:
        s21 = np.empty(len(rows), dtype=complex)  # re + 1j*im would lose signed zeros
        s21.real, s21.imag = rows[:, 1], rows[:, 2]
    else:
        s21 = 10.0 ** (rows[:, 1] / 20.0) * np.exp(1j * rows[:, 2])
    meta.setdefault("source", str(path))
    return Spectrum(rows[:, 0], s21, meta)
