"""Butterworth low-pass design and zero-phase forward-backward filtering.

Coefficients come from the analog prototype poles via a prewarped bilinear
transform, computed here directly rather than taken from a library, so the
design is reproducible from first principles. Each design is made once per
``(order, cutoff, sample_rate)`` and shared, read-only, by every stream that
asks for it. The zero-phase pass is scipy's "pad" method written out along
axis 0 (time): odd-reflection padding of length 3*(order+1) at both ends, and
the spec's cached steady state to seed each direction. Its output is
bit-identical to ``scipy.signal.filtfilt``.
"""

from __future__ import annotations

import functools
import re
import warnings
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
import scipy.signal

from .errors import InvalidCutoff, SignalTooShort, UnclassifiedChannel

NYQUIST_CLAMP = 0.45  # cutoff clamped to this fraction of fs when infeasible
DESIGN_CACHE_SIZE = 64  # distinct (order, cutoff, rate) designs kept


def _read_only(x) -> np.ndarray:
    """A read-only float64 copy of ``x``."""
    arr = np.array(x, dtype=np.float64)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class FilterSpec:
    order: int
    cutoff: float
    sample_rate: float
    b: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        # Specs are shared, so their arrays are private copies nobody can write.
        object.__setattr__(self, "b", _read_only(self.b))
        object.__setattr__(self, "a", _read_only(self.a))

    @property
    def padlen(self) -> int:
        return 3 * (self.order + 1)

    @functools.cached_property
    def zi(self) -> np.ndarray:
        """Steady state of the step response, as ``scipy.signal.lfilter_zi``."""
        return _read_only(scipy.signal.lfilter_zi(self.b, self.a))

    def is_stable(self) -> bool:
        return bool(np.all(np.abs(np.roots(self.a)) < 1.0))

    def dc_gain(self) -> float:
        return float(np.sum(self.b) / np.sum(self.a))

    def magnitude(self, freq_hz: float) -> float:
        """Single-pass gain |H(e^{j 2 pi f / fs})|."""
        _, h = scipy.signal.freqz(self.b, self.a, worN=[freq_hz], fs=self.sample_rate)
        return float(np.abs(h[0]))


@functools.lru_cache(maxsize=DESIGN_CACHE_SIZE)
def design_butterworth_lowpass(order: int, cutoff: float, sample_rate: float) -> FilterSpec:
    """Digital Butterworth low-pass via prewarped bilinear transform.

    Analog prototype poles sit on the unit circle in the left half s-plane;
    prewarping places the -3 dB point exactly at ``cutoff``. Equal arguments
    return the same (read-only) spec.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if not 0.0 < cutoff < sample_rate / 2.0:
        raise InvalidCutoff(
            f"cutoff {cutoff} Hz must lie in (0, {sample_rate / 2.0}) Hz"
        )
    # Prototype poles: exp(j*pi*(2k + N - 1) / (2N)), k = 1..N.
    k = np.arange(1, order + 1)
    poles = np.exp(1j * np.pi * (2 * k + order - 1) / (2 * order))
    # Prewarp the cutoff so the bilinear map lands it exactly.
    fs2 = 2.0 * sample_rate
    warped = fs2 * np.tan(np.pi * cutoff / sample_rate)
    poles = warped * poles
    gain = warped**order
    # Bilinear transform s -> z; the N zeros at infinity map to z = -1.
    pz = (fs2 + poles) / (fs2 - poles)
    gain = gain * np.real(1.0 / np.prod(fs2 - poles))
    b = np.real(gain * np.poly(-np.ones(order)))
    a = np.real(np.poly(pz))
    return FilterSpec(order=order, cutoff=cutoff, sample_rate=sample_rate, b=b, a=a)


def filtfilt(spec: FilterSpec, signal: np.ndarray) -> np.ndarray:
    """Zero-phase filtering along axis 0: forward pass, backward pass.

    The pass is scipy's "pad" method with the first-principles ``spec``
    coefficients and its cached steady state ``spec.zi``, so every column of
    a 2-D ``signal`` is filtered at once. Transients are suppressed by
    odd-reflection padding of ``spec.padlen`` samples and by seeding each
    direction's state at its first value; edge transients decay with the
    slowest pole, so the result is only approximately time-reversal
    symmetric. The output is bit-identical to
    ``scipy.signal.filtfilt(spec.b, spec.a, signal, axis=0)``.
    """
    x = np.asarray(signal, dtype=np.float64)
    n = spec.padlen
    if len(x) <= n:
        raise SignalTooShort(f"need > {n} samples, got {len(x)}")
    ext = np.concatenate((2 * x[:1] - x[n:0:-1], x, 2 * x[-1:] - x[-2 : -(n + 2) : -1]))
    zi = spec.zi.reshape((-1,) + (1,) * (x.ndim - 1))
    y, _ = scipy.signal.lfilter(spec.b, spec.a, ext, axis=0, zi=zi * ext[:1])
    y, _ = scipy.signal.lfilter(spec.b, spec.a, y[::-1], axis=0, zi=zi * y[-1:])
    return y[::-1][n:-n]


class ChannelClass(str, Enum):
    EE_POSE = "ee_pose"
    ARM_JOINTS = "arm_joints"
    WHEELCHAIR_WHEELS = "wheelchair_wheels"
    IMU = "imu"


# Default cutoffs: 5 Hz for kinematic channels, 10 Hz for IMU.
DEFAULT_POLICY_CUTOFFS: dict[ChannelClass, tuple[int, float]] = {
    ChannelClass.EE_POSE: (4, 5.0),
    ChannelClass.ARM_JOINTS: (4, 5.0),
    ChannelClass.WHEELCHAIR_WHEELS: (4, 5.0),
    ChannelClass.IMU: (4, 10.0),
}

_CLASS_PATTERNS: list[tuple[str, ChannelClass]] = [
    (r"imu", ChannelClass.IMU),
    (r"(^|_)ee($|_)|end[_-]?effector", ChannelClass.EE_POSE),
    (r"arm|joint", ChannelClass.ARM_JOINTS),
    (r"wheel", ChannelClass.WHEELCHAIR_WHEELS),
]


def classify_stream(name: str) -> ChannelClass | None:
    lowered = name.lower()
    for pattern, cls in _CLASS_PATTERNS:
        if re.search(pattern, lowered):
            return cls
    return None


@dataclass(frozen=True)
class DenoisePolicy:
    """Map from channel class to (order, cutoff Hz)."""

    cutoffs: dict[ChannelClass, tuple[int, float]]

    @classmethod
    def default(cls) -> "DenoisePolicy":
        return cls(cutoffs=dict(DEFAULT_POLICY_CUTOFFS))

    @classmethod
    def from_json_dict(cls, d: dict) -> "DenoisePolicy":
        cutoffs = {}
        for name, v in d.items():
            order = v["order"]
            if type(order) is not int or order < 1:  # bool is an int subclass
                raise ValueError(f"{name}: order must be an integer >= 1, not {order!r}")
            cutoffs[ChannelClass(name)] = (order, float(v["cutoff"]))
        return cls(cutoffs=cutoffs)

    def spec_for(self, cls_: ChannelClass, sample_rate: float) -> FilterSpec:
        order, cutoff = self.cutoffs[cls_]
        if cutoff >= sample_rate / 2.0:
            clamped = NYQUIST_CLAMP * sample_rate
            warnings.warn(
                f"{cls_.value}: cutoff {cutoff} Hz >= Nyquist at fs={sample_rate} Hz; "
                f"clamped to {clamped:.3g} Hz"
            )
            cutoff = clamped
        return design_butterworth_lowpass(order, cutoff, sample_rate)


def filter_series(series, spec: FilterSpec):
    """Apply zero-phase filtering to every channel of a TimedSeries.

    Non-finite samples are interpolated over for the pass, so one NaN does not
    smear over its channel, and kept in the result.
    """
    t, values = series.timestamps, series.values
    bad = ~np.isfinite(values)
    if bad.any():
        values = values.copy()
        for c, gap in enumerate(bad.T):
            if not gap.all():
                values[gap, c] = np.interp(t[gap], t[~gap], values[~gap, c])
    out = filtfilt(spec, values)
    out[bad] = series.values[bad]
    return replace(series, timestamps=series.timestamps.copy(), values=out)


def _filtered(numeric, policy: DenoisePolicy, strict: bool, rate_of) -> dict:
    """The streams of ``numeric`` filtered by their class's spec at
    ``rate_of(series, cutoff)``, each classified once; a stream whose rate is
    None, or of no policy class unless ``strict`` raises for it, is left out."""
    filtered = {}
    for name, series in numeric.items():
        cls_ = classify_stream(name)
        if cls_ not in policy.cutoffs:
            if strict:
                raise UnclassifiedChannel(f"stream '{name}' matches no policy class")
            continue
        rate = rate_of(series, policy.cutoffs[cls_][1])
        if rate is not None:
            filtered[name] = filter_series(series, policy.spec_for(cls_, rate))
    return filtered


def denoise_session(synced, policy: DenoisePolicy | None = None, strict: bool = True):
    """Filter every numeric channel of a synced session by its class's spec at
    the grid rate. Frame selections and the grid are untouched. A stream of no
    policy class raises in strict mode, and otherwise passes through with one
    warning, after any clamp warnings."""
    if policy is None:
        policy = DenoisePolicy.default()
    filtered = _filtered(synced.numeric, policy, strict, lambda series, cutoff: synced.grid.rate)
    for name in synced.numeric:
        if name not in filtered:
            warnings.warn(f"stream '{name}' unclassified; passing through unfiltered")
    return replace(synced, numeric={**synced.numeric, **filtered})


def _native_rate(series, cutoff: float) -> float | None:
    """A stream's rate, ``1 / median(dt)``, or None when it cannot support ``cutoff``."""
    rate = 1.0 / float(np.median(np.diff(series.timestamps)))
    return rate if rate > 2.0 * cutoff else None


def denoise_raw(session, policy: DenoisePolicy | None = None, strict: bool = True):
    """Filter classified numeric streams at their native rate, pre-sync.

    Denoising after downsampling to the grid cannot remove noise that aliases
    into the grid band, so the batch pipeline filters raw streams first.
    Streams whose native rate cannot support their cutoff are left for the
    grid-rate stage, as are, with no warning here, streams of no policy class
    unless ``strict`` raises. Returns a new RawSession and the set of stream
    names filtered.
    """
    if policy is None:
        policy = DenoisePolicy.default()
    filtered = _filtered(session.numeric, policy, strict, _native_rate)
    return replace(session, numeric={**session.numeric, **filtered}), set(filtered)
