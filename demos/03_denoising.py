# Zero-phase Butterworth denoising, from coefficients to noise suppression.

import numpy as np

from sessionforge import Scenario, gen_session
from sessionforge.filters import (
    DenoisePolicy,
    classify_stream,
    denoise_raw,
    design_butterworth_lowpass,
    filtfilt,
)

# The design is scipy.signal.butter's: analog prototype poles on the left
# half unit circle, prewarped so the bilinear transform lands the -3 dB point
# exactly on the requested cutoff.
spec = design_butterworth_lowpass(order=4, cutoff=5.0, sample_rate=100.0)
print("b =", np.round(spec.b, 6))
print("a =", np.round(spec.a, 6))
print(f"DC gain            = {spec.dc_gain():.12f}")
print(f"gain at cutoff     = {20 * np.log10(spec.magnitude(5.0)):.4f} dB (expect -3.01)")
print(f"gain at 20 Hz      = {20 * np.log10(spec.magnitude(20.0)):.1f} dB")

# Forward-backward application squares the magnitude response and cancels
# the phase, so filtered extrema stay where they happened.
t = np.arange(0, 4, 0.01)
x = np.sin(2 * np.pi * 1.0 * t) + 0.3 * np.sin(2 * np.pi * 20.0 * t)
y = filtfilt(spec, x)
print("peak of slow component preserved at t =", t[np.argmax(y)])

# Streams are routed to cutoffs by name: kinematics at 5 Hz, IMU at 10 Hz.
for name in ("ee_pose", "arm_joints", "wheelchair_pose", "imu", "battery"):
    print(f"{name:>16} -> {classify_stream(name)}")

# End to end: a 1 cm RMS 30 Hz disturbance on the EE trajectory, removed at
# the stream's native 100 Hz rate *before* any resampling (filtering after
# decimation cannot undo aliasing).
noisy, truth = gen_session(Scenario(seed=11, duration=4.0, noise_sd=0.01))
clean, filtered = denoise_raw(noisy, DenoisePolicy.default(), strict=False)
print("filtered at native rate:", sorted(filtered))

ts = noisy.numeric["ee_pose"].timestamps
ideal = truth.ee.position(ts)
rms = lambda v: float(np.sqrt(np.mean(v**2)))
before = rms(noisy.numeric["ee_pose"].values - ideal)
after = rms(clean.numeric["ee_pose"].values - ideal)
print(f"EE position RMS error: {before * 1e3:.2f} mm -> {after * 1e3:.4f} mm "
      f"({before / after:.0f}x reduction)")
