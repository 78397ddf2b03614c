"""Motion quality metrics: jerk, path length, duration, comfort banding.

Jerk uses a third-order forward difference, exact on cubics; task-level
statistics aggregate trial means with the sample (n-1) standard deviation.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass

import numpy as np

from .errors import AmbiguousStream, EmptyInput, MissingChannel, TooFewSamples
from .filters import ChannelClass, classify_stream
from .session import task_label

# Published wheelchair ride comfort band for mean jerk, m/s^3.
COMFORT_BAND_LOW = 0.3
COMFORT_BAND_HIGH = 0.9
# Whole-body vibration comfort threshold; an *acceleration* (m/s^2), kept as
# context only and never compared against jerk values.
ISO_WHOLE_BODY_COMFORT_ACCEL = 0.315

# The TrialMetrics fields the report aggregates per task, in CSV column order.
REPORTED_METRICS = ("duration", "ee_path_length", "ee_mean_jerk", "wheelchair_mean_jerk")


def jerk_series(positions: np.ndarray, dt: float) -> np.ndarray:
    """Jerk magnitudes from positions on a uniform grid.

    Third derivative per axis via the forward stencil
    (x[k+3] - 3 x[k+2] + 3 x[k+1] - x[k]) / dt^3, then the Euclidean norm
    across axes. Returns K-3 values for K samples.
    """
    p = np.asarray(positions, dtype=np.float64)
    if p.ndim == 1:
        p = p[:, None]
    if len(p) < 4:
        raise TooFewSamples(f"need >= 4 samples, got {len(p)}")
    if dt <= 0:
        raise ValueError("dt must be > 0")
    d3 = (p[3:] - 3.0 * p[2:-1] + 3.0 * p[1:-2] - p[:-3]) / dt**3
    return np.linalg.norm(d3, axis=1)


def trial_mean_jerk(jerk: np.ndarray) -> float:
    if len(jerk) == 0:
        raise EmptyInput("jerk array is empty")
    return float(np.mean(jerk))


def path_length(positions: np.ndarray) -> float:
    """Sum of Euclidean distances between consecutive samples."""
    p = np.asarray(positions, dtype=np.float64)
    if p.ndim == 1:
        p = p[:, None]
    if len(p) < 2:
        raise TooFewSamples(f"need >= 2 samples, got {len(p)}")
    return float(np.sum(np.linalg.norm(np.diff(p, axis=0), axis=1)))


@dataclass(frozen=True)
class TaskAggregate:
    task: str
    n_trial: int
    mean: float
    sd: float | None  # absent for a single trial


def task_aggregate(values: list[float], task: str = "") -> TaskAggregate:
    """Mean and sample SD (n-1 denominator) over per-trial metric values."""
    if len(values) == 0:
        raise EmptyInput("no trial values")
    mean = float(np.mean(values))
    sd = float(np.std(values, ddof=1)) if len(values) > 1 else None
    return TaskAggregate(task=task, n_trial=len(values), mean=mean, sd=sd)


@dataclass(frozen=True)
class ComfortAssessment:
    wheelchair_band: str  # below | within | above
    iso_reference: float = ISO_WHOLE_BODY_COMFORT_ACCEL


def comfort_check(wheelchair_mean_jerk: float) -> ComfortAssessment:
    """Band a wheelchair mean jerk against the 0.3-0.9 m/s^3 comfort range
    (boundaries inclusive)."""
    if wheelchair_mean_jerk < 0:
        raise ValueError("jerk must be >= 0")
    if wheelchair_mean_jerk < COMFORT_BAND_LOW:
        band = "below"
    elif wheelchair_mean_jerk <= COMFORT_BAND_HIGH:
        band = "within"
    else:
        band = "above"
    return ComfortAssessment(wheelchair_band=band)


@dataclass(frozen=True)
class TrialMetrics:
    trial_id: str
    task: str
    duration: float
    ee_path_length: float
    ee_mean_jerk: float
    wheelchair_mean_jerk: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def _positions(synced, role: str, is_role, axes: tuple[str, ...]) -> np.ndarray:
    """The ``axes`` columns of the one stream whose name ``is_role`` accepts."""
    names = [name for name in synced.numeric if is_role(name)]
    if not names:
        raise MissingChannel(f"no {role} stream")
    if len(names) > 1:
        raise AmbiguousStream(f"streams {names} are all {role} streams")
    series = synced.numeric[names[0]]
    cols = []
    for axis in axes:
        idx = series.channel_index(axis)
        if idx is None:
            raise MissingChannel(f"stream '{names[0]}' lacks channel '{axis}'")
        cols.append(series.values[:, idx])
    return np.column_stack(cols)


def compute_trial_metrics(synced) -> TrialMetrics:
    """All trial metrics from a denoised synced session.

    EE jerk and path length use the translational (x, y, z) channels;
    wheelchair jerk uses the planar (x, y) position.
    """
    grid = synced.grid
    dt = 1.0 / grid.rate
    ee = _positions(
        synced, "end-effector", lambda n: classify_stream(n) is ChannelClass.EE_POSE, ("x", "y", "z")
    )
    # Not the "wheel" class, which also holds wheel-speed streams without x/y.
    wheelchair = _positions(
        synced, "wheelchair", lambda n: re.search("wheelchair", n.lower()), ("x", "y")
    )
    duration = float(grid.timestamps[-1] - grid.timestamps[0])
    return TrialMetrics(
        trial_id=synced.manifest.session_id,
        task=task_label(synced.manifest.task),
        duration=duration,
        ee_path_length=path_length(ee),
        ee_mean_jerk=trial_mean_jerk(jerk_series(ee, dt)),
        wheelchair_mean_jerk=trial_mean_jerk(jerk_series(wheelchair, dt)),
    )


def aggregate_by_task(trials: list[TrialMetrics]) -> dict:
    """Per-task aggregates for duration, path length, and both jerks."""
    by_task: dict[str, list[TrialMetrics]] = {}
    for tm in trials:
        by_task.setdefault(tm.task, []).append(tm)
    out = {}
    for task, tms in sorted(by_task.items()):
        out[task] = {
            "n": len(tms),
            **{m: task_aggregate([getattr(t, m) for t in tms], task) for m in REPORTED_METRICS},
        }
    return out
