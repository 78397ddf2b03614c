"""Temporal alignment of multi-rate streams.

The pipeline: compute the overlap window across all streams, lay a uniform
reference grid at the lowest video frame rate over it, pick the nearest frame
per camera per grid step under a tolerance (falling back to the last accepted
frame on a miss), and linearly resample numeric channels onto the grid,
bridging NaN runs of up to ``MAX_GAP`` seconds. The synced container is
``session.py``'s: ``session.save_synced`` writes it and ``session.load_synced``
reads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyFrameLog,
    GridOutsideSeries,
    MissingStream,
    NoOverlap,
    UnbridgeableGap,
)
from .session import (
    FrameSelection,
    FrameTimestampLog,
    RawSession,
    ReferenceGrid,
    StreamKind,
    SyncedSession,
    TimedSeries,
)

MAX_GAP = 0.5  # seconds of NaN bridged by interpolation before erroring


@dataclass(frozen=True)
class OverlapWindow:
    t_start: float
    t_end: float

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise NoOverlap(f"window [{self.t_start}, {self.t_end}] is empty")


def _span(stream: TimedSeries | FrameTimestampLog) -> tuple[float, float]:
    t = stream.timestamps if isinstance(stream, TimedSeries) else stream.frame_timestamps
    if len(t) == 0:
        raise EmptyFrameLog("stream has no samples")
    return float(t[0]), float(t[-1])


def compute_overlap(streams: list[TimedSeries | FrameTimestampLog]) -> OverlapWindow:
    """Latest start to earliest end across all streams."""
    if len(streams) < 2:
        raise ValueError("need at least two streams to overlap")
    spans = [_span(s) for s in streams]
    return OverlapWindow(t_start=max(s for s, _ in spans), t_end=min(e for _, e in spans))


def build_reference_grid(window: OverlapWindow, rate: float) -> ReferenceGrid:
    """Uniform grid t_k = t_start + (k-1)/rate for all t_k <= t_end."""
    if rate <= 0:
        raise ValueError("rate must be > 0")
    span = window.t_end - window.t_start
    k = int(np.floor(span * rate + 1e-9)) + 1
    while window.t_start + (k - 1) / rate > window.t_end + 1e-12:
        k -= 1
    ts = window.t_start + np.arange(k, dtype=np.float64) / rate
    return ReferenceGrid(timestamps=ts, rate=float(rate))


def _nearest_indices(frame_ts: np.ndarray, grid_ts: np.ndarray) -> np.ndarray:
    # Nearest neighbor on a sorted log; equidistant candidates take the
    # earlier frame.
    right = np.searchsorted(frame_ts, grid_ts)
    right = np.clip(right, 0, len(frame_ts) - 1)
    left = np.clip(right - 1, 0, len(frame_ts) - 1)
    d_left = np.abs(frame_ts[left] - grid_ts)
    d_right = np.abs(frame_ts[right] - grid_ts)
    return np.where(d_left <= d_right, left, right)


def match_frames(
    frames: FrameTimestampLog, grid: ReferenceGrid, tau: float
) -> FrameSelection:
    """Tolerance-gated nearest-frame selection per grid step.

    Where the nearest frame is farther than ``tau`` the previous selection is
    repeated; at the first grid step there is no previous selection, so the
    nearest frame is kept but flagged unaccepted.
    """
    if len(frames.frame_timestamps) == 0:
        raise EmptyFrameLog("frame log has no frames")
    if tau < 0:
        raise ValueError("tau must be >= 0")
    ft = frames.frame_timestamps
    nearest = _nearest_indices(ft, grid.timestamps)
    accepted = np.abs(ft[nearest] - grid.timestamps) <= tau
    # Carry the last accepted selection forward; a leading run of misses
    # falls back to the nearest frame at k=1.
    k = len(nearest)
    source = np.where(accepted, np.arange(k), -1)
    source = np.maximum.accumulate(source)
    source[source == -1] = 0
    selected = nearest[source]
    return FrameSelection(selected_indices=selected, accepted_flags=accepted)


def interpolate_numeric(series: TimedSeries, grid: ReferenceGrid) -> TimedSeries:
    """Linear interpolation of every channel onto the grid.

    NaN runs in a channel are bridged by interpolating across them, unless the
    surrounding valid samples are more than ``MAX_GAP`` seconds apart.
    """
    t = series.timestamps
    g = grid.timestamps
    if len(t) < 2:
        raise GridOutsideSeries("series needs at least two samples")
    if t[0] > g[0] + 1e-12 or t[-1] < g[-1] - 1e-12:
        raise GridOutsideSeries(
            f"series [{t[0]}, {t[-1]}] does not span grid [{g[0]}, {g[-1]}]"
        )
    out = np.empty((len(g), series.values.shape[1]))
    for c in range(series.values.shape[1]):
        col = series.values[:, c]
        valid = np.isfinite(col)
        if not np.all(valid):
            tv = t[valid]
            if len(tv) < 2 or tv[0] > g[0] + 1e-12 or tv[-1] < g[-1] - 1e-12:
                raise UnbridgeableGap(
                    f"channel {series.channels[c].name}: too few valid samples"
                )
            gaps = np.diff(tv)
            worst = np.max(gaps)
            if worst > MAX_GAP:
                raise UnbridgeableGap(
                    f"channel {series.channels[c].name}: {worst:.3f} s gap exceeds "
                    f"max_gap {MAX_GAP:.3f} s"
                )
            out[:, c] = np.interp(g, tv, col[valid])
        else:
            out[:, c] = np.interp(g, t, col)
    return TimedSeries(timestamps=g.copy(), values=out, channels=series.channels)


def default_tau(grid_rate: float) -> float:
    """Half the reference frame period: at most one candidate in tolerance."""
    return 0.5 / grid_rate


def sync_session(session: RawSession, tau: float | None = None) -> SyncedSession:
    """Align a raw session: grid at the lowest video rate, frame selections
    per camera, numeric channels interpolated."""
    video_descs = [
        s for s in session.manifest.streams if s.kind is StreamKind.VIDEO_FRAMES
    ]
    if not video_descs or not session.numeric:
        raise MissingStream("sync requires >= 1 video stream and >= 1 numeric stream")
    grid_rate = min(s.nominal_rate for s in video_descs)
    if tau is None:
        tau = default_tau(grid_rate)

    streams: list[TimedSeries | FrameTimestampLog] = list(session.numeric.values())
    streams.extend(session.frame_logs.values())
    window = compute_overlap(streams)
    grid = build_reference_grid(window, grid_rate)

    selections = {
        name: match_frames(log, grid, tau) for name, log in session.frame_logs.items()
    }
    numeric = {
        name: interpolate_numeric(series, grid)
        for name, series in session.numeric.items()
    }
    return SyncedSession(
        manifest=session.manifest,
        grid=grid,
        frame_selections=selections,
        numeric=numeric,
        tau=tau,
    )
