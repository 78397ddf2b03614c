import json
import shutil
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessionforge.errors import (
    EmptyFrameLog,
    GridOutsideSeries,
    InvariantViolation,
    MalformedManifest,
    NoOverlap,
    RateExceedsLog,
    UnbridgeableGap,
)
from sessionforge.session import (
    Channel,
    FrameTimestampLog,
    StreamKind,
    TimedSeries,
    load_synced,
    save_synced,
)
from sessionforge.sync import (
    OverlapWindow,
    build_reference_grid,
    compute_overlap,
    default_tau,
    interpolate_numeric,
    match_frames,
    sync_session,
)
from sessionforge.synth import Scenario, gen_session


def series(ts, vals=None):
    ts = np.asarray(ts, dtype=float)
    if vals is None:
        vals = np.zeros((len(ts), 1))
    return TimedSeries(timestamps=ts, values=vals, channels=(Channel("x", "m"),))


def frame_log(ts):
    return FrameTimestampLog(np.asarray(ts, dtype=float))


def brute_force_match(frame_ts, grid_ts, tau):
    """Full scan per grid point; ties take the smaller index; failures repeat
    the previous selection (nearest frame at the first grid point)."""
    selected, accepted = [], []
    for k, t in enumerate(grid_ts):
        diffs = np.abs(frame_ts - t)
        i = int(np.flatnonzero(diffs == diffs.min())[0])
        ok = diffs[i] <= tau
        if ok or k == 0:
            selected.append(i)
        else:
            selected.append(selected[-1])
        accepted.append(bool(ok))
    return np.array(selected), np.array(accepted)


class TestComputeOverlap:
    def test_partial_overlap(self):
        w = compute_overlap([series([0, 10]), series([1, 9])])
        assert (w.t_start, w.t_end) == (1, 9)

    def test_identical_spans(self):
        w = compute_overlap([series([0, 5]), series([0, 5])])
        assert (w.t_start, w.t_end) == (0, 5)

    def test_disjoint_raises(self):
        with pytest.raises(NoOverlap):
            compute_overlap([series([0, 1]), series([2, 3])])

    def test_mixed_types(self):
        w = compute_overlap([series([0, 10]), frame_log([0.5, 8])])
        assert (w.t_start, w.t_end) == (0.5, 8)


class TestReferenceGrid:
    def test_unit_window_at_12(self):
        grid = build_reference_grid(OverlapWindow(0.0, 1.0), 12.0)
        assert grid.k == 13
        np.testing.assert_allclose(grid.timestamps, np.arange(13) / 12.0, atol=1e-15)

    def test_degenerate_single_point(self):
        grid = build_reference_grid(OverlapWindow(0.0, 1.0 / 24.0), 12.0)
        assert grid.k == 1
        assert grid.timestamps[0] == 0.0

    def test_closed_form_count(self):
        grid = build_reference_grid(OverlapWindow(1.0, 9.0), 15.0)
        assert grid.k == 121  # floor(8 * 15) + 1

    def test_uniform_spacing(self):
        grid = build_reference_grid(OverlapWindow(0.37, 11.11), 12.0)
        spacing = np.diff(grid.timestamps)
        assert np.max(np.abs(spacing - 1.0 / 12.0)) < 1e-12
        assert grid.timestamps[-1] <= 11.11 + 1e-12


class TestMatchFrames:
    def test_fifteen_fps_log_on_twelve_fps_grid(self):
        # at t_1 = 1/12 the nearest 15 fps frame is j=1: |1/15 - 1/12| = 1/60
        frames = frame_log(np.arange(31) / 15.0)
        grid = build_reference_grid(OverlapWindow(0.0, 2.0), 12.0)
        sel = match_frames(frames, grid, tau=1.0 / 24.0)
        assert sel.selected_indices[1] == 1
        assert sel.accepted_flags[1]
        assert sel.acceptance_rate == 1.0  # worst case distance 1/30 < 1/24

    def test_identity_mapping(self):
        grid = build_reference_grid(OverlapWindow(0.0, 2.0), 12.0)
        frames = frame_log(grid.timestamps)
        sel = match_frames(frames, grid, tau=0.0)
        np.testing.assert_array_equal(sel.selected_indices, np.arange(grid.k))
        assert sel.accepted_flags.all()

    def test_zero_tau_offset_log_repeats_first(self):
        grid = build_reference_grid(OverlapWindow(0.0, 2.0), 12.0)
        frames = frame_log(grid.timestamps + 0.001)
        sel = match_frames(frames, grid, tau=0.0)
        assert not sel.accepted_flags.any()
        assert (sel.selected_indices == sel.selected_indices[0]).all()

    def test_empty_log_raises(self):
        grid = build_reference_grid(OverlapWindow(0.0, 1.0), 12.0)
        with pytest.raises(EmptyFrameLog):
            match_frames(frame_log([]), grid, tau=0.1)

    def test_tie_takes_earlier_frame(self):
        grid = build_reference_grid(OverlapWindow(1.0, 1.5), 2.0)
        frames = frame_log([0.5, 1.5])  # both at distance 0.5 from t=1.0
        sel = match_frames(frames, grid, tau=1.0)
        assert sel.selected_indices[0] == 0

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        rate = rng.uniform(5, 60)
        n = rng.integers(10, 200)
        frame_ts = np.sort(np.arange(n) / rate + rng.normal(0, 0.02, n))
        frame_ts += np.arange(n) * 1e-9  # break exact duplicates
        grid = build_reference_grid(
            OverlapWindow(float(frame_ts[0]), float(frame_ts[-1])), 12.0
        )
        tau = rng.uniform(0, 0.05)
        sel = match_frames(frame_log(frame_ts), grid, tau)
        exp_sel, exp_acc = brute_force_match(frame_ts, grid.timestamps, tau)
        np.testing.assert_array_equal(sel.selected_indices, exp_sel)
        np.testing.assert_array_equal(sel.accepted_flags, exp_acc)

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_monotone_log_gives_nondecreasing_selection(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 80))
        frame_ts = np.cumsum(rng.uniform(0.01, 0.2, n))
        grid = build_reference_grid(
            OverlapWindow(float(frame_ts[0]), float(frame_ts[-1])), float(rng.uniform(5, 30))
        )
        sel = match_frames(frame_log(frame_ts), grid, float(rng.uniform(0, 0.1)))
        assert (np.diff(sel.selected_indices) >= 0).all()


class TestInterpolateNumeric:
    def test_affine_exactness(self):
        rng = np.random.default_rng(0)
        t = np.sort(rng.uniform(0, 10, 200))
        t[0], t[-1] = 0.0, 10.0
        s = series(t, (3.0 * t + 1.0)[:, None])
        grid = build_reference_grid(OverlapWindow(0.0, 10.0), 12.0)
        out = interpolate_numeric(s, grid)
        np.testing.assert_allclose(out.values[:, 0], 3.0 * grid.timestamps + 1.0, atol=1e-12)

    def test_constant_channel(self):
        t = np.linspace(0, 5, 100)
        s = series(t, np.full((100, 1), 7.25))
        grid = build_reference_grid(OverlapWindow(0.0, 5.0), 12.0)
        out = interpolate_numeric(s, grid)
        assert (out.values == 7.25).all()

    def test_matches_two_point_oracle(self):
        rng = np.random.default_rng(42)
        t = np.sort(rng.uniform(0, 4, 50))
        t[0], t[-1] = 0.0, 4.0
        v = rng.normal(size=(50, 2))
        s = TimedSeries(timestamps=t, values=v, channels=(Channel("a", "m"), Channel("b", "m")))
        grid = build_reference_grid(OverlapWindow(0.0, 4.0), 12.0)
        out = interpolate_numeric(s, grid)
        for k, tk in enumerate(grid.timestamps):
            j = np.searchsorted(t, tk, side="right") - 1
            j = min(max(j, 0), len(t) - 2)
            w = (tk - t[j]) / (t[j + 1] - t[j])
            for c in range(2):
                expected = (1 - w) * v[j, c] + w * v[j + 1, c]
                assert abs(out.values[k, c] - expected) < 1e-12

    def test_grid_outside_series(self):
        s = series(np.linspace(1, 2, 10))
        grid = build_reference_grid(OverlapWindow(0.0, 2.0), 12.0)
        with pytest.raises(GridOutsideSeries):
            interpolate_numeric(s, grid)

    def test_nan_gap_bridged(self):
        t = np.linspace(0, 2, 201)
        v = (2 * t)[:, None].copy()
        v[100] = np.nan  # 20 ms gap, bridgeable
        out = interpolate_numeric(series(t, v), build_reference_grid(OverlapWindow(0, 2), 12.0))
        assert np.isfinite(out.values).all()
        np.testing.assert_allclose(out.values[:, 0], 2 * out.timestamps, atol=1e-12)

    @pytest.mark.parametrize(
        "valid", [slice(100, 101), slice(0, 150), slice(50, 201)], ids=["one", "late-end", "late-start"]
    )
    def test_too_few_valid_samples(self, valid):
        """A channel whose finite samples are fewer than two, or do not span
        the grid, cannot be bridged."""
        t = np.linspace(0, 2, 201)
        v = np.full((201, 1), np.nan)
        v[valid] = 1.0
        grid = build_reference_grid(OverlapWindow(0, 2), 12.0)
        with pytest.raises(UnbridgeableGap, match=r"^channel x: too few valid samples$"):
            interpolate_numeric(series(t, v), grid)

    def test_unbridgeable_gap(self):
        t = np.linspace(0, 2, 201)
        v = np.ones((201, 1))
        v[40:120] = np.nan  # 0.8 s > default 0.5 s max gap
        with pytest.raises(UnbridgeableGap):
            interpolate_numeric(series(t, v), build_reference_grid(OverlapWindow(0, 2), 12.0))


class TestSyncSession:
    def test_composite_synthetic_session(self):
        session, _ = gen_session(Scenario(seed=7, duration=3.0))
        synced = sync_session(session)
        assert synced.grid.rate == 12.0
        assert set(synced.frame_selections) == {"ego_cam", "wrist_cam"}
        for name, sel in synced.frame_selections.items():
            log = session.frame_logs[name].frame_timestamps
            dist = np.abs(log[sel.selected_indices] - synced.grid.timestamps)
            assert (dist[sel.accepted_flags] <= synced.tau).all()
        for s in synced.numeric.values():
            assert s.n_samples == synced.grid.k
            assert np.isfinite(s.values).all()

    def test_single_video_stream_rate(self):
        session, _ = gen_session(Scenario(seed=3, video_rates=(12.0,)))
        synced = sync_session(session)
        assert synced.grid.rate == 12.0

    def test_no_overlap_propagates(self):
        session, _ = gen_session(Scenario(seed=1))
        shifted = dict(session.frame_logs)
        log = shifted["ego_cam"]
        shifted["ego_cam"] = FrameTimestampLog(log.frame_timestamps + 100.0)

        with pytest.raises(NoOverlap):
            sync_session(replace(session, frame_logs=shifted))

    @pytest.mark.parametrize("factor, refused", [(1.5, False), (2.5, True)])
    def test_nominal_video_rate_is_bounded_by_its_frame_log(self, factor, refused):
        """A video entry may claim at most MAX_RATE_RATIO times the rate its
        frame log holds, or the claim alone would size the grid."""
        session, _ = gen_session(Scenario(seed=3, duration=2.0, video_rates=(12.0,)))
        claimed = _video_rates(session, 12.0 * factor)
        if refused:
            with pytest.raises(RateExceedsLog, match=r"streams\[cam0\]: nominal rate 30.0 Hz"):
                sync_session(claimed)
        else:
            assert sync_session(claimed).grid.rate == 12.0 * factor

    def test_one_frame_log_is_left_to_the_overlap_rule(self):
        session, _ = gen_session(Scenario(seed=3, duration=2.0))
        one_frame = {name: frame_log([1.0]) for name in session.frame_logs}
        with pytest.raises(NoOverlap):
            sync_session(_video_rates(replace(session, frame_logs=one_frame), 1e4))

    def test_default_tau_is_half_period(self):
        assert default_tau(12.0) == pytest.approx(1.0 / 24.0)


def _video_rates(session, rate):
    """``session`` with every video entry claiming ``rate``."""
    streams = tuple(
        replace(s, nominal_rate=rate) if s.kind is StreamKind.VIDEO_FRAMES else s
        for s in session.manifest.streams
    )
    return replace(session, manifest=replace(session.manifest, streams=streams))


def _grid_time(synced, i, value):
    t = synced.grid.timestamps.copy()
    t[i] = value
    return replace(synced, grid=replace(synced.grid, timestamps=t))


def _ego_cam(synced, **changes):
    sel = replace(synced.frame_selections["ego_cam"], **changes)
    return replace(synced, frame_selections={**synced.frame_selections, "ego_cam": sel})


def _imu(synced, **changes):
    imu = replace(synced.numeric["imu"], **changes)
    return replace(synced, numeric={**synced.numeric, "imu": imu})


def _manifest(synced, **changes):
    return replace(synced, manifest=replace(synced.manifest, **changes))


def _imu_entry(synced, **changes):
    streams = [replace(s, **changes) if s.name == "imu" else s for s in synced.manifest.streams]
    return _manifest(synced, streams=streams)


def _imu_value(synced, value):
    values = synced.numeric["imu"].values.copy()
    values[3, 0] = value
    return _imu(synced, values=values)


# A synced session that breaks the synced rule other than by its row counts:
# case -> (break, message).
SYNCED_BREAKS = {
    "rate-zero": (lambda s: replace(s, grid=replace(s.grid, rate=0.0)), "grid.rate"),
    "rate-negative": (lambda s: replace(s, grid=replace(s.grid, rate=-12.0)), "grid.rate"),
    "rate-nan": (lambda s: replace(s, grid=replace(s.grid, rate=np.nan)), "grid.rate"),
    "tau-negative": (lambda s: replace(s, tau=-0.01), "tau"),
    "tau-nan": (lambda s: replace(s, tau=np.nan), "tau"),
    "grid-last-nan": (lambda s: _grid_time(s, -1, np.nan), "grid: .*finite"),
    "grid-not-increasing": (
        lambda s: _grid_time(s, 2, s.grid.timestamps[1]), "grid: .*strictly increasing"
    ),
    "selection-index-negative": (
        lambda s: _ego_cam(s, selected_indices=s.frame_selections["ego_cam"].selected_indices - 1),
        "indices must be >= 0",
    ),
    "selection-flag-two": (
        lambda s: _ego_cam(s, accepted_flags=s.frame_selections["ego_cam"].accepted_flags * 2),
        "flags 0 or 1",
    ),
    "stream-off-the-grid": (
        lambda s: _imu(s, timestamps=np.nextafter(s.grid.timestamps, 1)), "bit for bit"
    ),
    "stream-value-nan": (lambda s: _imu_value(s, np.nan), r"streams\[imu\]: values must be finite"),
    "stream-value-inf": (lambda s: _imu_value(s, -np.inf), r"streams\[imu\]: values must be finite"),
    "entry-rate-nan": (
        lambda s: _imu_entry(s, nominal_rate=np.nan), r"streams\[imu\]\.nominal_rate"
    ),
    "session-id-empty": (lambda s: _manifest(s, session_id=""), "session_id: must be non-empty"),
    "numeric-entry-without-stream": (
        lambda s: replace(s, numeric={k: v for k, v in s.numeric.items() if k != "imu"}),
        "numeric entries",
    ),
    "stream-without-entry": (
        lambda s: replace(s, numeric={**s.numeric, "extra": s.numeric["imu"]}), "numeric entries"
    ),
    "video-entry-without-selection": (
        lambda s: replace(s, frame_selections={}), "video_frames entries"
    ),
    "selection-without-entry": (
        lambda s: replace(
            s, frame_selections={**s.frame_selections, "extra": s.frame_selections["ego_cam"]}
        ),
        "video_frames entries",
    ),
}


class TestSyncedContainer:
    def test_save_load_round_trip_is_bit_exact(self, tmp_path):
        session, _ = gen_session(Scenario(seed=7, duration=3.0, timestamp_jitter_sd=0.03))
        synced = sync_session(session)
        assert not all(sel.accepted_flags.all() for sel in synced.frame_selections.values())
        save_synced(synced, tmp_path / "synced")
        loaded = load_synced(tmp_path / "synced")

        def bits(a):
            return np.asarray(a, dtype=np.float64).view(np.uint64)

        assert np.array_equal(bits(loaded.grid.timestamps), bits(synced.grid.timestamps))
        assert loaded.grid.rate == synced.grid.rate
        assert loaded.tau == synced.tau
        assert loaded.manifest == synced.manifest
        assert set(loaded.frame_selections) == set(synced.frame_selections)
        for name, sel in synced.frame_selections.items():
            got = loaded.frame_selections[name]
            assert got.selected_indices.dtype.kind == "i"
            assert got.accepted_flags.dtype == bool
            assert np.array_equal(got.selected_indices, sel.selected_indices)
            assert np.array_equal(got.accepted_flags, sel.accepted_flags)
        assert set(loaded.numeric) == set(synced.numeric)
        for name, series in synced.numeric.items():
            got = loaded.numeric[name]
            assert got.channels == series.channels
            assert np.array_equal(bits(got.timestamps), bits(series.timestamps))
            assert np.array_equal(bits(got.values), bits(series.values))

    def test_fractional_selection_index_is_rejected(self, tmp_path):
        session, _ = gen_session(Scenario(seed=7, duration=3.0))
        save_synced(sync_session(session), tmp_path / "synced")
        path = tmp_path / "synced" / "selections" / "ego_cam.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = "1.5,1"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(MalformedManifest, match="ego_cam.csv"):
            load_synced(tmp_path / "synced")

    @pytest.mark.parametrize("part", ["selection", "stream"])
    def test_rows_off_the_grid_are_not_saved(self, tmp_path, part):
        synced = sync_session(gen_session(Scenario(seed=7, duration=3.0))[0])
        if part == "selection":
            sel = synced.frame_selections["ego_cam"]
            cut = replace(sel, accepted_flags=sel.accepted_flags[:-1])
            synced = replace(synced, frame_selections={**synced.frame_selections, "ego_cam": cut})
        else:
            ee = synced.numeric["ee_pose"]
            cut = replace(ee, timestamps=ee.timestamps[:9], values=ee.values[:9])
            synced = replace(synced, numeric={**synced.numeric, "ee_pose": cut})
        with pytest.raises(InvariantViolation, match="one per grid point"):
            save_synced(synced, tmp_path / "synced")
        assert not (tmp_path / "synced").exists()

    @pytest.mark.parametrize("case", SYNCED_BREAKS)
    def test_what_load_rejects_is_not_saved(self, tmp_path, case):
        edit, match = SYNCED_BREAKS[case]
        synced = edit(sync_session(gen_session(Scenario(seed=7, duration=3.0))[0]))
        with pytest.raises(InvariantViolation, match=match):
            save_synced(synced, tmp_path / "synced")
        assert not (tmp_path / "synced").exists()

    def test_unlisted_file_is_not_read(self, tmp_path):
        session, _ = gen_session(Scenario(seed=7, duration=3.0))
        synced = sync_session(session)
        root = tmp_path / "synced"
        save_synced(synced, root)
        shutil.copy(root / "streams" / "imu.csv", root / "streams" / "extra.csv")
        loaded = load_synced(root)
        assert set(loaded.numeric) == set(synced.numeric)
        assert sorted(p.name for p in (root / "streams").glob(".extra*")) == []

    @pytest.mark.parametrize(
        "stream,source,file",
        [
            ("imu", "streams/imu.csv", "streams/../../outside.csv"),
            ("ego_cam", "selections/ego_cam.csv", "video/../../outside.timestamps.csv"),
        ],
        ids=["numeric", "video"],
    )
    def test_entry_outside_the_container_is_never_opened(self, tmp_path, stream, source, file):
        """A manifest entry named to reach outside the container fails before
        any file is read, so nothing is read or created outside it."""
        session, _ = gen_session(Scenario(seed=7, duration=3.0))
        root = tmp_path / "synced"
        save_synced(sync_session(session), root)
        # <dir>/../../outside.csv is tmp_path/outside.csv for either directory
        shutil.copy(root / source, tmp_path / "outside.csv")
        path = root / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        next(s for s in manifest["streams"] if s["name"] == stream).update(
            name="../../outside", file=file
        )
        path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(MalformedManifest, match=r"manifest\.json: .*plain file name"):
            load_synced(root)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["outside.csv", "synced"]
