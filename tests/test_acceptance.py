"""Acceptance suite: one test per release criterion.

Each test states its criterion in the docstring and fails loudly if the
implementation drifts from the contract.
"""

import json
import socket
import time
import warnings
from datetime import datetime, timezone

import numpy as np
import pytest
import scipy.signal

from sessionforge.cli import denoise_and_sync, main, process_trial
from sessionforge.curation import dataset_stats, survey_stats
from sessionforge.dialogue import (
    AmbiguityLabel,
    AmbiguityType,
    AnnotatedDialogue,
    Clarity,
    Speaker,
    Utterance,
    export_jsonl,
    import_jsonl,
)
from sessionforge.errors import LabelSchemaViolation
from sessionforge.filters import DenoisePolicy, design_butterworth_lowpass, filtfilt
from sessionforge.metrics import comfort_check, jerk_series
from sessionforge.session import (
    Channel,
    FrameTimestampLog,
    SessionManifest,
    StreamDescriptor,
    StreamKind,
    Task,
    load_session,
    save_session,
)
from sessionforge.sync import OverlapWindow, build_reference_grid, match_frames, sync_session
from sessionforge.synth import (
    ProfileSpec,
    Scenario,
    gen_audio_datagrams,
    gen_min_jerk_trajectory,
    gen_session,
)
from sessionforge.transport import (
    RecorderConfig,
    TcpFrame,
    audio_reassemble,
    start_recording,
)


def test_criterion_1_sync_oracle_equivalence():
    """1,000 fuzzed frame logs (5-60 Hz, jitter to 20 ms): match_frames agrees
    with a brute-force full scan on every grid point, in under 10 s total."""
    t0 = time.monotonic()
    for trial in range(1000):
        rng = np.random.default_rng(trial)
        rate = rng.uniform(5.0, 60.0)
        n = int(rng.integers(8, 150))
        frame_ts = np.sort(np.arange(n) / rate + rng.uniform(-0.02, 0.02, n))
        frame_ts += np.arange(n) * 1e-9  # make strictly increasing
        grid = build_reference_grid(
            OverlapWindow(float(frame_ts[0]), float(frame_ts[-1])), 12.0
        )
        tau = float(rng.uniform(0.0, 0.05))
        sel = match_frames(FrameTimestampLog(frame_ts), grid, tau)
        # brute force: full scan per grid point, ties to the earlier frame
        expected = []
        for k, t in enumerate(grid.timestamps):
            d = np.abs(frame_ts - t)
            i = int(np.flatnonzero(d == d.min())[0])
            if d[i] <= tau or k == 0:
                expected.append(i)
            else:
                expected.append(expected[-1])
        np.testing.assert_array_equal(sel.selected_indices, expected)
    assert time.monotonic() - t0 < 10.0


def test_criterion_2_tolerance_semantics():
    """tau = 0 with an offset log repeats the prior selection on every grid
    point after the first; tau = half-period with zero jitter accepts 100%."""
    grid = build_reference_grid(OverlapWindow(0.0, 3.0), 12.0)
    offset_log = FrameTimestampLog(grid.timestamps + 0.007)
    sel = match_frames(offset_log, grid, tau=0.0)
    assert not sel.accepted_flags.any()
    assert (np.diff(sel.selected_indices) == 0).all()

    session, _ = gen_session(Scenario(seed=0, timestamp_jitter_sd=0.0))
    synced = sync_session(session)  # default tau = half-period
    for s in synced.frame_selections.values():
        assert s.acceptance_rate == 1.0


def test_criterion_3_filter_correctness():
    """Order-4 (5 Hz, 100 Hz): -3 dB +/- 0.01 dB at cutoff, DC gain 1 +/- 1e-9,
    a 20 Hz sinusoid attenuated to <= 1e-4 steady-state amplitude, and
    time-reversal symmetry within 1e-9 of the forward-backward pass with
    Gustafsson's initial states. ``filtfilt``'s odd-reflection padding is
    symmetric only away from the edges (about 5e-2 at them here)."""
    spec = design_butterworth_lowpass(4, 5.0, 100.0)
    assert 20.0 * np.log10(spec.magnitude(5.0)) == pytest.approx(
        -20.0 * np.log10(np.sqrt(2.0)), abs=0.01
    )
    assert spec.dc_gain() == pytest.approx(1.0, abs=1e-9)

    t = np.arange(0, 10, 0.01)
    y = filtfilt(spec, np.sin(2.0 * np.pi * 20.0 * t))
    steady = slice(len(t) // 4, 3 * len(t) // 4)
    assert np.max(np.abs(y[steady])) <= 1e-4

    rng = np.random.default_rng(5)
    x = rng.normal(size=300)
    np.testing.assert_allclose(
        scipy.signal.filtfilt(spec.b, spec.a, x[::-1], method="gust"),
        scipy.signal.filtfilt(spec.b, spec.a, x, method="gust")[::-1],
        atol=1e-9,
    )


def test_criterion_4_jerk_exactness():
    """Cubic p = t^3 gives mean jerk 6 m/s^3 at any dt; the min-jerk profile
    (dp = 1 m, T = 2 s, 12 Hz) matches its quadrature ground truth within 5%."""
    for dt in (0.002, 0.01, 1.0 / 12.0, 0.25):
        t = np.arange(0, 2, dt)
        p = np.column_stack([t**3, np.zeros_like(t), np.zeros_like(t)])
        j = jerk_series(p, dt)
        # the third difference cancels catastrophically: rounding noise on a
        # single stencil is bounded by ~8 eps max|p| / dt^3
        noise_floor = 8 * np.finfo(np.float64).eps * np.max(np.abs(p)) / dt**3
        np.testing.assert_allclose(j, 6.0, atol=max(noise_floor, 6e-12))
        assert float(np.mean(j)) == pytest.approx(6.0, rel=1e-8)

    t, p, profile = gen_min_jerk_trajectory((0, 0, 0), (1, 0, 0), 2.0, 12.0)
    h = 1.0 / 12.0
    measured = float(np.mean(jerk_series(p, h)))
    # the K-3 forward stencils jointly cover [t_1 + h, t_1 + (K-2) h]
    oracle = profile.mean_jerk(h, (len(t) - 2) * h)
    assert measured == pytest.approx(oracle, rel=0.05)


def test_criterion_5_end_to_end_recovery(tmp_path, capsys):
    """A noisy session (noise 0.01 m RMS, jitter 5 ms) through
    sync -> denoise -> analyze recovers path length within 2% and mean jerk
    within 5%; the batch report is byte-identical across runs."""
    root = tmp_path / "data"
    truths = {}
    for seed in (0, 1, 2):
        scenario = Scenario(seed=seed, noise_sd=0.01, timestamp_jitter_sd=0.005)
        session, gt = gen_session(scenario)
        save_session(session, root / session.manifest.session_id)
        truths[session.manifest.session_id] = gt

    for trial_id, gt in truths.items():
        tm, _, _ = process_trial(root / trial_id, None, DenoisePolicy.default())
        raw = load_session(root / trial_id, audio=False)
        synced = denoise_and_sync(raw, None, DenoisePolicy.default())
        assert tm.ee_path_length == pytest.approx(gt.ee_path_length, rel=0.02)
        expected_jerk = gt.expected_mean_jerk(gt.ee, synced.grid.timestamps)
        assert tm.ee_mean_jerk == pytest.approx(expected_jerk, rel=0.05)

    outputs = []
    for _ in range(2):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["report", "--root", str(root)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_criterion_6_table_iii_reproduction():
    """Per-task raw/successful counts 9/4, 16/15, 17/16, 11/9, 13/9 total
    66/53 and round half-up to exactly 80.30 percent."""
    counts = {
        Task.CLEANING: (9, 4),
        Task.DOOR_OPENING: (16, 15),
        Task.DRAWER_OPENING: (17, 16),
        Task.DRINKING: (11, 9),
        Task.FEEDING: (13, 9),
    }
    manifests = []
    for task, (raw, successful) in counts.items():
        for i in range(raw):
            manifests.append(
                SessionManifest(
                    session_id=f"{task.value}-{i:03d}",
                    participant_id="P01",
                    task=task,
                    success=i < successful,
                    created_at=datetime(2025, 1, 1, tzinfo=timezone.utc),
                    streams=(
                        StreamDescriptor(
                            name="ee_pose",
                            kind=StreamKind.NUMERIC,
                            nominal_rate=100.0,
                            channels=(Channel("x", "m"),),
                            file="streams/ee_pose.csv",
                        ),
                    ),
                    violation_flags=() if i < successful else ("object_drop",),
                )
            )
    stats = dataset_stats(manifests)
    assert stats.total_raw == 66
    assert stats.total_successful == 53
    assert stats.success_percentage == "80.30"


def test_criterion_7_transport_integrity(tmp_path):
    """10,000 TCP frames over 5 topics on loopback arrive with zero loss in
    per-topic FIFO order; UDP reassembly under seeded 1% loss reports exactly
    the injected gaps."""
    handle = start_recording(RecorderConfig(session_root=tmp_path / "rec"))
    topics = [f"topic{i}" for i in range(5)]
    frames = [
        TcpFrame(topic=topics[n % 5], timestamp=float(n), values=(float(n), -float(n)))
        for n in range(10_000)
    ]
    with socket.create_connection(("127.0.0.1", handle.tcp_port)) as sock:
        payload = b"".join(f.encode() for f in frames)
        sock.sendall(payload)
    deadline = time.monotonic() + 10.0
    while handle.frames_received < 10_000 and time.monotonic() < deadline:
        time.sleep(0.05)
    session = handle.stop()
    assert sum(s.n_samples for s in session.numeric.values()) == 10_000
    for topic in topics:
        got = session.numeric[topic].timestamps
        expected = np.array([f.timestamp for f in frames if f.topic == topic])
        np.testing.assert_array_equal(got, expected)

    audio_session, _ = gen_session(Scenario(seed=0, duration=20.0))
    datagrams, lost = gen_audio_datagrams(
        audio_session.audio["mic"], chunk_ms=20.0, seed=123, loss_rate=0.01
    )
    assert lost  # 1,000 chunks at 1%: empty loss would void the check
    last_received = max(d.sequence for d in datagrams)
    assert last_received == 999  # tail chunk survived, so every gap is visible
    _, report = audio_reassemble(datagrams)
    reported = {
        s for lo, hi in report.missing_sequences for s in range(lo, hi + 1)
    }
    assert reported == lost


def test_criterion_8_dialogue_round_trip():
    """100 fuzzed dialogues with newline/unicode text survive JSONL
    export/import value-equal; every invalid label combination is rejected."""
    texts = [
        "plain request",
        "line one\nline two",
        "tabs\tand \"quotes\" and \\slashes",
        "unicode: café 茶 емкость 🦾",
        "   separators",
        "",
    ]
    for trial in range(100):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(1, 6))
        turns, labels = [], {}
        for i in range(n):
            speaker = Speaker.USER if rng.integers(2) else Speaker.ROBOT
            turns.append(
                Utterance(
                    speaker=speaker,
                    text=texts[int(rng.integers(len(texts)))],
                    t_start=float(i),
                    t_end=i + float(rng.uniform(0.1, 0.9)),
                    turn_index=i,
                )
            )
            if speaker is Speaker.USER and rng.integers(2):
                if rng.integers(2):
                    labels[i] = AmbiguityLabel(Clarity.SPECIFIC)
                else:
                    kind = list(AmbiguityType)[int(rng.integers(len(AmbiguityType)))]
                    labels[i] = AmbiguityLabel(Clarity.AMBIGUOUS, kind)
        d = AnnotatedDialogue(
            trial_id=f"fz-{trial}",
            task="feeding",
            turns=tuple(turns),
            labels=labels,
            frame_refs={i: i * 2 for i in range(n)},
        )
        assert import_jsonl(export_jsonl([d])) == [d]

    with pytest.raises(LabelSchemaViolation):
        AmbiguityLabel(Clarity.AMBIGUOUS, None)
    for kind in AmbiguityType:
        with pytest.raises(LabelSchemaViolation):
            AmbiguityLabel(Clarity.SPECIFIC, kind)


def test_criterion_9_survey_statistics():
    """Ratings realizing the reported questionnaire results give 80% and 60%
    top-box respectively, with medians of at least 4 on the agreement items."""
    responses = {}
    for q in range(5):
        responses[f"assessment_{q}"] = [5, 5, 4, 4, 2]  # 4 of 5 in the top box
    for q in range(3):
        responses[f"preference_{q}"] = [5, 4, 4, 2, 1]  # 3 of 5 in the top box
    summary = survey_stats(responses)
    for q in range(5):
        row = summary.per_question[f"assessment_{q}"]
        assert row["top_box_percent"] == pytest.approx(80.0)
        assert row["median"] >= 4.0
    for q in range(3):
        row = summary.per_question[f"preference_{q}"]
        assert row["top_box_percent"] == pytest.approx(60.0)
        assert row["median"] >= 4.0


def test_criterion_10_comfort_banding():
    """0.1 m/s^3 falls below the 0.3-0.9 band; the band boundaries are
    classified inclusively; values above 0.9 are flagged above."""
    assert comfort_check(0.1).wheelchair_band == "below"
    assert comfort_check(0.3).wheelchair_band == "within"
    assert comfort_check(0.9).wheelchair_band == "within"
    assert comfort_check(0.91).wheelchair_band == "above"
