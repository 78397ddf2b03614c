import gc
import weakref

import numpy as np
import pytest
from scipy.integrate import quad

from sessionforge.session import Task, load_session, save_session
from sessionforge.sync import sync_session
from sessionforge.synth import (
    MotionProfile,
    ProfileSpec,
    Scenario,
    gen_audio_datagrams,
    gen_min_jerk_trajectory,
    gen_session,
)
from sessionforge.transport import audio_reassemble


def tree_bytes(root):
    """Stable (relative path, content) listing of a directory tree."""
    return sorted(
        (str(p.relative_to(root)), p.read_bytes()) for p in root.rglob("*") if p.is_file()
    )


class TestMotionProfile:
    def test_min_jerk_boundary_conditions(self):
        p = MotionProfile("min_jerk", (0, 0, 0), (1, 2, 3), 2.0)
        np.testing.assert_allclose(p.position(np.array([0.0]))[0], [0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(p.position(np.array([2.0]))[0], [1, 2, 3], atol=1e-12)
        np.testing.assert_allclose(p.acceleration(np.array([0.0, 2.0])), 0.0, atol=1e-9)

    def test_path_length_is_displacement(self):
        p = MotionProfile("min_jerk", (0, 0, 0), (3, 4, 0), 1.0)
        assert p.path_length() == pytest.approx(5.0)

    def test_mean_jerk_closed_form_full_span(self):
        # integral of |60 - 360 s + 360 s^2| over [0, 1]:
        # roots at s = (3 ± sqrt(3))/6; direct quadrature is the oracle
        p = MotionProfile("min_jerk", (0.0,), (1.0,), 1.0)
        oracle = quad(lambda s: abs(60 - 360 * s + 360 * s**2), 0, 1, limit=200)[0]
        assert p.mean_jerk() == pytest.approx(oracle, rel=1e-9)

    def test_mean_jerk_scales_with_duration_cubed(self):
        fast = MotionProfile("min_jerk", (0.0,), (1.0,), 1.0)
        slow = MotionProfile("min_jerk", (0.0,), (1.0,), 2.0)
        assert slow.mean_jerk() == pytest.approx(fast.mean_jerk() / 8.0, rel=1e-9)

    def test_cubic_jerk_constant(self):
        p = MotionProfile("cubic", (0.0,), (2.0,), 1.0)
        assert p.mean_jerk() == pytest.approx(12.0, rel=1e-9)  # 2 * 6 / 1^3

    def test_stationary_zero(self):
        p = MotionProfile("stationary", (1.0, 2.0), (1.0, 2.0), 5.0)
        assert p.mean_jerk() == 0.0
        assert p.path_length() == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            MotionProfile("quintic", (0.0,), (1.0,), 1.0)


class TestTrajectoryHelper:
    def test_shapes_and_sample_count(self):
        t, p, profile = gen_min_jerk_trajectory((0, 0, 0), (1, 0, 0), 2.0, 12.0)
        assert len(t) == 25  # floor(2 * 12) + 1
        assert p.shape == (25, 3)
        assert profile.displacement == 1.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            gen_min_jerk_trajectory((0,), (1,), 0.0, 12.0)


class TestDeterminism:
    def test_same_seed_value_identical(self):
        a, _ = gen_session(Scenario(seed=9, timestamp_jitter_sd=0.003, noise_sd=0.01))
        b, _ = gen_session(Scenario(seed=9, timestamp_jitter_sd=0.003, noise_sd=0.01))
        for name in a.numeric:
            np.testing.assert_array_equal(a.numeric[name].values, b.numeric[name].values)
        for name in a.frame_logs:
            np.testing.assert_array_equal(
                a.frame_logs[name].frame_timestamps, b.frame_logs[name].frame_timestamps
            )

    def test_same_seed_byte_identical_on_disk(self, tmp_path):
        scenario = Scenario(seed=9, timestamp_jitter_sd=0.003, noise_sd=0.01)
        for d in ("a", "b"):
            session, _ = gen_session(scenario)
            save_session(session, tmp_path / d)
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_different_seeds_differ(self):
        a, _ = gen_session(Scenario(seed=1, noise_sd=0.01))
        b, _ = gen_session(Scenario(seed=2, noise_sd=0.01))
        assert not np.array_equal(a.numeric["ee_pose"].values, b.numeric["ee_pose"].values)


class TestSessionShape:
    def test_trial_id_embeds_task_and_seed(self):
        session, _ = gen_session(Scenario(seed=3, task=Task.CLEANING))
        assert session.manifest.session_id == "synth-cleaning-00000003"

    def test_zero_jitter_full_acceptance(self):
        session, _ = gen_session(Scenario(seed=0, timestamp_jitter_sd=0.0))
        synced = sync_session(session)
        for sel in synced.frame_selections.values():
            assert sel.acceptance_rate == 1.0

    def test_moderate_jitter_mostly_accepted(self):
        session, _ = gen_session(Scenario(seed=0, duration=5.0, timestamp_jitter_sd=0.005))
        synced = sync_session(session)
        for sel in synced.frame_selections.values():
            assert sel.acceptance_rate >= 0.9

    def test_dialogue_has_labels_on_user_turns_only(self):
        for task in Task:
            session, _ = gen_session(Scenario(seed=0, task=task))
            (dialogue,) = session.dialogues
            by_index = {u.turn_index: u for u in dialogue.turns}
            assert dialogue.labels  # at least one label per scripted trial
            for idx in dialogue.labels:
                assert by_index[idx].speaker.value == "user"

    def test_audio_duration(self):
        session, _ = gen_session(Scenario(seed=0, duration=2.0))
        assert len(session.audio["mic"].samples) == 96000
        assert session.audio["mic"].meta.sample_rate == 48000

    def test_noise_rms_near_requested(self):
        scenario = Scenario(seed=12, duration=10.0, noise_sd=0.01, noise_ramp=0.0)
        session, gt = gen_session(scenario)
        t = session.numeric["ee_pose"].timestamps
        resid = session.numeric["ee_pose"].values - gt.ee.position(t)
        rms = np.sqrt(np.mean(resid**2))
        assert rms == pytest.approx(0.01, rel=0.05)

    def test_scenario_from_json_dict(self):
        scenario = Scenario.from_json_dict(
            {
                "seed": 5,
                "task": "drinking",
                "duration": 3.0,
                "ee_profile": {"kind": "min_jerk", "p0": [0, 0, 0], "pf": [0.4, 0.1, 0.2]},
                "video_rates": [12, 15],
            }
        )
        assert scenario.task is Task.DRINKING
        assert scenario.ee_profile.pf == (0.4, 0.1, 0.2)

    def test_invalid_scenario(self):
        with pytest.raises(ValueError):
            Scenario(seed=0, duration=-1.0)


def mic(duration: float, audio_rate: int, seed: int = 0):
    session, _ = gen_session(Scenario(seed=seed, duration=duration, audio_rate=audio_rate))
    return session.audio["mic"].samples


class TestSharedTone:
    """Sessions of one duration and audio rate share one read-only tone."""

    @pytest.mark.parametrize("duration, rate", [(60.0, 48000), (0.5, 44100), (1.3, 8000)])
    def test_samples_are_the_tone_bit_for_bit(self, duration, rate):
        n = int(round(duration * rate))
        want = np.round(0.3 * np.sin(2.0 * np.pi * 440.0 * np.arange(n) / rate) * 32767)
        got = mic(duration, rate)
        assert got.dtype == np.int16
        assert got.tobytes() == want.astype(np.int16).tobytes()

    def test_equal_length_and_rate_share_one_array(self):
        first = mic(1.5, 16000, seed=1)
        assert mic(1.5, 16000, seed=2) is first
        assert mic(2.5, 16000) is not first
        assert mic(1.5, 22050) is not first

    def test_samples_are_read_only_as_loaded_ones_are(self, tmp_path):
        session, _ = gen_session(Scenario(seed=4, duration=0.5))
        save_session(session, tmp_path / "trial")
        loaded = load_session(tmp_path / "trial").audio["mic"].samples
        for samples in (session.audio["mic"].samples, loaded):
            assert not samples.flags.writeable
            with pytest.raises(ValueError):
                samples[0] = 1
        assert np.array_equal(loaded, session.audio["mic"].samples)

    def test_tone_goes_with_its_last_session(self):
        session, _ = gen_session(Scenario(seed=5, duration=0.7, audio_rate=11025))
        tone = weakref.ref(session.audio["mic"].samples)
        del session
        gc.collect()
        assert tone() is None


class TestAudioDatagrams:
    def test_lossless_split_reassembles_exactly(self):
        session, _ = gen_session(Scenario(seed=0, duration=1.0))
        track = session.audio["mic"]
        datagrams, lost = gen_audio_datagrams(track, chunk_ms=20.0, seed=0, loss_rate=0.0)
        assert lost == set()
        pcm, report = audio_reassemble(datagrams)
        assert pcm == track.samples.astype("<i2").tobytes()
        assert report.total_missing == 0

    def test_seeded_loss_is_deterministic_and_reported(self):
        session, _ = gen_session(Scenario(seed=0, duration=2.0))
        track = session.audio["mic"]
        d1, lost1 = gen_audio_datagrams(track, seed=77, loss_rate=0.1)
        d2, lost2 = gen_audio_datagrams(track, seed=77, loss_rate=0.1)
        assert lost1 == lost2 and len(d1) == len(d2)
        assert lost1  # 100 chunks at 10% loss: vanishingly unlikely to be empty
        _, report = audio_reassemble(d1)
        missing = {
            s for lo, hi in report.missing_sequences for s in range(lo, hi + 1)
        }
        # gaps after the last received chunk are unobservable to the receiver
        last = max(dg.sequence for dg in d1)
        assert missing == {s for s in lost1 if s < last}
