import numpy as np
import pytest
from scipy.integrate import quad

from sessionforge.errors import AmbiguousStream, EmptyInput, MissingChannel, TooFewSamples
from sessionforge.metrics import (
    comfort_check,
    compute_trial_metrics,
    jerk_series,
    path_length,
    task_aggregate,
    trial_mean_jerk,
)
from sessionforge.sync import sync_session
from sessionforge.synth import ProfileSpec, Scenario, gen_min_jerk_trajectory, gen_session


class TestJerkSeries:
    def test_cubic_is_exact(self):
        for dt in (0.01, 1 / 12, 0.5):
            t = np.arange(0, 3, dt)
            p = np.column_stack([t**3, np.zeros_like(t), np.zeros_like(t)])
            j = jerk_series(p, dt)
            np.testing.assert_allclose(j, 6.0, rtol=1e-7)

    def test_linear_is_zero(self):
        t = np.arange(0, 2, 0.1)
        p = np.column_stack([2 * t, -t, 0.5 * t])
        assert np.allclose(jerk_series(p, 0.1), 0.0, atol=1e-10)

    def test_output_length(self):
        p = np.zeros((25, 3))
        assert len(jerk_series(p, 1 / 12)) == 22

    def test_min_jerk_profile_against_quadrature(self):
        # quadrature oracle over the span the forward stencil covers
        fs, T = 12.0, 2.0
        t, p, profile = gen_min_jerk_trajectory((0, 0, 0), (1, 0, 0), T, fs)
        j = jerk_series(p, 1 / fs)
        h = 1 / fs
        k = len(t)
        oracle = quad(
            lambda s: abs(60 - 360 * s + 360 * s**2), h / T, (k - 2) * h / T, limit=200
        )[0] / ((k - 3) * h / T) / T**3
        assert np.mean(j) == pytest.approx(oracle, rel=0.05)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            jerk_series(np.zeros((3, 3)), 0.1)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(0)
        p = rng.normal(size=(30, 3))
        np.testing.assert_allclose(
            jerk_series(3.7 * p, 0.05), 3.7 * jerk_series(p, 0.05), rtol=1e-12
        )


class TestTrialMeanJerk:
    def test_constant(self):
        assert trial_mean_jerk(np.array([6.0, 6.0, 6.0])) == 6.0

    def test_zeros(self):
        assert trial_mean_jerk(np.array([0.0, 0.0])) == 0.0

    def test_naive_sum_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 10, 1000)
        naive = sum(float(v) for v in x) / len(x)
        assert trial_mean_jerk(x) == pytest.approx(naive, abs=1e-12)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            trial_mean_jerk(np.array([]))


class TestTaskAggregate:
    def test_hand_arithmetic(self):
        agg = task_aggregate([1.0, 2.0, 3.0])
        assert agg.mean == 2.0
        assert agg.sd == pytest.approx(1.0)

    def test_single_trial_sd_absent(self):
        agg = task_aggregate([5.0])
        assert agg.mean == 5.0 and agg.sd is None and agg.n_trial == 1

    def test_two_pass_variance_oracle(self):
        rng = np.random.default_rng(2)
        x = list(rng.normal(10, 3, 100))
        mean = sum(x) / len(x)
        var = sum((v - mean) ** 2 for v in x) / (len(x) - 1)
        agg = task_aggregate(x)
        assert agg.mean == pytest.approx(mean, abs=1e-12)
        assert agg.sd == pytest.approx(var**0.5, abs=1e-12)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            task_aggregate([])


class TestPathLength:
    def test_straight_segment(self):
        p = np.column_stack([np.linspace(0, 1, 13), np.zeros(13), np.zeros(13)])
        assert path_length(p) == pytest.approx(1.0, abs=1e-12)

    def test_stationary(self):
        assert path_length(np.ones((10, 3))) == 0.0

    def test_random_walk_oracle(self):
        rng = np.random.default_rng(3)
        p = np.cumsum(rng.normal(size=(200, 3)), axis=0)
        oracle = sum(
            float(np.sqrt(np.sum((p[i + 1] - p[i]) ** 2))) for i in range(len(p) - 1)
        )
        assert path_length(p) == pytest.approx(oracle, abs=1e-12)

    def test_too_few(self):
        with pytest.raises(TooFewSamples):
            path_length(np.zeros((1, 3)))


class TestComfort:
    def test_well_below_band(self):
        assert comfort_check(0.1).wheelchair_band == "below"

    def test_boundaries_inclusive(self):
        assert comfort_check(0.3).wheelchair_band == "within"
        assert comfort_check(0.9).wheelchair_band == "within"

    def test_above(self):
        assert comfort_check(1.2).wheelchair_band == "above"

    def test_iso_reference_is_context_only(self):
        assessment = comfort_check(0.1)
        assert assessment.iso_reference == 0.315  # acceleration, never compared


class TestComputeTrialMetrics:
    def test_synthetic_min_jerk_matches_ground_truth(self):
        scenario = Scenario(
            seed=21,
            duration=3.0,
            ee_profile=ProfileSpec(kind="min_jerk", p0=(0, 0, 0), pf=(0.6, 0.3, 0.1)),
            wheelchair_profile=ProfileSpec(kind="min_jerk", p0=(0, 0), pf=(1.5, 0)),
        )
        session, gt = gen_session(scenario)
        synced = sync_session(session)
        tm = compute_trial_metrics(synced)
        assert tm.ee_path_length == pytest.approx(gt.ee_path_length, rel=0.05)
        assert tm.ee_mean_jerk == pytest.approx(
            gt.expected_mean_jerk(gt.ee, synced.grid.timestamps), rel=0.05
        )
        assert tm.wheelchair_mean_jerk == pytest.approx(
            gt.expected_mean_jerk(gt.wheelchair, synced.grid.timestamps), rel=0.05
        )

    def test_stationary_session(self):
        scenario = Scenario(
            seed=4,
            duration=10.0,
            ee_profile=ProfileSpec(kind="stationary", p0=(0, 0, 0), pf=(0, 0, 0)),
        )
        session, _ = gen_session(scenario)
        synced = sync_session(session)
        tm = compute_trial_metrics(synced)
        assert tm.duration == pytest.approx(10.0, abs=0.2)
        assert tm.ee_path_length == 0.0
        assert tm.ee_mean_jerk == 0.0
        assert tm.wheelchair_mean_jerk == 0.0

    def test_missing_wheelchair_channel(self):
        session, _ = gen_session(Scenario(seed=5))
        synced = sync_session(session)
        from dataclasses import replace

        numeric = dict(synced.numeric)
        del numeric["wheelchair_pose"]
        with pytest.raises(MissingChannel):
            compute_trial_metrics(replace(synced, numeric=numeric))

    def test_two_ee_streams_are_ambiguous(self):
        session, _ = gen_session(Scenario(seed=5))
        synced = sync_session(session)
        from dataclasses import replace

        numeric = {**synced.numeric, "end_effector": synced.numeric["ee_pose"]}
        with pytest.raises(AmbiguousStream, match="ee_pose.*end_effector"):
            compute_trial_metrics(replace(synced, numeric=numeric))

    def test_imu_named_ee_is_not_the_ee_stream(self):
        session, _ = gen_session(Scenario(seed=5))
        synced = sync_session(session)
        from dataclasses import replace

        numeric = {**synced.numeric, "ee_imu": synced.numeric["imu"]}
        assert compute_trial_metrics(replace(synced, numeric=numeric)) == compute_trial_metrics(synced)

    def test_time_shift_invariance(self):
        session, _ = gen_session(Scenario(seed=6))
        synced = sync_session(session)
        base = compute_trial_metrics(synced)
        from dataclasses import replace

        from sessionforge.session import TimedSeries
        from sessionforge.sync import ReferenceGrid

        shift = 100.0
        shifted = replace(
            synced,
            grid=ReferenceGrid(synced.grid.timestamps + shift, synced.grid.rate),
            numeric={
                n: TimedSeries(s.timestamps + shift, s.values, s.channels)
                for n, s in synced.numeric.items()
            },
        )
        moved = compute_trial_metrics(shifted)
        assert moved.duration == pytest.approx(base.duration, abs=1e-9)
        assert moved.ee_mean_jerk == pytest.approx(base.ee_mean_jerk, rel=1e-12)
        assert moved.ee_path_length == pytest.approx(base.ee_path_length, rel=1e-12)
