import numpy as np
import pytest
import scipy.signal

from sessionforge.errors import InvalidCutoff, SignalTooShort, UnclassifiedChannel
from sessionforge.filters import (
    ChannelClass,
    DenoisePolicy,
    classify_stream,
    denoise_raw,
    denoise_session,
    design_butterworth_lowpass,
    filter_series,
    filtfilt,
)
from sessionforge.session import Channel, TimedSeries
from sessionforge.sync import sync_session
from sessionforge.synth import Scenario, gen_session


class TestDesign:
    def test_structure_order_4(self):
        spec = design_butterworth_lowpass(4, 5.0, 100.0)
        assert len(spec.b) == 5 and len(spec.a) == 5
        assert spec.a[0] == pytest.approx(1.0, abs=1e-12)

    def test_dc_gain_unity(self):
        for order, cutoff, fs in [(1, 2.0, 50.0), (4, 5.0, 100.0), (6, 40.0, 200.0)]:
            spec = design_butterworth_lowpass(order, cutoff, fs)
            assert spec.dc_gain() == pytest.approx(1.0, abs=1e-9)

    def test_coefficients_match_reference_design(self):
        # independent oracle: scipy's butter (pole placement + bilinear)
        spec = design_butterworth_lowpass(4, 5.0, 100.0)
        b_ref, a_ref = scipy.signal.butter(4, 5.0 / 50.0)
        np.testing.assert_allclose(spec.b, b_ref, atol=1e-9)
        np.testing.assert_allclose(spec.a, a_ref, atol=1e-9)

    @pytest.mark.parametrize("order,cutoff,fs", [(2, 1.0, 30.0), (4, 10.0, 120.0), (5, 3.3, 48.0)])
    def test_cutoff_gain_is_3db(self, order, cutoff, fs):
        spec = design_butterworth_lowpass(order, cutoff, fs)
        gain_db = 20 * np.log10(spec.magnitude(cutoff))
        assert gain_db == pytest.approx(-20 * np.log10(np.sqrt(2)), abs=0.01)

    def test_stability(self):
        for cutoff in (0.5, 5.0, 20.0, 45.0):
            assert design_butterworth_lowpass(4, cutoff, 100.0).is_stable()

    def test_monotone_magnitude(self):
        spec = design_butterworth_lowpass(4, 5.0, 100.0)
        freqs = np.linspace(0.01, 49.9, 500)
        mags = np.array([spec.magnitude(f) for f in freqs])
        assert (np.diff(mags) < 1e-12).all()

    def test_invalid_cutoff(self):
        with pytest.raises(InvalidCutoff):
            design_butterworth_lowpass(4, 60.0, 100.0)
        with pytest.raises(InvalidCutoff):
            design_butterworth_lowpass(4, 0.0, 100.0)


class TestFiltfilt:
    def test_constant_passthrough(self):
        spec = design_butterworth_lowpass(4, 5.0, 100.0)
        x = np.full(200, 3.5)
        np.testing.assert_allclose(filtfilt(spec, x), x, atol=1e-9)

    def test_passband_sinusoid_amplitude_and_lag(self):
        spec = design_butterworth_lowpass(4, 5.0, 100.0)
        t = np.arange(0, 10, 0.01)
        x = np.sin(2 * np.pi * 1.0 * t)
        y = filtfilt(spec, x)
        core = slice(len(t) // 4, 3 * len(t) // 4)
        # analytic double-pass gain |H|^2 at 1 Hz
        expected = spec.magnitude(1.0) ** 2
        assert np.max(np.abs(y[core])) == pytest.approx(expected, rel=0.01)
        # zero lag: cross-correlation peaks at zero shift
        lags = np.arange(-20, 21)
        xc = [np.dot(np.roll(y, s)[core], x[core]) for s in lags]
        assert lags[int(np.argmax(xc))] == 0

    def test_stopband_sinusoid_attenuated(self):
        spec = design_butterworth_lowpass(4, 5.0, 100.0)
        t = np.arange(0, 10, 0.01)
        y = filtfilt(spec, np.sin(2 * np.pi * 20.0 * t))
        core = slice(len(t) // 4, 3 * len(t) // 4)
        assert np.max(np.abs(y[core])) <= 1e-4

    def test_linearity(self):
        rng = np.random.default_rng(6)
        spec = design_butterworth_lowpass(4, 5.0, 100.0)
        x, y = rng.normal(size=300), rng.normal(size=300)
        lhs = filtfilt(spec, 2.5 * x - 1.25 * y)
        rhs = 2.5 * filtfilt(spec, x) - 1.25 * filtfilt(spec, y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_bounded_output_on_fuzzed_signals(self):
        spec = design_butterworth_lowpass(4, 5.0, 100.0)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.uniform(-1, 1, 500)
            assert np.max(np.abs(filtfilt(spec, x))) <= 2.0

    def test_too_short_signal(self):
        spec = design_butterworth_lowpass(4, 5.0, 100.0)
        with pytest.raises(SignalTooShort):
            filtfilt(spec, np.zeros(spec.padlen))

    def test_columns_filtered_as_one_array(self):
        # each column exactly as on its own
        rng = np.random.default_rng(11)
        spec = design_butterworth_lowpass(4, 5.0, 100.0)
        x = rng.normal(size=(600, 3))
        per_column = np.column_stack([filtfilt(spec, x[:, c]) for c in range(3)])
        np.testing.assert_array_equal(filtfilt(spec, x), per_column)

    def test_agrees_with_scipy_filtfilt(self):
        # same padding convention (odd reflection, padlen 3*(order+1))
        rng = np.random.default_rng(9)
        spec = design_butterworth_lowpass(4, 5.0, 100.0)
        x = rng.normal(size=400)
        ref = scipy.signal.filtfilt(spec.b, spec.a, x)
        np.testing.assert_allclose(filtfilt(spec, x), ref, atol=1e-9)


class TestClassification:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("ee_pose", ChannelClass.EE_POSE),
            ("end-effector", ChannelClass.EE_POSE),
            ("arm_joints", ChannelClass.ARM_JOINTS),
            ("wheelchair_pose", ChannelClass.WHEELCHAIR_WHEELS),
            ("wheel_speeds", ChannelClass.WHEELCHAIR_WHEELS),
            ("imu", ChannelClass.IMU),
            ("battery_voltage", None),
        ],
    )
    def test_patterns(self, name, expected):
        assert classify_stream(name) is expected

    def test_default_policy_cutoffs(self):
        policy = DenoisePolicy.default()
        assert policy.cutoffs[ChannelClass.EE_POSE] == (4, 5.0)
        assert policy.cutoffs[ChannelClass.ARM_JOINTS] == (4, 5.0)
        assert policy.cutoffs[ChannelClass.WHEELCHAIR_WHEELS] == (4, 5.0)
        assert policy.cutoffs[ChannelClass.IMU] == (4, 10.0)


class TestDenoiseSession:
    def test_non_finite_samples_stay_where_they_were(self):
        """Each non-finite sample stays one sample; a channel with no finite
        sample passes as it is, and a clean one is filtered as before."""
        spec = design_butterworth_lowpass(4, 5.0, 100.0)
        t = np.arange(300) / 100.0
        clean = np.column_stack([np.sin(t), np.cos(t), np.sin(2 * t)])
        values = clean.copy()
        values[100, 0] = np.nan
        values[150, 1] = np.inf
        values[:, 2] = np.nan
        channels = tuple(Channel(c, "m") for c in "xyz")
        out = filter_series(TimedSeries(t, values, channels), spec).values
        assert np.array_equal(np.isfinite(out), np.isfinite(values))
        assert np.isinf(out[150, 1]) and np.isnan(out[:, 2]).all()
        plain = filter_series(TimedSeries(t, clean, channels), spec).values
        assert np.array_equal(plain.view(np.uint64), filtfilt(spec, clean).view(np.uint64))

    def test_noise_suppression_rms(self):
        # 30 Hz disturbance on a smooth trajectory; filtering at the native
        # rate must cut the RMS error at least 10x
        noisy, gt = gen_session(Scenario(seed=11, noise_sd=0.01))
        pre, done = denoise_raw(noisy, strict=False)
        assert "ee_pose" in done
        t = noisy.numeric["ee_pose"].timestamps
        clean = gt.ee.position(t)
        err_before = np.sqrt(np.mean((noisy.numeric["ee_pose"].values - clean) ** 2))
        err_after = np.sqrt(np.mean((pre.numeric["ee_pose"].values - clean) ** 2))
        assert err_before / err_after >= 10.0

    def test_constant_session_unchanged(self):
        from sessionforge.synth import ProfileSpec

        session, _ = gen_session(
            Scenario(
                seed=1,
                ee_profile=ProfileSpec(kind="stationary", p0=(0.5, 0.2, 0.1), pf=(0.5, 0.2, 0.1)),
                wheelchair_profile=ProfileSpec(kind="stationary", p0=(1.0, 2.0), pf=(1.0, 2.0)),
            )
        )
        synced = sync_session(session)
        with pytest.warns(UserWarning):  # IMU clamp at grid rate
            out = denoise_session(synced, strict=False)
        for name in ("ee_pose", "wheelchair_pose"):
            np.testing.assert_allclose(
                out.numeric[name].values, synced.numeric[name].values, atol=1e-9
            )

    def test_unclassified_strict_raises(self):
        session, _ = gen_session(Scenario(seed=2))
        synced = sync_session(session)
        renamed = dict(synced.numeric)
        renamed["mystery"] = renamed.pop("ee_pose")
        from dataclasses import replace

        broken = replace(synced, numeric=renamed)
        with pytest.warns(UserWarning, match="clamped"):
            with pytest.raises(UnclassifiedChannel):
                denoise_session(broken, strict=True)

    def test_imu_cutoff_clamped_at_low_grid_rate(self):
        session, _ = gen_session(Scenario(seed=2))
        synced = sync_session(session)
        with pytest.warns(UserWarning, match="clamped"):
            denoise_session(synced, strict=False)

    def test_grid_and_selections_untouched(self):
        session, _ = gen_session(Scenario(seed=2))
        synced = sync_session(session)
        with pytest.warns(UserWarning):
            out = denoise_session(synced, strict=False)
        assert out.grid is synced.grid
        assert out.frame_selections is synced.frame_selections
