import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.signal

from sessionforge.errors import InvalidCutoff, SignalTooShort, UnclassifiedChannel
from sessionforge.filters import (
    NYQUIST_CLAMP,
    ChannelClass,
    DenoisePolicy,
    FilterSpec,
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

    @pytest.mark.parametrize(
        "order,cutoff,fs",
        [(4, 5.0, 100.0), (4, 10.0, 100.0), (2, 1.0, 30.0), (6, 40.0, 200.0),
         (4, NYQUIST_CLAMP * 30.0, 30.0)],  # the last: a cutoff clamped below Nyquist
    )
    def test_coefficients_match_reference_design(self, order, cutoff, fs):
        spec = design_butterworth_lowpass(order, cutoff, fs)
        b_ref, a_ref = scipy.signal.butter(order, cutoff, fs=fs)
        np.testing.assert_array_equal(spec.b.view(np.uint64), b_ref.view(np.uint64))
        np.testing.assert_array_equal(spec.a.view(np.uint64), a_ref.view(np.uint64))

    def test_order_zero_raises(self):
        with pytest.raises(ValueError, match="order must be >= 1"):
            design_butterworth_lowpass(0, 5.0, 100.0)

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

    def test_equal_arguments_share_one_spec(self):
        assert design_butterworth_lowpass(4, 5.0, 100.0) is design_butterworth_lowpass(4, 5.0, 100.0)
        assert design_butterworth_lowpass(4, 5.0, 100.0) is not design_butterworth_lowpass(4, 10.0, 100.0)

    def test_shared_spec_is_read_only(self):
        spec = design_butterworth_lowpass(4, 5.0, 100.0)
        np.testing.assert_array_equal(spec.zi, scipy.signal.lfilter_zi(spec.b, spec.a))
        assert spec.zi is spec.zi  # computed once
        for arr in (spec.b, spec.a, spec.zi):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_callers_arrays_stay_writable(self):
        b, a = np.array([0.5, 0.5]), np.array([1.0, 0.0])
        spec = FilterSpec(order=1, cutoff=1.0, sample_rate=10.0, b=b, a=a)
        b[0] = a[1] = 0.25
        assert b.flags.writeable and a.flags.writeable
        assert spec.b[0] == 0.5 and spec.a[1] == 0.0

    def test_every_clamp_warns(self):
        # the design is cached below spec_for, so a repeat still warns
        policy = DenoisePolicy.default()
        for _ in range(2):
            with pytest.warns(UserWarning, match="clamped"):
                spec = policy.spec_for(ChannelClass.IMU, 15.0)
        assert spec.cutoff == pytest.approx(0.45 * 15.0)

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

    @pytest.mark.parametrize("order", [1, 2, 4, 6, 8])
    @pytest.mark.parametrize("columns", [None, 3], ids=["1d", "2d"])
    @pytest.mark.parametrize("length", ["long", "shortest"])
    def test_agrees_with_scipy_filtfilt(self, order, columns, length):
        # bit for bit: same padding (odd reflection, padlen 3*(order+1)) and
        # the same steady state seeding each direction
        rng = np.random.default_rng(9)
        spec = design_butterworth_lowpass(order, 5.0, 100.0)
        n = 400 if length == "long" else spec.padlen + 1
        x = rng.normal(size=(n,) if columns is None else (n, columns))
        ref = scipy.signal.filtfilt(spec.b, spec.a, x, axis=0)
        y = filtfilt(spec, x)
        assert y.shape == ref.shape
        assert np.array_equal(y.view(np.uint64), ref.view(np.uint64))


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


class TestPolicyFile:
    @pytest.mark.parametrize("cutoff", ["-1", "0", "NaN", "Infinity", "-Infinity", "true", '"5"', "null",
                                        "1" + "0" * 400])
    def test_cutoff_must_be_a_finite_number_above_zero(self, cutoff):
        """A cutoff no filter can be designed at is refused when the file is
        read, as ``order`` is, not at the first trial; ``Infinity`` would be
        clamped below Nyquist with only a warning, and a JSON integer past
        the float range would not convert."""
        d = json.loads(f'{{"ee_pose": {{"order": 4, "cutoff": {cutoff}}}}}')
        with pytest.raises(ValueError, match="ee_pose: cutoff must be a finite number > 0"):
            DenoisePolicy.from_json_dict(d)

    def test_integer_and_float_cutoffs_are_taken_as_floats(self):
        policy = DenoisePolicy.from_json_dict(
            {"ee_pose": {"order": 4, "cutoff": 5}, "imu": {"order": 2, "cutoff": 12.5}}
        )
        assert policy.cutoffs == {ChannelClass.EE_POSE: (4, 5.0), ChannelClass.IMU: (2, 12.5)}
        assert type(policy.cutoffs[ChannelClass.EE_POSE][1]) is float


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

    def test_raw_stage_strict_raises_for_unclassified(self):
        session, _ = gen_session(Scenario(seed=2))
        renamed = dict(session.numeric)
        renamed["mystery"] = renamed.pop("ee_pose")
        with pytest.raises(UnclassifiedChannel, match="'mystery' matches no policy class"):
            denoise_raw(replace(session, numeric=renamed), strict=True)

    def test_raw_stage_leaves_unclassified_for_the_grid_stage_unwarned(self):
        """The native-rate stage neither filters nor warns about a stream of
        no class: the grid-rate stage passes it through and warns once."""
        session, _ = gen_session(Scenario(seed=2))
        raw = replace(session, numeric={**session.numeric, "misc": session.numeric["ee_pose"]})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out, done = denoise_raw(raw, strict=False)
        assert [str(w.message) for w in caught] == []
        assert "misc" not in done and done == {"ee_pose", "imu", "wheelchair_pose"}
        assert out.numeric["misc"] is raw.numeric["misc"]

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
