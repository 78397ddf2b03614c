import io
import json
import math
import os
import re
import shutil
import stat
import sys
import threading
import warnings
import wave
from dataclasses import replace
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessionforge.errors import InvariantViolation, IoError, MalformedManifest, MissingFile
from sessionforge.session import (
    AudioMeta,
    AudioTrack,
    Channel,
    FrameTimestampLog,
    RawSession,
    SessionManifest,
    StreamDescriptor,
    StreamKind,
    Task,
    TimedSeries,
    _BLOCK_VALUES,
    _fixed_tables,
    _read_series_csv,
    _read_sidecar,
    _read_table,
    _replace_file,
    _table_bytes,
    _wav_bytes,
    describe_stream,
    descriptor_violations,
    load_session,
    load_synced,
    read_manifest,
    save_session,
    save_synced,
    session_checks,
    sessions_equal,
)
from sessionforge.sync import sync_session
from sessionforge.synth import Scenario, gen_session


@pytest.fixture
def synthetic_session():
    session, _ = gen_session(Scenario(seed=42, timestamp_jitter_sd=0.002, noise_sd=0.005))
    return session


def _with_stream(session, kind, name, data):
    """``session`` with stream ``name`` of ``kind`` ("numeric", "frame_logs" or
    "audio") replaced by ``data``, or dropped when ``data`` is None."""
    streams = {k: v for k, v in getattr(session, kind).items() if k != name}
    return replace(session, **{kind: streams if data is None else {**streams, name: data}})


def _edit_array(kind, name, field, edit):
    """An edit of a copy of array ``field`` of stream ``name``."""

    def apply(session):
        data = getattr(session, kind)[name]
        array = getattr(data, field).copy()
        edit(array)
        return _with_stream(session, kind, name, replace(data, **{field: array}))

    return apply


def _next_float(array):
    array.flat[0] = np.nextafter(array.flat[0], np.inf)


def _negate_first(array):
    array.flat[0] = -array.flat[0]


def _flip_low_bit(array):
    array.flat[0] ^= 1


def _edit_audio_meta(session):
    track = session.audio["mic"]
    meta = replace(track.meta, sample_rate=44100)
    return _with_stream(session, "audio", "mic", replace(track, meta=meta))


def _rename_first_channel(session):
    ee = session.numeric["ee_pose"]
    channels = (Channel("a", "m"), *ee.channels[1:])
    return _with_stream(session, "numeric", "ee_pose", replace(ee, channels=channels))


# Each kind of difference ``sessions_equal`` must see, as an edit of a session
# whose ee_pose starts with a 0.0 value.
SESSION_EDITS = {
    "manifest": lambda s: replace(s, manifest=replace(s.manifest, notes="edited")),
    "numeric-channels": _rename_first_channel,
    "numeric-timestamp-bits": _edit_array("numeric", "ee_pose", "timestamps", _next_float),
    "numeric-value-sign-of-zero": _edit_array("numeric", "ee_pose", "values", _negate_first),
    "frame-log-bits": _edit_array("frame_logs", "ego_cam", "frame_timestamps", _next_float),
    "audio-meta": _edit_audio_meta,
    "audio-samples": _edit_array("audio", "mic", "samples", _flip_low_bit),
    "missing-numeric": lambda s: _with_stream(s, "numeric", "imu", None),
    "missing-frame-log": lambda s: _with_stream(s, "frame_logs", "wrist_cam", None),
    "missing-audio": lambda s: _with_stream(s, "audio", "mic", None),
    "dialogues": lambda s: replace(s, dialogues=()),
}


class TestRoundTrip:
    def test_save_load_value_equal(self, synthetic_session, tmp_path):
        save_session(synthetic_session, tmp_path / "trial")
        loaded = load_session(tmp_path / "trial")
        assert sessions_equal(synthetic_session, loaded)

    def test_float_bit_patterns_survive(self, synthetic_session, tmp_path):
        save_session(synthetic_session, tmp_path / "trial")
        loaded = load_session(tmp_path / "trial")
        for name in synthetic_session.numeric:
            a = synthetic_session.numeric[name].values
            b = loaded.numeric[name].values
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_equality_compares_float_bits(self, synthetic_session):
        """``-0.0`` differs from ``0.0``, and any NaN equals any NaN."""
        ee = synthetic_session.numeric["ee_pose"]

        def with_ee(t0, v0):
            t, v = ee.timestamps.copy(), ee.values.copy()
            t[0], v[1, 0] = t0, v0
            numeric = {**synthetic_session.numeric, "ee_pose": replace(ee, timestamps=t, values=v)}
            return replace(synthetic_session, numeric=numeric)

        nan = np.float64(np.nan)
        assert np.signbit(-nan) != np.signbit(nan)
        assert sessions_equal(with_ee(0.0, nan), with_ee(0.0, -nan))
        assert not sessions_equal(with_ee(0.0, nan), with_ee(-0.0, nan))

    @pytest.mark.parametrize("edit", SESSION_EDITS)
    def test_equality_sees_each_kind_of_difference(self, synthetic_session, edit):
        ee = synthetic_session.numeric["ee_pose"]
        values = ee.values.copy()
        values[0, 0] = 0.0  # so the value-bits edit can make it -0.0
        base = _with_stream(synthetic_session, "numeric", "ee_pose", replace(ee, values=values))
        edited = SESSION_EDITS[edit](base)
        assert sessions_equal(base, replace(base))
        assert not sessions_equal(base, edited) and not sessions_equal(edited, base)

    def test_expected_stream_count(self, synthetic_session):
        # two cameras + three numeric + one audio
        assert len(synthetic_session.manifest.streams) == 6
        assert len(synthetic_session.numeric) == 3
        assert len(synthetic_session.frame_logs) == 2

    def test_dialogue_round_trips(self, synthetic_session, tmp_path):
        save_session(synthetic_session, tmp_path / "trial")
        loaded = load_session(tmp_path / "trial")
        assert loaded.dialogues == synthetic_session.dialogues

    @pytest.mark.parametrize("field,value", [("trial_id", "no-such-trial"), ("task", "cleaning")])
    def test_dialogue_of_another_trial_is_refused_by_save(
        self, synthetic_session, tmp_path, field, value
    ):
        """A dialogue record must name its session's id and task: save refuses,
        before writing anything, what load would reject."""
        dialogue = replace(synthetic_session.dialogues[0], **{field: value})
        bad = replace(synthetic_session, dialogues=(dialogue,))
        own = {"trial_id": synthetic_session.manifest.session_id, "task": "feeding"}[field]
        message = f"dialogue[0]: {field} {value!r} is not this trial's {own!r}"
        assert session_checks(bad) == ([message], [])
        with pytest.raises(InvariantViolation, match=re.escape(message)):
            save_session(bad, tmp_path / "trial")
        assert not (tmp_path / "trial").exists()


# Every table the two containers write: case -> (container, file).
WRONG_HEADER_TABLES = {
    "numeric-stream": ("trial", "streams/ee_pose.csv"),
    "frame-log": ("trial", "video/ego_cam.timestamps.csv"),
    "grid": ("synced", "grid.csv"),
    "selection": ("synced", "selections/ego_cam.csv"),
    "synced-stream": ("synced", "streams/ee_pose.csv"),
}


class TestLoadErrors:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MissingFile):
            load_session(tmp_path / "nope")

    def test_missing_referenced_csv(self, synthetic_session, tmp_path):
        save_session(synthetic_session, tmp_path / "trial")
        os.remove(tmp_path / "trial" / "streams" / "ee_pose.csv")
        with pytest.raises(MissingFile):
            load_session(tmp_path / "trial")

    def test_malformed_manifest_json(self, synthetic_session, tmp_path):
        save_session(synthetic_session, tmp_path / "trial")
        (tmp_path / "trial" / "manifest.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(MalformedManifest):
            load_session(tmp_path / "trial")

    def test_non_monotonic_timestamps(self, synthetic_session, tmp_path):
        save_session(synthetic_session, tmp_path / "trial")
        path = tmp_path / "trial" / "streams" / "ee_pose.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(InvariantViolation, match="strictly increasing"):
            load_session(tmp_path / "trial")

    @pytest.mark.parametrize("path", ["streams/ee_pose.csv", "video/ego_cam.timestamps.csv"])
    @pytest.mark.parametrize(
        "line,t,broken",
        [(1, "-inf", "must be finite"), (-1, "inf", "must be finite"), (4, "nan", "must be finite"),
         (3, "0", "strictly increasing")],
        ids=["first-minus-inf", "last-inf", "nan", "repeated"],
    )
    def test_streams_and_frame_logs_keep_one_time_rule(
        self, synthetic_session, tmp_path, path, line, t, broken
    ):
        save_session(synthetic_session, tmp_path / "trial")
        csv = tmp_path / "trial" / path
        lines = csv.read_text(encoding="utf-8").splitlines()
        lines[line] = ",".join([t, *lines[line].split(",")[1:]])
        csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(InvariantViolation, match=f"timestamps {broken}"):
            load_session(tmp_path / "trial")

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda row: row.rsplit(",", 1)[0],  # one field dropped
            lambda row: row + ",0",  # one field too many
            lambda row: row.replace(",", ",x", 1),  # non-numeric token
        ],
        ids=["dropped-field", "extra-field", "non-numeric"],
    )
    def test_malformed_row(self, synthetic_session, tmp_path, corrupt):
        save_session(synthetic_session, tmp_path / "trial")
        path = tmp_path / "trial" / "streams" / "ee_pose.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[5] = corrupt(lines[5])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(MalformedManifest, match=r"ee_pose\.csv: line 6\b"):
            load_session(tmp_path / "trial")

    def test_every_row_narrower_than_header(self, synthetic_session, tmp_path):
        save_session(synthetic_session, tmp_path / "trial")
        path = tmp_path / "trial" / "streams" / "ee_pose.csv"
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        rows = [r.rsplit(",", 1)[0] for r in rows]
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        with pytest.raises(MalformedManifest, match="columns"):
            load_session(tmp_path / "trial")

    @pytest.mark.parametrize("table", WRONG_HEADER_TABLES)
    def test_wrong_header_fails_the_load(self, synthetic_session, tmp_path, table):
        """Every table of both containers is read against its writer's header.
        Here a leading ``frame_index`` column is added: a frame log so written
        would otherwise give its indices as its timestamps."""
        container, name = WRONG_HEADER_TABLES[table]
        save_session(synthetic_session, tmp_path / "trial")
        save_synced(sync_session(synthetic_session), tmp_path / "synced")
        load = {"trial": load_session, "synced": load_synced}[container]
        load(tmp_path / container)  # fills the sidecars
        path = tmp_path / container / name
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        lines = [f"frame_index,{header}", *(f"{i},{row}" for i, row in enumerate(rows))]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(MalformedManifest, match=f"^{re.escape(str(path))}: header"):
            load(tmp_path / container)

    @pytest.mark.parametrize(
        "entry",
        [
            {"file": "../../outside/imu.csv"},
            {"name": "../../../outside/imu", "file": "streams/../../../outside/imu.csv"},
        ],
        ids=["file", "name"],
    )
    def test_stream_outside_the_trial_is_never_opened(self, synthetic_session, tmp_path, entry):
        """A manifest entry that reaches outside the trial fails before any
        stream file is read, so nothing is read or created outside the dataset."""
        data = tmp_path / "data"
        save_session(synthetic_session, data / "trial")
        (tmp_path / "outside").mkdir()
        shutil.copy(data / "trial" / "streams" / "imu.csv", tmp_path / "outside" / "imu.csv")
        path = data / "trial" / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        next(s for s in manifest["streams"] if s["name"] == "imu").update(entry)
        path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(MalformedManifest, match=r"manifest\.json: .*must be"):
            load_session(data / "trial")
        outside = [p for p in tmp_path.rglob("*") if data not in (p, *p.parents)]
        assert sorted(p.relative_to(tmp_path) for p in outside) == [
            Path("outside"), Path("outside/imu.csv")
        ]

    def test_header_only_csv(self, synthetic_session, tmp_path):
        save_session(synthetic_session, tmp_path / "trial")
        path = tmp_path / "trial" / "streams" / "ee_pose.csv"
        path.write_text(path.read_text(encoding="utf-8").splitlines()[0] + "\n", encoding="utf-8")
        channels = synthetic_session.numeric["ee_pose"].channels
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = _read_series_csv(path, channels)
            assert series.timestamps.shape == (0,)
            assert series.values.shape == (0, len(channels))
            with pytest.raises(InvariantViolation, match="N >= 2"):
                load_session(tmp_path / "trial")


def _wav(sampwidth: int, nframes: int, rate: int = 48000):
    def write(path):
        with wave.open(str(path), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(sampwidth)
            w.setframerate(rate)
            w.writeframes(bytes(sampwidth * nframes))

    return write


def _cut(n: int):
    return lambda path: path.write_bytes(path.read_bytes()[:n])


# WAV files that a full and a header-only load both accept (None) or both
# refuse with the same error.
WAV_CASES = {
    "intact": (lambda path: None, None),
    "not-riff": (lambda path: path.write_bytes(b"RIFX" * 16), MalformedManifest),
    "cut-in-header": (_cut(30), MalformedManifest),
    "cut-mid-sample": (_cut(45), MalformedManifest),
    "cut-on-a-sample": (_cut(1000), None),
    "byte-after-data": (lambda path: path.write_bytes(path.read_bytes() + b"\0"), None),
    "8-bit-odd-bytes": (_wav(1, 101), MalformedManifest),
    "8-bit": (_wav(1, 100), InvariantViolation),
    "not-the-entry-rate": (_wav(2, 100, rate=8000), InvariantViolation),
}


class TestHeaderOnlyAudio:
    """``load_session(audio=False)`` checks each WAV's header as a full load
    does and reads none of its samples."""

    @pytest.mark.parametrize("case", WAV_CASES)
    def test_same_outcome_as_a_full_load(self, synthetic_session, tmp_path, monkeypatch, case):
        corrupt, error = WAV_CASES[case]
        save_session(synthetic_session, tmp_path / "trial")
        corrupt(tmp_path / "trial" / "audio" / "mic.wav")
        if error is not None:
            for audio in (True, False):
                with pytest.raises(error, match="mic"):
                    load_session(tmp_path / "trial", audio=audio)
            return
        full = load_session(tmp_path / "trial")

        def no_samples(self, nframes):
            raise AssertionError("WAV samples were read")

        monkeypatch.setattr(wave.Wave_read, "readframes", no_samples)
        lean = load_session(tmp_path / "trial", audio=False)
        assert lean.audio == {} and full.audio
        assert sessions_equal(replace(full, audio={}), lean)

    def test_cannot_be_saved(self, synthetic_session, tmp_path):
        save_session(synthetic_session, tmp_path / "trial")
        lean = load_session(tmp_path / "trial", audio=False)
        with pytest.raises(InvariantViolation, match=r"streams\[mic\]: manifest entry"):
            save_session(lean, tmp_path / "copy")
        assert not (tmp_path / "copy").exists()


class TestFormat:
    """The container's CSV text, pinned byte for byte."""

    def test_golden_bytes(self, tmp_path):
        series = TimedSeries(
            timestamps=[0.0, 5e-324, 0.1],
            values=[
                [np.nan, -0.0],
                [np.inf, 0.1],
                [-np.inf, -1.2345678901234567e-10],
            ],
            channels=(Channel("x", "m"), Channel("y", "m")),
        )
        log = FrameTimestampLog([0.0, 1 / 15, 0.2])
        manifest = SessionManifest(
            session_id="golden",
            participant_id="p1",
            task=Task.FEEDING,
            success=True,
            created_at=datetime(2026, 1, 1, tzinfo=timezone.utc),
            streams=(
                StreamDescriptor(
                    "pose", StreamKind.NUMERIC, 100.0, series.channels, "streams/pose.csv"
                ),
                StreamDescriptor(
                    "cam", StreamKind.VIDEO_FRAMES, 15.0, (Channel("frame", "1"),),
                    "video/cam.timestamps.csv",
                ),
            ),
        )
        session = RawSession(manifest=manifest, numeric={"pose": series}, frame_logs={"cam": log})
        save_session(session, tmp_path / "trial")

        assert (tmp_path / "trial" / "streams" / "pose.csv").read_bytes() == (
            b"t,x,y\n"
            b"0,nan,-0\n"
            b"4.9406564584124654e-324,inf,0.10000000000000001\n"
            b"0.10000000000000001,-inf,-1.2345678901234568e-10\n"
        )
        assert (tmp_path / "trial" / "video" / "cam.timestamps.csv").read_bytes() == (
            b"t\n0\n0.066666666666666666\n0.20000000000000001\n"
        )
        loaded = load_session(tmp_path / "trial")
        got = loaded.numeric["pose"]
        for a, b in [
            (series.timestamps, got.timestamps),
            (series.values, got.values),
            (log.frame_timestamps, loaded.frame_logs["cam"].frame_timestamps),
        ]:
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    @pytest.mark.parametrize(
        "rows", [0, 1, _BLOCK_VALUES // 4 - 1, _BLOCK_VALUES // 4, _BLOCK_VALUES // 4 + 1,
                 4095, 4096, 4097, 10000],
    )
    def test_table_bytes_match_savetxt(self, rows):
        """The block encoder gives numpy.savetxt's bytes, across block edges
        (a block holds ``_BLOCK_VALUES // 4`` rows of this 4-column table)."""
        rng = np.random.default_rng(rows)
        values = rng.normal(size=(rows, 3)) * 10.0 ** rng.integers(-300, 300, size=(rows, 3))
        flat = values.reshape(-1)  # a view
        flat[::7] = np.resize([np.nan, np.inf, -np.inf, -0.0, 1e17, 5e-324, 3.0], flat[::7].size)
        columns = [np.arange(rows) / 7.0, values]
        want = io.BytesIO()
        np.savetxt(
            want, np.column_stack(columns), fmt="%.17g", delimiter=",", header="t,a,b,c",
            comments="",
        )
        assert _table_bytes(["t", "a", "b", "c"], columns) == want.getvalue()

    @staticmethod
    def assert_percent_bytes(*columns):
        """``_table_bytes`` gives the reference: ``b"%.17g" % v`` for each
        value, joined row by row."""
        table = np.column_stack(columns)
        header = [f"c{i}" for i in range(table.shape[1])]
        want = b"".join(b",".join(b"%.17g" % v for v in row) + b"\n" for row in table.tolist())
        assert _table_bytes(header, list(columns)) == ",".join(header).encode() + b"\n" + want

    @given(st.lists(st.lists(st.floats(), min_size=3, max_size=3), max_size=50))
    @settings(max_examples=300, deadline=None)
    def test_any_float_is_written_as_percent_writes_it(self, rows):
        self.assert_percent_bytes(np.array(rows, dtype=np.float64).reshape(-1, 3))

    @given(st.lists(st.floats(1e-4, 1e17), min_size=1, max_size=50), st.integers(0, 4))
    @settings(max_examples=300, deadline=None)
    def test_fixed_point_floats_are_written_as_percent_writes_them(self, values, shift):
        x = np.array(values) * 10.0**-shift
        self.assert_percent_bytes(x, -x)

    def test_exact_ties_round_half_to_even(self):
        """n + 1/4 and n + 3/4 with 16-digit n are exact halves at the 17th
        digit: %.17g rounds them to the even digit."""
        n = np.concatenate([
            1e15 + np.arange(50_000),
            np.random.default_rng(5).integers(10**15, 225 * 10**13, 50_000),
        ]).astype(np.float64)
        self.assert_percent_bytes((4 * n + 1) / 4, (4 * n + 3) / 4)

    def test_neighbours_of_powers_of_ten(self):
        """The exponent is exact at 10**k, and no double below 10**k rounds
        up to it at 17 digits."""
        near = []
        for k in range(-8, 19):
            x = float(f"1e{k}")
            for _ in range(4):
                x = math.nextafter(x, -math.inf)
            for _ in range(9):
                near.append(x)
                x = math.nextafter(x, math.inf)
        near = np.array(near)
        self.assert_percent_bytes(near, -near)

    @pytest.mark.parametrize("towards", [-np.inf, np.inf], ids=["below", "above"])
    def test_exponent_survives_a_log10_an_ulp_off(self, monkeypatch, towards):
        """The exponent is corrected against exact thresholds, so a ``log10``
        an ulp off near ``10**k`` changes no byte."""
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda x: np.nextafter(log10(x), towards))
        self.test_neighbours_of_powers_of_ten()

    def test_thresholds_are_the_least_doubles_at_powers_of_ten(self):
        for k, f in zip(range(-5, 19), _fixed_tables()[0].tolist()):
            assert Fraction(f) >= Fraction(10) ** k > Fraction(math.nextafter(f, 0))

    @pytest.mark.parametrize(
        "values",
        [
            [float("99999999999999999"), float("99999999999999995"), 1e17,
             math.nextafter(1e17, 0), float("9.99999999999999999e16"), float("9.999999999999999e16")],
            [1e-4, math.nextafter(1e-4, 0), math.nextafter(1e-4, 1), float("9.99999999999999999e-5"),
             float("0.000099999999999999995"), 0.00010000000000000005],
            [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, -1e-310],
            [np.nan, -np.nan, np.inf, -np.inf, 1.5, -2.5],
        ],
        ids=["round-up-to-1e17", "1e-4", "zeros-and-subnormals", "nan-and-inf"],
    )
    def test_edge_values(self, values):
        self.assert_percent_bytes(np.array(values), np.array(values[::-1]))

    def test_selection_table_with_large_ints(self):
        """``%`` converts an int to float; so does the encoder."""
        index = np.array(
            [0, 1, 2**53, 2**53 + 1, 2**53 + 3, 2**62 + 7, 2**63 - 1, -(2**63), 12345678901234567]
        )
        flags = np.array([True, False, True, True, False, True, False, True, True])
        self.assert_percent_bytes(index, flags)

    @pytest.mark.parametrize(
        "value", [0.0, -0.0, 1e-6, np.nan], ids=["zero", "negative-zero", "1e-6", "nan"]
    )
    def test_table_of_values_outside_the_digit_path(self, value):
        """Tables with no value in fixed point, over several blocks."""
        rows = _BLOCK_VALUES  # four blocks of this 4-column table
        jitter = 1.0 + np.arange(rows * 4).reshape(rows, 4) * 1e-9 if value == 1e-6 else 1.0
        self.assert_percent_bytes(np.full((rows, 4), value) * jitter)

    def test_mixed_block_merges_values_with_an_exponent(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3 * _BLOCK_VALUES // 2, 2))
        x[::3, 0] *= 1e-9
        x[::5, 1] *= 1e30
        x[::7, 1] = 0.0
        x[::11, 0] = np.nan
        self.assert_percent_bytes(np.arange(len(x)) / 100.0, x)

    @pytest.mark.parametrize("step", [1, 3], ids=["contiguous", "strided"])
    def test_wav_bytes_match_the_wave_module(self, tmp_path, step):
        """The WAV encoder gives the bytes ``wave`` writes to a file for the
        samples' little-endian 16-bit copy."""
        samples = np.random.default_rng(step).integers(-32768, 32768, 3000, dtype=np.int16)[::step]
        track = AudioTrack(meta=AudioMeta(sample_rate=8000, bit_depth=16, channels=1), samples=samples)
        with wave.open(str(tmp_path / "want.wav"), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(2)
            w.setframerate(8000)
            w.writeframes(samples.astype("<i2").tobytes())
        assert _wav_bytes(track) == (tmp_path / "want.wav").read_bytes()


class TestReplaceFile:
    """``_replace_file`` puts the new bytes in place whole, or leaves the old ones."""

    def test_replaces_the_bytes_and_keeps_the_mode(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_bytes(b"old")
        path.chmod(0o640)
        _replace_file(path, b"new bytes")
        assert path.read_bytes() == b"new bytes"
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]

    def test_new_file_gets_the_mode_of_any_new_file(self, tmp_path):
        (tmp_path / "plain").write_bytes(b"")
        _replace_file(tmp_path / "new", b"x")
        assert stat.S_IMODE((tmp_path / "new").stat().st_mode) == stat.S_IMODE(
            (tmp_path / "plain").stat().st_mode
        )

    def test_symlink_is_followed(self, tmp_path):
        (tmp_path / "real").write_bytes(b"old")
        (tmp_path / "link").symlink_to("real")
        _replace_file(tmp_path / "link", b"new")
        assert (tmp_path / "link").is_symlink()
        assert (tmp_path / "real").read_bytes() == b"new"

    def test_file_the_caller_may_not_write_is_refused(self, tmp_path, monkeypatch):
        """A read-only file is refused, as opening it would be, not renamed
        over; ``os.access`` stands in for a caller without root."""
        path = tmp_path / "out.json"
        path.write_bytes(b"old bytes")
        monkeypatch.setattr(os, "access", lambda p, m: not (Path(p) == path and m == os.W_OK))
        with pytest.raises(PermissionError, match="out.json"):
            _replace_file(path, b"new bytes")
        assert path.read_bytes() == b"old bytes"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]

    def test_interrupted_move_leaves_the_old_file_and_no_temp_file(self, tmp_path, monkeypatch):
        """Interrupted once the temp file is written; a write that fails
        part-way is tested through the CLI (``test_cli``)."""
        path = tmp_path / "out.json"
        path.write_bytes(b"old bytes")

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupt)
        with pytest.raises(KeyboardInterrupt):
            _replace_file(path, b"new bytes")
        assert path.read_bytes() == b"old bytes"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]


class TestSaveErrors:
    def test_empty_session_id(self, synthetic_session, tmp_path):
        bad = replace(
            synthetic_session, manifest=replace(synthetic_session.manifest, session_id="")
        )
        with pytest.raises(InvariantViolation, match="session_id"):
            save_session(bad, tmp_path / "trial")

    @pytest.mark.parametrize(
        "mismatch",
        [
            lambda d: replace(d, channels=d.channels[:2]),  # loads as a header mismatch
            lambda d: replace(d, kind=StreamKind.VIDEO_FRAMES),
            lambda d: None,  # written, then dropped by load
        ],
        ids=["channels", "kind", "no-entry"],
    )
    def test_entry_that_does_not_describe_the_data(self, synthetic_session, tmp_path, mismatch):
        m = synthetic_session.manifest
        streams = [mismatch(s) if s.name == "imu" else s for s in m.streams]
        bad = replace(synthetic_session, manifest=replace(m, streams=[s for s in streams if s]))
        with pytest.raises(InvariantViolation, match=r"streams\[imu\]: manifest entry"):
            save_session(bad, tmp_path / "trial")
        assert not (tmp_path / "trial").exists()

    @pytest.mark.parametrize(
        "entry_rate, track_rate, needle",
        [
            (8000.0, 48000, r"streams\[mic\]: manifest entry"),
            (44100.5, 44100.5, "must be an integer > 0"),  # the WAV header would say 44100
            (1.0, True, "must be an integer > 0"),
        ],
        ids=["not-the-track-rate", "fractional", "bool"],
    )
    def test_audio_rate_that_would_not_load_back(
        self, synthetic_session, tmp_path, entry_rate, track_rate, needle
    ):
        track = synthetic_session.audio["mic"]
        track = replace(track, meta=replace(track.meta, sample_rate=track_rate))
        m = synthetic_session.manifest
        streams = [replace(s, nominal_rate=entry_rate) if s.name == "mic" else s for s in m.streams]
        bad = replace(synthetic_session, manifest=replace(m, streams=streams), audio={"mic": track})
        with pytest.raises(InvariantViolation, match=needle):
            save_session(bad, tmp_path / "trial")
        assert not (tmp_path / "trial").exists()

    def test_entry_without_data(self, synthetic_session, tmp_path):
        numeric = {n: s for n, s in synthetic_session.numeric.items() if n != "imu"}
        with pytest.raises(InvariantViolation, match=r"streams\[imu\]: manifest entry"):
            save_session(replace(synthetic_session, numeric=numeric), tmp_path / "trial")
        assert not (tmp_path / "trial").exists()

    def test_read_only_dir(self, synthetic_session, tmp_path):
        target = tmp_path / "ro"
        target.mkdir()
        target.chmod(stat.S_IRUSR | stat.S_IXUSR)
        if os.access(target / "x", os.W_OK) or os.geteuid() == 0:
            pytest.skip("cannot enforce read-only directory (running as root)")
        with pytest.raises(IoError):
            save_session(synthetic_session, target / "trial")

    def test_dir_under_a_file(self, synthetic_session, tmp_path):
        """ENOTDIR, which root cannot override as it can a read-only mode; the
        error names the file the save was writing, its first."""
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        with pytest.raises(IoError) as raised:
            save_session(synthetic_session, blocker / "trial")
        first = describe_stream(*next(iter(synthetic_session.numeric.items()))).file
        assert str(raised.value).startswith(f"{blocker / 'trial' / first}: ")


# Channel names save and read_manifest refuse. Load splits the stripped header
# line on commas, so a comma or a line break splits a cell and trailing
# whitespace is lost; the rule refuses whitespace at either edge of any name.
UNHEADERABLE = {
    "comma": "a,b",
    "line-feed": "a\nb",
    "carriage-return": "a\rb",
    "trailing-space": "z ",
    "leading-space": " z",
}


def _with_last_ee_channel(session, name):
    """``session`` with its ee_pose's last channel renamed ``name``, and the
    manifest entry describing it."""
    ee = session.numeric["ee_pose"]
    ee = replace(ee, channels=(*ee.channels[:-1], Channel(name, "m")))
    m = session.manifest
    streams = [describe_stream("ee_pose", ee, s.nominal_rate) if s.name == "ee_pose" else s
               for s in m.streams]
    return replace(_with_stream(session, "numeric", "ee_pose", ee), manifest=replace(m, streams=streams))


class TestChannelNames:
    @pytest.mark.parametrize("name", UNHEADERABLE.values(), ids=UNHEADERABLE)
    def test_save_refuses_a_name_the_header_cannot_hold(self, synthetic_session, tmp_path, name):
        """Save refuses, before writing anything, what load would reject as a
        header that is not the manifest's channels."""
        bad = _with_last_ee_channel(synthetic_session, name)
        with pytest.raises(InvariantViolation, match=r"streams\[ee_pose\]\.channels\[.*\]\.name"):
            save_session(bad, tmp_path / "trial")
        assert not (tmp_path / "trial").exists()

    @pytest.mark.parametrize("name", UNHEADERABLE.values(), ids=UNHEADERABLE)
    def test_read_manifest_refuses_a_name_the_header_cannot_hold(
        self, synthetic_session, tmp_path, name
    ):
        save_session(synthetic_session, tmp_path / "trial")
        path = tmp_path / "trial" / "manifest.json"
        d = json.loads(path.read_text(encoding="utf-8"))
        entry = next(s for s in d["streams"] if s["name"] == "ee_pose")
        entry["channels"][-1]["name"] = name
        path.write_text(json.dumps(d), encoding="utf-8")
        with pytest.raises(MalformedManifest, match=r"streams\[ee_pose\]\.channels"):
            read_manifest(tmp_path / "trial")

    def test_save_refuses_a_repeated_name(self, synthetic_session, tmp_path):
        """``x, y, x``: ``channel_index`` would find only the first ``x``."""
        bad = _with_last_ee_channel(synthetic_session, "x")
        with pytest.raises(InvariantViolation, match=r"streams\[ee_pose\]\.channels: a channel"):
            save_session(bad, tmp_path / "trial")
        assert not (tmp_path / "trial").exists()

    def test_read_manifest_refuses_a_repeated_name(self, synthetic_session, tmp_path):
        save_session(synthetic_session, tmp_path / "trial")
        path = tmp_path / "trial" / "manifest.json"
        d = json.loads(path.read_text(encoding="utf-8"))
        entry = next(s for s in d["streams"] if s["name"] == "ee_pose")
        entry["channels"][-1]["name"] = entry["channels"][0]["name"]
        path.write_text(json.dumps(d), encoding="utf-8")
        with pytest.raises(MalformedManifest, match=r"streams\[ee_pose\]\.channels: a channel"):
            read_manifest(tmp_path / "trial")

    def test_a_name_with_inner_space_round_trips(self, synthetic_session, tmp_path):
        session = _with_last_ee_channel(synthetic_session, "z axis")
        save_session(session, tmp_path / "trial")
        assert sessions_equal(load_session(tmp_path / "trial"), session)


class TestValidateManifest:
    def test_paper_conformant_manifest(self, synthetic_session):
        manifest = synthetic_session.manifest
        rates = sorted(
            s.nominal_rate for s in manifest.streams if s.kind.value == "video_frames"
        )
        assert rates == [12.0, 15.0]
        assert session_checks(synthetic_session) == ([], [])

    def test_unknown_task_flagged(self, synthetic_session):
        bad = replace(synthetic_session.manifest, task="Walking")
        _, flags = session_checks(replace(synthetic_session, manifest=bad))
        assert any("taxonomy" in v for v in flags)

    def test_nonconformant_audio_rate_flagged(self, synthetic_session):
        session, _ = gen_session(Scenario(seed=1, audio_rate=44100))
        _, flags = session_checks(session)
        assert any("audio-rate-nonconformant" in v for v in flags)

    def test_describe_stream(self):
        series = TimedSeries([0.0, 0.1], [[1.0], [2.0]], (Channel("x", "m"),))
        log = FrameTimestampLog([0.0, 0.1])
        track = AudioTrack(AudioMeta(48000, 16, 1), np.zeros(4, np.int16))
        assert describe_stream("pose", series, 100) == StreamDescriptor(
            "pose", StreamKind.NUMERIC, 100, series.channels, "streams/pose.csv"
        )
        assert describe_stream("cam", log, 15.0) == StreamDescriptor(
            "cam", StreamKind.VIDEO_FRAMES, 15.0, (Channel("frame", "1"),),
            "video/cam.timestamps.csv",
        )
        assert describe_stream("mic", track) == StreamDescriptor(
            "mic", StreamKind.AUDIO, 48000.0, (Channel("pcm", "1"),), "audio/mic.wav"
        )

    def test_synth_manifest_is_described_from_its_data(self, synthetic_session):
        session = synthetic_session
        held = {**session.numeric, **session.frame_logs, **session.audio}
        for s in session.manifest.streams:
            assert describe_stream(s.name, held[s.name], s.nominal_rate) == s

    @pytest.mark.parametrize("name", ["", ".", "..", "a/b", "a\\b", "a\0b"])
    def test_stream_name_must_be_a_plain_file_name(self, name):
        desc = StreamDescriptor(name, StreamKind.AUDIO, 48000.0, (Channel("pcm", "1"),), "")
        assert descriptor_violations(desc) == [f"streams[{name}].name: must be a plain file name"]

    def test_stream_file_is_fixed_by_kind_and_name(self):
        desc = StreamDescriptor("mic", StreamKind.AUDIO, 48000.0, (Channel("pcm", "1"),), "mic.wav")
        assert descriptor_violations(desc) == ["streams[mic].file: must be 'audio/mic.wav'"]

    @pytest.mark.parametrize("video_first", [False, True], ids=["numeric-first", "video-first"])
    def test_one_name_under_two_kinds_is_rejected_in_either_order(
        self, synthetic_session, tmp_path, video_first
    ):
        # a video "imu" beside the numeric "imu": the answer must not hang on
        # which of the two entries the manifest lists first
        log = FrameTimestampLog([0.0, 0.1, 0.2])
        video = describe_stream("imu", log, 10.0)
        streams = list(synthetic_session.manifest.streams)
        at = next(i for i, s in enumerate(streams) if s.name == "imu") + (0 if video_first else 1)
        streams.insert(at, video)
        bad = replace(
            synthetic_session,
            manifest=replace(synthetic_session.manifest, streams=tuple(streams)),
            frame_logs={**synthetic_session.frame_logs, "imu": log},
        )
        assert session_checks(bad) == (["streams[imu]: one name under two kinds"], [])
        with pytest.raises(InvariantViolation, match=r"streams\[imu\]: one name under two kinds"):
            save_session(bad, tmp_path / "trial")
        assert not (tmp_path / "trial").exists()

    def test_task_enum_covers_exactly_the_five_tasks(self):
        assert {t.value for t in Task} == {
            "cleaning",
            "door_opening",
            "drawer_opening",
            "drinking",
            "feeding",
        }


class TestMutationDetection:
    """Every declared invariant is caught by validation on a one-field
    corruption."""

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda m: replace(m, session_id=""), "session_id"),
            (lambda m: replace(m, task="juggling"), "taxonomy"),
            (
                lambda m: replace(
                    m, streams=(replace(m.streams[0], nominal_rate=-1.0),) + m.streams[1:]
                ),
                "nominal_rate",
            ),
            (
                lambda m: replace(
                    m,
                    streams=(
                        replace(m.streams[0], channels=m.streams[0].channels * 2),
                    )
                    + m.streams[1:],
                ),
                "exactly one channel",
            ),
        ],
    )
    def test_manifest_mutations_detected(self, synthetic_session, mutate, needle):
        bad = replace(synthetic_session, manifest=mutate(synthetic_session.manifest))
        broken, flags = session_checks(bad)
        assert any(needle in v for v in broken + flags)

    def test_numeric_unit_must_be_nonempty(self, synthetic_session):
        m = synthetic_session.manifest
        numeric = next(s for s in m.streams if s.kind.value == "numeric")
        broken = replace(
            numeric, channels=(replace(numeric.channels[0], unit=""),) + numeric.channels[1:]
        )
        bad = replace(m, streams=tuple(broken if s.name == numeric.name else s for s in m.streams))
        violations, _ = session_checks(replace(synthetic_session, manifest=bad))
        assert any("non-empty SI" in v for v in violations)

    def test_series_nan_timestamp_detected(self, synthetic_session):
        from sessionforge.session import TimedSeries

        s = synthetic_session.numeric["ee_pose"]
        ts = s.timestamps.copy()
        ts[3] = np.nan
        bad_series = TimedSeries(ts, s.values, s.channels)
        bad = replace(
            synthetic_session, numeric={**synthetic_session.numeric, "ee_pose": bad_series}
        )
        broken, _ = session_checks(bad)
        assert any("finite" in v for v in broken)


def sidecars(csv):
    """The hidden files next to ``csv`` that belong to it."""
    return sorted(p for p in csv.parent.iterdir() if p.name.startswith(f".{csv.name}."))


def fresh_parse(csv, dtype=np.float64):
    return np.loadtxt(csv, dtype, delimiter=",", skiprows=1, ndmin=2, comments=None)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def no_parse(*args, **kwargs):
    raise AssertionError("parsed a CSV that has a valid sidecar")


def no_rows(*args, **kwargs):
    raise AssertionError("read the rows of a sidecar whose size is wrong")


# Tables a sidecar must reproduce bit for bit: a negative NaN is written as
# "nan" and parses back positive, so the sidecar holds the parse, not the table.
SIDECAR_TABLES = {
    "float-specials": (
        "t,x,y",
        [[0.0, 0.1, 5e-324], [-0.0, np.inf, -np.inf], [np.copysign(np.nan, -1), np.nan, 1e300]],
        np.float64,
    ),
    "int-selections": ("index,accepted", [[0, 3, 7, 7], [1, 0, 1, 1]], int),
}


def count_bytes(rows):
    """A sidecar's header: its row count, 8 bytes little-endian."""
    return rows.to_bytes(8, "little")


def huge_header(path, data):
    """A row count of 2**40 over the sidecar's own rows."""
    path.write_bytes(count_bytes(1 << 40) + data.tobytes())


XY = ["t", "x", "y"]  # the header of TestSidecar's table
F8 = np.dtype("<f8")  # the dtype of its sidecar


class TestSidecar:
    """``_read_table`` memoizes its parse in a hash-checked sidecar."""

    @pytest.fixture
    def csv(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(
            _table_bytes(XY, [np.arange(50) / 7.0, np.linspace(-1, 1, 100).reshape(50, 2)])
        )
        return path

    @pytest.mark.parametrize("table", SIDECAR_TABLES)
    def test_sidecar_equals_fresh_parse(self, tmp_path, monkeypatch, table):
        header, columns, dtype = SIDECAR_TABLES[table]
        path = tmp_path / "t.csv"
        path.write_bytes(_table_bytes(header.split(","), [np.asarray(c, dtype) for c in columns]))
        want = fresh_parse(path, dtype)
        cold = _read_table(path, header.split(","), dtype)
        assert same_bits(cold, want)
        assert len(sidecars(path)) == 1
        monkeypatch.setattr(np, "loadtxt", no_parse)
        warm = _read_table(path, header.split(","), dtype)
        assert same_bits(warm, want)
        assert warm.flags.writeable and warm.flags.c_contiguous

    def test_one_read_of_the_csv_per_call(self, csv, monkeypatch):
        """A miss opens the CSV once and parses the bytes it read, not the
        file; a hit opens it once and parses nothing."""
        want = fresh_parse(csv)
        opened, parsed = [], []
        open_, loadtxt = Path.open, np.loadtxt

        def counting_open(self, *args, **kwargs):
            opened.append(self)
            return open_(self, *args, **kwargs)

        def recording_parse(source, *args, **kwargs):
            parsed.append(source)
            return loadtxt(source, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counting_open)
        monkeypatch.setattr(np, "loadtxt", recording_parse)
        assert same_bits(_read_table(csv, XY), want)
        assert opened.count(csv) == 1 and len(sidecars(csv)) == 1
        assert len(parsed) == 1 and isinstance(parsed[0], list)
        assert same_bits(_read_table(csv, XY), want)
        assert opened.count(csv) == 2 and len(parsed) == 1

    def test_edited_csv_wins_over_its_sidecar(self, csv):
        _read_table(csv, XY)
        (old,) = sidecars(csv)
        lines = csv.read_text(encoding="utf-8").splitlines()
        lines[3] = "9,9,9"
        csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        data = _read_table(csv, XY)
        assert data[2].tolist() == [9.0, 9.0, 9.0]
        assert same_bits(data, fresh_parse(csv))
        (new,) = sidecars(csv)
        assert new != old

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda path, data: path.write_bytes(b"not a sidecar"),
            lambda path, data: path.write_bytes(path.read_bytes()[:-8]),
            lambda path, data: path.write_bytes(path.read_bytes()[: -3 * 8]),
            lambda path, data: path.write_bytes(path.read_bytes() + data[:1].tobytes()),
            lambda path, data: path.write_bytes(b""),
            lambda path, data: path.write_bytes(
                count_bytes(len(data)) + data.astype(np.float32).tobytes()
            ),
            lambda path, data: path.write_bytes(count_bytes(len(data)) + data[:, :2].tobytes()),
            huge_header,
        ],
        ids=[
            "corrupt",
            "truncated",
            "short-a-row",
            "extra-row",
            "empty",
            "wrong-dtype",
            "wrong-width",
            "huge-header",
        ],
    )
    def test_bad_sidecar_falls_back_and_is_replaced(self, csv, spoil, monkeypatch):
        """A sidecar whose size is not its row count's is a miss, found
        before any row is read, and is replaced by the parse."""
        want = fresh_parse(csv)
        _read_table(csv, XY)
        (sidecar,) = sidecars(csv)
        spoil(sidecar, want)
        with monkeypatch.context() as m:
            m.setattr(np, "fromfile", no_rows)
            assert _read_sidecar(sidecar, F8, len(XY)) is None
        data = _read_table(csv, XY)
        assert same_bits(data, want)
        assert sidecars(csv) == [sidecar]
        assert same_bits(_read_sidecar(sidecar, F8, len(XY)), want)

    def test_sidecar_is_a_row_count_and_its_rows(self, csv):
        _read_table(csv, XY)
        (sidecar,) = sidecars(csv)
        want = fresh_parse(csv)
        assert sidecar.name.endswith(".f8")
        assert sidecar.read_bytes() == count_bytes(len(want)) + want.astype("<f8").tobytes()

    def test_old_npy_sidecar_is_a_miss_and_is_swept(self, csv):
        """A sidecar of another format, say a ``.npy`` of the same digest, is
        not read; the CSV is parsed, and its new sidecar is its only one."""
        want = fresh_parse(csv)
        _read_table(csv, XY)
        (sidecar,) = sidecars(csv)
        sidecar.unlink()
        np.save(sidecar.with_name(sidecar.name[: -len("f8")] + "npy"), want)
        assert same_bits(_read_table(csv, XY), want)
        assert sidecars(csv) == [sidecar]

    @pytest.mark.parametrize("call", ["os.open", "os.fchmod", "os.replace"])
    def test_failed_sidecar_write_still_loads(self, csv, monkeypatch, call):
        def fail(*args, **kwargs):
            raise OSError(30, "Read-only file system")

        monkeypatch.setattr(call, fail)
        for _ in range(2):
            data = _read_table(csv, XY)
            assert same_bits(data, fresh_parse(csv))
        assert sidecars(csv) == []

    def test_csv_rewritten_during_the_parse_gives_the_bytes_read(self, csv, monkeypatch):
        """A read returns the parse of the bytes it read, though the CSV is
        rewritten during the parse; the next read parses the new bytes and
        leaves their one sidecar."""
        want = fresh_parse(csv)
        loadtxt = np.loadtxt

        def rewrite_then_parse(*args, **kwargs):
            csv.write_bytes(_table_bytes(XY, [np.zeros(4), np.ones((4, 2))]))
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", rewrite_then_parse)
        assert same_bits(_read_table(csv, XY), want)
        monkeypatch.setattr(np, "loadtxt", loadtxt)
        data = _read_table(csv, XY)
        assert same_bits(data, fresh_parse(csv)) and data.shape == (4, 3)
        assert len(sidecars(csv)) == 1

    def test_interrupted_sidecar_write_leaves_no_temp_file(self, csv, monkeypatch):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "fchmod", interrupt)  # inside the sidecar's write
        with pytest.raises(KeyboardInterrupt):
            _read_table(csv, XY)
        assert sidecars(csv) == []

    @pytest.mark.parametrize("mode", [0o640, 0o664], ids=oct)
    def test_sidecar_has_the_csv_permissions(self, csv, mode):
        csv.chmod(mode)
        _read_table(csv, XY)
        (sidecar,) = sidecars(csv)
        assert stat.S_IMODE(sidecar.stat().st_mode) == mode

    def test_crlf_csv_reads_like_its_lf_twin(self, csv, tmp_path, monkeypatch):
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(csv.read_bytes().replace(b"\n", b"\r\n"))
        want = fresh_parse(csv)
        for _ in range(2):
            data = _read_table(crlf, XY)
            assert same_bits(data, want)
            monkeypatch.setattr(np, "loadtxt", no_parse)

    def test_malformed_csv_raises_and_writes_no_sidecar(self, csv):
        _read_table(csv, XY)
        before = sidecars(csv)
        lines = csv.read_text(encoding="utf-8").splitlines()
        lines[5] = lines[5].replace(",", ",x", 1)
        csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for _ in range(2):
            with pytest.raises(MalformedManifest, match=r"t\.csv: line 6\b"):
                _read_table(csv, XY)
        assert sidecars(csv) == before

    def test_containers_read_once_load_the_same(self, tmp_path, monkeypatch):
        session, _ = gen_session(Scenario(seed=7, duration=3.0, timestamp_jitter_sd=0.03))
        save_session(session, tmp_path / "trial")
        save_synced(sync_session(session), tmp_path / "synced")
        cold = load_session(tmp_path / "trial"), load_synced(tmp_path / "synced")
        for csv in [*(tmp_path / "synced").rglob("*.csv"), *(tmp_path / "trial").rglob("*.csv")]:
            assert len(sidecars(csv)) == 1, csv
        monkeypatch.setattr(np, "loadtxt", no_parse)
        raw, synced = load_session(tmp_path / "trial"), load_synced(tmp_path / "synced")
        assert sessions_equal(raw, cold[0])
        assert same_bits(synced.grid.timestamps, cold[1].grid.timestamps)
        assert set(synced.frame_selections) == set(cold[1].frame_selections)
        for name, sel in cold[1].frame_selections.items():
            got = synced.frame_selections[name]
            assert same_bits(got.selected_indices, sel.selected_indices)
            assert same_bits(got.accepted_flags, sel.accepted_flags)
        assert set(synced.numeric) == set(cold[1].numeric)
        for name, series in cold[1].numeric.items():
            assert synced.numeric[name].channels == series.channels
            assert same_bits(synced.numeric[name].timestamps, series.timestamps)
            assert same_bits(synced.numeric[name].values, series.values)

    def test_concurrent_first_reads_agree(self, csv):
        """Readers racing to fill one CSV's sidecar all get the parse, and
        leave one sidecar and no temp file."""
        want = fresh_parse(csv)
        results, errors = [], []

        def read():
            try:
                for _ in range(20):
                    results.append(_read_table(csv, XY))
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(results) == 160 and all(same_bits(r, want) for r in results)
        (sidecar,) = sidecars(csv)
        assert sorted(csv.parent.iterdir()) == [sidecar, csv]
        assert same_bits(_read_sidecar(sidecar, F8, len(XY)), want)
