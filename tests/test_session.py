import io
import json
import os
import shutil
import stat
import sys
import threading
import warnings
import wave
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

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
    _read_series_csv,
    _read_table,
    _write_table,
    describe_stream,
    descriptor_violations,
    load_session,
    load_synced,
    save_session,
    save_synced,
    sessions_equal,
    validate_manifest,
    validate_session,
)
from sessionforge.sync import sync_session
from sessionforge.synth import Scenario, gen_session


@pytest.fixture
def synthetic_session():
    session, _ = gen_session(Scenario(seed=42, timestamp_jitter_sd=0.002, noise_sd=0.005))
    return session


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

    def test_expected_stream_count(self, synthetic_session):
        # two cameras + three numeric + one audio
        assert len(synthetic_session.manifest.streams) == 6
        assert len(synthetic_session.numeric) == 3
        assert len(synthetic_session.frame_logs) == 2

    def test_dialogue_round_trips(self, synthetic_session, tmp_path):
        save_session(synthetic_session, tmp_path / "trial")
        loaded = load_session(tmp_path / "trial")
        assert loaded.dialogues == synthetic_session.dialogues


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

    @pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 4097, 10000])
    def test_table_bytes_match_savetxt(self, tmp_path, rows):
        """The block writer gives numpy.savetxt's bytes, across block edges."""
        rng = np.random.default_rng(rows)
        values = rng.normal(size=(rows, 3)) * 10.0 ** rng.integers(-300, 300, size=(rows, 3))
        flat = values.reshape(-1)  # a view
        flat[::7] = np.resize([np.nan, np.inf, -np.inf, -0.0, 1e17, 5e-324, 3.0], flat[::7].size)
        columns = [np.arange(rows) / 7.0, values]
        _write_table(tmp_path / "t.csv", "t,a,b,c", columns)
        want = io.StringIO()
        np.savetxt(
            want, np.column_stack(columns), fmt="%.17g", delimiter=",", header="t,a,b,c",
            comments="",
        )
        assert (tmp_path / "t.csv").read_text(encoding="utf-8") == want.getvalue()


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
        # ENOTDIR, which root cannot override as it can a read-only mode
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        with pytest.raises(IoError):
            save_session(synthetic_session, blocker / "trial")


class TestValidateManifest:
    def test_paper_conformant_manifest(self, synthetic_session):
        manifest = synthetic_session.manifest
        rates = sorted(
            s.nominal_rate for s in manifest.streams if s.kind.value == "video_frames"
        )
        assert rates == [12.0, 15.0]
        assert validate_manifest(manifest) == []

    def test_unknown_task_flagged(self, synthetic_session):
        bad = replace(synthetic_session.manifest, task="Walking")
        assert any("taxonomy" in v for v in validate_manifest(bad))

    def test_nonconformant_audio_rate_flagged(self, synthetic_session):
        session, _ = gen_session(Scenario(seed=1, audio_rate=44100))
        assert any("audio-rate-nonconformant" in v for v in validate_session(session))

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
        assert validate_session(bad) == ["streams[imu]: one name under two kinds"]
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
        bad = mutate(synthetic_session.manifest)
        assert any(needle in v for v in validate_manifest(bad))

    def test_numeric_unit_must_be_nonempty(self, synthetic_session):
        m = synthetic_session.manifest
        numeric = next(s for s in m.streams if s.kind.value == "numeric")
        broken = replace(
            numeric, channels=(replace(numeric.channels[0], unit=""),) + numeric.channels[1:]
        )
        bad = replace(m, streams=tuple(broken if s.name == numeric.name else s for s in m.streams))
        assert any("non-empty SI" in v for v in validate_manifest(bad))

    def test_series_nan_timestamp_detected(self, synthetic_session):
        from sessionforge.session import TimedSeries

        s = synthetic_session.numeric["ee_pose"]
        ts = s.timestamps.copy()
        ts[3] = np.nan
        bad_series = TimedSeries(ts, s.values, s.channels)
        bad = replace(
            synthetic_session, numeric={**synthetic_session.numeric, "ee_pose": bad_series}
        )
        assert any("finite" in v for v in validate_session(bad))


def sidecars(csv):
    """The hidden files next to ``csv`` that belong to it."""
    return sorted(p for p in csv.parent.iterdir() if p.name.startswith(f".{csv.name}."))


def fresh_parse(csv, dtype=np.float64):
    return np.loadtxt(csv, dtype, delimiter=",", skiprows=1, ndmin=2, comments=None)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def no_parse(*args, **kwargs):
    raise AssertionError("parsed a CSV that has a valid sidecar")


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


def huge_header(path, data):
    """A valid ``.npy`` header claiming far more rows than the file holds."""
    header = {"descr": "<f8", "fortran_order": False, "shape": (1 << 40, data.shape[1])}
    with path.open("wb") as f:
        np.lib.format.write_array_header_1_0(f, header)
        f.write(data.tobytes())


def format_2_0(path, data):
    """The same table in ``.npy`` format 2.0, which ``np.save`` does not write for it."""
    with path.open("wb") as f:
        np.lib.format.write_array(f, data, version=(2, 0))


class TestSidecar:
    """``_read_table`` memoizes its parse in a hash-checked sidecar."""

    @pytest.fixture
    def csv(self, tmp_path):
        path = tmp_path / "t.csv"
        _write_table(path, "t,x,y", [np.arange(50) / 7.0, np.linspace(-1, 1, 100).reshape(50, 2)])
        return path

    @pytest.mark.parametrize("table", SIDECAR_TABLES)
    def test_sidecar_equals_fresh_parse(self, tmp_path, monkeypatch, table):
        header, columns, dtype = SIDECAR_TABLES[table]
        path = tmp_path / "t.csv"
        _write_table(path, header, [np.asarray(c, dtype=dtype) for c in columns])
        want = fresh_parse(path, dtype)
        names, cold = _read_table(path, dtype)
        assert names == header.split(",") and same_bits(cold, want)
        assert len(sidecars(path)) == 1
        monkeypatch.setattr(np, "loadtxt", no_parse)
        names, warm = _read_table(path, dtype)
        assert names == header.split(",") and same_bits(warm, want)
        assert warm.flags.writeable and warm.flags.c_contiguous

    def test_edited_csv_wins_over_its_sidecar(self, csv):
        _read_table(csv)
        (old,) = sidecars(csv)
        lines = csv.read_text(encoding="utf-8").splitlines()
        lines[3] = "9,9,9"
        csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        _, data = _read_table(csv)
        assert data[2].tolist() == [9.0, 9.0, 9.0]
        assert same_bits(data, fresh_parse(csv))
        (new,) = sidecars(csv)
        assert new != old

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda path, data: path.write_bytes(b"not an npy file"),
            lambda path, data: path.write_bytes(path.read_bytes()[:-8]),
            lambda path, data: path.write_bytes(b""),
            lambda path, data: np.save(path, data.astype(np.float32)),
            lambda path, data: np.save(path, data[:, :2]),
            lambda path, data: np.save(path, data.ravel()),
            lambda path, data: np.save(path, data.astype(object), allow_pickle=True),
            lambda path, data: np.save(path, np.asfortranarray(data)),
            huge_header,
            format_2_0,
        ],
        ids=[
            "corrupt",
            "truncated",
            "empty",
            "wrong-dtype",
            "wrong-width",
            "1-d",
            "pickled",
            "fortran-order",
            "huge-header",
            "format-2.0",
        ],
    )
    def test_bad_sidecar_falls_back_and_is_replaced(self, csv, spoil):
        want = fresh_parse(csv)
        _read_table(csv)
        (sidecar,) = sidecars(csv)
        spoil(sidecar, want)
        _, data = _read_table(csv)
        assert same_bits(data, want)
        assert sidecars(csv) == [sidecar]
        assert same_bits(np.load(sidecar, allow_pickle=False), want)

    def test_header_parse_system_error_is_a_miss(self, csv, monkeypatch):
        """numpy parses a ``.npy`` header with ``ast.literal_eval``, which can
        raise SystemError when threads race; the CSV is then parsed again."""

        def racing(*args, **kwargs):
            raise SystemError("AST constructor recursion depth mismatch (before=30, after=26)")

        _read_table(csv)
        monkeypatch.setattr(np.lib.format, "read_array_header_1_0", racing)
        _, data = _read_table(csv)
        assert same_bits(data, fresh_parse(csv)) and len(sidecars(csv)) == 1

    @pytest.mark.parametrize("call", ["tempfile.mkstemp", "numpy.save", "os.replace"])
    def test_failed_sidecar_write_still_loads(self, csv, monkeypatch, call):
        def fail(*args, **kwargs):
            raise OSError(30, "Read-only file system")

        monkeypatch.setattr(call, fail)
        for _ in range(2):
            _, data = _read_table(csv)
            assert same_bits(data, fresh_parse(csv))
        assert sidecars(csv) == []

    def test_csv_rewritten_during_the_parse_is_not_cached(self, csv, monkeypatch):
        loadtxt = np.loadtxt

        def rewrite_then_parse(*args, **kwargs):
            _write_table(csv, "t,x,y", [np.zeros(4), np.ones((4, 2))])
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", rewrite_then_parse)
        _read_table(csv)
        assert sidecars(csv) == []
        monkeypatch.setattr(np, "loadtxt", loadtxt)
        _, data = _read_table(csv)
        assert same_bits(data, fresh_parse(csv)) and len(sidecars(csv)) == 1

    def test_interrupted_sidecar_write_leaves_no_temp_file(self, csv, monkeypatch):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(np, "save", interrupt)
        with pytest.raises(KeyboardInterrupt):
            _read_table(csv)
        assert sidecars(csv) == []

    @pytest.mark.parametrize("mode", [0o640, 0o664], ids=oct)
    def test_sidecar_has_the_csv_permissions(self, csv, mode):
        csv.chmod(mode)
        _read_table(csv)
        (sidecar,) = sidecars(csv)
        assert stat.S_IMODE(sidecar.stat().st_mode) == mode

    def test_crlf_csv_reads_like_its_lf_twin(self, csv, tmp_path, monkeypatch):
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(csv.read_bytes().replace(b"\n", b"\r\n"))
        want = fresh_parse(csv)
        for _ in range(2):
            names, data = _read_table(crlf)
            assert names == ["t", "x", "y"] and same_bits(data, want)
            monkeypatch.setattr(np, "loadtxt", no_parse)

    def test_malformed_csv_raises_and_writes_no_sidecar(self, csv):
        _read_table(csv)
        before = sidecars(csv)
        lines = csv.read_text(encoding="utf-8").splitlines()
        lines[5] = lines[5].replace(",", ",x", 1)
        csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for _ in range(2):
            with pytest.raises(MalformedManifest, match=r"t\.csv: line 6\b"):
                _read_table(csv)
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
                    results.append(_read_table(csv)[1])
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
        assert same_bits(np.load(sidecar, allow_pickle=False), want)
