import io
import json
import os
import stat
import warnings
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np
import pytest

from sessionforge.errors import InvariantViolation, IoError, MalformedManifest, MissingFile
from sessionforge.session import (
    Channel,
    FrameTimestampLog,
    RawSession,
    SessionManifest,
    StreamDescriptor,
    StreamKind,
    Task,
    TimedSeries,
    _read_series_csv,
    _write_table,
    load_session,
    save_session,
    sessions_equal,
    validate_manifest,
    validate_session,
)
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
        log = FrameTimestampLog("cam", [0.0, 1 / 15, 0.2])
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

    def test_read_only_dir(self, synthetic_session, tmp_path):
        target = tmp_path / "ro"
        target.mkdir()
        target.chmod(stat.S_IRUSR | stat.S_IXUSR)
        if os.access(target / "x", os.W_OK) or os.geteuid() == 0:
            pytest.skip("cannot enforce read-only directory (running as root)")
        with pytest.raises(IoError):
            save_session(synthetic_session, target / "trial")


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
