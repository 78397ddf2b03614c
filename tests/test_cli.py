import json
import pickle
import shutil
import warnings
import wave
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from sessionforge import filters
from sessionforge.cli import denoise_and_sync, main, process_trial
from sessionforge.curation import label_trial
from sessionforge.dialogue import AnnotatedDialogue
from sessionforge.filters import DenoisePolicy
from sessionforge.metrics import TrialMetrics
from sessionforge.session import (
    SessionManifest,
    Task,
    describe_stream,
    load_session,
    load_synced,
    save_session,
    save_synced,
)
from sessionforge.sync import sync_session
from sessionforge.synth import Scenario, gen_session


@pytest.fixture
def dataset(tmp_path):
    root = tmp_path / "data"
    trial_ids = []
    for seed, task in [(0, Task.FEEDING), (1, Task.FEEDING), (2, Task.DRINKING)]:
        session, _ = gen_session(Scenario(seed=seed, task=task, duration=2.0))
        save_session(session, root / session.manifest.session_id)
        trial_ids.append(session.manifest.session_id)
    for i, trial_id in enumerate(trial_ids):
        label_trial(root, trial_id, [] if i != 1 else ["object_drop"])
    return root, trial_ids


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        code, _, _ = run(capsys, "no-such-command")
        assert code == 2

    def test_data_error_is_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "sync", "--in", str(tmp_path / "missing"), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "error [" in err

    def test_errors_json_machine_readable(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "--errors", "json", "sync",
            "--in", str(tmp_path / "missing"), "--out", str(tmp_path / "o"),
        )
        assert code == 1
        payload = json.loads(err)
        assert {"module", "code", "message"} <= set(payload)


    def test_malformed_csv_row_is_json_error(self, capsys, dataset):
        root, trial_ids = dataset
        path = root / trial_ids[0] / "streams" / "ee_pose.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run(capsys, "--errors", "json", "pipeline", "--root", str(root))
        assert code == 1
        payload = json.loads(err)
        assert payload["code"] == "malformed-manifest"
        assert "ee_pose.csv" in payload["message"]

    def test_sync_unwritable_out_is_io_error(self, capsys, tmp_path, dataset):
        root, trial_ids = dataset
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        code, _, err = run(
            capsys, "--errors", "json", "sync",
            "--in", str(root / trial_ids[0]), "--out", str(blocker / "sub"),
        )
        assert code == 1
        assert json.loads(err)["code"] == "io-error"

    def test_trial_without_video_is_json_error(self, capsys, dataset):
        root, trial_ids = dataset
        trial = root / trial_ids[0]
        manifest = json.loads((trial / "manifest.json").read_text(encoding="utf-8"))
        video = [s for s in manifest["streams"] if s["kind"] == "video_frames"]
        manifest["streams"] = [s for s in manifest["streams"] if s not in video]
        (trial / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        for s in video:
            (trial / s["file"]).unlink()
        code, _, err = run(capsys, "--errors", "json", "pipeline", "--root", str(root))
        assert code == 1
        assert json.loads(err)["code"] == "missing-stream"


@pytest.mark.parametrize(
    "command",
    [
        ["report"],
        ["pipeline", "--report", "r.json"],
        ["curate", "stats"],
        ["curate", "filter", "--out", "r.json"],
        ["dialogue", "stats"],
        ["dialogue", "export", "--out", "r.json"],
        ["curate", "label", "synth-feeding-00000000", "--flags", "object_drop"],
    ],
    ids=[
        "report",
        "pipeline",
        "curate-stats",
        "curate-filter",
        "dialogue-stats",
        "dialogue-export",
        "curate-label",
    ],
)
def test_duplicate_session_id_is_json_error(capsys, tmp_path, dataset, monkeypatch, command):
    """A copied trial directory holds its session_id twice. No rule can tell
    which copy is right, so the dataset is refused, and nothing is written."""
    root, trial_ids = dataset
    assert trial_ids[0] == "synth-feeding-00000000"
    shutil.copytree(root / trial_ids[0], root / "copy")
    manifests = {p: p.read_bytes() for p in root.glob("*/manifest.json")}
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out, err = run(capsys, "--errors", "json", *command, "--root", str(root))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["code"] == "duplicate-trial"
    assert f"'{trial_ids[0]}' (2 trials)" in payload["message"]
    assert not (tmp_path / "r.json").exists()
    assert {p: p.read_bytes() for p in root.glob("*/manifest.json")} == manifests


@pytest.mark.parametrize(
    "command",
    [["curate", "stats"], ["curate", "label", "synth-feeding-00000000"], ["dialogue", "stats"]],
    ids=["curate-stats", "curate-label", "dialogue-stats"],
)
def test_manifest_entry_leaving_the_trial_is_json_error(capsys, dataset, command):
    """Every command reads a manifest by one rule: an entry whose file leaves
    the trial directory is refused, as ``report`` refuses it, and nothing is
    written."""
    root, trial_ids = dataset
    assert trial_ids[0] == "synth-feeding-00000000"
    path = root / trial_ids[0] / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    for entry in manifest["streams"]:
        if entry["name"] == "ee_pose":
            entry["file"] = "../../evil.csv"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    before = path.read_bytes()
    code, out, err = run(capsys, "--errors", "json", *command, "--root", str(root))
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["code"] == "malformed-manifest"
    assert str(path) in payload["message"] and "streams[ee_pose].file" in payload["message"]
    assert path.read_bytes() == before


def _sync_or_report(command, tmp_path, root, trial_id):
    if command == "sync":
        return ["sync", "--in", str(root / trial_id), "--out", str(tmp_path / "synced")]
    return ["report", "--root", str(root)]


@pytest.mark.parametrize("command", ["sync", "report"])
@pytest.mark.parametrize("tau", ["-1", "nan", "inf", "abc"])
def test_tau_not_finite_and_nonnegative_is_usage_error(capsys, tmp_path, dataset, command, tau):
    root, trial_ids = dataset
    argv = _sync_or_report(command, tmp_path, root, trial_ids[0])
    code, out, err = run(capsys, "--errors", "json", *argv, "--tau", tau)
    assert code == 2
    assert out == ""
    assert "argument --tau: must be finite and >= 0" in err


@pytest.mark.parametrize("duration", ["0", "-1", "nan", "inf", "abc"])
def test_record_duration_not_finite_and_positive_is_usage_error(
    capsys, tmp_path, monkeypatch, duration
):
    """``record --duration`` is checked before anything is bound; 0 would
    record until Ctrl-C, and a negative or NaN one fail inside ``sleep``."""

    def no_recording(seconds):
        raise AssertionError("recording started")

    monkeypatch.setattr("sessionforge.cli.time.sleep", no_recording)
    argv = ["record", "--out", str(tmp_path / "rec"), "--duration", duration]
    code, out, err = run(capsys, "--errors", "json", *argv)
    assert code == 2
    assert out == ""
    assert "argument --duration: must be finite and > 0" in err
    assert not (tmp_path / "rec").exists()


@pytest.mark.parametrize("port", [["--tcp-port", "70000"], ["--udp-port", "-5"]], ids=["tcp", "udp"])
def test_record_port_out_of_range_is_json_error(capsys, tmp_path, port):
    argv = ["record", "--out", str(tmp_path / "rec"), "--duration", "1", *port]
    code, out, err = run(capsys, "--errors", "json", *argv)
    assert code == 1
    assert out == ""
    assert json.loads(err)["code"] == "bind-error"


@pytest.mark.parametrize("command", ["pipeline", "report"])
@pytest.mark.parametrize("jobs", ["0", "-1", "1.5", "abc"])
def test_jobs_below_one_is_usage_error(capsys, tmp_path, dataset, command, jobs):
    root, _ = dataset
    report = tmp_path / "r.json"
    argv = [command, "--root", str(root)] + (["--report", str(report)] if command == "pipeline" else [])
    code, out, err = run(capsys, "--errors", "json", *argv, "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert "argument --jobs: must be an integer >= 1" in err
    assert not report.exists()


@pytest.mark.parametrize("command", ["sync", "report"])
@pytest.mark.parametrize("rate", [float("nan"), float("inf"), -1, 0])
def test_video_rate_not_finite_and_positive_is_json_error(capsys, tmp_path, dataset, command, rate):
    root, trial_ids = dataset
    path = root / trial_ids[0] / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    video = next(s for s in manifest["streams"] if s["kind"] == "video_frames")
    video["nominal_rate"] = rate
    path.write_text(json.dumps(manifest), encoding="utf-8")
    argv = _sync_or_report(command, tmp_path, root, trial_ids[0])
    code, out, err = run(capsys, "--errors", "json", *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["code"] == "malformed-manifest"
    assert "nominal_rate: must be finite and > 0" in payload["message"]


@pytest.mark.parametrize("command", ["sync", "report"])
def test_video_rate_above_its_frame_log_is_json_error(capsys, tmp_path, dataset, command):
    """Both cameras claiming 1e4 Hz over their 12 and 15 Hz frame logs would
    size the grid by the claim; the trial is refused before the grid is built."""
    root, trial_ids = dataset
    path = root / trial_ids[0] / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    for entry in manifest["streams"]:
        if entry["kind"] == "video_frames":
            entry["nominal_rate"] = 1e4
    path.write_text(json.dumps(manifest), encoding="utf-8")
    argv = _sync_or_report(command, tmp_path, root, trial_ids[0])
    code, out, err = run(capsys, "--errors", "json", *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["code"] == "rate-exceeds-log"
    assert "nominal rate 10000.0 Hz" in payload["message"]


def _replace_bytes(data: bytes):
    return lambda path: path.write_bytes(data)


def _truncate(n: int):
    return lambda path: path.write_bytes(path.read_bytes()[:n])


def _session_id_not_string(path):
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["session_id"] = [manifest["session_id"]]
    path.write_text(json.dumps(manifest), encoding="utf-8")


def _drop_grid_rate(path):
    meta = json.loads(path.read_text(encoding="utf-8"))
    del meta["rate"]
    path.write_text(json.dumps(meta), encoding="utf-8")


# Every unreadable container file fails with a typed error naming it, never
# a traceback: case -> (command, file to corrupt, corruption).
WAV_CORRUPTIONS = {
    "wav-not-riff": _replace_bytes(b"RIFX" * 16),
    # Cut inside the 44-byte header, then one byte into the first 16-bit sample.
    "wav-truncated": _truncate(30),
    "wav-cut-mid-sample": _truncate(45),
}

UNREADABLE_CONTAINER_CASES = {
    # sync and pipeline read each WAV's header only, and fail as a full load does.
    **{
        case: ("sync --in {trial} --out {out}", "{trial}/audio/mic.wav", corrupt)
        for case, corrupt in WAV_CORRUPTIONS.items()
    },
    **{
        f"pipeline-{case}": (
            "pipeline --root {root} --report {out}", "{trial}/audio/mic.wav", corrupt
        )
        for case, corrupt in WAV_CORRUPTIONS.items()
    },
    "dialogue-not-utf8": (
        "sync --in {trial} --out {out}", "{trial}/dialogue.jsonl", _replace_bytes(b"\xff{}\n")
    ),
    "manifest-not-json": (
        "analyze --in {synced}", "{synced}/manifest.json", _replace_bytes(b"{not json")
    ),
    "grid-without-rate": ("analyze --in {synced}", "{synced}/grid.json", _drop_grid_rate),
    "grid-not-json": (
        "denoise --in {synced} --out {out}", "{synced}/grid.json", _replace_bytes(b"{not json")
    ),
    # Labeling a trial that does not exist reads every manifest.
    **{
        f"curate-{sub.split()[0]}": (
            f"curate {sub} --root {{root}}", "{trial}/manifest.json", _replace_bytes(b"{not json")
        )
        for sub in ("stats", "label no-such-trial", "filter")
    },
    # The duplicate-id check counts trials by session_id, so it must be a string.
    **{
        f"{command.split()[0]}-session-id-not-string": (
            f"{command} --root {{root}}", "{trial}/manifest.json", _session_id_not_string
        )
        for command in ("report", "curate stats")
    },
}


@pytest.mark.parametrize("case", UNREADABLE_CONTAINER_CASES)
def test_unreadable_container_file_is_json_error(capsys, tmp_path, dataset, case):
    command, target, corrupt = UNREADABLE_CONTAINER_CASES[case]
    root, trial_ids = dataset
    dirs = {"root": root, "trial": root / trial_ids[0], "synced": tmp_path / "synced",
            "out": tmp_path / "out"}
    assert run(capsys, "sync", "--in", str(dirs["trial"]), "--out", str(dirs["synced"]))[0] == 0
    target = target.format(**dirs)
    corrupt(Path(target))
    code, _, err = run(capsys, "--errors", "json", *command.format(**dirs).split())
    assert code == 1
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["code"] == "malformed-manifest"
    assert target in payload["message"]


@pytest.mark.parametrize("name", ["streams/ee_pose.csv", "selections/ego_cam.csv"])
def test_synced_file_the_manifest_lists_is_required(capsys, tmp_path, dataset, name):
    root, trial_ids = dataset
    synced = tmp_path / "synced"
    assert run(capsys, "sync", "--in", str(root / trial_ids[0]), "--out", str(synced))[0] == 0
    (synced / name).unlink()
    code, _, err = run(capsys, "--errors", "json", "analyze", "--in", str(synced))
    assert code == 1
    payload = json.loads(err)
    assert payload["code"] == "missing-file"
    assert str(synced / name) in payload["message"]


def _write_8bit_wav(path):
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(1)
        w.setframerate(48000)
        w.writeframes(bytes(100))  # an even byte count, so whole int16 samples


@pytest.mark.parametrize(
    "command", ["sync --in {trial} --out {out}", "pipeline --root {root} --report {out}"]
)
def test_8bit_wav_is_the_same_invariant_violation(capsys, tmp_path, dataset, command):
    """The header-only load of sync and pipeline refuses an 8-bit WAV as the
    full load does."""
    root, trial_ids = dataset
    trial = root / trial_ids[0]
    _write_8bit_wav(trial / "audio" / "mic.wav")
    argv = command.format(root=root, trial=trial, out=tmp_path / "out").split()
    code, _, err = run(capsys, "--errors", "json", *argv)
    assert code == 1
    assert err.count("\n") == 1
    assert json.loads(err)["code"] == "invariant-violation"


def test_pipeline_and_sync_read_no_audio_samples(capsys, tmp_path, dataset, monkeypatch):
    root, trial_ids = dataset
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, before, _ = run(capsys, "report", "--root", str(root))

        def no_samples(self, nframes):
            raise AssertionError("WAV samples were read")

        monkeypatch.setattr(wave.Wave_read, "readframes", no_samples)
        code, after, _ = run(capsys, "report", "--root", str(root))
    assert code == 0
    assert after == before
    sync_argv = ["sync", "--in", str(root / trial_ids[0]), "--out", str(tmp_path / "synced")]
    assert run(capsys, *sync_argv)[0] == 0


# A synced container that breaks the synced rule: a selection or stream
# without one row per grid point, a bad grid rate, tau or timestamp, a bad
# selection row, or a stream off the grid's timestamps: case -> (cut, error code).
def _selection_header_only(synced):
    (synced / "selections" / "ego_cam.csv").write_text("index\n", encoding="utf-8")


def _rows_cut(synced):
    for name, rows in (("streams/ee_pose.csv", 9), ("selections/ego_cam.csv", 4)):
        lines = (synced / name).read_text(encoding="utf-8").splitlines()
        (synced / name).write_text("\n".join(lines[: rows + 1]) + "\n", encoding="utf-8")


def _grid_json(key, value):
    def cut(synced):
        meta = json.loads((synced / "grid.json").read_text(encoding="utf-8"))
        meta[key] = value
        (synced / "grid.json").write_text(json.dumps(meta), encoding="utf-8")

    return cut


def _csv_row(name, line_no, edit):
    """Replace line ``line_no`` of CSV ``name`` by ``edit`` of it."""
    def cut(synced):
        lines = (synced / name).read_text(encoding="utf-8").splitlines()
        lines[line_no] = edit(lines[line_no])
        (synced / name).write_text("\n".join(lines) + "\n", encoding="utf-8")

    return cut


def _next_float(row):
    t, *rest = row.split(",")
    return ",".join([repr(float(np.nextafter(float(t), np.inf))), *rest])


SYNCED_CUTS = {
    "selection-header-only": (_selection_header_only, "malformed-manifest"),
    "rows-cut": (_rows_cut, "invariant-violation"),
    "rate-zero": (_grid_json("rate", 0), "invariant-violation"),
    "rate-negative": (_grid_json("rate", -12), "invariant-violation"),
    "rate-nan": (_grid_json("rate", float("nan")), "invariant-violation"),
    "tau-negative": (_grid_json("tau", -0.01), "invariant-violation"),
    "tau-inf": (_grid_json("tau", float("inf")), "invariant-violation"),
    "grid-last-row-nan": (_csv_row("grid.csv", -1, lambda row: "nan"), "invariant-violation"),
    "grid-not-increasing": (_csv_row("grid.csv", 2, lambda row: "0"), "invariant-violation"),
    "selection-index-negative": (
        _csv_row("selections/ego_cam.csv", 1, lambda row: "-1,1"), "invariant-violation"
    ),
    "selection-flag-two": (
        _csv_row("selections/ego_cam.csv", 1, lambda row: row.split(",")[0] + ",2"),
        "invariant-violation",
    ),
    "stream-off-the-grid": (_csv_row("streams/ee_pose.csv", 3, _next_float), "invariant-violation"),
    "stream-value-nan": (
        _csv_row("streams/wheelchair_pose.csv", 3, lambda row: row.split(",")[0] + ",nan,0"),
        "invariant-violation",
    ),
}


@pytest.mark.parametrize("case", SYNCED_CUTS)
def test_synced_rows_not_on_the_grid_are_json_error(capsys, tmp_path, dataset, case):
    cut, error = SYNCED_CUTS[case]
    root, trial_ids = dataset
    synced = tmp_path / "synced"
    assert run(capsys, "sync", "--in", str(root / trial_ids[0]), "--out", str(synced))[0] == 0
    cut(synced)
    code, out, err = run(capsys, "--errors", "json", "analyze", "--in", str(synced))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["code"] == error


# Files the user passes that fail with a typed error naming the file, never a
# traceback: case -> (command, file content or None for no file, error code,
# text the message holds besides the path).
BAD_USER_FILE_CASES = {
    "policy-missing": ("pipeline --root {root} --policy {file}", None, "missing-file", ""),
    "policy-not-json": (
        "pipeline --root {root} --policy {file}", "{bad", "malformed-manifest", ""
    ),
    "policy-wrong-shape": (
        "pipeline --root {root} --policy {file}", '{"imu": 3}', "malformed-manifest", "policy"
    ),
    "policy-unknown-class": (
        "pipeline --root {root} --policy {file}",
        '{"bogus": {"order": 2, "cutoff": 5.0}}',
        "malformed-manifest",
        "bogus",
    ),
    "policy-order-zero": (
        "pipeline --root {root} --policy {file}",
        '{"imu": {"order": 0, "cutoff": 5.0}}',
        "malformed-manifest",
        "order",
    ),
    "policy-order-fractional": (
        "pipeline --root {root} --policy {file}",
        '{"imu": {"order": 2.7, "cutoff": 5.0}}',
        "malformed-manifest",
        "order",
    ),
    "scenario-missing": ("synth --scenario {file} --out {out}", None, "missing-file", ""),
    "scenario-not-json": (
        "synth --scenario {file} --out {out}", "{bad", "malformed-manifest", ""
    ),
    "scenario-unknown-field": (
        "synth --scenario {file} --out {out}", '{"bogus": 1}', "malformed-manifest", "bogus"
    ),
    "scenario-duration-nan": (
        "synth --scenario {file} --out {out}",
        '{"seed": 1, "duration": NaN}',
        "malformed-manifest",
        "duration",
    ),
    "scenario-video-rate-nan": (
        "synth --scenario {file} --out {out}",
        '{"seed": 1, "video_rates": [NaN]}',
        "malformed-manifest",
        "video_rates",
    ),
    "scenario-numeric-rate-inf": (
        "synth --scenario {file} --out {out}",
        '{"seed": 1, "numeric_rate": Infinity}',
        "malformed-manifest",
        "numeric_rate",
    ),
    "scenario-unknown-kind": (
        "synth --scenario {file} --out {out}",
        '{"seed": 1, "ee_profile": {"kind": "spline", "p0": [0], "pf": [1]}}',
        "malformed-manifest",
        "spline",
    ),
    "scenario-profile-lengths-differ": (
        "synth --scenario {file} --out {out}",
        '{"seed": 1, "ee_profile": {"p0": [0, 0], "pf": [1, 0, 0]}}',
        "malformed-manifest",
        "same length",
    ),
    "scenario-profile-not-numeric": (
        "synth --scenario {file} --out {out}",
        '{"seed": 1, "ee_profile": {"p0": ["a"], "pf": [1]}}',
        "malformed-manifest",
        "float",
    ),
    "scenario-seed-negative": (
        "synth --scenario {file} --out {out}", '{"seed": -1}', "malformed-manifest", "seed"
    ),
    "scenario-seed-fractional": (
        "synth --scenario {file} --out {out}", '{"seed": 1.5}', "malformed-manifest", "seed"
    ),
    "scenario-noise-sd-inf": (
        "synth --scenario {file} --out {out}",
        '{"seed": 1, "noise_sd": Infinity}',
        "malformed-manifest",
        "noise_sd",
    ),
    "scenario-noise-ramp-nan": (
        "synth --scenario {file} --out {out}",
        '{"seed": 1, "noise_ramp": NaN, "noise_sd": 0.01}',
        "malformed-manifest",
        "noise_ramp",
    ),
    "scenario-jitter-negative": (
        "synth --scenario {file} --out {out}",
        '{"seed": 1, "timestamp_jitter_sd": -0.01}',
        "malformed-manifest",
        "timestamp_jitter_sd",
    ),
    "scenario-audio-rate-fractional": (
        "synth --scenario {file} --out {out}",
        '{"seed": 1, "audio_rate": 44100.5}',
        "malformed-manifest",
        "audio_rate",
    ),
    "scenario-audio-rate-bool": (
        "synth --scenario {file} --out {out}",
        '{"seed": 1, "audio_rate": true}',
        "malformed-manifest",
        "audio_rate",
    ),
    "survey-missing": ("curate survey {file}", None, "missing-file", ""),
    "survey-bad-rating": (
        "curate survey {file}",
        "question_id,participant_id,rating\nq1,p1,5\nq1,p2,five\n",
        "malformed-survey",
        "line 3",
    ),
    "survey-missing-column": (
        "curate survey {file}", "question_id,participant_id\nq1,p1\n", "malformed-survey", "rating"
    ),
    "annotate-missing-file": (
        "dialogue annotate --file {file} --trial x --turn 0 --clarity specific",
        None,
        "missing-file",
        "",
    ),
}


@pytest.mark.parametrize("case", BAD_USER_FILE_CASES)
def test_bad_user_file_is_json_error(capsys, tmp_path, request, case):
    command, content, code_name, text = BAD_USER_FILE_CASES[case]
    root = request.getfixturevalue("dataset")[0] if "{root}" in command else None
    path = tmp_path / "user-file"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    argv = command.format(root=root, file=path, out=tmp_path / "out").split()
    code, _, err = run(capsys, "--errors", "json", *argv)
    assert code == 1
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["code"] == code_name
    assert str(path) in payload["message"] and text in payload["message"]


class TestSynthCommand:
    def test_synth_writes_session(self, capsys, tmp_path):
        code, out, _ = run(capsys, "synth", "--seed", "3", "--out", str(tmp_path / "s"))
        assert code == 0
        assert (tmp_path / "s" / "manifest.json").is_file()

    def test_as_trial_layout(self, capsys, tmp_path):
        code, _, _ = run(capsys, "synth", "--seed", "3", "--out", str(tmp_path), "--as-trial")
        assert code == 0
        assert (tmp_path / "synth-feeding-00000003" / "manifest.json").is_file()

    @pytest.mark.parametrize("seed", ["-1", "1.5", str(2**128)])
    def test_bad_seed_is_usage_error(self, capsys, tmp_path, seed):
        code, _, err = run(capsys, "synth", f"--seed={seed}", "--out", str(tmp_path / "s"))
        assert code == 2
        assert "--seed" in err
        assert not (tmp_path / "s").exists()

    def test_scenario_file(self, capsys, tmp_path):
        scenario = tmp_path / "sc.json"
        scenario.write_text(json.dumps({"seed": 4, "task": "cleaning", "duration": 1.5}))
        code, _, _ = run(capsys, "synth", "--scenario", str(scenario), "--out", str(tmp_path), "--as-trial")
        assert code == 0
        assert (tmp_path / "synth-cleaning-00000004" / "manifest.json").is_file()


class TestStageCommands:
    def test_sync_then_analyze(self, capsys, tmp_path, dataset):
        root, trial_ids = dataset
        synced_dir = tmp_path / "synced"
        code, out, _ = run(capsys, "sync", "--in", str(root / trial_ids[0]), "--out", str(synced_dir))
        assert code == 0
        summary = json.loads(out)
        assert summary["grid_rate"] == 12.0
        report = tmp_path / "m.json"
        code, out, _ = run(capsys, "analyze", "--in", str(synced_dir), "--report", str(report))
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["wheelchair_comfort_band"] == "below"
        assert payload["ee_mean_jerk"] >= 0.0

    def test_denoise_round(self, capsys, tmp_path, dataset):
        root, trial_ids = dataset
        synced_dir, out_dir = tmp_path / "synced", tmp_path / "den"
        run(capsys, "sync", "--in", str(root / trial_ids[0]), "--out", str(synced_dir))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # IMU cutoff clamp at 12 Hz grid
            code, out, _ = run(
                capsys, "denoise", "--in", str(synced_dir), "--out", str(out_dir), "--lenient"
            )
        assert code == 0
        assert (out_dir / "grid.json").is_file()


class TestCurateCommands:
    def test_stats_json(self, capsys, dataset):
        root, _ = dataset
        code, out, _ = run(capsys, "curate", "stats", "--root", str(root))
        assert code == 0
        stats = json.loads(out)
        assert stats["total_raw"] == 3 and stats["total_successful"] == 2
        assert stats["success_percentage"] == "66.67"

    def test_stats_csv(self, capsys, dataset):
        root, _ = dataset
        code, out, _ = run(capsys, "curate", "stats", "--format", "csv", "--root", str(root))
        assert code == 0
        assert out.splitlines()[0] == "task,raw,successful"
        assert "percentage,,66.67" in out

    def test_label_and_filter(self, capsys, dataset, tmp_path):
        root, trial_ids = dataset
        code, out, _ = run(capsys, "curate", "label", trial_ids[1], "--flags", "", "--root", str(root))
        assert code == 0 and "success=True" in out
        listing = tmp_path / "keep.txt"
        code, out, _ = run(capsys, "curate", "filter", "--out", str(listing), "--root", str(root))
        assert code == 0
        assert set(listing.read_text().split()) == set(trial_ids)

    def test_env_root_fallback(self, capsys, dataset, monkeypatch):
        root, _ = dataset
        monkeypatch.setenv("SESSIONFORGE_ROOT", str(root))
        code, out, _ = run(capsys, "curate", "stats")
        assert code == 0 and json.loads(out)["total_raw"] == 3

    def test_missing_root_is_error(self, capsys, monkeypatch):
        monkeypatch.delenv("SESSIONFORGE_ROOT", raising=False)
        code, _, err = run(capsys, "curate", "stats")
        assert code == 1 and "root" in err

    def test_survey(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "question_id,participant_id,rating\nq1,p1,5\nq1,p2,4\nq1,p3,2\n"
        )
        code, out, _ = run(capsys, "curate", "survey", str(path))
        assert code == 0
        summary = json.loads(out)
        assert summary["q1"]["median"] == 4.0
        assert summary["q1"]["top_box_percent"] == pytest.approx(200 / 3)


class TestDialogueCommands:
    def test_export_and_stats(self, capsys, dataset, tmp_path):
        root, _ = dataset
        out_file = tmp_path / "all.jsonl"
        code, _, _ = run(capsys, "dialogue", "export", "--root", str(root), "--out", str(out_file))
        assert code == 0
        assert len(out_file.read_bytes().decode().splitlines()) == 3
        code, out, _ = run(capsys, "dialogue", "stats", "--root", str(root))
        assert code == 0
        dist = json.loads(out)
        assert dist["utterances"] == {"drinking": 3, "feeding": 6}

    def test_annotate_rewrites_file(self, capsys, dataset):
        root, trial_ids = dataset
        path = root / trial_ids[0] / "dialogue.jsonl"
        code, out, _ = run(
            capsys, "dialogue", "annotate", "--file", str(path), "--trial", trial_ids[0],
            "--turn", "2", "--clarity", "ambiguous", "--type", "spatial",
        )
        assert code == 0
        rec = json.loads(path.read_text().splitlines()[0])
        assert rec["labels"]["2"] == {"clarity": "ambiguous", "ambiguity_type": "spatial"}

    def test_annotate_robot_turn_fails(self, capsys, dataset):
        root, trial_ids = dataset
        path = root / trial_ids[0] / "dialogue.jsonl"
        code, _, err = run(
            capsys, "dialogue", "annotate", "--file", str(path), "--trial", trial_ids[0],
            "--turn", "1", "--clarity", "specific",
        )
        assert code == 1 and "not a user turn" in err


class TestPipeline:
    def test_one_nan_sample_is_not_smeared(self, tmp_path):
        """One NaN in a raw stream stays one sample through the native-rate
        prefilter, so sync bridges it and the trial is scored."""
        session, truth = gen_session(Scenario(seed=5, duration=4.0, noise_sd=0.01))
        ee = session.numeric["ee_pose"]
        values = ee.values.copy()
        values[200, ee.channel_index("y")] = np.nan
        numeric = {**session.numeric, "ee_pose": replace(ee, values=values)}
        save_session(replace(session, numeric=numeric), tmp_path / "trial")
        tm, _, _ = process_trial(tmp_path / "trial", None, DenoisePolicy.default())
        assert tm.ee_path_length == pytest.approx(truth.ee_path_length, rel=0.01)

    def test_trial_value_is_small_and_picklable(self, tmp_path):
        """``process_trial`` returns what the report needs, and no array."""
        session, _ = gen_session(Scenario(seed=5, duration=4.0, noise_sd=0.01))
        save_session(session, tmp_path / "trial")
        value = process_trial(tmp_path / "trial", None, DenoisePolicy.default())
        tm, dialogues, manifest = value
        assert isinstance(tm, TrialMetrics) and isinstance(manifest, SessionManifest)
        assert dialogues and all(isinstance(d, AnnotatedDialogue) for d in dialogues)
        assert pickle.loads(pickle.dumps(value)) == value

        def arrays(obj):
            if is_dataclass(obj):
                return arrays([getattr(obj, f.name) for f in fields(obj)])
            if isinstance(obj, dict):
                return arrays(list(obj.values()))
            if isinstance(obj, (tuple, list)):
                return sum(arrays(x) for x in obj)
            return isinstance(obj, np.ndarray)

        assert arrays(value) == 0

    def test_streams_the_native_rate_cannot_filter_are_filtered_on_the_grid(self, tmp_path):
        """At 10 Hz no stream can be filtered at its native rate, so each is
        filtered on the 12 Hz grid, where the 10 Hz IMU cutoff is clamped; the
        result is saved and loaded back unchanged."""
        session, _ = gen_session(Scenario(seed=3, duration=3.0, numeric_rate=10.0, noise_sd=0.01))
        save_session(session, tmp_path / "trial")
        raw = load_session(tmp_path / "trial")
        assert filters.denoise_raw(raw, strict=False)[1] == set()
        with pytest.warns(UserWarning, match="imu: cutoff 10.0 Hz >= Nyquist"):
            synced = denoise_and_sync(raw, None, DenoisePolicy.default())
        with pytest.warns(UserWarning, match="imu: cutoff 10.0 Hz >= Nyquist"):
            want = filters.denoise_session(sync_session(raw), strict=False)
        save_synced(synced, tmp_path / "synced")
        loaded = load_synced(tmp_path / "synced")
        for got in (synced, loaded):
            assert list(got.numeric) == list(want.numeric)
            for name, series in want.numeric.items():
                assert got.numeric[name].timestamps.tobytes() == series.timestamps.tobytes()
                assert got.numeric[name].values.tobytes() == series.values.tobytes()

    def test_unclassified_stream_warns_once_and_passes_through(self, tmp_path):
        """A stream of no policy class is warned about once, skips both filter
        stages, and reaches the synced session as sync left it, bit for bit."""
        session, _ = gen_session(Scenario(seed=5, duration=4.0, noise_sd=0.01))
        misc = session.numeric["ee_pose"]
        entry = describe_stream("misc", misc, 100.0)
        save_session(
            replace(
                session,
                manifest=replace(session.manifest, streams=(*session.manifest.streams, entry)),
                numeric={**session.numeric, "misc": misc},
            ),
            tmp_path / "trial",
        )
        raw = load_session(tmp_path / "trial", audio=False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            synced = denoise_and_sync(raw, None, DenoisePolicy.default())
        assert [str(w.message) for w in caught] == [
            "stream 'misc' unclassified; passing through unfiltered"
        ]
        want = sync_session(raw).numeric["misc"]
        assert synced.numeric["misc"].values.tobytes() == want.values.tobytes()
        assert synced.numeric["misc"].timestamps.tobytes() == want.timestamps.tobytes()

    def test_report_deterministic(self, capsys, dataset, tmp_path):
        root, _ = dataset
        outputs = []
        for _ in range(2):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code, out, _ = run(capsys, "report", "--root", str(root))
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]
        report = json.loads(outputs[0])
        assert set(report["tasks"]) == {"feeding", "drinking"}
        assert report["tasks"]["feeding"]["n"] == 2
        assert report["curation"]["success_percentage"] == "66.67"
        assert report["dialogue"]["matrix"]

    def test_pipeline_writes_report_file(self, capsys, dataset, tmp_path, monkeypatch):
        root, _ = dataset
        report_path = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, _, _ = run(
                capsys, "pipeline", "--root", str(root), "--report", str(report_path)
            )
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["curation"]["total_raw"] == 3

    def test_parallel_jobs_match_serial(self, capsys, dataset):
        root, _ = dataset
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, serial, _ = run(capsys, "report", "--root", str(root))
            _, parallel, _ = run(capsys, "report", "--root", str(root), "--jobs", "3")
        assert serial == parallel

    def test_csv_format(self, capsys, dataset):
        root, _ = dataset
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, out, _ = run(capsys, "report", "--root", str(root), "--format", "csv")
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith("task,n,")
        assert any(line.startswith("feeding,2,") for line in out.splitlines())
