"""Seeded corruption sweep: a corrupted input fails with one typed error, or
passes, and never ends in a traceback.

Each case corrupts one file of a fresh copy of a pristine input once, by a
truncation, a byte flip, a deleted run of bytes or a duplicated one, all drawn
from a fixed seed. It then runs the command that reads that input under
``--errors json``: ``pipeline`` over a raw trial, ``analyze`` over a synced
container, ``synth --scenario`` over a scenario JSON file. The command must
return 0 or 1, print at most one line on stderr, a JSON error object, and
raise nothing. Duplicated runs are at most 2 bytes long, so no case can turn a
rate or a duration into one that generates gigabytes.

Two targeted corruptions join the sweep: a dialogue record that names another
trial, or another task, than its trial's manifest. Each is refused with
``invariant-violation`` by every command that reads dialogues.

A bad trial fails itself, not the run: in a three-trial dataset, one file of
one trial is corrupted per case, and ``pipeline`` still reports the two others,
alike with one and two workers.
"""

import json
import random
import shutil
import warnings

import pytest

from sessionforge.cli import main
from sessionforge.session import Task, save_session, save_synced
from sessionforge.sync import sync_session
from sessionforge.synth import Scenario, gen_session

SEED = 20261019
CASES = 100  # per input
TRIAL_CASES = 12  # seeded corruptions of one trial in a three-trial dataset

SCENARIO = {
    "seed": 17,
    "task": "drinking",
    "duration": 1.0,
    "ee_profile": {"kind": "cubic", "p0": [0.0, 0.1, 0.2], "pf": [0.5, 0.4, 0.3]},
    "wheelchair_profile": {"kind": "min_jerk", "p0": [0.0, 0.0], "pf": [0.3, 0.1]},
    "video_rates": [12.0, 15.0],
    "numeric_rate": 50.0,
    "timestamp_jitter_sd": 0.002,
    "noise_sd": 0.01,
    "noise_ramp": 0.25,
}


def _corrupt(rng: random.Random, data: bytes) -> bytes:
    """One random truncation, byte flip, deletion or duplication of ``data``."""
    n = len(data)
    if n == 0:
        return b"\0"
    i = rng.randrange(n)
    op = rng.choice(("truncate", "flip", "delete", "duplicate"))
    if op == "truncate":
        return data[:i]
    if op == "flip":
        return data[:i] + bytes([data[i] ^ rng.randrange(1, 256)]) + data[i + 1 :]
    if op == "delete":
        return data[:i] + data[i + rng.randrange(1, 9) :]
    return data[: i + rng.randrange(1, 3)] + data[i:]


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A raw trial in a one-trial dataset, and its synced container."""
    root = tmp_path_factory.mktemp("pristine")
    session, _ = gen_session(
        Scenario(seed=3, duration=2.0, noise_sd=0.01, timestamp_jitter_sd=0.003)
    )
    save_session(session, root / "data" / "trial")
    save_synced(sync_session(session), root / "synced")
    return root


@pytest.fixture(scope="module")
def three_trials(tmp_path_factory):
    """A dataset of three short trials, one per task, so that no one
    corruption of a session_id can make it another trial's."""
    root = tmp_path_factory.mktemp("three")
    for seed, task in [(3, Task.FEEDING), (4, Task.DRINKING), (5, Task.CLEANING)]:
        session, _ = gen_session(
            Scenario(seed=seed, task=task, duration=2.0, noise_sd=0.01, timestamp_jitter_sd=0.003)
        )
        save_session(session, root / session.manifest.session_id)
    return root


def _ragged_row(trial):
    with (trial / "streams" / "ee_pose.csv").open("a", encoding="utf-8") as f:
        f.write("1.0,2.0\n")


def _seeded(case: int):
    def corrupt(trial):
        rng = random.Random(f"{SEED}-trial-{case}")
        rel = rng.choice(sorted(p.relative_to(trial) for p in trial.rglob("*") if p.is_file()))
        (trial / rel).write_bytes(_corrupt(rng, (trial / rel).read_bytes()))

    return corrupt


# case -> (corruption of one trial directory, whether that trial must fail)
TRIAL_CORRUPTIONS = {
    "ragged-row": (_ragged_row, True),
    **{f"seeded-{case}": (_seeded(case), None) for case in range(TRIAL_CASES)},
}


@pytest.mark.parametrize("case", TRIAL_CORRUPTIONS)
def test_one_corrupted_trial_fails_alone(capsys, tmp_path, three_trials, case):
    """Every case exits 0 or 1 with both untouched trials in the report. A
    failed trial is in ``failures``, and on stderr as one JSON line, exactly
    when the run exits 1; one and two workers give the same report and lines."""
    corrupt, must_fail = TRIAL_CORRUPTIONS[case]
    copy = tmp_path / "data"
    shutil.copytree(three_trials, copy)
    trials = sorted(p.name for p in copy.iterdir())
    corrupt(copy / trials[1])
    runs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"report{jobs}.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # warnings are not the error channel
            code = main(["--errors", "json", "pipeline", "--root", str(copy), "--report", str(out),
                         "--jobs", jobs])
        runs.append((code, out.read_text(encoding="utf-8"), capsys.readouterr().err))
    assert runs[0] == runs[1]
    code, text, err = runs[0]
    report = json.loads(text)
    failures = report.get("failures", [])
    assert code == (1 if failures else 0)
    assert must_fail in (None, bool(failures))
    assert [json.loads(line) for line in err.splitlines()] == failures
    assert all(f["trial"] == trials[1] for f in failures)
    assert {trials[0], trials[2]} <= {t["trial_id"] for t in report["trials"]}
    assert len(report["trials"]) == 3 - len(failures)


def _sweep(capsys, tmp_path, salt: str, source, run_case):
    """Run CASES corrupted copies of ``source``; ``run_case(copy, file)``
    returns the argv for a copy whose ``file`` was corrupted."""
    rng = random.Random(f"{SEED}-{salt}")
    files = sorted(p.relative_to(source) for p in source.rglob("*") if p.is_file())
    failures = []
    for case in range(CASES):
        copy = tmp_path / f"case{case}"
        shutil.copytree(source, copy)
        rel = rng.choice(files)
        (copy / rel).write_bytes(_corrupt(rng, (copy / rel).read_bytes()))
        argv = ["--errors", "json", *run_case(copy, rel)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # warnings are not the error channel
            try:
                code = main(argv)
            except Exception as exc:  # any escape would end a CLI run in a traceback
                code = f"raised {exc!r}"
        err = capsys.readouterr().err
        if code not in (0, 1) or err.count("\n") > 1 or (err and not _is_error(err)):
            failures.append(f"case {case} ({rel}): {code}, stderr {err!r}")
        shutil.rmtree(copy)
    assert failures == []


def _is_error(err: str) -> bool:
    try:
        payload = json.loads(err)
    except ValueError:
        return False
    return isinstance(payload, dict) and {"module", "code", "message"} <= set(payload)


def test_corrupted_raw_trial_through_pipeline(capsys, tmp_path, pristine):
    def run_case(copy, rel):
        return ["pipeline", "--root", str(copy), "--report", str(tmp_path / "report.json")]

    _sweep(capsys, tmp_path, "raw", pristine / "data", run_case)


def test_corrupted_synced_container_through_analyze(capsys, tmp_path, pristine):
    def run_case(copy, rel):
        return ["analyze", "--in", str(copy)]

    _sweep(capsys, tmp_path, "synced", pristine / "synced", run_case)


def test_corrupted_scenario_through_synth(capsys, tmp_path):
    source = tmp_path / "source"
    source.mkdir()
    (source / "scenario.json").write_text(json.dumps(SCENARIO, indent=2), encoding="utf-8")

    def run_case(copy, rel):
        return ["synth", "--scenario", str(copy / rel), "--out", str(copy / "out")]

    _sweep(capsys, tmp_path, "scenario", source, run_case)


def _failed_alone(command: list[str], captured) -> dict:
    """The one JSON error line of a run over the pristine one-trial dataset.
    ``report`` fails the trial alone: it still prints a report, with no task
    and no trial, that lists the error under ``failures``. The dialogue
    commands print nothing else."""
    assert captured.err.count("\n") == 1
    payload = json.loads(captured.err)
    if command == ["report"]:
        report = json.loads(captured.out)
        assert report["tasks"] == {} and report["trials"] == []
        assert report["failures"] == [payload] and payload["trial"] == "trial"
    else:
        assert captured.out == ""
    return payload


@pytest.mark.parametrize("field,value", [("trial_id", "no-such-trial"), ("task", "cleaning")])
@pytest.mark.parametrize(
    "command", [["report"], ["dialogue", "stats"], ["dialogue", "export"]], ids=" ".join
)
def test_dialogue_record_of_another_trial(capsys, tmp_path, pristine, field, value, command):
    """The pristine trial is a feeding trial: its utterances must not be
    counted under another trial or task."""
    copy = tmp_path / "data"
    shutil.copytree(pristine / "data", copy)
    path = copy / "trial" / "dialogue.jsonl"
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert records[0][field] != value
    records[0][field] = value
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    code = main(["--errors", "json", *command, "--root", str(copy)])
    captured = capsys.readouterr()
    assert code == 1
    assert _failed_alone(command, captured)["code"] == "invariant-violation"


@pytest.mark.parametrize("field", ["labels", "frame_refs"])
def test_dialogue_field_that_is_not_an_object(capsys, tmp_path, pristine, field):
    copy = tmp_path / "data"
    shutil.copytree(pristine / "data", copy)
    path = copy / "trial" / "dialogue.jsonl"
    record = json.loads(path.read_text(encoding="utf-8"))
    record[field] = []
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    code = main(["--errors", "json", "report", "--root", str(copy)])
    captured = capsys.readouterr()
    assert code == 1
    assert _failed_alone(["report"], captured)["code"] == "malformed-manifest"
