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
"""

import json
import random
import shutil
import warnings

import pytest

from sessionforge.cli import main
from sessionforge.session import save_session, save_synced
from sessionforge.sync import sync_session
from sessionforge.synth import Scenario, gen_session

SEED = 20261019
CASES = 100  # per input

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
