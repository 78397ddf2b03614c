"""The package namespace is lazy: importing sessionforge, or one of its
modules, loads only what that module imports. Each check runs in a fresh
interpreter, because the test process has long since imported scipy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Every name ``from sessionforge import *`` binds, by the module defining it.
API = {
    "curation": "dataset_stats filter_successful label_trial survey_stats",
    "dialogue": "AmbiguityLabel AmbiguityType AnnotatedDialogue Clarity Speaker Utterance "
    "ambiguity_distribution annotate_utterance export_jsonl import_jsonl",
    "filters": "DenoisePolicy FilterSpec denoise_raw denoise_session design_butterworth_lowpass "
    "filtfilt",
    "metrics": "ComfortAssessment TaskAggregate TrialMetrics comfort_check compute_trial_metrics "
    "jerk_series path_length task_aggregate trial_mean_jerk",
    "session": "AudioMeta AudioTrack Channel FrameSelection FrameTimestampLog RawSession "
    "ReferenceGrid SessionManifest StreamDescriptor StreamKind SyncedSession Task TimedSeries "
    "load_session save_session sessions_equal",
    "sync": "OverlapWindow build_reference_grid compute_overlap interpolate_numeric match_frames "
    "sync_session",
    "synth": "GroundTruth Scenario gen_min_jerk_trajectory gen_session",
    "transport": "AudioDatagram GapReport RecorderConfig TcpFrame audio_reassemble frame_decode "
    "start_recording",
}
SUBMODULES = [*API, "errors"]


def fresh(code: str) -> str:
    """stdout of ``code`` run in a new interpreter that imports this tree."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize(
    "statement",
    [
        "import sessionforge",
        *(
            f"import sessionforge.{module}"
            for module in ("transport", "session", "curation", "dialogue", "sync", "synth", "cli")
        ),
        "from sessionforge import RecorderConfig, Scenario, gen_session, load_session",
    ],
)
def test_import_leaves_scipy_unloaded(statement):
    assert fresh(f"{statement}\nimport sys\nprint('scipy' in sys.modules)") == "False\n"


def test_filters_name_loads_scipy():
    code = "from sessionforge import filtfilt\nimport sys\nprint('scipy' in sys.modules)"
    assert fresh(code) == "True\n"


def test_every_api_name_is_its_modules_object():
    owners = {name: module for module, names in API.items() for name in names.split()}
    code = f"""
import importlib, sessionforge
owners = {owners!r}
listed = dir(sessionforge)
star = {{}}
exec("from sessionforge import *", star)
star.pop("__builtins__")
print(sorted(star) == sorted([*owners, *{SUBMODULES!r}]))
print(all(star[m] is importlib.import_module("sessionforge." + m) for m in {SUBMODULES!r}))
print(all(star[n] is getattr(importlib.import_module("sessionforge." + m), n) for n, m in owners.items()))
print(all(getattr(sessionforge, n) is star[n] and n in listed for n in star))
try:
    sessionforge.nope
except AttributeError:
    print("AttributeError")
"""
    assert fresh(code).split() == ["True", "True", "True", "True", "AttributeError"]
    assert len(owners) + len(SUBMODULES) == 71
