"""sessionforge: multimodal teleoperation session recording and analysis.

Record timestamped sensor streams over TCP/UDP into a portable session
container, align multi-rate streams onto a reference grid, denoise with
zero-phase Butterworth filters, compute motion-quality metrics, curate
trials, and annotate dialogues with ambiguity labels.

The package namespace is lazy (PEP 562): ``_API`` maps each public name to
the submodule that defines it, and a name's module is imported on first
access, so ``import sessionforge`` or ``import sessionforge.transport`` loads
only what that module itself imports. Only ``filters`` imports scipy, so
``from sessionforge import Scenario, gen_session`` does not, while
``from sessionforge import filtfilt`` does. ``__all__`` holds every API name
and every submodule.
"""

import importlib

_API = {
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
_MODULES = (*_API, "errors")
_OWNER = {name: module for module, names in _API.items() for name in names.split()}
__all__ = sorted([*_OWNER, *_MODULES])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULES:  # importing a submodule binds it in this namespace
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
