"""sessionforge: multimodal teleoperation session recording and analysis.

Record timestamped sensor streams over TCP/UDP into a portable session
container, align multi-rate streams onto a reference grid, denoise with
zero-phase Butterworth filters, compute motion-quality metrics, curate
trials, and annotate dialogues with ambiguity labels.
"""

from .curation import dataset_stats, filter_successful, label_trial, survey_stats
from .dialogue import (
    AmbiguityLabel,
    AmbiguityType,
    AnnotatedDialogue,
    Clarity,
    Speaker,
    Utterance,
    ambiguity_distribution,
    annotate_utterance,
    export_jsonl,
    import_jsonl,
)
from .filters import (
    DenoisePolicy,
    FilterSpec,
    denoise_raw,
    denoise_session,
    design_butterworth_lowpass,
    filtfilt,
)
from .metrics import (
    ComfortAssessment,
    TaskAggregate,
    TrialMetrics,
    comfort_check,
    compute_trial_metrics,
    jerk_series,
    path_length,
    task_aggregate,
    trial_mean_jerk,
)
from .session import (
    AudioMeta,
    AudioTrack,
    Channel,
    FrameSelection,
    FrameTimestampLog,
    RawSession,
    ReferenceGrid,
    SessionManifest,
    StreamDescriptor,
    StreamKind,
    SyncedSession,
    Task,
    TimedSeries,
    load_session,
    save_session,
    sessions_equal,
    validate_manifest,
)
from .sync import (
    OverlapWindow,
    build_reference_grid,
    compute_overlap,
    interpolate_numeric,
    match_frames,
    sync_session,
)
from .synth import GroundTruth, Scenario, gen_min_jerk_trajectory, gen_session
from .transport import (
    AudioDatagram,
    GapReport,
    RecorderConfig,
    TcpFrame,
    audio_reassemble,
    frame_decode,
    start_recording,
)

__version__ = "0.1.0"
