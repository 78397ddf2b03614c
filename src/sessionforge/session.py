"""Session data model and on-disk container.

A session lives in a directory:

    manifest.json
    streams/<name>.csv            header ``t,<ch1>,<ch2>,...``, floats as %.17g
    video/<name>.timestamps.csv   frame-timestamp log, header ``t``
    audio/<name>.wav              RIFF PCM
    dialogue.jsonl                one record per trial

Floats are written with 17 significant digits so save/load round-trips
bit-exactly. Every CSV in the container, the synced container's included,
goes through ``_read_table``/``_write_table``, built on numpy ``loadtxt``
and ``savetxt``, which read and write exactly the format above.
"""

from __future__ import annotations

import json
import wave
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path

import numpy as np

from . import dialogue as dlg
from .errors import InvariantViolation, IoError, MalformedManifest, MissingFile

PAPER_AUDIO_RATE = 48000
PAPER_AUDIO_BIT_DEPTH = 16


class Task(str, Enum):
    CLEANING = "cleaning"
    DOOR_OPENING = "door_opening"
    DRAWER_OPENING = "drawer_opening"
    DRINKING = "drinking"
    FEEDING = "feeding"

    @property
    def display_name(self) -> str:
        return self.value.replace("_", " ").title()


class StreamKind(str, Enum):
    VIDEO_FRAMES = "video_frames"
    NUMERIC = "numeric"
    AUDIO = "audio"


@dataclass(frozen=True)
class Channel:
    name: str
    unit: str


@dataclass(frozen=True)
class StreamDescriptor:
    name: str
    kind: StreamKind
    nominal_rate: float
    channels: tuple[Channel, ...]
    file: str

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))


@dataclass(frozen=True)
class SessionManifest:
    session_id: str
    participant_id: str
    task: Task | str  # str only for unrecognized tasks, flagged by validation
    success: bool | None
    created_at: datetime
    streams: tuple[StreamDescriptor, ...]
    notes: str = ""
    violation_flags: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "streams", tuple(self.streams))
        object.__setattr__(self, "violation_flags", tuple(self.violation_flags))

    def descriptor(self, name: str) -> StreamDescriptor | None:
        for s in self.streams:
            if s.name == name:
                return s
        return None


@dataclass(frozen=True)
class TimedSeries:
    timestamps: np.ndarray  # (N,) seconds, strictly increasing
    values: np.ndarray  # (N, C)
    channels: tuple[Channel, ...]

    def __post_init__(self):
        object.__setattr__(self, "timestamps", np.asarray(self.timestamps, dtype=np.float64))
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim == 1:
            v = v[:, None]
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "channels", tuple(self.channels))

    @property
    def n_samples(self) -> int:
        return len(self.timestamps)

    def channel_index(self, name: str) -> int | None:
        for i, ch in enumerate(self.channels):
            if ch.name == name:
                return i
        return None

    def column(self, name: str) -> np.ndarray:
        idx = self.channel_index(name)
        if idx is None:
            raise KeyError(name)
        return self.values[:, idx]


@dataclass(frozen=True)
class FrameTimestampLog:
    stream: str
    frame_timestamps: np.ndarray  # (N_c,) seconds, strictly increasing

    def __post_init__(self):
        object.__setattr__(
            self, "frame_timestamps", np.asarray(self.frame_timestamps, dtype=np.float64)
        )


@dataclass(frozen=True)
class AudioMeta:
    sample_rate: int
    bit_depth: int
    channels: int
    encoding: str = "pcm"
    file: str = ""


@dataclass(frozen=True)
class AudioTrack:
    meta: AudioMeta
    samples: np.ndarray  # int16, mono

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.int16))


@dataclass(frozen=True)
class RawSession:
    manifest: SessionManifest
    numeric: dict[str, TimedSeries] = field(default_factory=dict)
    frame_logs: dict[str, FrameTimestampLog] = field(default_factory=dict)
    audio: dict[str, AudioTrack] = field(default_factory=dict)
    dialogues: tuple[dlg.AnnotatedDialogue, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "dialogues", tuple(self.dialogues))


# -- validation -------------------------------------------------------------

def validate_manifest(manifest: SessionManifest) -> list[str]:
    """Check manifest invariants; returns one string per violated rule."""
    violations = []
    if not manifest.session_id:
        violations.append("session_id: must be non-empty")
    if not isinstance(manifest.task, Task):
        violations.append(f"task: '{manifest.task}' not in task taxonomy")
    for s in manifest.streams:
        if s.nominal_rate <= 0:
            violations.append(f"streams[{s.name}].nominal_rate: must be > 0")
        if s.kind is StreamKind.VIDEO_FRAMES and len(s.channels) != 1:
            violations.append(
                f"streams[{s.name}].channels: video streams have exactly one channel"
            )
        if s.kind is StreamKind.NUMERIC:
            if len(s.channels) < 1:
                violations.append(f"streams[{s.name}].channels: numeric streams need >= 1 channel")
            for ch in s.channels:
                if not ch.unit:
                    violations.append(
                        f"streams[{s.name}].channels[{ch.name}].unit: must be a non-empty SI string"
                    )
    return violations


def validate_session(session: RawSession) -> list[str]:
    """Manifest violations plus per-series invariant checks."""
    violations = validate_manifest(session.manifest)
    for name, series in session.numeric.items():
        t = series.timestamps
        if len(t) < 2:
            violations.append(f"streams[{name}]: N >= 2 required")
        if not np.all(np.isfinite(t)):
            violations.append(f"streams[{name}]: timestamps must be finite")
        elif len(t) > 1 and not np.all(np.diff(t) > 0):
            violations.append(f"streams[{name}]: timestamps strictly increasing")
        if len(series.values) != len(t):
            violations.append(f"streams[{name}]: values length must match timestamps")
        if series.values.shape[1] != len(series.channels):
            violations.append(f"streams[{name}]: channel count mismatch")
    for name, log in session.frame_logs.items():
        t = log.frame_timestamps
        if len(t) < 1:
            violations.append(f"streams[{name}]: frame log must be non-empty")
        elif len(t) > 1 and not np.all(np.diff(t) > 0):
            violations.append(f"streams[{name}]: timestamps strictly increasing")
    for name, track in session.audio.items():
        if track.meta.sample_rate != PAPER_AUDIO_RATE:
            violations.append(f"streams[{name}]: audio-rate-nonconformant ({track.meta.sample_rate} Hz)")
        if track.meta.bit_depth != PAPER_AUDIO_BIT_DEPTH:
            violations.append(f"streams[{name}]: audio-bit-depth-nonconformant")
    return violations


# -- serialization ----------------------------------------------------------

def _manifest_to_dict(m: SessionManifest) -> dict:
    return {
        "session_id": m.session_id,
        "participant_id": m.participant_id,
        "task": m.task.value if isinstance(m.task, Task) else m.task,
        "success": m.success,
        "created_at": m.created_at.isoformat(),
        "notes": m.notes,
        "violation_flags": list(m.violation_flags),
        "streams": [
            {
                "name": s.name,
                "kind": s.kind.value,
                "nominal_rate": s.nominal_rate,
                "channels": [{"name": c.name, "unit": c.unit} for c in s.channels],
                "file": s.file,
            }
            for s in m.streams
        ],
    }


def _manifest_from_dict(d: dict) -> SessionManifest:
    try:
        task_raw = d["task"]
        try:
            task: Task | str = Task(task_raw)
        except ValueError:
            task = task_raw
        streams = tuple(
            StreamDescriptor(
                name=s["name"],
                kind=StreamKind(s["kind"]),
                nominal_rate=float(s["nominal_rate"]),
                channels=tuple(Channel(c["name"], c["unit"]) for c in s["channels"]),
                file=s["file"],
            )
            for s in d["streams"]
        )
        return SessionManifest(
            session_id=d["session_id"],
            participant_id=d["participant_id"],
            task=task,
            success=d.get("success"),
            created_at=datetime.fromisoformat(d["created_at"]),
            streams=streams,
            notes=d.get("notes", ""),
            violation_flags=tuple(d.get("violation_flags", ())),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedManifest(f"manifest: {exc}") from exc


def _write_table(path: Path, header: str, columns) -> None:
    """Write ``columns`` (1-D or 2-D, equal length) as CSV under one header row.

    ``%.17g`` round-trips every float and prints integers below 1e17 as ``%d``.
    """
    with path.open("w", encoding="utf-8", newline="\n") as f:
        np.savetxt(
            f, np.column_stack(columns), fmt="%.17g", delimiter=",", header=header, comments=""
        )


def _read_table(path: Path, dtype=np.float64) -> tuple[list[str], np.ndarray]:
    """Header names and the ``(rows, len(names))`` body of a container CSV.

    A token that does not parse as ``dtype``, a ragged row or rows whose width
    differs from the header raise MalformedManifest naming the file (and,
    from loadtxt, the row).
    """
    try:
        with path.open("r", encoding="utf-8") as f:
            names = f.readline().strip().split(",")
            # loadtxt warns on a body without rows, and warning filters are
            # process-wide, so a header-only table is answered here.
            if not any(line.strip() for line in f):
                return names, np.empty((0, len(names)), dtype=dtype)
        data = np.loadtxt(
            path, dtype, delimiter=",", skiprows=1, ndmin=2, comments=None, encoding="utf-8"
        )
    except ValueError as exc:
        raise MalformedManifest(f"{path}: {exc}") from exc
    if data.shape[1] != len(names):
        raise MalformedManifest(
            f"{path}: rows have {data.shape[1]} columns, header has {len(names)}"
        )
    return names, data


def _write_series_csv(path: Path, series: TimedSeries) -> None:
    header = "t," + ",".join(ch.name for ch in series.channels)
    _write_table(path, header, [series.timestamps, series.values])


def _read_series_csv(path: Path, channels: tuple[Channel, ...] | None = None) -> TimedSeries:
    """Read a numeric stream; without ``channels`` they come unitless from the header."""
    names, data = _read_table(path)
    if channels is None:
        channels = tuple(Channel(n, "") for n in names[1:])
    elif [c.name for c in channels] != names[1:]:
        raise MalformedManifest(
            f"{path.name}: header channels {names[1:]} do not match manifest"
        )
    return TimedSeries(timestamps=data[:, 0], values=data[:, 1:], channels=channels)


def _write_wav(path: Path, track: AudioTrack) -> None:
    with wave.open(str(path), "wb") as w:
        w.setnchannels(track.meta.channels)
        w.setsampwidth(track.meta.bit_depth // 8)
        w.setframerate(track.meta.sample_rate)
        w.writeframes(track.samples.astype("<i2").tobytes())


def _read_wav(path: Path, file_ref: str) -> AudioTrack:
    with wave.open(str(path), "rb") as w:
        meta = AudioMeta(
            sample_rate=w.getframerate(),
            bit_depth=w.getsampwidth() * 8,
            channels=w.getnchannels(),
            file=file_ref,
        )
        samples = np.frombuffer(w.readframes(w.getnframes()), dtype="<i2")
    return AudioTrack(meta=meta, samples=samples)


def save_session(session: RawSession, root_path: str | Path) -> None:
    """Write a session to ``root_path``; save/load is a lossless round trip."""
    violations = validate_session(session)
    if violations:
        raise InvariantViolation("; ".join(violations))
    root = Path(root_path)
    try:
        root.mkdir(parents=True, exist_ok=True)
        (root / "manifest.json").write_text(
            json.dumps(_manifest_to_dict(session.manifest), indent=2) + "\n",
            encoding="utf-8",
        )
        for name, series in session.numeric.items():
            desc = session.manifest.descriptor(name)
            rel = desc.file if desc else f"streams/{name}.csv"
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            _write_series_csv(path, series)
        for name, log in session.frame_logs.items():
            desc = session.manifest.descriptor(name)
            rel = desc.file if desc else f"video/{name}.timestamps.csv"
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            _write_table(path, "t", [log.frame_timestamps])
        for name, track in session.audio.items():
            desc = session.manifest.descriptor(name)
            rel = desc.file if desc else f"audio/{name}.wav"
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            _write_wav(path, track)
        (root / "dialogue.jsonl").write_bytes(dlg.export_jsonl(list(session.dialogues)))
    except OSError as exc:
        raise IoError(f"writing session to {root}: {exc}") from exc


def load_session(root_path: str | Path) -> RawSession:
    """Load and validate a session directory; raises on any broken invariant."""
    root = Path(root_path)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise MissingFile(str(manifest_path))
    try:
        manifest_dict = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedManifest(f"{manifest_path}: {exc}") from exc
    manifest = _manifest_from_dict(manifest_dict)

    numeric: dict[str, TimedSeries] = {}
    frame_logs: dict[str, FrameTimestampLog] = {}
    audio: dict[str, AudioTrack] = {}
    for desc in manifest.streams:
        path = root / desc.file
        if not path.is_file():
            raise MissingFile(str(path))
        if desc.kind is StreamKind.NUMERIC:
            numeric[desc.name] = _read_series_csv(path, desc.channels)
        elif desc.kind is StreamKind.VIDEO_FRAMES:
            frame_logs[desc.name] = FrameTimestampLog(desc.name, _read_table(path)[1][:, 0])
        elif desc.kind is StreamKind.AUDIO:
            audio[desc.name] = _read_wav(path, desc.file)

    dialogues: tuple[dlg.AnnotatedDialogue, ...] = ()
    dlg_path = root / "dialogue.jsonl"
    if dlg_path.is_file():
        dialogues = tuple(dlg.import_jsonl(dlg_path.read_bytes()))

    session = RawSession(
        manifest=manifest,
        numeric=numeric,
        frame_logs=frame_logs,
        audio=audio,
        dialogues=dialogues,
    )
    violations = validate_session(session)
    # Audio-rate nonconformance is a warning-level violation, not fatal on load.
    fatal = [v for v in violations if "nonconformant" not in v and "taxonomy" not in v]
    if fatal:
        raise InvariantViolation("; ".join(fatal))
    return session


def sessions_equal(a: RawSession, b: RawSession) -> bool:
    """Structural value equality, float bit patterns included."""
    if _manifest_to_dict(a.manifest) != _manifest_to_dict(b.manifest):
        return False
    if set(a.numeric) != set(b.numeric) or set(a.frame_logs) != set(b.frame_logs):
        return False
    if set(a.audio) != set(b.audio):
        return False
    for name in a.numeric:
        sa, sb = a.numeric[name], b.numeric[name]
        if sa.channels != sb.channels:
            return False
        if not np.array_equal(sa.timestamps, sb.timestamps):
            return False
        if not np.array_equal(sa.values, sb.values, equal_nan=True):
            return False
    for name in a.frame_logs:
        if not np.array_equal(
            a.frame_logs[name].frame_timestamps, b.frame_logs[name].frame_timestamps
        ):
            return False
    for name in a.audio:
        ta, tb = a.audio[name], b.audio[name]
        if (ta.meta.sample_rate, ta.meta.bit_depth, ta.meta.channels) != (
            tb.meta.sample_rate,
            tb.meta.bit_depth,
            tb.meta.channels,
        ):
            return False
        if not np.array_equal(ta.samples, tb.samples):
            return False
    return a.dialogues == b.dialogues


def utc_now() -> datetime:
    return datetime.now(timezone.utc).replace(microsecond=0)
