"""Session data model and on-disk container.

This module is the one owner of the container layout: every other module
reads and writes a trial directory and a synced container through the
functions here. A session lives in a directory:

    manifest.json
    streams/<name>.csv            header ``t,<ch1>,<ch2>,...``, floats as %.17g
    video/<name>.timestamps.csv   frame-timestamp log, header ``t``
    audio/<name>.wav              RIFF PCM
    dialogue.jsonl                one record per trial

and a dataset is a directory of such trial directories. A stream's path is
fixed by its kind and name, and its manifest entry must be ``describe_stream``
of its data at the entry's rate, so an audio entry states its WAV's integer
rate; a manifest naming another path fails to load. Conformance flags, such as
audio not at 48 kHz, fail neither save nor load. ``load_session(...,
audio=False)``, the load of the batch pipeline and ``sync``, checks each
WAV's header as a full load does and leaves its samples unread. Every
timestamp array, of a stream, a frame log or a synced grid, keeps one time
rule (``_time_violations``): enough samples, finite, strictly increasing. A
synced container (``save_synced``) is read by its manifest too
(``load_synced``), and a file the manifest does not list is ignored. For
either container, save refuses, before writing anything, what load rejects:
``_require_valid`` is the one rule of the raw container and
``_synced_checks`` of the synced one, and both apply the one manifest rule
(``_manifest_checks``). Floats are written with 17 significant digits so
save/load round-trips bit-exactly. Every CSV in the container, the synced
container's included, goes through ``_read_table``/``_write_table``: numpy
``loadtxt`` parses them, and the writer formats blocks of rows with one
``%`` each. Every JSON file goes through ``read_json``/``write_json``. A
file that cannot be read raises ``MissingFile`` or ``MalformedManifest``
naming it.

The first read of a CSV leaves a hidden sidecar next to it,
``.<name>.csv.<sha256>.npy``: the parsed table in ``.npy`` format, named
after the digest of the CSV's bytes. Later reads of the same bytes load the
sidecar instead of parsing the text. An edited CSV no longer matches its
sidecar's digest and is parsed again, and a sidecar that is unreadable or whose
``.npy`` header, dtype, width or size is wrong is ignored and replaced. The
sidecar's data bytes are trusted, not checked: a byte flipped in them changes
what a load returns, and deleting the sidecars recovers the CSV's values,
which stay canonical. Sidecars add about 40 % of the CSV bytes on disk and are
safe to delete; a dataset that cannot be written, read-only say, is simply not
cached.
The cache pays only when the same bytes are read again: a first read costs
a hash and a file write more than the parse, and a read of a dataset that
cannot be written a hash more.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import json
import math
import os
import stat
import tempfile
import wave
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path

import numpy as np

from . import dialogue as dlg
from .errors import (
    InvariantViolation,
    IoError,
    MalformedManifest,
    MissingFile,
    SerializationError,
)

PAPER_AUDIO_RATE = 48000
PAPER_AUDIO_BIT_DEPTH = 16
MANIFEST = "manifest.json"
DIALOGUE = "dialogue.jsonl"
_BLOCK_ROWS = 4096  # rows per formatted block when writing a CSV


class Task(str, Enum):
    CLEANING = "cleaning"
    DOOR_OPENING = "door_opening"
    DRAWER_OPENING = "drawer_opening"
    DRINKING = "drinking"
    FEEDING = "feeding"


def task_label(task: Task | str) -> str:
    """The text a report and the dataset tables give ``task``."""
    return task.value if isinstance(task, Task) else str(task)


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


@dataclass(frozen=True)
class FrameTimestampLog:
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


@dataclass(frozen=True)
class ReferenceGrid:
    timestamps: np.ndarray
    rate: float

    def __post_init__(self):
        object.__setattr__(self, "timestamps", np.asarray(self.timestamps, dtype=np.float64))

    @property
    def k(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True)
class FrameSelection:
    selected_indices: np.ndarray  # (K,) int
    accepted_flags: np.ndarray  # (K,) bool

    @property
    def acceptance_rate(self) -> float:
        return float(np.mean(self.accepted_flags))


@dataclass(frozen=True)
class SyncedSession:
    manifest: SessionManifest
    grid: ReferenceGrid
    frame_selections: dict[str, FrameSelection]
    numeric: dict[str, TimedSeries]
    tau: float

    def report(self) -> dict:
        return {
            "grid_rate": self.grid.rate,
            "grid_points": self.grid.k,
            "tau": self.tau,
            "acceptance_rate": {
                name: sel.acceptance_rate for name, sel in self.frame_selections.items()
            },
        }


# -- validation -------------------------------------------------------------

_STREAM_PATHS = {
    StreamKind.NUMERIC: "streams/{}.csv",
    StreamKind.VIDEO_FRAMES: "video/{}.timestamps.csv",
    StreamKind.AUDIO: "audio/{}.wav",
}


def describe_stream(name: str, data, rate: float | None = None) -> StreamDescriptor:
    """The manifest entry of stream ``name`` holding ``data``, a series, frame
    log or audio track, at ``rate``; an audio track's rate is its sample rate."""
    if isinstance(data, TimedSeries):
        kind, channels = StreamKind.NUMERIC, data.channels
    elif isinstance(data, FrameTimestampLog):
        kind, channels = StreamKind.VIDEO_FRAMES, (Channel("frame", "1"),)
    else:
        kind, channels = StreamKind.AUDIO, (Channel("pcm", "1"),)
        rate = float(data.meta.sample_rate)
    return StreamDescriptor(name, kind, rate, channels, _STREAM_PATHS[kind].format(name))


def descriptor_violations(desc: StreamDescriptor) -> list[str]:
    """The invariants manifest entry ``desc`` breaks; one string per rule. Its
    name must be a plain file name, and its file the path of its kind and name."""
    s, violations = desc, []
    if not isinstance(s.name, str) or s.name in ("", ".", "..") or set("/\\\0") & set(s.name):
        violations.append(f"streams[{s.name}].name: must be a plain file name")
    elif s.file != (path := _STREAM_PATHS[s.kind].format(s.name)):
        violations.append(f"streams[{s.name}].file: must be '{path}'")
    if not (math.isfinite(s.nominal_rate) and s.nominal_rate > 0):
        violations.append(f"streams[{s.name}].nominal_rate: must be finite and > 0")
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


def _manifest_checks(manifest: SessionManifest) -> tuple[list[str], list[str]]:
    """The manifest's broken invariants, and its conformance flags."""
    broken = [] if manifest.session_id else ["session_id: must be non-empty"]
    broken += [v for s in manifest.streams for v in descriptor_violations(s)]
    known = isinstance(manifest.task, Task)
    return broken, [] if known else [f"task: '{manifest.task}' not in task taxonomy"]


def validate_manifest(manifest: SessionManifest) -> list[str]:
    """Check manifest invariants; returns one string per violated rule."""
    broken, flags = _manifest_checks(manifest)
    return broken + flags


def _time_violations(where: str, t: np.ndarray, n_min: int) -> list[str]:
    """The time rule of every timestamp array: at least ``n_min`` samples,
    finite, strictly increasing. Strictly increasing with finite ends implies
    finite, so a valid array costs one ``diff`` and no ``isfinite`` pass over
    the array."""
    violations = [f"{where}: N >= {n_min} required"] if len(t) < n_min else []
    if len(t) and not (math.isfinite(t[0]) and math.isfinite(t[-1]) and np.all(np.diff(t) > 0)):
        if np.all(np.isfinite(t)):
            violations.append(f"{where}: timestamps strictly increasing")
        else:
            violations.append(f"{where}: timestamps must be finite")
    return violations


def series_violations(name: str, series: TimedSeries) -> list[str]:
    """The invariants numeric stream ``name`` breaks; one string per rule."""
    t = series.timestamps
    violations = _time_violations(f"streams[{name}]", t, 2)
    if len(series.values) != len(t):
        violations.append(f"streams[{name}]: values length must match timestamps")
    if series.values.shape[1] != len(series.channels):
        violations.append(f"streams[{name}]: channel count mismatch")
    return violations


def _session_checks(session: RawSession) -> tuple[list[str], list[str]]:
    """The session's broken invariants, and its conformance flags. Each stream
    needs one manifest entry, ``describe_stream`` of its data at the entry's
    rate, and each entry data, or a saved session loads back different. An
    audio entry's rate is its track's, an integer > 0 as in a WAV header."""
    broken, flags = _manifest_checks(session.manifest)
    entries = list(session.manifest.streams)
    rates = {(s.name, s.kind): s.nominal_rate for s in entries}
    held = {StreamKind.NUMERIC: session.numeric, StreamKind.VIDEO_FRAMES: session.frame_logs,
            StreamKind.AUDIO: session.audio}
    wanted = [describe_stream(name, data, rates.get((name, kind)))
              for kind, streams in held.items() for name, data in streams.items()]
    for name in dict.fromkeys(s.name for s in entries + wanted):
        if [s for s in entries if s.name == name] != [s for s in wanted if s.name == name]:
            broken.append(f"streams[{name}]: manifest entry does not describe its data")
    for name, series in session.numeric.items():
        broken += series_violations(name, series)
    for name, log in session.frame_logs.items():
        broken += _time_violations(f"streams[{name}]", log.frame_timestamps, 1)
    for name, track in session.audio.items():
        rate = track.meta.sample_rate
        if type(rate) is not int or rate <= 0:  # bool is an int subclass
            broken.append(f"streams[{name}]: audio sample rate {rate!r} must be an integer > 0")
        elif rate != PAPER_AUDIO_RATE:
            flags.append(f"streams[{name}]: audio-rate-nonconformant ({rate} Hz)")
        if track.meta.bit_depth != PAPER_AUDIO_BIT_DEPTH:  # the samples are int16
            broken.append(f"streams[{name}]: audio-bit-depth-nonconformant")
    return broken, flags


def validate_session(session: RawSession) -> list[str]:
    """Manifest violations plus per-series invariant checks."""
    broken, flags = _session_checks(session)
    return broken + flags


def _require_valid(session: RawSession) -> None:
    """Save's and load's one rule: a broken invariant is fatal, a flag is not."""
    broken, _ = _session_checks(session)
    if broken:
        raise InvariantViolation("; ".join(broken))


# -- serialization ----------------------------------------------------------

def _manifest_to_dict(m: SessionManifest) -> dict:
    # The str enums Task and StreamKind encode as their values.
    return {**asdict(m), "created_at": m.created_at.isoformat()}


def _manifest_from_dict(d: dict, path: Path) -> SessionManifest:
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
        raise MalformedManifest(f"{path}: {exc}") from exc


def read_json(path: Path):
    """The parsed JSON of a container file, or of a JSON file the user passed."""
    if not path.is_file():
        raise MissingFile(str(path))
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # bad UTF-8 and bad JSON are ValueErrors
        raise MalformedManifest(f"{path}: {exc}") from exc


def read_user_json(path: Path, parse, what: str):
    """``parse`` of JSON file ``path`` that the user passed; a file that is
    not ``what`` raises MalformedManifest naming it."""
    d = read_json(path)
    try:
        return parse(d)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise MalformedManifest(f"{path}: not a {what}: {exc}") from exc


def write_json(path: Path, obj, sort_keys: bool = False) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=sort_keys) + "\n", encoding="utf-8")


def read_manifest(trial_dir: str | Path) -> SessionManifest:
    path = Path(trial_dir) / MANIFEST
    return _manifest_from_dict(read_json(path), path)


def write_manifest(trial_dir: str | Path, manifest: SessionManifest) -> None:
    write_json(Path(trial_dir) / MANIFEST, _manifest_to_dict(manifest))


def trial_dirs(root: str | Path) -> list[Path]:
    """The trial directories of a dataset: those holding a manifest, sorted."""
    return sorted(p.parent for p in Path(root).glob(f"*/{MANIFEST}"))


def read_dialogues(trial_dir: str | Path) -> tuple[dlg.AnnotatedDialogue, ...]:
    """A trial's dialogues; none when it has no dialogue file."""
    path = Path(trial_dir) / DIALOGUE
    if not path.is_file():
        return ()
    try:
        return tuple(dlg.import_jsonl(path.read_bytes()))
    except (OSError, SerializationError) as exc:
        raise MalformedManifest(f"{path}: {exc}") from exc


def _write_table(path: Path, header: str, columns) -> None:
    """Write ``columns`` (1-D or 2-D, equal length) as CSV under one header row.

    ``%.17g`` round-trips every float and prints integers below 1e17 as ``%d``.
    Rows are formatted a block at a time with one ``%``: the bytes
    ``numpy.savetxt`` writes, without its per-row loop, in bounded memory.
    """
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with path.open("w", encoding="utf-8", newline="\n") as f:
        f.write(header + "\n")
        for lo in range(0, len(table), _BLOCK_ROWS):
            block = table[lo : lo + _BLOCK_ROWS]
            f.write((row * len(block)) % tuple(block.ravel().tolist()))


def _read_table(path: Path, dtype=np.float64) -> tuple[list[str], np.ndarray]:
    """Header names and the ``(rows, len(names))`` body of a container CSV.

    A token that does not parse as ``dtype``, a ragged row or rows whose width
    differs from the header raise MalformedManifest naming the file and the
    line of the first bad row, and a missing file raises MissingFile.

    The body is memoized in a hidden sidecar keyed on the sha256 of the CSV's
    bytes (see ``_sidecar_name``), like a hash-checked ``.pyc``: the CSV stays
    canonical, and the sidecar is used only when the digest it is named after
    is the CSV's and it holds a 2-D ``dtype`` array as wide as the header.
    Otherwise the CSV is parsed, and the parsed array is stored as the sidecar,
    so a sidecar holds the parser's own output bit for bit.

    The CSV's bytes are read once for the digest and the header. A miss parses
    the file by path, because numpy reads a path in large chunks but text held
    in memory line by line, about a tenth slower; the parse is stored only if
    the file still holds the hashed bytes (see ``_write_sidecar``), so no
    sidecar is named after bytes other than the ones parsed.
    """
    if not path.is_file():
        raise MissingFile(str(path))
    raw = path.read_bytes()
    try:
        names = _text(raw).readline().strip().split(",")
    except UnicodeDecodeError as exc:
        raise MalformedManifest(f"{path}: {exc}") from exc
    sidecar = path.with_name(_sidecar_name(path.name, hashlib.sha256(raw).hexdigest()))
    data = _read_sidecar(sidecar, dtype, len(names))
    if data is None:
        data = _parse_body(path, raw, len(names), dtype)
        _write_sidecar(path, raw, sidecar, data)
    return names, data


def _text(raw: bytes) -> io.TextIOWrapper:
    """``raw`` as ``path.open("r", encoding="utf-8")`` reads the file it came
    from: decoded as it is read, with universal newlines."""
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")


def _sidecar_name(csv_name: str, digest: str) -> str:
    """``.<name>.<digest>.npy``, next to the CSV: hidden, and not ``*.csv``,
    so the container's CSV globs never pick it up."""
    return f".{csv_name}.{digest}.npy"


def _read_sidecar(sidecar: Path, dtype, width: int) -> np.ndarray | None:
    """The sidecar's array, or None when it is missing, unreadable, or not a
    2-D C-order ``dtype`` array ``width`` columns wide.

    The ``.npy`` header is checked against the file's size before the body is
    read, so a header that claims more data than the file holds allocates
    nothing.
    """
    try:
        with sidecar.open("rb") as f:
            # np.save writes format 1.0 for every table a sidecar holds
            if np.lib.format.read_magic(f) != (1, 0):
                return None
            shape, fortran_order, stored = np.lib.format.read_array_header_1_0(f)
            if stored != dtype or fortran_order or len(shape) != 2 or shape[1] != width:
                return None
            count = shape[0] * width
            if os.fstat(f.fileno()).st_size - f.tell() != count * stored.itemsize:
                return None
            return np.fromfile(f, stored, count).reshape(shape)
    except (OSError, ValueError):
        return None


def _write_sidecar(path: Path, raw: bytes, sidecar: Path, data: np.ndarray) -> None:
    """Store ``data``, parsed from ``path`` whose bytes were ``raw``, as its one
    sidecar, with ``path``'s permissions, removing its stale ones.

    Written to a temp file unique to this writer and moved into place only if
    ``path`` still holds ``raw``, so a reader never sees a partial sidecar and
    a CSV rewritten during the parse is not cached; the temp file is removed
    unless it was moved, whatever interrupts the write. A dataset that cannot
    be written, read-only say, is simply not cached.
    """
    with contextlib.suppress(OSError):
        mode = stat.S_IMODE(path.stat().st_mode)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        placed = False
        try:
            with os.fdopen(fd, "wb") as f:
                os.fchmod(f.fileno(), mode)
                np.save(f, data, allow_pickle=False)
            if path.read_bytes() != raw:
                return
            os.replace(tmp, sidecar)
            placed = True
        finally:
            if not placed:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
        any_digest = "?" * (2 * hashlib.sha256().digest_size)
        for old in path.parent.glob(_sidecar_name(glob.escape(path.name), any_digest)):
            if old != sidecar:
                old.unlink()


def _parse_body(path: Path, raw: bytes, ncols: int, dtype) -> np.ndarray:
    """The rows below the header of ``path``, whose bytes are ``raw``,
    ``ncols`` values of ``dtype`` each."""
    try:
        f = _text(raw)
        f.readline()
        # loadtxt warns on a body without rows, and warning filters are
        # process-wide, so a header-only table is answered here.
        if not any(line.strip() for line in f):
            return np.empty((0, ncols), dtype=dtype)
        data = np.loadtxt(
            path, dtype, delimiter=",", skiprows=1, ndmin=2, comments=None, encoding="utf-8"
        )
        if data.shape[1] == ncols:
            return data
    except UnicodeDecodeError as exc:
        raise MalformedManifest(f"{path}: {exc}") from exc
    except ValueError:
        pass
    raise MalformedManifest(f"{path}: {_first_bad_row(raw, ncols, dtype)}")


def _first_bad_row(raw: bytes, ncols: int, dtype) -> str:
    """The 1-based file line of the first body row that is not ``ncols`` values
    of ``dtype``, and what is wrong with it. Parses row by row, so it runs
    only after the whole-table read has failed."""
    for line_no, line in enumerate(_text(raw), start=1):
        text = line.rstrip("\r\n")
        if line_no == 1 or not text:
            continue  # the header; loadtxt skips empty lines
        try:
            row = np.loadtxt([text], dtype, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            return f"line {line_no}: cannot parse {text!r} as {np.dtype(dtype).name}"
        if row.shape[1] != ncols:
            return f"line {line_no} has {row.shape[1]} columns, header has {ncols}"
    return "no bad row found"


def _write_series_csv(path: Path, series: TimedSeries) -> None:
    header = "t," + ",".join(ch.name for ch in series.channels)
    _write_table(path, header, [series.timestamps, series.values])


def _read_series_csv(path: Path, channels: tuple[Channel, ...]) -> TimedSeries:
    names, data = _read_table(path)
    if [c.name for c in channels] != names[1:]:
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


def _read_wav(path: Path, samples: bool = True) -> AudioTrack:
    """The track in WAV ``path``; with ``samples=False`` its header only, and
    no samples. Both check that the data chunk holds whole 16-bit samples, so
    a file cut mid-sample fails either way without its samples being read."""
    if not path.is_file():
        raise MissingFile(str(path))
    try:
        with path.open("rb") as f, wave.open(f) as w:
            meta = AudioMeta(
                sample_rate=w.getframerate(),
                bit_depth=w.getsampwidth() * 8,
                channels=w.getnchannels(),
            )
            # The byte count readframes would return: the chunk's whole
            # frames, or what the file holds of them. wave.open leaves f at
            # the first byte of the data chunk.
            nbytes = min(
                w.getnframes() * w.getsampwidth() * w.getnchannels(),
                os.fstat(f.fileno()).st_size - f.tell(),
            )
            if nbytes % 2:
                raise ValueError(f"data chunk cut mid-sample ({nbytes} bytes)")
            pcm = np.frombuffer(w.readframes(w.getnframes()) if samples else b"", dtype="<i2")
    except (wave.Error, EOFError, OSError, ValueError) as exc:
        raise MalformedManifest(f"{path}: not a readable PCM WAV: {exc}") from exc
    return AudioTrack(meta=meta, samples=pcm)


def save_session(session: RawSession, root_path: str | Path) -> None:
    """Write a session to ``root_path``; save/load is a lossless round trip."""
    _require_valid(session)
    root = Path(root_path)
    try:
        root.mkdir(parents=True, exist_ok=True)
        write_manifest(root, session.manifest)
        for streams, write in (
            (session.numeric, _write_series_csv),
            (session.frame_logs, lambda path, log: _write_table(path, "t", [log.frame_timestamps])),
            (session.audio, _write_wav),
        ):
            for name, data in streams.items():
                path = root / describe_stream(name, data).file
                path.parent.mkdir(parents=True, exist_ok=True)
                write(path, data)
        (root / DIALOGUE).write_bytes(dlg.export_jsonl(list(session.dialogues)))
    except OSError as exc:
        raise IoError(f"writing session to {root}: {exc}") from exc


def _read_checked_manifest(root: Path) -> SessionManifest:
    """The manifest of the container at ``root``, checked before any stream
    file is opened, so that no stream path leaves the container."""
    manifest = read_manifest(root)
    broken = [v for s in manifest.streams for v in descriptor_violations(s)]
    if broken:
        raise MalformedManifest(f"{root / MANIFEST}: {'; '.join(broken)}")
    return manifest


def load_session(root_path: str | Path, *, audio: bool = True) -> RawSession:
    """Load and validate a session directory; raises on any broken invariant.

    With ``audio=False`` each WAV's header is read and checked as a full load
    checks it, but its samples are left unread, and the session returned holds
    no audio: ``audio`` is ``{}``, though the manifest keeps its audio entries.
    Such a session cannot be saved, since an entry without data is a broken
    invariant; the batch pipeline and ``sync`` load this way."""
    root = Path(root_path)
    manifest = _read_checked_manifest(root)
    numeric: dict[str, TimedSeries] = {}
    frame_logs: dict[str, FrameTimestampLog] = {}
    tracks: dict[str, AudioTrack] = {}
    for desc in manifest.streams:
        path = root / desc.file
        if desc.kind is StreamKind.NUMERIC:
            numeric[desc.name] = _read_series_csv(path, desc.channels)
        elif desc.kind is StreamKind.VIDEO_FRAMES:
            frame_logs[desc.name] = FrameTimestampLog(_read_table(path)[1][:, 0])
        elif desc.kind is StreamKind.AUDIO:
            tracks[desc.name] = _read_wav(path, samples=audio)

    session = RawSession(
        manifest=manifest,
        numeric=numeric,
        frame_logs=frame_logs,
        audio=tracks,
        dialogues=read_dialogues(root),
    )
    _require_valid(session)
    return session if audio else replace(session, audio={})


_SELECTION_PATH = "selections/{}.csv"
_SELECTION_HEADER = ["index", "accepted"]


def _synced_checks(synced: SyncedSession) -> None:
    """``save_synced``'s and ``load_synced``'s one rule. The manifest keeps
    the raw container's manifest rule. The grid rate is finite and > 0, tau
    finite and >= 0, and the grid keeps the time rule. Video and numeric
    entries match the selections and streams one to one. Each selection has
    one row per grid point, indices >= 0 and flags 0 or 1; each stream has one
    row per grid point, at the grid's timestamps bit for bit, and finite
    values: sync bridges or refuses every non-finite sample."""
    grid, k = synced.grid, synced.grid.k
    broken, _ = _manifest_checks(synced.manifest)
    broken += _time_violations("grid", grid.timestamps, 1)
    if not (math.isfinite(grid.rate) and grid.rate > 0):
        broken.append(f"grid.rate: {grid.rate} must be finite and > 0")
    if not (math.isfinite(synced.tau) and synced.tau >= 0):
        broken.append(f"tau: {synced.tau} must be finite and >= 0")
    for kind, held in (
        (StreamKind.VIDEO_FRAMES, synced.frame_selections),
        (StreamKind.NUMERIC, synced.numeric),
    ):
        entries = [s.name for s in synced.manifest.streams if s.kind is kind]
        if sorted(entries) != sorted(held):
            broken.append(f"{kind.value} entries {entries} do not match data {list(held)}")
    for name, sel in synced.frame_selections.items():
        index, flags = sel.selected_indices, sel.accepted_flags
        if not np.shape(index) == np.shape(flags) == (k,):
            broken.append(f"selections[{name}]: {k} index,accepted rows needed, one per grid point")
        elif not (np.all(index >= 0) and np.all((flags == 0) | (flags == 1))):
            broken.append(f"selections[{name}]: indices must be >= 0 and flags 0 or 1")
    for name, series in synced.numeric.items():
        if not series.n_samples == len(series.values) == k:
            broken.append(f"streams[{name}]: {k} rows needed, one per grid point")
        elif not np.array_equal(series.timestamps.view(np.uint64), grid.timestamps.view(np.uint64)):
            broken.append(f"streams[{name}]: timestamps must equal the grid's bit for bit")
        elif not np.all(np.isfinite(series.values)):
            broken.append(f"streams[{name}]: values must be finite")
    if broken:
        raise InvariantViolation("; ".join(broken))


def save_synced(synced: SyncedSession, root_path: str | Path) -> None:
    """Persist a synced session: grid, selections, resampled streams, report."""
    _synced_checks(synced)
    root = Path(root_path)
    try:
        for sub in ("selections", "streams"):
            (root / sub).mkdir(parents=True, exist_ok=True)
        write_manifest(root, synced.manifest)
        write_json(root / "grid.json", {"rate": synced.grid.rate, "tau": synced.tau})
        _write_table(root / "grid.csv", "t", [synced.grid.timestamps])
        for name, sel in synced.frame_selections.items():
            _write_table(
                root / _SELECTION_PATH.format(name),
                ",".join(_SELECTION_HEADER),
                [sel.selected_indices, sel.accepted_flags],
            )
        for name, series in synced.numeric.items():
            _write_series_csv(root / _STREAM_PATHS[StreamKind.NUMERIC].format(name), series)
        write_json(root / "sync_report.json", synced.report(), sort_keys=True)
    except OSError as exc:
        raise IoError(f"writing synced session to {root}: {exc}") from exc


def load_synced(root_path: str | Path) -> SyncedSession:
    """Load a synced container by its manifest: the selections of each video
    stream and the resampled series of each numeric one. A listed file that is
    absent raises ``MissingFile``; a file the manifest does not list is not read."""
    root = Path(root_path)
    manifest = _read_checked_manifest(root)
    meta_path = root / "grid.json"
    meta = read_json(meta_path)
    try:
        rate, tau = float(meta["rate"]), float(meta["tau"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedManifest(f"{meta_path}: bad rate or tau: {exc!r}") from exc
    grid = ReferenceGrid(timestamps=_read_table(root / "grid.csv")[1][:, 0], rate=rate)

    selections: dict[str, FrameSelection] = {}
    numeric: dict[str, TimedSeries] = {}
    for desc in manifest.streams:
        if desc.kind is StreamKind.VIDEO_FRAMES:
            path = root / _SELECTION_PATH.format(desc.name)
            names, sel = _read_table(path, dtype=int)
            if names != _SELECTION_HEADER:
                raise MalformedManifest(f"{path}: header {names} is not {_SELECTION_HEADER}")
            selections[desc.name] = FrameSelection(sel[:, 0], sel[:, 1])
        elif desc.kind is StreamKind.NUMERIC:
            numeric[desc.name] = _read_series_csv(root / desc.file, desc.channels)
    # Checked before the flags become bool, which would read a 2 as True.
    _synced_checks(SyncedSession(manifest, grid, selections, numeric, tau))
    flags = {name: replace(sel, accepted_flags=sel.accepted_flags.astype(bool))
             for name, sel in selections.items()}
    return SyncedSession(manifest, grid, flags, numeric, tau)


def _bits(x: np.ndarray) -> np.ndarray:
    """The bit patterns of float array ``x``, each NaN as the one NaN ``nan`` parses to."""
    return np.where(np.isnan(x), np.nan, x).view(np.uint64)


def sessions_equal(a: RawSession, b: RawSession) -> bool:
    """Structural value equality, float bit patterns included, so ``-0.0``
    differs from ``0.0``. Any NaN equals any NaN: the CSV writes every NaN as
    ``nan``, which keeps neither its sign nor its payload."""
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
        if not np.array_equal(_bits(sa.timestamps), _bits(sb.timestamps)):
            return False
        if not np.array_equal(_bits(sa.values), _bits(sb.values)):
            return False
    for name in a.frame_logs:
        if not np.array_equal(
            _bits(a.frame_logs[name].frame_timestamps), _bits(b.frame_logs[name].frame_timestamps)
        ):
            return False
    for name in a.audio:
        ta, tb = a.audio[name], b.audio[name]
        if ta.meta != tb.meta or not np.array_equal(ta.samples, tb.samples):
            return False
    return a.dialogues == b.dialogues


def utc_now() -> datetime:
    return datetime.now(timezone.utc).replace(microsecond=0)
