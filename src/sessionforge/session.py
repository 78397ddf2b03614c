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
rate. ``read_manifest``, the one manifest reader of both loaders and of every
command, checks each entry whole before it returns, so a manifest naming
another path is refused wherever it is read. Conformance flags, such as audio
not at 48 kHz, fail neither save nor load. ``load_session(...,
audio=False)``, the load of the batch pipeline and ``sync``, checks each
WAV's header as a full load does and leaves its samples unread. Every
timestamp array, of a stream, a frame log or a synced grid, keeps one time
rule (``_time_violations``): enough samples, finite, strictly increasing. A
synced container (``save_synced``) is read by its manifest too
(``load_synced``), and a file the manifest does not list is ignored. For
either container, save refuses, before writing anything, what load rejects:
``session_checks`` is the one rule of the raw container, the recorder's
too, and ``_synced_checks`` of the synced one; both apply the one manifest
rule (``_manifest_checks``). Floats are written with 17 significant digits so
save/load round-trips bit-exactly. Every CSV in the container, the synced
container's included, goes through ``_read_table``/``_table_bytes``. The
reader reads a CSV's bytes once, and takes the header, the digest and the
parse from them. It refuses any header other than its writer's: ``t`` and
the channel names for a stream, ``t`` for a frame log and the synced
``grid.csv``, ``index,accepted`` for a selection. numpy ``loadtxt`` parses
the body. ``_table_bytes`` writes the bytes ``%.17g`` writes for each value,
a block of values at a time: the digits of values written in fixed point are
made exactly with numpy, and only values written with an exponent go through
Python's ``%``, one call per block.
Every file, a container's, a sidecar or one a command names, is replaced whole
by ``_replace_file``; a write that fails raises ``IoError`` naming the file
(``_io_error``). A save writes one file at a time, the manifest last, and
needs disk space for its largest file twice. A failed re-save leaves each file
old or new whole, though the container may mix the two; a failed first save
leaves no manifest, so ``trial_dirs`` skips it. A file that cannot be read
raises ``MissingFile`` or ``MalformedManifest`` naming it.

The first read of a CSV leaves a hidden sidecar next to it,
``.<name>.csv.<sha256>.<code>``, named after the digest of the bytes read and
the table's dtype (``f8``, or ``i8`` for a selection): an 8-byte little-endian
row count, then the rows parsed from those bytes, C order, little-endian.
Later reads of the same bytes load the sidecar instead of parsing the text. An
edited CSV no longer matches its sidecar's digest and is parsed again, and a
sidecar that cannot be read or whose size does not match its row count is
ignored and replaced. The sidecar's data bytes are trusted, not checked: a
byte flipped in them changes what a load returns, and deleting the sidecars
recovers the CSV's values, which stay canonical. Sidecars add about 40 % of
the CSV bytes on disk and are safe to delete; a dataset that cannot be
written, read-only say, is simply not cached.
The cache pays only when the same bytes are read again: a first read costs
a hash and a file write more than the parse, and a read of a dataset that
cannot be written a hash more.
"""

from __future__ import annotations

import contextlib
import errno
import functools
import glob
import hashlib
import io
import json
import math
import os
import secrets
import stat
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
_BLOCK_VALUES = 4096  # values per formatted block when writing a CSV


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
    name must be a plain file name, its file the path of its kind and name,
    and each numeric channel name one cell of the CSV header that load reads,
    and named once, or ``TimedSeries.channel_index`` finds only the first."""
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
        names = [ch.name for ch in s.channels if isinstance(ch.name, str)]
        if len(set(names)) != len(names):
            violations.append(f"streams[{s.name}].channels: a channel name repeats")
        for ch in s.channels:
            name = ch.name
            if not isinstance(name, str) or set(",\r\n") & set(name) or name != name.strip():
                violations.append(
                    f"streams[{s.name}].channels[{name!r}].name: must be a string with no "
                    "comma, line break or edge whitespace"
                )
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


def _dialogue_violations(
    manifest: SessionManifest, dialogues: tuple[dlg.AnnotatedDialogue, ...]
) -> list[str]:
    """A trial's dialogue records belong to it: each names the trial's id and
    its task, or the report would count its utterances elsewhere."""
    task = task_label(manifest.task)
    return [
        f"dialogue[{i}]: {field} {got!r} is not this trial's {want!r}"
        for i, d in enumerate(dialogues)
        for field, got, want in (("trial_id", d.trial_id, manifest.session_id), ("task", d.task, task))
        if got != want
    ]


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


def session_checks(session: RawSession) -> tuple[list[str], list[str]]:
    """The session's broken invariants, and its conformance flags: the one
    rule of the raw container, which save, load and the recorder apply. Each
    stream needs one manifest entry, ``describe_stream`` of its data at the
    entry's rate, and each entry data, or a saved session loads back
    different. A name belongs to streams of one kind, whatever the manifest's
    order. A numeric stream has as many values as timestamps and channels.
    An audio track's rate is an integer > 0, as in a WAV header, and its
    depth 16 bits, as the samples are int16. Each dialogue record names the
    session's id and task, the rule ``read_dialogues`` applies too."""
    broken, flags = _manifest_checks(session.manifest)
    broken += _dialogue_violations(session.manifest, session.dialogues)
    entries = list(session.manifest.streams)
    rates = {(s.name, s.kind): s.nominal_rate for s in entries}
    held = {StreamKind.NUMERIC: session.numeric, StreamKind.VIDEO_FRAMES: session.frame_logs,
            StreamKind.AUDIO: session.audio}
    wanted = [describe_stream(name, data, rates.get((name, kind)))
              for kind, streams in held.items() for name, data in streams.items()]
    for name in dict.fromkeys(s.name for s in entries + wanted):
        listed = [s for s in entries if s.name == name]
        held_as = [s for s in wanted if s.name == name]
        if any(len({s.kind for s in group}) > 1 for group in (listed, held_as)):
            broken.append(f"streams[{name}]: one name under two kinds")
        elif listed != held_as:
            broken.append(f"streams[{name}]: manifest entry does not describe its data")
    for name, series in session.numeric.items():
        broken += _time_violations(f"streams[{name}]", series.timestamps, 2)
        if len(series.values) != series.n_samples:
            broken.append(f"streams[{name}]: values length must match timestamps")
        if series.values.shape[1] != len(series.channels):
            broken.append(f"streams[{name}]: channel count mismatch")
    for name, log in session.frame_logs.items():
        broken += _time_violations(f"streams[{name}]", log.frame_timestamps, 1)
    for name, track in session.audio.items():
        rate = track.meta.sample_rate
        if type(rate) is not int or rate <= 0:  # bool is an int subclass
            broken.append(f"streams[{name}]: audio sample rate {rate!r} must be an integer > 0")
        elif rate != PAPER_AUDIO_RATE:
            flags.append(f"streams[{name}]: audio-rate-nonconformant ({rate} Hz)")
        if track.meta.bit_depth != PAPER_AUDIO_BIT_DEPTH:
            broken.append(f"streams[{name}]: audio-bit-depth-nonconformant")
    return broken, flags


def _require_valid(session: RawSession) -> None:
    """Save's and load's one rule: a broken invariant is fatal, a flag is not."""
    broken, _ = session_checks(session)
    if broken:
        raise InvariantViolation("; ".join(broken))


# -- serialization ----------------------------------------------------------

def _manifest_to_dict(m: SessionManifest) -> dict:
    # The str enums Task and StreamKind encode as their values.
    return {**asdict(m), "created_at": m.created_at.isoformat()}


def _manifest_from_dict(d: dict, path: Path) -> SessionManifest:
    try:
        if not isinstance(d["session_id"], str):  # a dataset counts trials by it
            raise TypeError(f"session_id {d['session_id']!r} is not a string")
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


def _json_bytes(obj, sort_keys: bool = False) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=sort_keys) + "\n").encode("utf-8")


def read_manifest(trial_dir: str | Path) -> SessionManifest:
    """The manifest of the container at ``trial_dir``, each entry checked
    whole, so that no stream path leaves the container before any stream
    file is opened; a broken entry raises MalformedManifest naming the file."""
    path = Path(trial_dir) / MANIFEST
    manifest = _manifest_from_dict(read_json(path), path)
    broken = [v for s in manifest.streams for v in descriptor_violations(s)]
    if broken:
        raise MalformedManifest(f"{path}: {'; '.join(broken)}")
    return manifest


def write_manifest(trial_dir: str | Path, manifest: SessionManifest) -> None:
    """Replace the manifest at ``trial_dir`` whole; raises IoError naming it."""
    _write_files(Path(trial_dir), [(MANIFEST, _json_bytes(_manifest_to_dict(manifest)))])


def trial_dirs(root: str | Path) -> list[Path]:
    """The trial directories of a dataset: those holding a manifest, sorted."""
    return sorted(p.parent for p in Path(root).glob(f"*/{MANIFEST}"))


def read_dialogues(
    trial_dir: str | Path, manifest: SessionManifest
) -> tuple[dlg.AnnotatedDialogue, ...]:
    """The dialogues of the trial at ``trial_dir``, whose manifest is
    ``manifest``; none when it has no dialogue file. A record that names
    another trial or task raises InvariantViolation, as a load would."""
    path = Path(trial_dir) / DIALOGUE
    if not path.is_file():
        return ()
    try:
        dialogues = tuple(dlg.import_jsonl(path.read_bytes()))
    except (OSError, SerializationError) as exc:
        raise MalformedManifest(f"{path}: {exc}") from exc
    broken = _dialogue_violations(manifest, dialogues)
    if broken:
        raise InvariantViolation(f"{path}: {'; '.join(broken)}")
    return dialogues


def _table_bytes(header: list[str], columns) -> bytes:
    """``columns`` (1-D or 2-D, equal length) as CSV under one header row.

    Each value is written as ``b"%.17g" % float(value)``: the bytes
    ``numpy.savetxt`` writes, which round-trip every float and print integers
    below 1e17 as ``%d``. Integer columns are converted to float64 first, as
    ``%`` converts an int. The digits of a finite value with
    ``1e-4 <= |x| < 1e17``, which %.17g writes in fixed point, are made
    exactly with numpy: an exact product ``x * 10**(16 - X)`` rounded half to
    even in int64 (``_fixed_digits``). Zeros, NaN and infinities need no
    digits. Only the values %.17g writes with an exponent go through Python's
    ``%``. The table is formatted in blocks of ``_BLOCK_VALUES`` values
    (``_block_bytes``), which bound the temporaries, about 1.3 MB, not the
    output, which is held whole.
    """
    table = np.column_stack(columns)
    step = max(1, _BLOCK_VALUES // max(1, table.shape[1]))
    blocks = [",".join(header).encode("utf-8") + b"\n"]
    for lo in range(0, len(table), step):
        blocks.append(_block_bytes(table[lo : lo + step]))
    return b"".join(blocks)


# %.17g writes a finite x with 1e-4 <= |x| < 1e17 in fixed point: its 17
# significant digits, trailing zeros dropped, around a ".", with decimal
# exponent X in -4..16. That text is cut from one 41-byte row: a "-", a "0",
# the digits (A), a ".", three "0"s, the digits again (B), then "," or a
# newline. The row's mask keeps "-"? A[:X+1] ("." B[X+1:sig])? when X >= 0,
# and "-"? "0." "0"*(-X-1) B[:sig] when X < 0, where sig counts the
# significant digits.
_ROW = np.frombuffer(b"-0" + b"0" * 17 + b".000" + b"0" * 17 + b",", np.uint8)
_MIN_X, _MAX_X = -4, 16
_NAN, _INF = np.frombuffer(b"nan", np.uint8), np.frombuffer(b"inf", np.uint8)


def _mask_key(sign, X, tz):
    """Row of ``_fixed_tables()`` masks for a value's sign, decimal exponent
    and number of trailing zeros among its 17 digits."""
    return (sign * (_MAX_X - _MIN_X + 1) + X - _MIN_X) * 17 + 16 - tz


@functools.cache
def _fixed_tables():
    """The fixed-point encoder's tables, built once, on first use.

    ``least[k + 5]`` is the least double ``>= 10**k`` for k in -5..18, so
    ``x >= least[k + 5]`` exactly when ``x >= 10**k``: ``float("1e-k")``
    rounds up for k in 1..5, and is exact for k >= 0. ``p10`` holds
    ``10**j`` for j in 0..20, all exact doubles, and ``p10_hi + p10_lo`` is
    its Veltkamp split. ``words`` are little-endian ASCII words: 0..9999 are
    four digits, and 10000..10009 one digit in the top byte. ``masks`` are
    the row masks, indexed by ``_mask_key``.
    """
    least = np.array([float(f"1e{k}") for k in range(-5, 19)])
    p10 = np.array([float(10**j) for j in range(_MAX_X - _MIN_X + 1)])
    c = p10 * 134217729.0  # 2**27 + 1
    p10_hi = c - (c - p10)
    g = np.arange(10000)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1) + ord("0")
    words = np.concatenate([
        digits.astype(np.uint8).view("<u4").reshape(-1),
        (np.arange(10, dtype="<u4") + ord("0")) << 24,
    ])
    sign = np.arange(2)[:, None, None, None]
    X = np.arange(_MIN_X, _MAX_X + 1)[None, :, None, None]
    sig = np.arange(1, 18)[None, None, :, None]
    p = np.arange(len(_ROW))
    masks = (
        ((p == 0) & (sign == 1))
        | ((p == 1) & (X < 0))
        | ((p >= 2) & (p <= 2 + X))
        | ((p == 19) & (sig > X + 1))
        | ((p >= 20) & (p < 19 - X))
        | ((p >= 23 + np.maximum(X + 1, 0)) & (p < 23 + sig))
        | (p == len(_ROW) - 1)
    ).reshape(-1, len(_ROW))
    tables = least, p10, p10_hi, p10 - p10_hi, words, masks
    for t in tables:
        t.flags.writeable = False  # shared by every caller
    return tables


def _fixed_digits(x: np.ndarray):
    """Decimal exponent, trailing zeros and 17 digits (``(n, 17)`` ASCII) of
    each ``x`` in ``[1e-4, 1e17)``, rounded as %.17g rounds them.

    The exponent X comes from ``log10``, corrected against ``least``, since
    numpy's ``log10`` may be an ulp or so off near ``10**k``.
    ``x * 10**(16 - X)`` is formed as an exact pair ``H + L`` by Dekker's
    product: H is an integer-valued double and ``|L| <= 8``. Rounding
    ``H + L`` half to even in int64 gives the digits. No double in this range
    rounds up to ``10**(X + 1)`` at 17 digits, so X stays exact.
    """
    least, p10, p10_hi, p10_lo, words, _ = _fixed_tables()
    X = np.floor(np.log10(x)).astype(np.intp)
    X -= x < np.take(least, X + 5)
    X += x >= np.take(least, X + 6)
    j = 16 - X
    c = x * 134217729.0  # Veltkamp's split, 2**27 + 1
    xh = c - (c - x)
    xl = x - xh
    yh, yl = np.take(p10_hi, j), np.take(p10_lo, j)
    H = x * np.take(p10, j)
    L = xl * yl - (((H - xh * yh) - xl * yh) - xh * yl)
    f = np.floor(L)
    R = H.astype(np.int64) + f.astype(np.int64)
    half = L - f
    R += (half > 0.5) | ((half == 0.5) & ((R & 1) == 1))
    # Words: the first digit in word 1's top byte, the other 16 in words 2..5,
    # four each; word 0, "0000", pads the digits to 8 bytes.
    q = np.empty((len(x), 3), np.intp)
    q[:, 0] = R // 10**16
    rest = R - q[:, 0] * 10**16
    q[:, 1] = rest // 10**8
    q[:, 2] = rest - q[:, 1] * 10**8
    g = q // 10000
    idx = np.empty((len(x), 6), np.intp)
    idx[:, 0::2] = g
    idx[:, 1::2] = q - g * 10000
    idx[:, 1] += 10000
    text = np.take(words, idx).view(np.uint8)
    # Trailing zeros: a "0" XOR 0x30 is a zero top byte of a little-endian
    # 8-digit word, and frexp gives a word's bit length.
    bits = np.frexp((text.view("<u8")[:, 1:] ^ 0x3030303030303030).astype(np.float64))[1]
    zeros = 8 - (bits + 7) // 8
    tz = zeros[:, 1] + (zeros[:, 1] == 8) * zeros[:, 0]
    return X, tz, text[:, 7:]


def _block_bytes(block: np.ndarray) -> bytes:
    """The CSV rows of ``block``: ``b"%.17g" % v`` for each value, exactly.

    A value %.17g writes in fixed point takes its digits from
    ``_fixed_digits``. A zero is A[:1] of the row, a "0", and NaN and the
    infinities write their letters into A[:3]. Each value's text is cut from
    its row by one mask, looked up once. Only values that %.17g writes with an
    exponent take Python's ``%``, one call per block: formatted to a fixed
    width and merged into the rows, or, in a block of nothing else, as the
    rows themselves.
    """
    least, *_, masks = _fixed_tables()
    nrows, ncols = block.shape
    v = np.ascontiguousarray(block, dtype=np.float64).reshape(-1)
    a = np.abs(v)
    fixed = (a >= least[1]) & (a < 1e17)
    exp = ~fixed & (a > 0) & (a < np.inf)
    if exp.all():
        row = b",".join([b"%.17g"] * ncols) + b"\n"
        return (row * nrows) % tuple(v.tolist())
    out = np.empty((len(v), len(_ROW)), np.uint8)
    out[:] = _ROW
    out.reshape(nrows, ncols, -1)[:, -1, -1] = ord("\n")
    sign = np.signbit(v)
    if fixed.any():
        X, tz, digits = _fixed_digits(a if fixed.all() else np.where(fixed, a, 1.0))
        out[:, 2:19] = digits
        out[:, 23:40] = digits
        key = _mask_key(sign, X, tz)
    if not fixed.all():
        finite = np.isfinite(v)
        nan = np.isnan(v)
        # "0" shows one digit at X = 0; "nan" and "inf" three at X = 2.
        other = _mask_key(sign & ~nan, np.where(finite, 0, 2), np.where(finite, 16, 14))
        key = np.where(fixed, key, other) if fixed.any() else other
        np.copyto(out[:, 2], ord("0"), where=~fixed)
        if not finite.all():
            np.copyto(out[:, 2:5], np.where(nan[:, None], _NAN, _INF), where=~finite[:, None])
    mask = np.take(masks, key, axis=0)
    if exp.any():
        vals = v[exp]
        wide = np.frombuffer(b"%-40.17g" * len(vals) % tuple(vals.tolist()), np.uint8)
        wide = wide.reshape(-1, 40)
        out[exp, :40] = wide
        mask[exp, :40] = wide != ord(" ")
    return out[mask].tobytes()


def _read_table(path: Path, header: list[str], dtype=np.float64) -> np.ndarray:
    """The ``(rows, len(header))`` body of a container CSV whose header row
    must be ``header``, the one its writer writes.

    The CSV's bytes are read once, and everything comes from them: the
    header, the sha256 that names the sidecar, the parse and the first bad
    row. Another header, a token that does not parse as ``dtype``, a ragged
    row or rows whose width differs from the header raise MalformedManifest
    naming the file, and the line of the first bad row; so does a file that
    cannot be read or decoded. A missing file raises MissingFile.

    The body is memoized in a hidden sidecar keyed on the sha256 of the CSV's
    bytes and on ``dtype`` (see ``_sidecar_name``), like a hash-checked
    ``.pyc``: the CSV stays canonical, and the sidecar is used only when the
    digest it is named after is the CSV's and its size matches its row count
    at the header's width. Otherwise the body is parsed, and the parsed array
    is stored as the sidecar, so a sidecar holds the parse of the bytes its
    name hashes.
    """
    if not path.is_file():
        raise MissingFile(str(path))
    try:
        raw = path.read_bytes()
        text = _text(raw)
        names = text.readline().strip().split(",")
        if names != header:
            raise MalformedManifest(f"{path}: header {names} is not {header}")
        dtype = np.dtype(dtype).newbyteorder("<")  # a sidecar's byte order
        digest = hashlib.sha256(raw).hexdigest()
        sidecar = path.with_name(_sidecar_name(path.name, digest, f"{dtype.kind}{dtype.itemsize}"))
        data = _read_sidecar(sidecar, dtype, len(header))
        if data is None:
            # universal newlines are applied; str.splitlines would also split
            # on form feeds and other separators that loadtxt keeps in a row
            data = _parse_body(path, text.read().split("\n"), len(header), dtype)
            _write_sidecar(path, sidecar, data)
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedManifest(f"{path}: {exc}") from exc
    return data


def _text(raw: bytes) -> io.TextIOWrapper:
    """``raw`` as ``path.open("r", encoding="utf-8")`` reads the file it came
    from: decoded as it is read, with universal newlines."""
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")


def _sidecar_name(csv_name: str, digest: str, code: str) -> str:
    """``.<name>.<digest>.<code>``, next to the CSV: hidden, and not ``*.csv``,
    so the container's CSV globs never pick it up."""
    return f".{csv_name}.{digest}.{code}"


def _read_sidecar(sidecar: Path, dtype: np.dtype, width: int) -> np.ndarray | None:
    """The sidecar's ``(rows, width)`` table of ``dtype``, or None when it is
    missing, unreadable, or not an 8-byte little-endian row count followed by
    exactly that many rows. The size is checked before any row is read, so a
    count that claims more rows than the file holds allocates nothing."""
    try:
        with sidecar.open("rb") as f:
            rows = int.from_bytes(f.read(8), "little")
            if os.fstat(f.fileno()).st_size != 8 + rows * width * dtype.itemsize:
                return None
            return np.fromfile(f, dtype, rows * width).reshape(rows, width)
    except OSError:
        return None


def _replace_file(path: Path, data, mode: int | None = None) -> None:
    """Replace the file at ``path`` whole with ``data``, a bytes-like object.

    The bytes go to a temp file unique to this writer in ``path``'s
    directory, which is then moved onto ``path``: a reader sees the old file
    or the new one, never part of either, and a write that fails part-way
    leaves the old file intact. The temp file is removed unless it was moved,
    whatever interrupts the write. The file gets ``mode``, else the mode of
    the file it replaces, else a new file's. A symlink at ``path`` is
    followed. Only a regular file is replaced: anything else, a device or a
    pipe such as ``/dev/null`` or ``/dev/stdout``, is opened and written as
    it is. An existing file the caller may not write is refused, as opening
    it would be. Raises OSError.
    """
    target = Path(path)
    try:
        st = target.stat()
    except FileNotFoundError:
        st = None
    if st is not None and not stat.S_ISREG(st.st_mode):
        target.write_bytes(data)
        return
    if st is not None:
        if not os.access(target, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
        if mode is None:
            mode = stat.S_IMODE(st.st_mode)
    if target.is_symlink():
        target = Path(os.path.realpath(target))
    tmp = target.with_name(f".{target.name}.{secrets.token_hex(8)}.tmp")
    # Not mkstemp, whose 0o600 would outlive the move: 0o666 less the umask, as open() gives.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    placed = False
    try:
        with open(fd, "wb") as f:
            if mode is not None:
                os.fchmod(fd, mode)
            f.write(data)
        os.replace(tmp, target)
        placed = True
    finally:
        if not placed:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def _write_sidecar(path: Path, sidecar: Path, data: np.ndarray) -> None:
    """Store ``data``, parsed from ``path``, as its one sidecar, with
    ``path``'s permissions, removing its stale ones, of any digest or format.
    It is written whole (``_replace_file``), so a reader never sees a partial
    sidecar. A dataset that cannot be written, read-only say, is simply not
    cached.
    """
    with contextlib.suppress(OSError):
        body = len(data).to_bytes(8, "little") + data.tobytes()
        _replace_file(sidecar, body, stat.S_IMODE(path.stat().st_mode))
        any_digest = "?" * (2 * hashlib.sha256().digest_size)
        for old in path.parent.glob(_sidecar_name(glob.escape(path.name), any_digest, "*")):
            if old != sidecar:
                old.unlink()


def _parse_body(path: Path, lines: list[str], ncols: int, dtype) -> np.ndarray:
    """The body ``lines`` of CSV ``path``, below its header, as rows of
    ``ncols`` values of ``dtype``. If the whole-table parse fails, the lines
    are parsed one by one to name the first bad row: ``lines[i]`` is file
    line ``i + 2``."""
    # loadtxt warns on a body without rows, and warning filters are
    # process-wide, so a header-only table is answered here.
    if not any(line.strip() for line in lines):
        return np.empty((0, ncols), dtype=dtype)
    try:
        data = np.loadtxt(lines, dtype, delimiter=",", ndmin=2, comments=None)
        if data.shape[1] == ncols:
            return data
    except ValueError:
        pass
    for line_no, line in enumerate(lines, start=2):
        if not line:
            continue  # loadtxt skips empty lines
        try:
            width = np.loadtxt([line], dtype, delimiter=",", comments=None, ndmin=2).shape[1]
        except ValueError:
            raise MalformedManifest(
                f"{path}: line {line_no}: cannot parse {line!r} as {np.dtype(dtype).name}"
            ) from None
        if width != ncols:
            raise MalformedManifest(
                f"{path}: line {line_no} has {width} columns, header has {ncols}"
            )
    raise MalformedManifest(f"{path}: no bad row found")


def _series_bytes(s: TimedSeries) -> bytes:
    return _table_bytes(["t", *(c.name for c in s.channels)], [s.timestamps, s.values])


def _read_series_csv(path: Path, channels: tuple[Channel, ...]) -> TimedSeries:
    data = _read_table(path, ["t", *(c.name for c in channels)])
    return TimedSeries(timestamps=data[:, 0], values=data[:, 1:], channels=channels)


def _wav_bytes(track: AudioTrack) -> bytes:
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(track.meta.channels)
        w.setsampwidth(track.meta.bit_depth // 8)
        w.setframerate(track.meta.sample_rate)
        w.writeframes(np.ascontiguousarray(track.samples, dtype="<i2"))
    return buf.getvalue()


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


@contextlib.contextmanager
def _io_error(path: Path):
    """An ``OSError`` reading or writing the file at ``path`` becomes an ``IoError`` naming it."""
    try:
        yield
    except OSError as exc:
        raise IoError(f"{path}: {exc}") from exc


def _write_files(root: Path, files) -> None:
    """Replace each ``(path under root, bytes)`` of ``files`` whole, in turn, making its
    directory; the first that fails raises IoError, and the files after it stay as they were."""
    for rel, data in files:
        path = root / rel
        with _io_error(path):
            path.parent.mkdir(parents=True, exist_ok=True)
            _replace_file(path, data)
        del data  # frees this file's bytes before the next file's are made


def save_session(session: RawSession, root_path: str | Path) -> None:
    """Write a session to ``root_path``, the manifest last; save/load is a lossless round trip."""
    _require_valid(session)
    _write_files(Path(root_path), _session_files(session))


def _session_files(session: RawSession):
    for name, series in session.numeric.items():
        yield describe_stream(name, series).file, _series_bytes(series)
    for name, log in session.frame_logs.items():
        yield describe_stream(name, log).file, _table_bytes(["t"], [log.frame_timestamps])
    for name, track in session.audio.items():
        yield describe_stream(name, track).file, _wav_bytes(track)
    yield DIALOGUE, dlg.export_jsonl(list(session.dialogues))
    yield MANIFEST, _json_bytes(_manifest_to_dict(session.manifest))


def load_session(root_path: str | Path, *, audio: bool = True) -> RawSession:
    """Load and validate a session directory; raises on any broken invariant.

    With ``audio=False`` each WAV's header is read and checked as a full load
    checks it, but its samples are left unread, and the session returned holds
    no audio: ``audio`` is ``{}``, though the manifest keeps its audio entries.
    Such a session cannot be saved, since an entry without data is a broken
    invariant; the batch pipeline and ``sync`` load this way."""
    root = Path(root_path)
    manifest = read_manifest(root)
    numeric: dict[str, TimedSeries] = {}
    frame_logs: dict[str, FrameTimestampLog] = {}
    tracks: dict[str, AudioTrack] = {}
    for desc in manifest.streams:
        path = root / desc.file
        if desc.kind is StreamKind.NUMERIC:
            numeric[desc.name] = _read_series_csv(path, desc.channels)
        elif desc.kind is StreamKind.VIDEO_FRAMES:
            frame_logs[desc.name] = FrameTimestampLog(_read_table(path, ["t"])[:, 0])
        elif desc.kind is StreamKind.AUDIO:
            tracks[desc.name] = _read_wav(path, samples=audio)

    session = RawSession(
        manifest=manifest,
        numeric=numeric,
        frame_logs=frame_logs,
        audio=tracks,
        dialogues=read_dialogues(root, manifest),
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
    """Persist a synced session: grid, selections, streams, report, then manifest."""
    _synced_checks(synced)
    _write_files(Path(root_path), _synced_files(synced))


def _synced_files(synced: SyncedSession):
    yield "grid.json", _json_bytes({"rate": synced.grid.rate, "tau": synced.tau})
    yield "grid.csv", _table_bytes(["t"], [synced.grid.timestamps])
    for name, sel in synced.frame_selections.items():
        columns = [sel.selected_indices, sel.accepted_flags]
        yield _SELECTION_PATH.format(name), _table_bytes(_SELECTION_HEADER, columns)
    for name, series in synced.numeric.items():
        yield _STREAM_PATHS[StreamKind.NUMERIC].format(name), _series_bytes(series)
    yield "sync_report.json", _json_bytes(synced.report(), sort_keys=True)
    yield MANIFEST, _json_bytes(_manifest_to_dict(synced.manifest))


def load_synced(root_path: str | Path) -> SyncedSession:
    """Load a synced container by its manifest: the selections of each video
    stream and the resampled series of each numeric one. A listed file that is
    absent raises ``MissingFile``; a file the manifest does not list is not read."""
    root = Path(root_path)
    manifest = read_manifest(root)
    meta_path = root / "grid.json"
    meta = read_json(meta_path)
    try:
        rate, tau = float(meta["rate"]), float(meta["tau"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedManifest(f"{meta_path}: bad rate or tau: {exc!r}") from exc
    grid = ReferenceGrid(timestamps=_read_table(root / "grid.csv", ["t"])[:, 0], rate=rate)

    selections: dict[str, FrameSelection] = {}
    numeric: dict[str, TimedSeries] = {}
    for desc in manifest.streams:
        if desc.kind is StreamKind.VIDEO_FRAMES:
            sel = _read_table(root / _SELECTION_PATH.format(desc.name), _SELECTION_HEADER, int)
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
