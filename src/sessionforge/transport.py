"""Live recording endpoint: framed TCP for numeric topics, UDP for audio.

Wire layouts (all multi-byte integers and floats big-endian unless noted):

TCP frame:
    length    u32       byte count of everything after this field
    topic     UTF-8 bytes terminated by 0x00
    timestamp f64       seconds
    payload   C x f64   channel values

Audio datagram:
    sequence  u32
    timestamp f64       seconds
    pcm       16-bit little-endian PCM samples (even byte count)

One thread serves a recording. It waits in one selector on the listening
socket, the UDP socket, every connection and a wake socket, and reads each
readable socket once, so nothing polls and, with one writer, nothing locks.
A read decodes every whole frame of its chunk in place into per-topic lists:
per-topic arrival order is kept, cross-stream order is unspecified. TCP flow
control is the backpressure.

``stop()`` is the cut-off: it wakes the thread, which stops after its current
read and takes, without waiting, what the sockets hold: the connections in
the listen backlog, the bytes each connection has received, and the
datagrams queued in the kernel. It closes the connections before decoding
their last bytes. Each drain has a fixed budget, so a sender that keeps
sending cannot hold ``stop()`` open.
"""

from __future__ import annotations

import contextlib
import functools
import selectors
import socket
import struct
import threading
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import BindError, InvariantViolation, MalformedFrame, NeedMoreBytes
from .session import (
    AudioMeta,
    AudioTrack,
    Channel,
    RawSession,
    SessionManifest,
    Task,
    TimedSeries,
    describe_stream,
    descriptor_violations,
    save_session,
    series_violations,
    utc_now,
)

# smallest valid frame body: 1-byte topic + terminator + timestamp
_MIN_BODY = 1 + 1 + 8
_U32 = struct.Struct(">I")
_RECV_BYTES = 65536
_BACKLOG = 16
# Drain budgets at the cut-off: the listen backlog, the bytes a connection had
# queued, and this many datagrams, so a sender that keeps sending cannot hold
# stop() open.
_DRAIN_DATAGRAMS = 4096


@dataclass(frozen=True)
class TcpFrame:
    topic: str
    timestamp: float
    values: tuple[float, ...]

    def encode(self) -> bytes:
        topic_bytes = self.topic.encode("utf-8")
        body = (
            topic_bytes
            + b"\x00"
            + struct.pack(">d", self.timestamp)
            + struct.pack(f">{len(self.values)}d", *self.values)
        )
        return struct.pack(">I", len(body)) + body


def frame_decode(data: bytes, offset: int = 0) -> tuple[TcpFrame, int]:
    """Decode one frame starting at ``data[offset]``.

    Returns (frame, bytes consumed). Raises NeedMoreBytes for a partial frame
    and MalformedFrame for an invalid one.
    """
    avail = len(data) - offset
    if avail < 4:
        raise NeedMoreBytes(4 - avail)
    (length,) = _U32.unpack_from(data, offset)
    if length < _MIN_BODY:
        raise MalformedFrame(f"length field {length} below minimum frame body {_MIN_BODY}")
    total = 4 + length
    if avail < total:
        raise NeedMoreBytes(total - avail)
    start, end = offset + 4, offset + total
    nul = data.find(b"\x00", start, end)
    if nul <= start:  # -1 (no terminator) or an empty topic
        raise MalformedFrame("missing or empty topic before terminator")
    try:
        topic = data[start:nul].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFrame(f"topic not valid UTF-8: {exc}") from exc
    payload = end - nul - 1 - 8
    if payload < 0:
        raise MalformedFrame("frame too short for timestamp")
    if payload % 8 != 0:
        raise MalformedFrame(f"payload length {payload} not a multiple of 8")
    numbers = struct.unpack_from(f">{payload // 8 + 1}d", data, nul + 1)
    # positional: keyword arguments make the frozen dataclass's __init__ slower
    return TcpFrame(topic, numbers[0], numbers[1:]), total


@dataclass(frozen=True)
class AudioDatagram:
    sequence: int
    timestamp: float
    pcm: bytes

    def encode(self) -> bytes:
        if len(self.pcm) % 2 != 0:
            raise MalformedFrame("pcm length must be even")
        return struct.pack(">Id", self.sequence, self.timestamp) + self.pcm


def datagram_decode(data: bytes) -> AudioDatagram:
    if len(data) < 12:
        raise MalformedFrame(f"datagram of {len(data)} bytes below 12-byte header")
    sequence, timestamp = struct.unpack_from(">Id", data, 0)
    pcm = data[12:]
    if len(pcm) % 2 != 0:
        raise MalformedFrame("pcm length must be even")
    return AudioDatagram(sequence=sequence, timestamp=timestamp, pcm=pcm)


@dataclass(frozen=True)
class GapReport:
    missing_sequences: tuple[tuple[int, int], ...]  # inclusive ranges
    received: int
    expected: int

    @property
    def total_missing(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self.missing_sequences)


def _ranges(sorted_seqs: list[int]) -> tuple[tuple[int, int], ...]:
    ranges = []
    start = prev = None
    for s in sorted_seqs:
        if start is None:
            start = prev = s
        elif s == prev + 1:
            prev = s
        else:
            ranges.append((start, prev))
            start = prev = s
    if start is not None:
        ranges.append((start, prev))
    return tuple(ranges)


def audio_reassemble(datagrams: list[AudioDatagram]) -> tuple[bytes, GapReport]:
    """Order datagrams by sequence, drop duplicates, zero-fill gaps.

    Gaps are filled at the nominal chunk size (the most common received pcm
    length); sequences are assumed to start at 0.
    """
    if not datagrams:
        return b"", GapReport(missing_sequences=(), received=0, expected=0)
    by_seq: dict[int, bytes] = {}
    for d in datagrams:
        if d.sequence not in by_seq:  # keep first, drop later duplicates
            by_seq[d.sequence] = d.pcm
    max_seq = max(by_seq)
    expected = max_seq + 1
    chunk = Counter(len(p) for p in by_seq.values()).most_common(1)[0][0]
    parts = []
    missing = []
    for seq in range(expected):
        if seq in by_seq:
            parts.append(by_seq[seq])
        else:
            parts.append(b"\x00" * chunk)
            missing.append(seq)
    report = GapReport(
        missing_sequences=_ranges(missing),
        received=len(by_seq),
        expected=expected,
    )
    return b"".join(parts), report


# -- live recorder ----------------------------------------------------------

def _take_queued(sock: socket.socket) -> bytes:
    """At the cut-off: the bytes the kernel has received for ``sock`` and not
    yet delivered (``FIONREAD``, POSIX), read without waiting."""
    import fcntl
    import termios

    queued = struct.unpack("i", fcntl.ioctl(sock, termios.FIONREAD, b"\0\0\0\0"))[0]
    try:
        return sock.recv(queued) if queued else b""
    except OSError:
        return b""


def _drain(step, budget: int) -> None:
    """At the cut-off: call ``step`` without waiting until it takes nothing
    or ``budget`` units are taken."""
    while budget > 0:
        taken = step()
        if not taken:
            return
        budget -= taken


@dataclass
class RecorderConfig:
    session_root: Path
    tcp_port: int = 0  # 0 picks an ephemeral port
    udp_port: int = 0
    host: str = "127.0.0.1"
    session_id: str = "recording"
    task: Task = Task.FEEDING
    # topic -> (nominal rate, channel descriptors)
    stream_map: dict[str, tuple[float, tuple[Channel, ...]]] = field(default_factory=dict)
    audio_stream: str = "mic"
    audio_rate: int = 48000


class RecordingHandle:
    """Live TCP/UDP recording session; ``stop()`` flushes a valid RawSession."""

    def __init__(self, config: RecorderConfig):
        # checked before binding, as stop() could not save this audio stream
        self._audio_meta = AudioMeta(sample_rate=config.audio_rate, bit_depth=16, channels=1)
        audio = AudioTrack(self._audio_meta, ())
        broken = descriptor_violations(describe_stream(config.audio_stream, audio))
        if broken:
            raise InvariantViolation(f"RecorderConfig.audio_stream: {'; '.join(broken)}")
        self.config = config
        # written only by the recording thread
        self._topics: dict[str, tuple[list[float], list[tuple[float, ...]]]] = {}
        self._datagrams: list[AudioDatagram] = []
        # each open connection -> the partial frame at the end of its last chunk
        self._rest: dict[socket.socket, bytes] = {}
        self._stopping = False
        self._session: RawSession | None = None
        self.malformed_frames = 0
        self.frames_received = 0
        self.gap_report: GapReport | None = None

        with contextlib.ExitStack() as opened:
            try:
                self._tcp_sock = opened.enter_context(
                    socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                )
                self._tcp_sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                self._tcp_sock.bind((config.host, config.tcp_port))
                self._tcp_sock.listen(_BACKLOG)
                self._udp_sock = opened.enter_context(
                    socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                )
                # audio datagrams arrive in bursts; a large receive buffer
                # avoids kernel-level drops between recv calls
                self._udp_sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 22)
                self._udp_sock.bind((config.host, config.udp_port))
            except OSError as exc:
                raise BindError(str(exc)) from exc
            opened.pop_all()  # both bound: the handle owns them from here
        self.tcp_port = self._tcp_sock.getsockname()[1]
        self.udp_port = self._udp_sock.getsockname()[1]
        self._tcp_sock.setblocking(False)
        self._udp_sock.setblocking(False)
        # stop() sets _stopping, then writes here to wake a waiting select()
        self._wake_r, self._wake_w = socket.socketpair()

        # each key's data is the step that reads its socket once and returns
        # the units it took, 0 when nothing was pending, or None when the
        # socket is finished
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._tcp_sock, selectors.EVENT_READ, self._accept)
        self._sel.register(self._udp_sock, selectors.EVENT_READ, self._recv_datagram)
        self._sel.register(self._wake_r, selectors.EVENT_READ)
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        with self._sel:
            while not self._stopping:
                for key, _ in self._sel.select():
                    # per step: the kernel queues more the later the cut-off starts
                    if self._stopping:
                        break
                    if key.data() is None:
                        # a finished socket stays readable: drop it, or select spins
                        self._sel.unregister(key.fileobj)
                        self._rest.pop(key.fileobj, None)
                        key.fileobj.close()
            self._cut_off()

    def _cut_off(self) -> None:
        _drain(self._accept, _BACKLOG)
        # decode after closing: a closed connection's sender stops, and no
        # longer competes with the decoding for the interpreter lock
        taken = [(conn, _take_queued(conn)) for conn in self._rest]
        for conn in self._rest:
            conn.close()
        _drain(self._recv_datagram, _DRAIN_DATAGRAMS)
        for conn, data in taken:
            self._ingest(self._rest[conn] + data)

    def _accept(self) -> int | None:
        try:
            conn, _ = self._tcp_sock.accept()
        except BlockingIOError:
            return 0
        except OSError:
            return None
        conn.setblocking(False)
        self._rest[conn] = b""
        self._sel.register(conn, selectors.EVENT_READ, functools.partial(self._recv, conn))
        return 1

    def _recv(self, conn: socket.socket) -> int | None:
        try:
            chunk = conn.recv(_RECV_BYTES)
        except BlockingIOError:
            return 0
        except OSError:
            return None
        if not chunk:
            return None
        self._rest[conn] = self._ingest(self._rest[conn] + chunk)
        return len(chunk)

    def _ingest(self, buf: bytes) -> bytes:
        """Record every whole frame in ``buf``; return the partial frame at its end."""
        frames = malformed = 0
        off, end = 0, len(buf)
        while off < end:
            try:
                frame, consumed = frame_decode(buf, off)
            except NeedMoreBytes:
                break
            except MalformedFrame:
                # resync: drop the declared frame length and move on
                malformed += 1
                consumed = min(4 + _U32.unpack_from(buf, off)[0], end - off)
            else:
                ts, vals = self._topics.setdefault(frame.topic, ([], []))
                ts.append(frame.timestamp)
                vals.append(frame.values)
                frames += 1
            off += consumed
        self.frames_received += frames
        self.malformed_frames += malformed
        return buf[off:]

    def _recv_datagram(self) -> int | None:
        try:
            data = self._udp_sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return 0
        except OSError:
            return None
        try:
            self._datagrams.append(datagram_decode(data))
        except MalformedFrame:
            self.malformed_frames += 1
        return 1

    def stop(self) -> RawSession:
        """Stop receiving at a cut-off, flush the session to disk, return it.

        Keeps the connections in the listen backlog, the bytes each connection
        has received and the datagrams queued in the kernel at the cut-off,
        each up to a fixed drain budget. Idempotent; a call that raised while
        saving can be repeated.
        """
        if self._session is not None:
            return self._session
        if self._thread.is_alive():
            self._stopping = True
            self._wake_w.send(b"\x00")
            self._thread.join()
        for sock in (self._tcp_sock, self._udp_sock, self._wake_r, self._wake_w):
            sock.close()
        session = self._build_session()
        save_session(session, self.config.session_root)
        self._session = session
        return session

    def _build_session(self) -> RawSession:
        cfg = self.config
        audio: dict[str, AudioTrack] = {}
        if self._datagrams:
            pcm, self.gap_report = audio_reassemble(self._datagrams)
            audio[cfg.audio_stream] = AudioTrack(self._audio_meta, np.frombuffer(pcm, dtype="<i2"))

        # one bad topic must not cost the recording its other topics
        numeric: dict[str, TimedSeries] = {}
        streams = []
        for topic, (ts, vals) in sorted(self._topics.items()):
            widths = sorted(set(map(len, vals)))
            if len(widths) > 1:
                broken = [f"frames carry {widths} values"]
            elif topic in audio:
                broken = ["the audio stream has that name"]
            else:
                if topic in cfg.stream_map:
                    rate, channels = cfg.stream_map[topic]
                else:
                    rate = max(1.0, (len(ts) - 1) / max(ts[-1] - ts[0], 1e-9))
                    channels = tuple(Channel(f"ch{i}", "1") for i in range(widths[0]))
                series = TimedSeries(np.array(ts), np.array(vals), channels)
                desc = describe_stream(topic, series, rate)
                broken = descriptor_violations(desc) + series_violations(topic, series)
            if broken:
                warnings.warn(f"topic '{topic}' left out of the recording: {'; '.join(broken)}")
                continue
            numeric[topic] = series
            streams.append(desc)
        if not self._topics:
            warnings.warn("recording stopped with zero frames received")
        streams += [describe_stream(name, track) for name, track in audio.items()]

        manifest = SessionManifest(
            session_id=cfg.session_id,
            participant_id="",
            task=cfg.task,
            success=None,
            created_at=utc_now(),
            streams=tuple(streams),
            notes="recorded by transport gateway",
        )
        return RawSession(manifest=manifest, numeric=numeric, audio=audio)


def start_recording(config: RecorderConfig) -> RecordingHandle:
    """Bind the sockets and start recording; see RecordingHandle.stop()."""
    return RecordingHandle(config)
