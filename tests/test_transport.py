import contextlib
import gc
import resource
import socket
import struct
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessionforge import transport
from sessionforge.errors import (
    BindError,
    InvariantViolation,
    IoError,
    MalformedFrame,
)
from sessionforge.session import Channel, Task, load_session, session_checks
from sessionforge.transport import (
    AudioDatagram,
    RecorderConfig,
    TcpFrame,
    audio_reassemble,
    datagram_decode,
    frame_decode,
    start_recording,
)

# the longest frame body a length field may declare
BOUND = 1 << 20

# Encoded bytes and whether they end inside their frame, by case: two good
# frames, two cut ones, seven malformed ones, and a length field above the bound.
FRAME_CASES = {
    "good": (TcpFrame(topic="ee_pose", timestamp=1.5, values=(1.0, -2.0, 3.0)).encode(), False),
    "no-values": (TcpFrame(topic="t", timestamp=0.0, values=()).encode(), False),
    "partial": (TcpFrame(topic="t", timestamp=1.0, values=(2.0,)).encode()[:-3], True),
    "partial-length": (b"\x00\x00", True),  # cut inside the length field
    "tiny-length": (struct.pack(">I", 3) + b"abc", False),  # length below the minimum body
    "payload-not-8": (struct.pack(">I", 13) + b"t\x00" + struct.pack(">d", 0.0) + b"abc", False),
    "empty-topic": (struct.pack(">I", 10) + b"\x00t" + struct.pack(">d", 0.0), False),
    "no-terminator": (struct.pack(">I", 10) + b"tt" + b"\x01" * 8, False),
    "short-timestamp": (struct.pack(">I", 10) + b"tt\x00" + bytes(7), False),  # no room for timestamp
    "no-timestamp": (struct.pack(">I", 2) + b"t\x00", False),
    "bad-utf8": (struct.pack(">I", 10) + b"\xff\x00" + struct.pack(">d", 0.0), False),
    "over-bound": (struct.pack(">I", 0xFFFFFFF0) + b"t\x00", True),
}


def _reference(buf):
    """The frame rule, written out one frame at a time with ``struct``: per
    topic, the timestamp and value bytes of its frames (its rows) and the set
    of their sizes; the frames recorded; the frames malformed; and the bytes of
    the partial frame left at the end, or None after a length field above the
    bound, where decoding stops."""
    topics, frames, malformed, off = {}, 0, 0, 0
    while len(buf) - off >= 4:
        (length,) = struct.unpack_from(">I", buf, off)
        if length > BOUND:
            return topics, frames, malformed + 1, None
        if len(buf) - off - 4 < length:
            break
        body = buf[off + 4 : off + 4 + length]
        off += 4 + length
        topic, terminator, stamped = body.partition(b"\x00")
        try:
            topic.decode("utf-8")
        except UnicodeDecodeError:
            terminator = b""
        if not (topic and terminator) or len(stamped) < 8 or len(stamped) % 8:
            malformed += 1
            continue
        rows, sizes = topics.get(topic, (b"", set()))
        topics[topic] = (rows + stamped, sizes | {len(stamped)})
        frames += 1
    return topics, frames, malformed, buf[off:]


def _ingest(buf, cuts=()):
    """Feed ``buf`` cut at ``cuts`` to a handle holding only the state
    ``_ingest`` writes: no sockets, no thread. Returns what ``_reference``
    returns, from the handle: the partial frame is the one it carries, and None
    once it closes the connection, after which it is fed nothing."""
    handle = transport.RecordingHandle.__new__(transport.RecordingHandle)
    handle._topics, handle.frames_received, handle.malformed_frames = {}, 0, 0
    rest = b""
    for lo, hi in zip((0, *cuts), (*cuts, len(buf))):
        rest = handle._ingest(rest + buf[lo:hi])
        if rest is None:
            break
    topics = {name: (bytes(rows), sizes) for name, (rows, sizes) in handle._topics.items()}
    return topics, handle.frames_received, handle.malformed_frames, rest


def _row(frame):
    return struct.pack(f">{1 + len(frame.values)}d", frame.timestamp, *frame.values)


class TestFrameCodec:
    def test_constructed_frame(self):
        frame = TcpFrame(topic="ee_pose", timestamp=0.0, values=tuple(float(i) for i in range(7)))
        decoded, consumed = frame_decode(frame.encode())
        assert decoded == frame
        assert consumed == len(frame.encode())
        assert len(decoded.values) == 7

    def test_round_trip_fuzz(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            topic = "".join(rng.choice(list("abcxyz_/0123")) for _ in range(int(rng.integers(1, 12))))
            values = tuple(float(v) for v in rng.normal(size=int(rng.integers(0, 16))))
            frame = TcpFrame(topic=topic, timestamp=float(rng.normal()), values=values)
            encoded = frame.encode()
            decoded, consumed = frame_decode(encoded + b"tail")
            assert decoded == frame and consumed == len(encoded)

    def test_partial_input_is_malformed(self):
        frame = TcpFrame(topic="t", timestamp=1.0, values=(2.0,)).encode()
        for cut in (0, 2, 4, len(frame) - 3):
            with pytest.raises(MalformedFrame, match=f"^partial frame: {cut} of at least"):
                frame_decode(frame[:cut])

    def test_tiny_length_field_malformed(self):
        with pytest.raises(MalformedFrame):
            frame_decode(struct.pack(">I", 3) + b"abc")

    def test_payload_not_multiple_of_eight(self):
        body = b"t\x00" + struct.pack(">d", 0.0) + b"abc"
        with pytest.raises(MalformedFrame, match="payload length 3 not a multiple of 8"):
            frame_decode(struct.pack(">I", len(body)) + body)

    def test_missing_terminator(self):
        body = b"topicwithoutnul" + struct.pack(">d", 0.0)
        with pytest.raises(MalformedFrame):
            frame_decode(struct.pack(">I", len(body)) + body)

    def test_length_above_the_bound_is_malformed_whole_or_partial(self):
        """A frame may declare a body of up to 1 MiB: a longer one is refused
        by its length field alone, whether or not its body is there, and
        ``encode`` refuses to make one."""
        values = (0.0,) * ((BOUND - 16) // 8)  # a 7-byte topic, its terminator and a timestamp
        at_bound = TcpFrame("abcdefg", 1.0, values)
        encoded = at_bound.encode()
        assert struct.unpack_from(">I", encoded)[0] == BOUND
        assert frame_decode(encoded) == (at_bound, len(encoded))
        over = TcpFrame("abcdefg", 1.0, (*values, 0.0))
        with pytest.raises(MalformedFrame, match=f"body of {BOUND + 8} bytes above the {BOUND}-byte"):
            over.encode()
        body = b"abcdefg\x00" + bytes(8 * (len(values) + 2))
        for data in (struct.pack(">I", BOUND + 8) + body, struct.pack(">I", 0xFFFFFFF0)):
            with pytest.raises(MalformedFrame, match=f"above the {BOUND}-byte bound"):
                frame_decode(data)
            assert _ingest(data) == ({}, 0, 1, None)

    @pytest.mark.parametrize("topic", ["", "a\x00bbbbbbb", "\x00"], ids=["empty", "nul", "only-nul"])
    def test_encode_refuses_a_topic_the_walker_cannot_give_back(self, topic):
        """An empty topic would be counted malformed; a NUL would end the topic
        early and shift its bytes into the timestamp and values."""
        with pytest.raises(MalformedFrame, match="empty or holds a NUL"):
            TcpFrame(topic, 1.0, (2.0,)).encode()

    @settings(max_examples=300, deadline=None)
    @given(
        topic=st.text(min_size=0, max_size=12),
        timestamp=st.floats(allow_nan=True, allow_infinity=True),
        values=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=8),
    )
    def test_every_frame_encode_takes_comes_back(self, topic, timestamp, values):
        """Whatever ``encode`` accepts, ``frame_decode`` gives back whole: the
        same topic, and the timestamp and values bit for bit."""
        frame = TcpFrame(topic, timestamp, tuple(values))
        try:
            encoded = frame.encode()
        except MalformedFrame:
            assert topic == "" or "\x00" in topic
            return
        decoded, consumed = frame_decode(encoded)
        assert decoded.topic == topic and consumed == len(encoded)
        assert _row(decoded) == _row(frame)

    @pytest.mark.parametrize("frame, partial", list(FRAME_CASES.values()), ids=list(FRAME_CASES))
    def test_decode_at_offset_equals_decode_of_slice(self, frame, partial):
        """At an offset in a stream the recorder decides a frame as
        ``frame_decode`` decides the slice from that offset: it records the
        frame ``frame_decode`` returns, counts one malformed frame where
        ``frame_decode`` refuses it (and closes the connection above the
        bound), and carries a frame ``frame_decode`` finds partial. Neither
        reads past the frame's declared bytes: the prefixes are whole frames
        that hold NUL bytes, and a complete frame follows a whole case."""
        following = b"" if partial else TcpFrame(topic="next", timestamp=9.0, values=(9.0,)).encode()
        try:
            want = frame_decode(frame + following)
        except MalformedFrame as exc:
            with pytest.raises(MalformedFrame) as got:
                frame_decode(frame)
            assert str(got.value) == str(exc)
            want = str(exc)
        else:
            assert frame_decode(frame) == want
        for prefix in (b"", FRAME_CASES["empty-topic"][0], FRAME_CASES["good"][0]):
            topics, frames, malformed, rest = _ingest(prefix)
            if isinstance(want, tuple):
                decoded, consumed = want
                key = decoded.topic.encode()
                topics[key] = (topics.get(key, (b"", set()))[0] + _row(decoded), {consumed - len(key) - 5})
                frames += 1
            elif want.startswith("partial frame"):
                rest = frame
            else:
                malformed += 1
                rest = None if "bound" in want else b""
            assert _ingest(prefix + frame) == (topics, frames, malformed, rest)

    def test_bad_utf8_topic_is_malformed_every_time_and_never_cached(self):
        frame = FRAME_CASES["bad-utf8"][0]
        for _ in range(3):
            with pytest.raises(MalformedFrame, match="topic not valid UTF-8"):
                frame_decode(frame)
        # nor does the recorder keep a topic for it
        assert _ingest(frame * 3) == ({}, 0, 3, b"")

    def test_more_topics_and_widths_than_the_caches_hold_still_decode(self):
        frames = [TcpFrame(f"topic{i}", float(i), (float(i),)) for i in range(266)]
        frames += [TcpFrame("wide", float(n), tuple(np.arange(n, dtype=float))) for n in range(74)]
        for _ in range(2):
            for frame in frames:
                assert frame_decode(frame.encode()) == (frame, len(frame.encode()))


class TestIngest:
    """The recorder decodes each chunk where it ends: whatever the cuts, it
    records what the reference decoder gives on the whole stream."""

    @staticmethod
    def stream():
        """Good frames of four topics, with every whole case of FRAME_CASES
        after each step, and a body shorter than the minimum that passes all
        but one of the recorder's checks: an empty topic before a timestamp.
        One frame holds a NaN and a negative zero, and the frames of "mixed"
        carry 1 or 2 values."""
        rng = np.random.default_rng(3)
        whole = [frame for frame, partial in FRAME_CASES.values() if not partial]
        whole.append(struct.pack(">I", 9) + b"\x00" + bytes(8))
        parts = []
        for k, case in enumerate(whole):
            parts += [
                TcpFrame("arm", float(k), tuple(rng.normal(size=3))).encode(),
                TcpFrame("imu", k / 3, (float("nan"), -0.0) if k == 2 else (k * 0.1, 1.0)).encode(),
                TcpFrame("grip", -float(k), (float(rng.normal()),)).encode(),
                TcpFrame("mixed", k / 7, (float(k),) if k % 2 else (float(k), -1.0)).encode(),
                case,
            ]
        return b"".join(parts)

    @staticmethod
    def many_topics():
        """Good frames of 320 topics of 0 to 4 values and of "mixed", whose
        frames carry 1 or 2, with every whole case of FRAME_CASES among them."""
        rng = np.random.default_rng(5)
        whole = [frame for frame, partial in FRAME_CASES.values() if not partial]
        parts = []
        for k in range(320):
            parts.append(TcpFrame(f"topic{k}", k / 10, tuple(rng.normal(size=k % 5))).encode())
            parts.append(TcpFrame("mixed", k / 10, (1.0,) * (1 + k % 2)).encode())
            if k % 32 == 31:
                parts.append(whole[k // 32 % len(whole)])
        return b"".join(parts)

    def test_any_cuts_record_what_one_walk_decodes(self):
        buf = self.stream()
        want = _reference(buf)
        assert want[1:] == (4 * 10 + 2, 8, b"")
        assert want[0][b"mixed"][1] == {16, 24}
        rng = np.random.default_rng(11)
        cut_sets = [(k,) for k in range(len(buf) + 1)]
        cut_sets.append(tuple(range(1, len(buf))))  # one byte per chunk
        cut_sets += [
            tuple(sorted(rng.choice(len(buf), size=int(rng.integers(2, 40)), replace=False)))
            for _ in range(50)
        ]
        for cuts in cut_sets:
            assert _ingest(buf, cuts) == want, cuts

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_flips_and_cuts_record_what_the_reference_decodes(self, data):
        """A stream of more than 300 topics and one ragged one, with random
        bytes flipped, ends in any case of FRAME_CASES, and is cut anywhere:
        the recorder gives the reference decoder's rows, sizes, counts and
        carried frame. A flipped length field resyncs the walk elsewhere,
        holds back the rest of the stream, or passes the bound."""
        tail = data.draw(st.sampled_from([frame for frame, _ in FRAME_CASES.values()]), label="tail")
        buf = bytearray(self.many_topics() + tail)
        flips = st.tuples(st.integers(0, len(buf) - 1), st.integers(1, 255))
        for pos, mask in data.draw(st.lists(flips, max_size=6), label="flips"):
            buf[pos] ^= mask
        buf = bytes(buf)
        cuts = data.draw(st.lists(st.integers(0, len(buf)), max_size=40).map(sorted), label="cuts")
        assert _ingest(buf, cuts) == _reference(buf)


class TestAudioReassembly:
    def make(self, seq, n=4):
        return AudioDatagram(sequence=seq, timestamp=seq * 0.02, pcm=bytes(range(seq % 200, seq % 200 + n)))

    def test_in_order_no_gaps(self):
        dgs = [AudioDatagram(s, s * 0.02, bytes([s] * 4)) for s in range(3)]
        pcm, report = audio_reassemble(dgs)
        assert pcm == bytes([0] * 4 + [1] * 4 + [2] * 4)
        assert report.missing_sequences == ()
        assert report.received == 3 and report.expected == 3

    def test_single_gap_zero_filled(self):
        dgs = [AudioDatagram(0, 0.0, b"\x01\x01"), AudioDatagram(2, 0.04, b"\x02\x02")]
        pcm, report = audio_reassemble(dgs)
        assert pcm == b"\x01\x01\x00\x00\x02\x02"
        assert report.missing_sequences == ((1, 1),)
        assert report.received + report.total_missing == report.expected

    def test_duplicates_keep_first(self):
        dgs = [
            AudioDatagram(0, 0.0, b"\xaa\xaa"),
            AudioDatagram(0, 0.0, b"\xbb\xbb"),
        ]
        pcm, report = audio_reassemble(dgs)
        assert pcm == b"\xaa\xaa"
        assert report.received == 1

    def test_shuffled_lossy_against_sort_and_fill_oracle(self):
        rng = np.random.default_rng(7)
        chunk = 8
        payloads = {s: rng.integers(0, 256, chunk).astype(np.uint8).tobytes() for s in range(1000)}
        dropped = set(int(s) for s in rng.choice(1000, size=10, replace=False))
        dgs = [
            AudioDatagram(s, s * 0.02, payloads[s]) for s in range(1000) if s not in dropped
        ]
        rng.shuffle(dgs)
        pcm, report = audio_reassemble(dgs)
        # oracle: sort by sequence, fill gaps with zero chunks
        oracle = b"".join(
            payloads[s] if s not in dropped else b"\x00" * chunk for s in range(1000)
        )
        assert pcm == oracle
        missing = sorted(
            s for lo, hi in report.missing_sequences for s in range(lo, hi + 1)
        )
        assert missing == sorted(dropped)
        assert report.received + report.total_missing == report.expected == 1000

    @pytest.mark.parametrize(
        "seqs,kept",
        [
            ((0, 1, 20000), (0, 1)),
            ((0, 1, 2**32 - 1), (0, 1)),
            ((0, 1, 20000, 20001), (0, 1)),  # every sequence above the first refused one
            ((0, 3), (0, 3)),  # a fill of 2 chunks for 2 sequences is within the bound
            ((0, 4), (0,)),
            ((5,), ()),
        ],
    )
    def test_fill_is_bounded_by_the_sequences_received(self, seqs, kept):
        """The zero-fill is at most one chunk per distinct sequence received,
        so one stray high sequence cannot make the track unbounded."""
        dgs = [AudioDatagram(s, 0.0, bytes([k + 1] * 4)) for k, s in enumerate(seqs)]
        pcm, report = audio_reassemble(dgs)
        expected = kept[-1] + 1 if kept else 0
        oracle = b"".join(
            bytes([seqs.index(s) + 1] * 4) if s in kept else bytes(4) for s in range(expected)
        )
        assert pcm == oracle
        assert report.received == len(kept) and report.expected == expected
        assert report.total_missing == expected - len(kept) <= len(seqs)

    def test_datagram_codec_round_trip(self):
        dg = AudioDatagram(sequence=17, timestamp=0.34, pcm=b"\x01\x02\x03\x04")
        assert datagram_decode(dg.encode()) == dg


class TestRecording:
    def send_frames(self, port, frames):
        with socket.create_connection(("127.0.0.1", port)) as sock:
            for frame in frames:
                sock.sendall(frame.encode())

    def test_loopback_tcp_per_topic_fifo(self, tmp_path):
        handle = start_recording(RecorderConfig(session_root=tmp_path / "rec"))
        topics = [f"topic{i}" for i in range(5)]
        frames = []
        rng = np.random.default_rng(1)
        for n in range(2000):
            topic = topics[n % 5]
            frames.append(
                TcpFrame(topic=topic, timestamp=float(n), values=tuple(rng.normal(size=3)))
            )
        self.send_frames(handle.tcp_port, frames)
        time.sleep(0.3)
        session = handle.stop()
        total = sum(s.n_samples for s in session.numeric.values())
        assert total == 2000
        for i, topic in enumerate(topics):
            ts = session.numeric[topic].timestamps
            expected = np.array([f.timestamp for f in frames if f.topic == topic])
            np.testing.assert_array_equal(ts, expected)  # arrival order per topic

    def test_concurrent_senders_preserve_per_topic_order(self, tmp_path):
        handle = start_recording(RecorderConfig(session_root=tmp_path / "rec"))

        def sender(topic):
            frames = [TcpFrame(topic=topic, timestamp=float(i), values=(float(i),)) for i in range(500)]
            self.send_frames(handle.tcp_port, frames)

        threads = [threading.Thread(target=sender, args=(f"s{i}",)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        time.sleep(0.3)
        session = handle.stop()
        for i in range(4):
            ts = session.numeric[f"s{i}"].timestamps
            np.testing.assert_array_equal(ts, np.arange(500.0))

    def test_stop_without_frames_yields_valid_empty_session(self, tmp_path):
        handle = start_recording(
            RecorderConfig(session_root=tmp_path / "rec", session_id="empty", task=Task.CLEANING)
        )
        with pytest.warns(UserWarning, match="zero frames"):
            session = handle.stop()
        assert session.numeric == {}
        loaded = load_session(tmp_path / "rec")
        assert loaded.manifest.session_id == "empty"

    def test_stop_is_idempotent(self, tmp_path):
        handle = start_recording(RecorderConfig(session_root=tmp_path / "rec"))
        with pytest.warns(UserWarning):
            first = handle.stop()
        assert handle.stop() is first

    def test_udp_audio_two_seconds_no_loss(self, tmp_path):
        handle = start_recording(RecorderConfig(session_root=tmp_path / "rec"))
        rate, chunk_ms = 48000, 20
        chunk = rate * chunk_ms // 1000
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        pcm16 = np.arange(2 * rate, dtype=np.int16)
        for seq in range(2 * 1000 // chunk_ms):
            payload = pcm16[seq * chunk : (seq + 1) * chunk].astype("<i2").tobytes()
            dg = AudioDatagram(sequence=seq, timestamp=seq * chunk_ms / 1000, pcm=payload)
            sock.sendto(dg.encode(), ("127.0.0.1", handle.udp_port))
        sock.close()
        time.sleep(0.5)
        with pytest.warns(UserWarning, match="zero frames"):
            session = handle.stop()
        assert len(session.audio["mic"].samples) == 96000
        np.testing.assert_array_equal(session.audio["mic"].samples, pcm16)
        loaded = load_session(tmp_path / "rec")
        assert len(loaded.audio["mic"].samples) == 96000

    def test_malformed_frames_skipped_not_fatal(self, tmp_path):
        handle = start_recording(RecorderConfig(session_root=tmp_path / "rec"))
        good1 = TcpFrame(topic="ok", timestamp=1.0, values=(1.0,))
        good2 = TcpFrame(topic="ok", timestamp=2.0, values=(2.0,))
        bad_body = b"x\x00" + struct.pack(">d", 0.0) + b"abc"  # payload not /8
        bad = struct.pack(">I", len(bad_body)) + bad_body
        with socket.create_connection(("127.0.0.1", handle.tcp_port)) as sock:
            sock.sendall(good1.encode() + bad + good2.encode())
        time.sleep(0.3)
        session = handle.stop()
        assert session.numeric["ok"].n_samples == 2
        assert handle.malformed_frames == 1

    @staticmethod
    def send_past_the_bound(port):
        """One good frame of topic "a", a length field above the bound, then
        1000 good frames, which the recorder may refuse to read."""
        good = TcpFrame("a", 1.0, (1.0,)).encode()
        with socket.create_connection(("127.0.0.1", port)) as sock:
            with contextlib.suppress(ConnectionError):  # the recorder closed it
                sock.sendall(good + struct.pack(">I", 0xFFFFFFF0) + good * 1000)

    @staticmethod
    def wait_until(condition, seconds=5.0):
        deadline = time.monotonic() + seconds
        while not condition() and time.monotonic() < deadline:
            time.sleep(0.01)

    def test_length_above_the_bound_drops_the_connection(self, tmp_path):
        """Skipping a body above the bound would skip the rest of the stream:
        the recorder counts one malformed frame, closes the connection and
        holds none of its bytes."""
        handle = start_recording(RecorderConfig(session_root=tmp_path / "rec"))
        self.send_past_the_bound(handle.tcp_port)
        self.wait_until(lambda: handle.malformed_frames and not handle._rest)
        assert (handle.frames_received, handle.malformed_frames) == (1, 1)
        assert handle._rest == {}
        with pytest.warns(UserWarning, match="topic 'a' left out"):  # one frame makes no series
            session = handle.stop()
        assert session.numeric == {}
        assert (handle.frames_received, handle.malformed_frames) == (1, 1)

    def test_other_connections_record_past_a_dropped_one(self, tmp_path):
        handle = start_recording(RecorderConfig(session_root=tmp_path / "rec"))
        with socket.create_connection(("127.0.0.1", handle.tcp_port)) as other:
            self.send_past_the_bound(handle.tcp_port)
            self.wait_until(lambda: handle.malformed_frames and len(handle._rest) == 1)
            frames = [TcpFrame("b", float(k), (float(k),)) for k in range(500)]
            other.sendall(b"".join(frame.encode() for frame in frames))
            self.wait_until(lambda: handle.frames_received == 501)
        with pytest.warns(UserWarning, match="topic 'a' left out"):
            session = handle.stop()
        assert (handle.frames_received, handle.malformed_frames) == (501, 1)
        np.testing.assert_array_equal(session.numeric["b"].timestamps, np.arange(500.0))

    @pytest.mark.parametrize(
        "bad",
        [bytes(11), AudioDatagram(1, 0.02, bytes(4)).encode() + b"\x01"],
        ids=["below-header", "odd-pcm"],
    )
    def test_malformed_datagram_is_counted_and_skipped(self, tmp_path, bad):
        """A datagram shorter than its 12-byte header, or with an odd PCM
        length, counts one malformed frame; the audio around it is intact."""
        handle = start_recording(RecorderConfig(session_root=tmp_path / "rec"))
        pcm = np.arange(480, dtype="<i2").reshape(3, 160)
        datagrams = [AudioDatagram(k, k * 0.02, pcm[k].tobytes()).encode() for k in range(3)]
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            for data in (datagrams[0], bad, *datagrams[1:]):
                sock.sendto(data, ("127.0.0.1", handle.udp_port))
        with pytest.warns(UserWarning, match="zero frames"):
            session = handle.stop()
        assert handle.malformed_frames == 1
        np.testing.assert_array_equal(session.audio["mic"].samples, pcm.ravel())

    @pytest.mark.parametrize("stray", [20000, 2**32 - 1])
    def test_stray_sequence_is_refused_and_the_recording_kept(self, tmp_path, monkeypatch, stray):
        """A datagram whose sequence lies far past the others is refused and
        counted as malformed, once, though the first save fails; stop() keeps
        the numeric topics and a track no longer than the datagrams received."""
        save, calls = transport.save_session, []

        def save_fails_once(session, root):
            calls.append(root)
            if len(calls) == 1:
                raise IoError("disk full")
            save(session, root)

        monkeypatch.setattr(transport, "save_session", save_fails_once)
        handle = start_recording(RecorderConfig(session_root=tmp_path / "rec"))
        frames = [TcpFrame("ee_pose", float(k), (float(k),)) for k in range(10)]
        self.send_frames(handle.tcp_port, frames)
        pcm = np.arange(480, dtype="<i2").reshape(3, 160)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            for seq, chunk in zip((0, 1, stray), pcm):
                sock.sendto(AudioDatagram(seq, seq * 0.02, chunk.tobytes()).encode(),
                            ("127.0.0.1", handle.udp_port))
        with pytest.raises(IoError):
            handle.stop()
        session = handle.stop()
        np.testing.assert_array_equal(session.numeric["ee_pose"].timestamps, np.arange(10.0))
        np.testing.assert_array_equal(session.audio["mic"].samples, pcm[:2].ravel())
        assert handle.gap_report.received == handle.gap_report.expected == 2
        assert handle.malformed_frames == 1
        assert len(load_session(tmp_path / "rec").audio["mic"].samples) == 320

    def test_stream_map_sets_rate_and_channels(self, tmp_path):
        """A topic in the config's ``stream_map`` is saved at its mapped rate
        and channels; another keeps its observed rate and ``ch<i>`` names."""
        channels = (Channel("x", "m"), Channel("y", "m"))
        config = RecorderConfig(session_root=tmp_path / "rec", stream_map={"ee": (100.0, channels)})
        handle = start_recording(config)
        frames = [
            TcpFrame(topic, k / 10, (float(k), 0.0)) for k in range(20) for topic in ("ee", "other")
        ]
        self.send_frames(handle.tcp_port, frames)
        handle.stop()
        loaded = load_session(tmp_path / "rec")
        entries = {s.name: s for s in loaded.manifest.streams}
        assert (entries["ee"].nominal_rate, entries["ee"].channels) == (100.0, channels)
        assert loaded.numeric["ee"].channels == channels
        assert entries["other"].nominal_rate == pytest.approx(10.0)
        assert [c.name for c in entries["other"].channels] == ["ch0", "ch1"]

    def test_stream_map_channel_the_header_cannot_hold_is_left_out(self, tmp_path):
        """A mapped channel name with a comma would save a container whose CSV
        header cannot load back; its topic is dropped, the others are saved."""
        channels = (Channel("x", "m"), Channel("y,z", "m"))
        config = RecorderConfig(session_root=tmp_path / "rec", stream_map={"ee": (100.0, channels)})
        handle = start_recording(config)
        frames = [
            TcpFrame(topic, k / 10, (float(k), 0.0)) for k in range(20) for topic in ("ee", "other")
        ]
        self.send_frames(handle.tcp_port, frames)
        with pytest.warns(UserWarning, match=r"topic 'ee' left out.*channels\['y,z'\]"):
            session = handle.stop()
        assert sorted(session.numeric) == ["other"]
        assert sorted(load_session(tmp_path / "rec").numeric) == ["other"]

    def test_stream_map_with_a_repeated_channel_is_left_out(self, tmp_path):
        channels = (Channel("x", "m"), Channel("x", "m"))
        config = RecorderConfig(session_root=tmp_path / "rec", stream_map={"ee": (100.0, channels)})
        handle = start_recording(config)
        frames = [
            TcpFrame(topic, k / 10, (float(k), 0.0)) for k in range(20) for topic in ("ee", "other")
        ]
        self.send_frames(handle.tcp_port, frames)
        with pytest.warns(UserWarning, match=r"topic 'ee' left out.*a channel name repeats"):
            session = handle.stop()
        assert sorted(session.numeric) == ["other"]
        assert sorted(load_session(tmp_path / "rec").numeric) == ["other"]

    def test_bad_topic_is_left_out_not_fatal(self, tmp_path):
        """A topic that breaks a stream invariant (one sample, or repeated
        timestamps) is dropped with a warning; the good topic is still saved."""
        handle = start_recording(RecorderConfig(session_root=tmp_path / "rec"))
        frames = [TcpFrame("ee", float(k), (float(k), 0.0, 1.0)) for k in range(100)]
        frames.append(TcpFrame("stray", 0.5, (1.0,)))
        frames += [TcpFrame("dup", 2.0, (float(k),)) for k in range(3)]
        self.send_frames(handle.tcp_port, frames)
        with pytest.warns(UserWarning) as caught:
            session = handle.stop()
        assert sorted(session.numeric) == ["ee"]
        left_out = " ".join(str(w.message) for w in caught)
        assert "'stray'" in left_out and "'dup'" in left_out
        loaded = load_session(tmp_path / "rec")
        assert sorted(loaded.numeric) == ["ee"]
        assert loaded.numeric["ee"].n_samples == 100

    def test_topics_that_break_the_container_are_left_out(self, tmp_path):
        """A topic whose name leaves the session directory, whose frames carry
        different numbers of values, or whose frames carry none, is dropped
        with a warning; nothing is written outside the session root."""
        root = tmp_path / "a" / "b" / "rec"
        handle = start_recording(RecorderConfig(session_root=root))
        frames = [TcpFrame("../../escaped", float(k), (1.0,)) for k in range(3)]
        frames += [TcpFrame("ragged", 0.0, (1.0,)), TcpFrame("ragged", 1.0, (1.0, 2.0))]
        frames += [TcpFrame("empty", float(k), ()) for k in range(3)]
        frames += [TcpFrame("ee", float(k), (float(k),)) for k in range(10)]
        self.send_frames(handle.tcp_port, frames)
        with pytest.warns(UserWarning) as caught:
            session = handle.stop()
        assert sorted(session.numeric) == ["ee"]
        left_out = " ".join(str(w.message) for w in caught)
        for topic in ("../../escaped", "ragged", "empty"):
            assert f"topic '{topic}' left out" in left_out
        written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())
        want = ("dialogue.jsonl", "manifest.json", "streams/ee.csv")
        assert written == [f"a/b/rec/{f}" for f in want]
        assert load_session(root).numeric["ee"].n_samples == 10

    def test_topic_named_like_the_audio_stream_is_left_out(self, tmp_path):
        handle = start_recording(RecorderConfig(session_root=tmp_path / "rec"))
        self.send_frames(handle.tcp_port, [TcpFrame("mic", float(k), (1.0,)) for k in range(3)])
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            dg = AudioDatagram(0, 0.0, b"\x01\x00" * 8)
            sock.sendto(dg.encode(), ("127.0.0.1", handle.udp_port))
        with pytest.warns(UserWarning, match="topic 'mic' left out"):
            session = handle.stop()
        assert session.numeric == {} and len(session.audio["mic"].samples) == 8
        assert len(load_session(tmp_path / "rec").audio["mic"].samples) == 8

    def test_nonconformant_audio_rate_is_kept_with_its_flag(self, tmp_path):
        handle = start_recording(RecorderConfig(session_root=tmp_path / "rec", audio_rate=16000))
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            for seq in range(5):
                dg = AudioDatagram(seq, seq * 0.02, np.arange(320, dtype="<i2").tobytes())
                sock.sendto(dg.encode(), ("127.0.0.1", handle.udp_port))
        with pytest.warns(UserWarning, match="zero frames"):
            handle.stop()
        loaded = load_session(tmp_path / "rec")
        assert loaded.audio["mic"].meta.sample_rate == 16000
        assert len(loaded.audio["mic"].samples) == 5 * 320
        assert "streams[mic]: audio-rate-nonconformant (16000 Hz)" in session_checks(loaded)[1]

    def test_stop_that_failed_to_save_can_be_repeated(self, tmp_path, monkeypatch):
        handle = start_recording(RecorderConfig(session_root=tmp_path / "rec"))
        self.send_frames(handle.tcp_port, [TcpFrame("ee", float(k), (1.0,)) for k in range(10)])
        save = transport.save_session
        calls = []

        def save_fails_once(session, root):
            calls.append(root)
            if len(calls) == 1:
                raise IoError("disk full")
            save(session, root)

        monkeypatch.setattr(transport, "save_session", save_fails_once)
        with pytest.raises(IoError):
            handle.stop()
        session = handle.stop()
        assert len(calls) == 2
        assert session.numeric["ee"].n_samples == 10
        assert load_session(tmp_path / "rec").numeric["ee"].n_samples == 10
        assert handle.stop() is session

    def test_one_thread_serves_every_connection(self, tmp_path):
        before = threading.active_count()
        handle = start_recording(RecorderConfig(session_root=tmp_path / "rec"))
        conns = [socket.create_connection(("127.0.0.1", handle.tcp_port)) for _ in range(8)]
        try:
            for i, conn in enumerate(conns):
                conn.sendall(b"".join(TcpFrame(f"c{i}", float(k), (1.0,)).encode() for k in range(2)))
            deadline = time.monotonic() + 5.0
            while handle.frames_received < 16 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert handle.frames_received == 16
            assert threading.active_count() == before + 1
        finally:
            for conn in conns:
                conn.close()
        handle.stop()
        assert threading.active_count() == before

    def test_closed_connections_leave_the_recorder_idle(self, tmp_path):
        """A connection the peer closed must leave the selector: a finished
        socket stays readable, so keeping it would make the loop spin."""
        handle = start_recording(RecorderConfig(session_root=tmp_path / "rec"))
        for i in range(5):
            self.send_frames(handle.tcp_port, [TcpFrame(f"c{i}", float(k), (1.0,)) for k in range(2)])
        time.sleep(0.2)
        t0 = resource.getrusage(resource.RUSAGE_SELF)
        time.sleep(0.5)
        t1 = resource.getrusage(resource.RUSAGE_SELF)
        cpu_s = (t1.ru_utime - t0.ru_utime) + (t1.ru_stime - t0.ru_stime)
        assert handle.frames_received == 10
        handle.stop()
        assert cpu_s < 0.1

    def test_bind_error_closes_sockets(self, tmp_path):
        def start_on_taken_port(port):
            # returns rather than holds the error: its traceback would keep
            # the half-built handle, and so its sockets, alive
            try:
                start_recording(RecorderConfig(session_root=tmp_path / "rec", udp_port=port))
            except BindError as exc:
                return exc
            return None

        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as taken:
            taken.bind(("127.0.0.1", 0))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                error = start_on_taken_port(taken.getsockname()[1])
                assert isinstance(error, BindError)
                del error
                gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    @pytest.mark.parametrize("ports", [{"tcp_port": 70000}, {"udp_port": -5}], ids=["tcp", "udp"])
    def test_port_out_of_range_is_bind_error_and_closes_sockets(self, tmp_path, ports):
        def start(config):
            # returns rather than holds the error, as in the test above
            try:
                start_recording(config)
            except BindError as exc:
                return exc
            return None

        config = RecorderConfig(session_root=tmp_path / "rec", **ports)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            error = start(config)
            assert isinstance(error, BindError) and error.code == "bind-error"
            assert error.module == "transport_gateway"
            del error
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_bad_audio_stream_is_rejected_before_binding(self, tmp_path):
        def start(config):
            # returns rather than holds the error, as in the test above
            try:
                start_recording(config)
            except InvariantViolation as exc:
                return exc
            return None

        config = RecorderConfig(session_root=tmp_path / "rec", audio_stream="../mic")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            error = start(config)
            assert isinstance(error, InvariantViolation)
            assert "audio_stream" in str(error)
            del error
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        assert list(tmp_path.iterdir()) == []

    @pytest.fixture
    def no_sockets(self, monkeypatch):
        class NoSockets:
            def __getattr__(self, name):
                raise AssertionError(f"socket.{name} used before the session rule was checked")

        monkeypatch.setattr(transport, "socket", NoSockets())

    @pytest.mark.parametrize("rate", [44100.5, 0, True], ids=["fractional", "zero", "bool"])
    def test_bad_audio_rate_is_rejected_before_any_socket(self, tmp_path, no_sockets, rate):
        # stop() could not save such a track; refuse it before opening anything
        config = RecorderConfig(session_root=tmp_path / "rec", audio_rate=rate)
        with pytest.raises(InvariantViolation, match="audio sample rate .* must be an integer > 0"):
            start_recording(config)
        assert list(tmp_path.iterdir()) == []

    def test_empty_session_id_is_rejected_before_any_socket(self, tmp_path, no_sockets):
        # save's rule wants a session id; without one stop() could save nothing
        config = RecorderConfig(session_root=tmp_path / "rec", session_id="")
        with pytest.raises(InvariantViolation, match="session_id: must be non-empty"):
            start_recording(config)
        assert list(tmp_path.iterdir()) == []


class TestFairness:
    def test_datagrams_are_taken_while_connections_flood(self, tmp_path):
        """Four TCP senders flood the recorder while a UDP sender sends a run
        of datagrams. Each pass takes the queued datagrams up to a budget, so
        all of them are recorded before stop() is called."""
        handle = start_recording(RecorderConfig(session_root=tmp_path / "rec"))
        done = threading.Event()
        connected = [threading.Event() for _ in range(4)]

        def tcp_sender(i):
            k = 0
            try:
                with socket.create_connection(("127.0.0.1", handle.tcp_port)) as sock:
                    connected[i].set()
                    while not done.is_set():
                        sock.sendall(b"".join(
                            TcpFrame(f"s{i}", float(k + j), (1.0,)).encode() for j in range(64)
                        ))
                        k += 64
            except OSError:  # the recorder closed the connection at stop()
                pass

        senders = [threading.Thread(target=tcp_sender, args=(i,)) for i in range(4)]
        n_datagrams = 300
        try:
            for t in senders:
                t.start()
            assert all(c.wait(timeout=10.0) for c in connected)
            deadline = time.monotonic() + 10.0
            while handle.frames_received < 20000 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert handle.frames_received >= 20000
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as udp:
                for seq in range(n_datagrams):
                    udp.sendto(AudioDatagram(seq, seq * 0.02, b"\x01\x00" * 8).encode(),
                               ("127.0.0.1", handle.udp_port))
                    if seq % 10 == 9:  # paced, as audio is: the kernel queue stays short
                        time.sleep(0.005)
            deadline = time.monotonic() + 5.0
            while len(handle._datagrams) < n_datagrams and time.monotonic() < deadline:
                time.sleep(0.01)
            taken = len(handle._datagrams)
            handle.stop()
        finally:
            done.set()
            for t in senders:
                t.join(timeout=10.0)
        assert not any(t.is_alive() for t in senders)
        assert taken == n_datagrams
        assert handle.gap_report.total_missing == 0
        assert handle.gap_report.received == handle.gap_report.expected == n_datagrams


class TestStopCutOff:
    """stop() is a cut-off: it wakes every receive loop at once and keeps what
    the sockets hold at that moment, within a fixed drain budget."""

    def test_stop_right_after_start_is_prompt(self, tmp_path):
        handle = start_recording(RecorderConfig(session_root=tmp_path / "rec"))
        t0 = time.monotonic()
        with pytest.warns(UserWarning, match="zero frames"):
            handle.stop()
        assert time.monotonic() - t0 < 0.1

    def test_stop_keeps_everything_sent_before_it(self, tmp_path):
        """No sleep before stop(): the connection may still sit in the listen
        backlog and the datagrams in the kernel's queue."""
        handle = start_recording(RecorderConfig(session_root=tmp_path / "rec"))
        frames = [TcpFrame("ee_pose", float(k), (float(k), -1.0)) for k in range(3000)]
        with socket.create_connection(("127.0.0.1", handle.tcp_port)) as sock:
            sock.sendall(b"".join(f.encode() for f in frames))
        pcm = np.arange(100 * 480, dtype="<i2").reshape(100, 480)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as udp:
            for seq in range(100):
                dg = AudioDatagram(seq, seq * 0.01, pcm[seq].tobytes())
                udp.sendto(dg.encode(), ("127.0.0.1", handle.udp_port))
        session = handle.stop()
        np.testing.assert_array_equal(session.numeric["ee_pose"].timestamps, np.arange(3000.0))
        np.testing.assert_array_equal(session.audio["mic"].samples, pcm.ravel())
        assert handle.gap_report.total_missing == 0
        assert handle.frames_received == 3000 and handle.malformed_frames == 0

    def test_senders_that_keep_sending_cannot_hold_stop_open(self, tmp_path):
        """Four TCP senders, each sending a good and a malformed frame per
        write, and one UDP sender run through stop(). Short switch intervals
        make the threads interleave inside the counters' updates."""
        handle = start_recording(RecorderConfig(session_root=tmp_path / "rec"))
        done = threading.Event()
        connected = [threading.Event() for _ in range(4)]
        bad_body = b"x\x00" + struct.pack(">d", 0.0) + b"abc"  # payload not /8
        bad = struct.pack(">I", len(bad_body)) + bad_body

        def tcp_sender(i):
            k = 0
            try:
                with socket.create_connection(("127.0.0.1", handle.tcp_port)) as sock:
                    connected[i].set()
                    while not done.is_set():
                        sock.sendall(TcpFrame(f"s{i}", float(k), (float(k),)).encode() + bad)
                        k += 1
            except OSError:  # the recorder closed the connection at stop()
                pass

        def udp_sender():
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as udp:
                seq = 0
                while not done.is_set():
                    udp.sendto(AudioDatagram(seq, seq * 0.01, b"\x01\x00" * 8).encode(),
                               ("127.0.0.1", handle.udp_port))
                    seq += 1

        senders = [threading.Thread(target=tcp_sender, args=(i,)) for i in range(4)]
        senders.append(threading.Thread(target=udp_sender))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in senders:
                t.start()
            assert all(c.wait(timeout=10.0) for c in connected)
            deadline = time.monotonic() + 10.0
            while handle.frames_received < 2000 and time.monotonic() < deadline:
                time.sleep(0.01)
            t0 = time.monotonic()
            session = handle.stop()
            stop_s = time.monotonic() - t0
        finally:
            done.set()
            sys.setswitchinterval(interval)
            for t in senders:
                t.join(timeout=10.0)
        assert not any(t.is_alive() for t in senders)
        assert stop_s < 2.0
        assert sum(s.n_samples for s in session.numeric.values()) == handle.frames_received
        assert handle.frames_received >= 2000
        # each connection's malformed frame follows its good one, so a cut-off
        # can leave at most one good frame per connection without its pair
        assert handle.frames_received - 4 <= handle.malformed_frames <= handle.frames_received
        for i in range(4):
            ts = session.numeric[f"s{i}"].timestamps
            np.testing.assert_array_equal(ts, np.arange(len(ts), dtype=float))
        assert handle.gap_report.received == len(handle._datagrams) > 0
