import struct
import threading

import numpy as np
import pytest

from sfbench import frames, stats, tracing
from sfbench.tracing import Span, Tracer, covered, layer_self_times, self_times
from sfbench.workloads import chunk_mismatches, row_mismatches, split_frames


def span(id_, name, start, end, parent=None):
    return Span(id_, name, start, end, parent, None)


# -- self-time arithmetic ---------------------------------------------------

def test_covered_merges_overlaps_and_keeps_gaps():
    assert covered([]) == 0.0
    assert covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)
    assert covered([(2.0, 3.0), (0.0, 1.0)]) == pytest.approx(2.0)


def test_self_time_subtracts_children():
    spans = [
        span(1, "cli.process_trial", 0.0, 10.0),
        span(2, "session.load_session", 1.0, 4.0, parent=1),
        span(3, "filters.denoise_raw", 5.0, 6.0, parent=1),
    ]
    selfs = self_times(spans)
    assert selfs == {1: pytest.approx(6.0), 2: pytest.approx(3.0), 3: pytest.approx(1.0)}


def test_self_time_counts_overlapping_children_once():
    # two pool workers run children of the same parent at the same time
    spans = [
        span(1, "cli.main", 0.0, 10.0),
        span(2, "cli.process_trial", 1.0, 6.0, parent=1),
        span(3, "cli.process_trial", 2.0, 8.0, parent=1),
    ]
    assert self_times(spans)[1] == pytest.approx(3.0)


def test_self_time_clips_children_to_parent():
    spans = [span(1, "a.x", 0.0, 2.0), span(2, "b.y", 1.0, 5.0, parent=1)]
    assert self_times(spans)[1] == pytest.approx(1.0)


def test_layer_self_times_sum_by_module():
    spans = [
        span(1, "cli.main", 0.0, 10.0),
        span(2, "cli.process_trial", 0.0, 8.0, parent=1),
        span(3, "session.load_session", 0.0, 5.0, parent=2),
        span(4, "session.load_session", 6.0, 7.0, parent=2),
    ]
    assert layer_self_times(spans) == {"cli": pytest.approx(4.0), "session": pytest.approx(6.0)}


def test_tracer_attaches_worker_spans_to_open_root_and_inherits_trial():
    tr = Tracer()
    with tr.span("cli.main") as root:
        def worker():
            with tr.span("cli.process_trial", "t1"):
                with tr.span("session.load_session"):
                    pass

        t = threading.Thread(target=worker)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
    by_name = {s.name: s for s in tr.spans}
    assert by_name["cli.process_trial"].parent == root.id
    load = by_name["session.load_session"]
    assert load.parent == by_name["cli.process_trial"].id
    assert load.trial == "t1"
    assert root.parent is None


def test_patched_restores_attributes():
    target = type("M", (), {"f": staticmethod(lambda: 1)})
    with tracing.patched([(target, "f", lambda: 2)]):
        assert target.f() == 2
    assert target.f() == 1


# -- percentile rule --------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 99.9) == 100
    assert stats.percentile([7.0], 90) == 7.0


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (19, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    p = stats.tail_percentile(n)
    assert p == expected
    if p is not None:
        assert stats.samples_beyond(n, p) >= stats.MIN_BEYOND


def test_summary_reports_median_tail_and_count():
    s = stats.summarize([float(v) for v in range(1, 101)])
    assert (s.n, s.median, s.tail_p, s.tail) == (100, 50.5, 90.0, 90.0)
    assert "n=100" in s.describe("ms") and "p90" in s.describe("ms")
    assert "too few" in stats.summarize([1.0, 2.0]).describe("s")


# -- the sender's frame stream ----------------------------------------------

def test_stream_is_deterministic_per_seed():
    a, b = frames.make_stream(5, 200), frames.make_stream(5, 200)
    assert np.array_equal(a.timestamps, b.timestamps)
    for topic, _ in frames.TOPICS:
        assert a.values[topic].tobytes() == b.values[topic].tobytes()
    assert a.pcm.tobytes() == b.pcm.tobytes()
    assert frames.encode_stream(a) == frames.encode_stream(b)


def test_stream_differs_between_seeds():
    a, b = frames.make_stream(5, 200), frames.make_stream(6, 200)
    assert frames.encode_stream(a) != frames.encode_stream(b)


def test_encoded_stream_carries_every_frame_and_datagram():
    from sessionforge.transport import datagram_decode, frame_decode

    stream = frames.make_stream(3, 45)
    slots = frames.encode_stream(stream)
    assert len(slots) == stream.n_datagrams == 3
    decoded = [frame_decode(f)[0] for tcp, _ in slots for f in split_frames(tcp)]
    assert len(decoded) == stream.n_frames
    for i, f in enumerate(decoded):
        k, topic = i // len(frames.TOPICS), frames.TOPICS[i % len(frames.TOPICS)][0]
        assert f.topic == topic and f.timestamp == stream.timestamps[k]
        assert np.array_equal(f.values, stream.values[topic][k])
    pcm = b"".join(datagram_decode(udp).pcm for _, udp in slots)
    assert pcm == stream.pcm.astype("<i2").tobytes()


# -- output checks ----------------------------------------------------------

def test_row_mismatches_compare_bits():
    from sessionforge.session import Channel, TimedSeries

    t = np.arange(4) / 10.0
    v = np.zeros((4, 1))
    same = TimedSeries(timestamps=t.copy(), values=v.copy(), channels=(Channel("x", "1"),))
    assert row_mismatches(same, t, v) == 0
    flipped = v.copy()
    flipped[2, 0] = -0.0  # equal as a float, different bits
    other = TimedSeries(timestamps=t.copy(), values=flipped, channels=(Channel("x", "1"),))
    assert row_mismatches(other, t, v) == 1
    short = TimedSeries(timestamps=t[:3], values=v[:3], channels=(Channel("x", "1"),))
    assert row_mismatches(short, t, v) == 1
    assert row_mismatches(None, t, v) == 4


def test_chunk_mismatches_count_changed_and_missing_chunks():
    pcm = np.arange(3 * frames.CHUNK_SAMPLES, dtype=np.int16)
    assert chunk_mismatches(pcm.copy(), pcm) == 0
    got = pcm.copy()
    got[frames.CHUNK_SAMPLES + 1] += 1
    assert chunk_mismatches(got, pcm) == 1
    assert chunk_mismatches(pcm[: frames.CHUNK_SAMPLES], pcm) == 2


def test_split_frames_uses_length_prefix():
    a = struct.pack(">I", 3) + b"abc"
    b = struct.pack(">I", 1) + b"z"
    assert split_frames(a + b) == [a, b]
