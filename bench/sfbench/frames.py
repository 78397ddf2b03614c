"""Deterministic live stream for the ``record`` workload.

Three numeric topics with three channels each, sampled at ``TOPIC_RATE`` of
stream time, and one mono 16-bit audio track cut into 20 ms datagrams. Every
value comes from a Philox generator keyed by the seed, so one seed always
gives the same wire bytes, and the receiver side can rebuild what was sent
without talking to the sender.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOPICS = (
    ("arm_joints", ("j0", "j1", "j2")),
    ("ee_pose", ("x", "y", "z")),
    ("imu", ("ax", "ay", "az")),
)
TOPIC_RATE = 1000.0  # Hz of stream time, per topic
AUDIO_RATE = 48000
CHUNK_MS = 20
CHUNK_SAMPLES = AUDIO_RATE * CHUNK_MS // 1000
# Stream time covered by one datagram is 20 ms: 20 steps at 1 kHz.
STEPS_PER_DATAGRAM = int(round(TOPIC_RATE * CHUNK_MS / 1000))


@dataclass(frozen=True)
class LiveStream:
    """What the sender transmits: per-topic rows and the PCM it chunks."""

    timestamps: np.ndarray  # (steps,) shared by every topic
    values: dict[str, np.ndarray]  # topic -> (steps, 3)
    pcm: np.ndarray  # int16, n_datagrams * CHUNK_SAMPLES

    @property
    def steps(self) -> int:
        return len(self.timestamps)

    @property
    def n_frames(self) -> int:
        return self.steps * len(TOPICS)

    @property
    def n_datagrams(self) -> int:
        return len(self.pcm) // CHUNK_SAMPLES


def make_stream(seed: int, steps: int) -> LiveStream:
    rng = np.random.Generator(np.random.Philox(key=seed))
    values = {topic: rng.standard_normal((steps, len(ch))) for topic, ch in TOPICS}
    n_datagrams = -(-steps // STEPS_PER_DATAGRAM)
    pcm = rng.integers(-32768, 32768, size=n_datagrams * CHUNK_SAMPLES, dtype=np.int16)
    return LiveStream(
        timestamps=np.arange(steps) / TOPIC_RATE,
        values=values,
        pcm=pcm,
    )


def encode_stream(stream: LiveStream) -> list[tuple[bytes, bytes]]:
    """Wire bytes in send order: (TCP frames, one UDP datagram) per slot.

    Each slot carries the frames of ``STEPS_PER_DATAGRAM`` steps, topic by
    topic within a step, followed by the datagram holding the same 20 ms of
    audio, so audio is interleaved with the frames it accompanies.
    """
    from sessionforge.transport import AudioDatagram, TcpFrame

    slots = []
    chunk_bytes = stream.pcm.astype("<i2").tobytes()
    for seq in range(stream.n_datagrams):
        lo = seq * STEPS_PER_DATAGRAM
        hi = min(lo + STEPS_PER_DATAGRAM, stream.steps)
        tcp = b"".join(
            TcpFrame(
                topic=topic,
                timestamp=float(stream.timestamps[k]),
                values=tuple(float(v) for v in stream.values[topic][k]),
            ).encode()
            for k in range(lo, hi)
            for topic, _ in TOPICS
        )
        pcm = chunk_bytes[seq * CHUNK_SAMPLES * 2 : (seq + 1) * CHUNK_SAMPLES * 2]
        udp = AudioDatagram(sequence=seq, timestamp=seq * CHUNK_MS / 1000.0, pcm=pcm).encode()
        slots.append((tcp, udp))
    return slots
