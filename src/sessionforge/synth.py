"""Deterministic synthetic sessions with closed-form ground truth.

Every scenario is generated from a counter-based Philox PRNG keyed by the
seed, so the same seed yields bit-identical sessions on any platform. Motion
profiles are chosen so path length and mean jerk have closed forms; each kind
is one ``_KINDS`` entry. Sensor noise is a narrowband high-frequency
disturbance that a low-pass denoiser can actually remove. A ``Scenario`` needs
a finite duration and rates > 0, finite noise and jitter figures >= 0, an
integer audio rate > 0, and each ``ProfileSpec`` a known kind and
numeric ``p0`` and ``pf`` of one length >= 1; ``from_json_file`` reports a file
that breaks this as ``MalformedManifest``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
from scipy.integrate import quad

from .dialogue import (
    AmbiguityLabel,
    AmbiguityType,
    AnnotatedDialogue,
    Clarity,
    Speaker,
    Utterance,
)
from .session import (
    AudioMeta,
    AudioTrack,
    Channel,
    FrameTimestampLog,
    RawSession,
    SessionManifest,
    Task,
    TimedSeries,
    describe_stream,
    read_user_json,
)

NOISE_FREQ = 30.0  # Hz, narrowband sensor disturbance


def _rng(seed: int) -> np.random.Generator:
    # Philox: 64-bit counter-based generator with fixed, documented constants.
    return np.random.Generator(np.random.Philox(key=seed))


# -- motion profiles --------------------------------------------------------

# Each kind's q(s), q''(s) and q'''(s) over normalized time s = t/T in [0, 1].
_KINDS = {
    "min_jerk": (
        lambda s: 10 * s**3 - 15 * s**4 + 6 * s**5,
        lambda s: 60 * s - 180 * s**2 + 120 * s**3,
        lambda s: 60 - 360 * s + 360 * s**2,
    ),
    "cubic": (lambda s: s**3, lambda s: 6 * s, lambda s: 6.0 * np.ones_like(s)),
    "stationary": (np.zeros_like, np.zeros_like, np.zeros_like),
}


@dataclass(frozen=True)
class MotionProfile:
    """Point-to-point profile p(t) = p0 + (pf - p0) * q(t/T) over [0, T]."""

    kind: str  # a key of _KINDS
    p0: np.ndarray
    pf: np.ndarray
    duration: float

    def __post_init__(self):
        object.__setattr__(self, "p0", np.atleast_1d(np.asarray(self.p0, dtype=np.float64)))
        object.__setattr__(self, "pf", np.atleast_1d(np.asarray(self.pf, dtype=np.float64)))
        if self.kind not in _KINDS:
            raise ValueError(f"unknown profile kind '{self.kind}'")

    def _s(self, t: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(t, dtype=np.float64) / self.duration, 0.0, 1.0)

    def position(self, t: np.ndarray) -> np.ndarray:
        q, _, _ = _KINDS[self.kind]
        return self.p0 + np.outer(q(self._s(t)), self.pf - self.p0)

    def acceleration(self, t: np.ndarray) -> np.ndarray:
        _, q_dd, _ = _KINDS[self.kind]
        return np.outer(q_dd(self._s(t)) / self.duration**2, self.pf - self.p0)

    def jerk_magnitude(self, t: np.ndarray) -> np.ndarray:
        _, _, q_ddd = _KINDS[self.kind]
        return self.displacement * np.abs(q_ddd(self._s(t))) / self.duration**3

    @property
    def displacement(self) -> float:
        return float(np.linalg.norm(self.pf - self.p0))

    def path_length(self) -> float:
        # q is monotone for all three kinds, so the path equals |pf - p0|.
        return self.displacement

    def mean_jerk(self, t_lo: float | None = None, t_hi: float | None = None) -> float:
        """Quadrature mean of the jerk magnitude over [t_lo, t_hi]."""
        lo = 0.0 if t_lo is None else max(0.0, t_lo)
        hi = self.duration if t_hi is None else min(self.duration, t_hi)
        if hi <= lo or self.displacement == 0.0:
            return 0.0
        value, _ = quad(lambda t: self.jerk_magnitude(np.array([t]))[0], lo, hi, limit=200)
        return value / (hi - lo)


@dataclass(frozen=True)
class GroundTruth:
    ee: MotionProfile
    wheelchair: MotionProfile

    @property
    def ee_path_length(self) -> float:
        return self.ee.path_length()

    @property
    def wheelchair_path_length(self) -> float:
        return self.wheelchair.path_length()

    def expected_mean_jerk(self, profile: MotionProfile, grid_ts: np.ndarray) -> float:
        """Quadrature mean over the span the forward third-difference covers.

        For K grid samples with spacing h the K-3 stencils are centered at the
        midpoints t_1 + (k + 1.5) h, jointly covering [t_1 + h, t_1 + (K-2) h].
        """
        k = len(grid_ts)
        if k < 4:
            return 0.0
        h = float(grid_ts[1] - grid_ts[0])
        return profile.mean_jerk(float(grid_ts[0]) + h, float(grid_ts[0]) + (k - 2) * h)


def _sample_times(duration: float, rate: float) -> np.ndarray:
    """Times k / rate for every k with k / rate <= duration."""
    return np.arange(int(np.floor(duration * rate + 1e-9)) + 1) / rate


def gen_min_jerk_trajectory(
    p0, pf, duration: float, sample_rate: float
) -> tuple[np.ndarray, np.ndarray, MotionProfile]:
    """Sampled minimum-jerk point-to-point trajectory.

    Returns (timestamps, positions K x D, profile); the profile carries the
    closed-form path length and quadrature mean jerk.
    """
    if duration <= 0 or sample_rate <= 0:
        raise ValueError("duration and sample_rate must be > 0")
    profile = MotionProfile(kind="min_jerk", p0=p0, pf=pf, duration=duration)
    t = _sample_times(duration, sample_rate)
    return t, profile.position(t), profile


# -- scenarios --------------------------------------------------------------

@dataclass(frozen=True)
class ProfileSpec:
    kind: str = "min_jerk"
    p0: tuple[float, ...] = (0.0, 0.0, 0.0)
    pf: tuple[float, ...] = (1.0, 0.0, 0.0)

    def __post_init__(self):
        profile = MotionProfile(self.kind, self.p0, self.pf, 1.0)  # checks kind and values
        if not len(profile.p0) == len(profile.pf) >= 1:
            raise ValueError("p0 and pf must have the same length, at least 1")


@dataclass(frozen=True)
class Scenario:
    seed: int
    task: Task = Task.FEEDING
    duration: float = 2.0
    ee_profile: ProfileSpec = ProfileSpec()
    wheelchair_profile: ProfileSpec = ProfileSpec(kind="stationary", p0=(0.0, 0.0), pf=(0.0, 0.0))
    video_rates: tuple[float, ...] = (12.0, 15.0)
    numeric_rate: float = 100.0
    timestamp_jitter_sd: float = 0.0
    noise_sd: float = 0.0  # RMS of the narrowband disturbance, per channel
    noise_ramp: float = 0.25  # seconds of raised-cosine on/off ramp
    audio_rate: int = 48000

    def __post_init__(self):
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**128):  # a Philox key
            raise ValueError(f"seed: {self.seed!r} must be an integer in [0, 2**128)")
        for what, x in (("duration", self.duration), ("numeric_rate", self.numeric_rate),
                        *(("video_rates", r) for r in self.video_rates)):
            if not (math.isfinite(x) and x > 0):
                raise ValueError(f"{what}: {x} must be finite and > 0")
        for what, x in (("timestamp_jitter_sd", self.timestamp_jitter_sd),
                        ("noise_sd", self.noise_sd), ("noise_ramp", self.noise_ramp)):
            if not (math.isfinite(x) and x >= 0):
                raise ValueError(f"{what}: {x} must be finite and >= 0")
        if type(self.audio_rate) is not int or self.audio_rate <= 0:  # bool is an int subclass
            raise ValueError(f"audio_rate: {self.audio_rate!r} must be an integer > 0")

    @classmethod
    def from_json_dict(cls, d: dict) -> "Scenario":
        kwargs = dict(d)
        if "task" in kwargs:
            kwargs["task"] = Task(kwargs["task"])
        for key in ("ee_profile", "wheelchair_profile"):
            if key in kwargs:
                p = kwargs[key]
                kwargs[key] = ProfileSpec(
                    kind=p.get("kind", "min_jerk"),
                    p0=tuple(p["p0"]),
                    pf=tuple(p["pf"]),
                )
        if "video_rates" in kwargs:
            kwargs["video_rates"] = tuple(kwargs["video_rates"])
        return cls(**kwargs)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "Scenario":
        return read_user_json(Path(path), cls.from_json_dict, "scenario")


def _camera_name(i: int, n: int) -> str:
    if n == 2:
        return ("ego_cam", "wrist_cam")[i]
    return f"cam{i}"


def _frame_log_timestamps(rng, rate: float, duration: float, jitter_sd: float) -> np.ndarray:
    base = _sample_times(duration, rate)
    if jitter_sd > 0:
        base = np.sort(base + rng.normal(0.0, jitter_sd, len(base)))
        # enforce strictly increasing after sorting
        for i in range(1, len(base)):
            if base[i] <= base[i - 1]:
                base[i] = base[i - 1] + 1e-9
    return base


def _disturbance(rng, scenario: Scenario, t: np.ndarray, n_channels: int) -> np.ndarray:
    out = np.zeros((len(t), n_channels))
    if scenario.noise_sd > 0:
        # Raised-cosine ramps keep the disturbance zero at the stream edges,
        # so zero-phase filtering sees no boundary discontinuity to smear.
        ramp = scenario.noise_ramp
        env = np.ones_like(t)
        if ramp > 0:
            lo = np.clip(t / ramp, 0.0, 1.0)
            hi = np.clip((t[-1] - t) / ramp, 0.0, 1.0)
            env = 0.5 * (1 - np.cos(np.pi * lo)) * 0.5 * (1 - np.cos(np.pi * hi))
        amp = scenario.noise_sd * np.sqrt(2.0)
        for c in range(n_channels):
            phase = rng.uniform(0.0, 2.0 * np.pi)
            out[:, c] += env * amp * np.sin(2.0 * np.pi * NOISE_FREQ * t + phase)
    return out


_DIALOGUE_SCRIPTS: dict[Task, list[tuple[Speaker, str, AmbiguityLabel | None]]] = {
    Task.DRINKING: [
        (Speaker.USER, "I'm thirsty", AmbiguityLabel(Clarity.AMBIGUOUS, AmbiguityType.INTENT_PRAGMATIC)),
        (Speaker.ROBOT, "Would you like the sparkling water on the table?", None),
        (Speaker.USER, "yes bring it to my mouth please", AmbiguityLabel(Clarity.SPECIFIC)),
    ],
    Task.FEEDING: [
        (Speaker.USER, "can you grab me an apple, uh, the red one", AmbiguityLabel(Clarity.AMBIGUOUS, AmbiguityType.REFERENTIAL)),
        (Speaker.ROBOT, "There are two red apples. The one closer to you?", None),
        (Speaker.USER, "yeah that one", AmbiguityLabel(Clarity.AMBIGUOUS, AmbiguityType.REFERENTIAL)),
    ],
    Task.CLEANING: [
        (Speaker.USER, "throw this away somewhere far from me", AmbiguityLabel(Clarity.AMBIGUOUS, AmbiguityType.SPATIAL)),
        (Speaker.ROBOT, "I will put it in the bin behind me.", None),
        (Speaker.USER, "the bin is um behind you to the left", AmbiguityLabel(Clarity.AMBIGUOUS, AmbiguityType.OUT_OF_SCOPE)),
    ],
    Task.DRAWER_OPENING: [
        (Speaker.USER, "open the top drawer", AmbiguityLabel(Clarity.SPECIFIC)),
        (Speaker.ROBOT, "Opening the top drawer now.", None),
        (Speaker.USER, "pull it a bit more", AmbiguityLabel(Clarity.AMBIGUOUS, AmbiguityType.TEMPORAL_INCREMENTAL)),
    ],
    Task.DOOR_OPENING: [
        (Speaker.USER, "I want to go out", AmbiguityLabel(Clarity.AMBIGUOUS, AmbiguityType.INTENT_PRAGMATIC)),
        (Speaker.ROBOT, "Shall I open the door for you?", None),
        (Speaker.USER, "yes grab the strap on the handle", AmbiguityLabel(Clarity.SPECIFIC)),
    ],
}


def _gen_dialogue(trial_id: str, task: Task, duration: float) -> AnnotatedDialogue:
    script = _DIALOGUE_SCRIPTS[task]
    step = duration / (len(script) + 1)
    turns = []
    labels = {}
    for i, (speaker, text, label) in enumerate(script):
        turns.append(
            Utterance(
                speaker=speaker,
                text=text,
                t_start=round(i * step, 6),
                t_end=round(i * step + 0.8 * step, 6),
                turn_index=i,
            )
        )
        if label is not None:
            labels[i] = label
    return AnnotatedDialogue(trial_id=trial_id, task=task.value, turns=turns, labels=labels)


def gen_session(scenario: Scenario) -> tuple[RawSession, GroundTruth]:
    """Generate a full raw session plus its analytic ground truth.

    Deterministic: the same scenario (seed included) produces a value- and
    byte-identical session.
    """
    rng = _rng(scenario.seed)
    trial_id = f"synth-{scenario.task.value}-{scenario.seed:08d}"
    duration = scenario.duration

    ee, wheelchair = (
        MotionProfile(spec.kind, spec.p0, spec.pf, duration)
        for spec in (scenario.ee_profile, scenario.wheelchair_profile)
    )

    frame_logs = {}
    for i, rate in enumerate(scenario.video_rates):
        name = _camera_name(i, len(scenario.video_rates))
        ts = _frame_log_timestamps(rng, rate, duration, scenario.timestamp_jitter_sd)
        frame_logs[name] = FrameTimestampLog(ts)

    t_num = _sample_times(duration, scenario.numeric_rate)
    ee_axes = ("x", "y", "z")[: len(ee.p0)]
    wc_axes = ("x", "y")[: len(wheelchair.p0)]
    # The disturbances are drawn from rng in this order: ee_pose, wheelchair_pose, imu.
    numeric = {
        name: TimedSeries(
            t_num, clean + _disturbance(rng, scenario, t_num, clean.shape[1]), channels
        )
        for name, clean, channels in (
            ("ee_pose", ee.position(t_num), tuple(Channel(a, "m") for a in ee_axes)),
            ("wheelchair_pose", wheelchair.position(t_num),
             tuple(Channel(a, "m") for a in wc_axes)),
            ("imu", ee.acceleration(t_num), tuple(Channel(f"a{a}", "m/s^2") for a in ee_axes)),
        )
    }

    n_audio = int(round(duration * scenario.audio_rate))
    tone = 0.3 * np.sin(2.0 * np.pi * 440.0 * np.arange(n_audio) / scenario.audio_rate)
    audio = {
        "mic": AudioTrack(
            meta=AudioMeta(sample_rate=scenario.audio_rate, bit_depth=16, channels=1),
            samples=np.round(tone * 32767).astype(np.int16),
        )
    }

    streams = [
        describe_stream(name, log, rate)
        for (name, log), rate in zip(frame_logs.items(), scenario.video_rates)
    ]
    streams += [describe_stream(name, s, scenario.numeric_rate) for name, s in numeric.items()]
    streams += [describe_stream(name, track) for name, track in audio.items()]

    manifest = SessionManifest(
        session_id=trial_id,
        participant_id="P00",
        task=scenario.task,
        success=True,
        # fixed timestamp keeps same-seed output byte-identical across runs
        created_at=datetime(2025, 1, 1, tzinfo=timezone.utc),
        streams=tuple(streams),
        notes=f"synthetic scenario seed={scenario.seed}",
    )
    session = RawSession(
        manifest=manifest,
        numeric=numeric,
        frame_logs=frame_logs,
        audio=audio,
        dialogues=(_gen_dialogue(trial_id, scenario.task, duration),),
    )
    return session, GroundTruth(ee=ee, wheelchair=wheelchair)


def gen_audio_datagrams(
    track: AudioTrack, chunk_ms: float = 20.0, seed: int = 0, loss_rate: float = 0.0
):
    """Split an audio track into sequenced UDP datagrams with seeded loss.

    Returns (surviving datagrams, set of dropped sequence numbers).
    """
    from .transport import AudioDatagram

    rng = _rng(seed)
    chunk = int(round(track.meta.sample_rate * chunk_ms / 1000.0))
    pcm = track.samples.astype("<i2").tobytes()
    chunk_bytes = chunk * 2
    datagrams = []
    lost = set()
    n_chunks = (len(pcm) + chunk_bytes - 1) // chunk_bytes
    drops = rng.uniform(size=n_chunks) < loss_rate
    for seq in range(n_chunks):
        if drops[seq]:
            lost.add(seq)
            continue
        payload = pcm[seq * chunk_bytes : (seq + 1) * chunk_bytes]
        datagrams.append(
            AudioDatagram(
                sequence=seq,
                timestamp=seq * chunk_ms / 1000.0,
                pcm=payload,
            )
        )
    return datagrams, lost
