"""The benchmark's workloads: inputs, one measured pass, and output checks.

Every workload is a closed loop with one caller: the next pass starts when
the previous one has returned. A pass returns its timings and how many of
its operations were attempted and failed the output checks. Given a tracer,
a pass also records spans around the public calls of each sessionforge
module and counts at the same boundaries.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import shutil
import statistics
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sessionforge import (
    cli,
    curation,
    dialogue,
    filters,
    metrics,
    session as sess,
    sync,
    synth,
    transport,
)
from sessionforge.session import Channel, Task

from . import frames as fr
from .tracing import Tracer, layer_self_times, patched, self_times

BENCH_DIR = Path(__file__).resolve().parents[1]

# The reference dataset: 16 trials of 60 s with 100 Hz numeric streams.
N_TRIALS = 16
TRIAL_SECONDS = 60.0
NOISE_SD = 0.01
JITTER_SD = 0.002
PATH_TOLERANCE = 0.02  # as in the end-to-end recovery acceptance test

# 3 topics x 5k steps = 15k frames and 250 audio datagrams per recording.
RECORD_STEPS = 5_000
RECORD_TIMEOUT_S = 60.0
POLL_S = 0.002


@dataclass
class Pass:
    wall_s: float
    attempted: int
    failed: int
    trial_s: dict[str, float]  # trial id -> latency; a recording is one trial
    stop_s: float  # last unit of work done -> outputs written and call returned
    frames: int  # numeric frames taken in
    ingest_s: float  # time those frames took to come in
    jobs: int = 1
    tracer: Tracer | None = None
    layer: dict = field(default_factory=dict)  # per-layer figures measured directly


def scenarios(seed: int) -> list[synth.Scenario]:
    tasks = list(Task)
    return [
        synth.Scenario(
            seed=seed * N_TRIALS + i,
            task=tasks[i % len(tasks)],
            duration=TRIAL_SECONDS,
            noise_sd=NOISE_SD,
            timestamp_jitter_sd=JITTER_SD,
        )
        for i in range(N_TRIALS)
    ]


def generate(seed: int) -> list[tuple[sess.RawSession, synth.GroundTruth]]:
    """Sessions and ground truth, in the order the CLI visits trial dirs."""
    pairs = [synth.gen_session(sc) for sc in scenarios(seed)]
    return sorted(pairs, key=lambda p: p[0].manifest.session_id)


def numeric_rows(raw: sess.RawSession) -> int:
    return sum(s.n_samples for s in raw.numeric.values())


def report_text(report: dict) -> str:
    """The pipeline's JSON report encoding."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def path_failures(text: str, truth: dict[str, float]) -> int:
    """Trials whose ee_path_length misses the ground truth by over 2 %."""
    got = {t["trial_id"]: t["ee_path_length"] for t in json.loads(text)["trials"]}
    return sum(
        1
        for trial_id, want in truth.items()
        if trial_id not in got or not abs(got[trial_id] - want) <= PATH_TOLERANCE * abs(want)
    )


def library_trial(raw: sess.RawSession, policy: filters.DenoisePolicy) -> metrics.TrialMetrics:
    """The README library path, with grid-rate denoising of what is left."""
    clean, done = filters.denoise_raw(raw, policy, strict=False)
    synced = sync.sync_session(clean)
    rest = {name: s for name, s in synced.numeric.items() if name not in done}
    if rest:
        grid = filters.denoise_session(dataclasses.replace(synced, numeric=rest), policy, strict=False)
        synced = dataclasses.replace(synced, numeric={**synced.numeric, **grid.numeric})
    return metrics.compute_trial_metrics(synced)


def inmem_report(sessions, tracer: Tracer | None = None):
    """One in-memory sweep: (report text, per-trial latencies, report time)."""
    policy = filters.DenoisePolicy.default()
    latencies, trials = {}, []
    for raw in sessions:
        t0 = time.monotonic()
        trials.append(library_trial(raw, policy))
        latencies[raw.manifest.session_id] = time.monotonic() - t0
    t0 = time.monotonic()
    with _span(tracer, "cli.report"):
        text = report_text(
            cli.build_report(
                trials,
                [d for raw in sessions for d in raw.dialogues],
                [raw.manifest for raw in sessions],
            )
        )
    return text, latencies, time.monotonic() - t0


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _span(tracer: Tracer | None, name: str, trial: str | None = None):
    return tracer.span(name, trial) if tracer is not None else contextlib.nullcontext()


def _session_id(x, *args) -> str:
    return x.manifest.session_id


def layer_patches(tracer: Tracer, bytes_by_trial: dict[str, int]):
    """Replacements that trace every public call the pipeline makes."""

    def after_load(raw, root_path, *args):
        tracer.count("session.bytes_read", bytes_by_trial.get(Path(root_path).name, 0))
        tracer.count(
            "session.csv_rows",
            numeric_rows(raw) + sum(len(f.frame_timestamps) for f in raw.frame_logs.values()),
        )

    def after_denoise_raw(result, raw, *args, **kwargs):
        _, done = result
        classified = [n for n in raw.numeric if filters.classify_stream(n) is not None]
        tracer.count("filters.classified_streams", len(classified))
        tracer.count("filters.native_streams", len(done))
        tracer.count("filters.samples_filtered", sum(raw.numeric[n].values.size for n in done))

    def after_denoise_grid(result, synced, *args, **kwargs):
        tracer.count(
            "filters.samples_filtered",
            sum(s.values.size for n, s in synced.numeric.items() if filters.classify_stream(n) is not None),
        )

    def after_sync(synced, *args, **kwargs):
        tracer.count("sync.grid_points", synced.grid.k)
        for sel in synced.frame_selections.values():
            tracer.count("sync.frames_accepted", int(np.count_nonzero(sel.accepted_flags)))
            tracer.count("sync.frames_matched", len(sel.accepted_flags))

    def wrap(mod, attr, name, **kw):
        return (mod, attr, tracer.wrap(getattr(mod, attr), name, **kw))

    return [
        wrap(sess, "load_session", "session.load_session",
             trial_of=lambda p, *a: Path(p).name, after=after_load),
        wrap(filters, "denoise_raw", "filters.denoise_raw",
             trial_of=_session_id, after=after_denoise_raw),
        wrap(sync, "sync_session", "sync.sync_session", trial_of=_session_id, after=after_sync),
        wrap(filters, "denoise_session", "filters.denoise_session",
             trial_of=_session_id, after=after_denoise_grid),
        wrap(metrics, "compute_trial_metrics", "metrics.compute_trial_metrics", trial_of=_session_id),
        wrap(cli, "process_trial", "cli.process_trial", trial_of=lambda d, *a: Path(d).name),
        wrap(cli, "build_report", "cli.build_report"),
        wrap(curation, "dataset_stats", "curation.dataset_stats"),
        wrap(dialogue, "ambiguity_distribution", "dialogue.ambiguity_distribution"),
    ]


class Workload:
    """Defaults shared by the workloads."""

    trials_per_pass = N_TRIALS
    jobs = 1
    reference: str | None = None

    def after_setup(self) -> None:
        """Runs once after the timed set-ups."""

    def prepare_trace(self) -> None:
        """Extra inputs that only a traced run needs, built outside set-up."""

    def check_report(self, text: str) -> int:
        """Failed trials: all of them if the report bytes differ from the
        first pass, else those whose path length misses the ground truth."""
        if self.reference is None:
            self.reference = text
        if text != self.reference:
            return N_TRIALS
        return path_failures(text, self.truth)

    def cross_check(self) -> tuple[int, int]:
        """(attempted, failed) of checks made once after measuring."""
        return 0, 0

    def trace_plan(self) -> list[dict]:
        return [{"traced": False}, {"traced": True}]

    def close(self) -> None:
        pass


# -- batch-style workloads ----------------------------------------------------

class Batch(Workload):
    """``pipeline`` over the on-disk dataset with ``jobs`` workers."""

    def __init__(self, work: Path, seed: int, jobs: int):
        self.work, self.seed, self.jobs = work, seed, jobs
        self.root: Path | None = None

    def setup(self, k: int) -> None:
        pairs = generate(self.seed)
        root = self.work / f"data{k}"
        for raw, _ in pairs:
            sess.save_session(raw, root / raw.manifest.session_id)
        self.root = root
        self.truth = {raw.manifest.session_id: gt.ee_path_length for raw, gt in pairs}
        self.rows = sum(numeric_rows(raw) for raw, _ in pairs)

    def after_setup(self) -> None:
        for old in self.work.glob("data*"):
            if old != self.root:
                shutil.rmtree(old)
        self.bytes_by_trial = {d.name: dir_bytes(d) for d in self.root.iterdir()}

    def run_pass(self, tracer: Tracer | None = None, jobs: int | None = None) -> Pass:
        jobs = jobs or self.jobs
        out = self.work / "report.json"
        argv = ["pipeline", "--root", str(self.root), "--report", str(out), "--jobs", str(jobs)]
        intervals: list[tuple[str, float, float]] = []
        if tracer is not None:
            replacements = layer_patches(tracer, self.bytes_by_trial)
        else:
            process_trial = cli.process_trial

            def timed(*args, **kwargs):
                t0 = time.monotonic()
                try:
                    return process_trial(*args, **kwargs)
                finally:
                    intervals.append((Path(args[0]).name, t0, time.monotonic()))

            replacements = [(cli, "process_trial", timed)]
        with patched(replacements), contextlib.redirect_stdout(io.StringIO()):
            t0 = time.monotonic()
            with _span(tracer, "cli.main"):
                rc = cli.main(argv)
            t1 = time.monotonic()
        if tracer is not None:
            intervals = [(s.trial, s.start, s.end) for s in tracer.spans if s.name == "cli.process_trial"]
        failed = N_TRIALS if rc != 0 else self.check_report(out.read_text(encoding="utf-8"))
        return Pass(
            wall_s=t1 - t0,
            attempted=N_TRIALS,
            failed=failed,
            trial_s={trial: e - s for trial, s, e in intervals},
            stop_s=t1 - max((e for _, _, e in intervals), default=t0),
            frames=self.rows,
            ingest_s=t1 - t0,
            jobs=jobs,
            tracer=tracer,
        )

    def cross_check(self) -> tuple[int, int]:
        """The in-memory path must give the same report bytes as the disk path."""
        text, _, _ = inmem_report([raw for raw, _ in generate(self.seed)])
        return N_TRIALS, 0 if text == self.reference else N_TRIALS

    def trace_plan(self) -> list[dict]:
        # traced one-worker passes give the base of cli.trial_inflation
        plan = super().trace_plan()
        if self.jobs > 1:
            plan.append({"traced": True, "jobs": 1})
        return plan


class InMemory(Workload):
    """The library path over sessions held in memory: no disk I/O."""

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed

    def setup(self, k: int) -> None:
        self.sessions = None
        pairs = generate(self.seed)
        self.sessions = [raw for raw, _ in pairs]
        self.truth = {raw.manifest.session_id: gt.ee_path_length for raw, gt in pairs}
        self.rows = sum(numeric_rows(raw) for raw in self.sessions)

    def run_pass(self, tracer: Tracer | None = None) -> Pass:
        replacements = layer_patches(tracer, {}) if tracer is not None else []
        with patched(replacements):
            t0 = time.monotonic()
            text, latencies, report_s = inmem_report(self.sessions, tracer)
            t1 = time.monotonic()
        return Pass(
            wall_s=t1 - t0,
            attempted=N_TRIALS,
            failed=self.check_report(text),
            trial_s=latencies,
            stop_s=report_s,
            frames=self.rows,
            ingest_s=t1 - t0,
            tracer=tracer,
        )


# -- live recording ---------------------------------------------------------

STREAM_MAP = {
    topic: (fr.TOPIC_RATE, tuple(Channel(ch, "1") for ch in channels))
    for topic, channels in fr.TOPICS
}


def split_frames(buf: bytes) -> list[bytes]:
    """Cut a run of length-prefixed TCP frames into one bytes per frame."""
    out, off = [], 0
    while off < len(buf):
        end = off + 4 + struct.unpack_from(">I", buf, off)[0]
        out.append(buf[off:end])
        off = end
    return out


def row_mismatches(got: sess.TimedSeries | None, timestamps, values) -> int:
    """Rows of a recorded topic that differ in any bit from what was sent."""
    if got is None:
        return len(timestamps)
    m = min(got.n_samples, len(timestamps))
    if got.values.shape[1:] != values.shape[1:]:
        return len(timestamps)
    bits = lambda a: np.ascontiguousarray(a[:m]).view(np.uint64)  # noqa: E731
    bad = bits(got.timestamps) != bits(timestamps)
    bad |= (bits(got.values) != bits(values)).any(axis=1)
    return int(np.count_nonzero(bad)) + abs(got.n_samples - len(timestamps))


def chunk_mismatches(got: np.ndarray, pcm: np.ndarray) -> int:
    """Datagram-sized PCM chunks that differ from what was sent."""
    n = len(pcm) // fr.CHUNK_SAMPLES
    bad = 0
    for i in range(n):
        lo, hi = i * fr.CHUNK_SAMPLES, (i + 1) * fr.CHUNK_SAMPLES
        if hi > len(got) or not np.array_equal(got[lo:hi], pcm[lo:hi]):
            bad += 1
    return bad + (len(got) > len(pcm))


class Record(Workload):
    """One sender process, one TCP connection and one UDP socket per recording."""

    trials_per_pass = 1

    def __init__(self, work: Path, seed: int, src: Path):
        self.work, self.seed, self.src = work, seed, src
        self.sender: subprocess.Popen | None = None
        self._ids = itertools.count()
        self.encoded: list[bytes] = []

    def setup(self, k: int) -> None:
        self.close()
        self.sender = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "sender.py"), "--src", str(self.src),
             "--seed", str(self.seed), "--steps", str(RECORD_STEPS)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        ready = self.sender.stdout.readline().split()
        self.stream = fr.make_stream(self.seed, RECORD_STEPS)
        if ready != ["ready", str(self.stream.n_frames), str(self.stream.n_datagrams)]:
            raise RuntimeError(f"sender did not start: {ready}")

    def prepare_trace(self) -> None:
        """Frames encoded beforehand for the decode-rate figure."""
        self.encoded = [f for tcp, _ in fr.encode_stream(self.stream) for f in split_frames(tcp)]

    def _command(self, line: str) -> None:
        self.sender.stdin.write(line + "\n")
        self.sender.stdin.flush()

    def run_pass(self, tracer: Tracer | None = None) -> Pass:
        stream = self.stream
        trial = f"recording-{next(self._ids)}"
        rec = self.work / trial
        config = transport.RecorderConfig(
            session_root=rec,
            session_id=trial,
            stream_map=STREAM_MAP,
            audio_stream="mic",
            audio_rate=fr.AUDIO_RATE,
        )
        with _span(tracer, "transport.start_recording", trial):
            handle = transport.start_recording(config)
        self._command(f"go {handle.tcp_port} {handle.udp_port}")
        deadline = time.monotonic() + RECORD_TIMEOUT_S
        while handle.frames_received < stream.n_frames and time.monotonic() < deadline:
            time.sleep(POLL_S)
        t_rx = time.monotonic()
        sent = json.loads(self.sender.stdout.readline())
        # The recorder drops datagrams still queued in its socket when stop()
        # is called, and it has no public datagram counter, so wait on its
        # list until every datagram sent has been taken in.
        while len(handle._datagrams) < stream.n_datagrams and time.monotonic() < deadline:
            time.sleep(POLL_S)
        t_stop = time.monotonic()
        with _span(tracer, "transport.stop", trial):
            recorded = handle.stop()
        t_end = time.monotonic()

        missing = handle.gap_report.total_missing if handle.gap_report else stream.n_datagrams
        layer = {
            "transport.rx_s": t_rx - sent["t_first"],
            "transport.drain_s": t_rx - sent["t_end"],
            "transport.malformed_frames": handle.malformed_frames,
            "transport.audio_missing": missing,
        }
        failed = handle.malformed_frames + self.check(rec, missing)
        if tracer is not None:
            tracer.add_span("transport.rx", sent["t_first"], t_rx, trial)
            extras, decode_failed = self._traced_extras(tracer, recorded, rec, trial)
            layer.update(extras)
            layer["transport.shutdown_s"] = (t_end - t_stop) - layer["session.save_s"]
            failed += decode_failed
        shutil.rmtree(rec)
        return Pass(
            wall_s=t_end - sent["t_first"],
            attempted=stream.n_frames + stream.n_datagrams,
            failed=failed,
            trial_s={"recording": t_end - sent["t_first"]},
            stop_s=t_end - t_stop,
            frames=stream.n_frames,
            ingest_s=t_rx - sent["t_first"],
            tracer=tracer,
            layer=layer,
        )

    def _traced_extras(self, tracer: Tracer, recorded, rec: Path, trial: str) -> tuple[dict, int]:
        """Save time of the returned session and the decode rate of the
        frames sent; also the number of frames the decoder got wrong."""
        resave = rec / "resave"
        with _span(tracer, "session.save_session", trial) as sp:
            sess.save_session(recorded, resave)
        save_s = sp.duration
        decoded = []
        with _span(tracer, "transport.frame_decode", trial) as sp:
            for buf in self.encoded:
                decoded.append(transport.frame_decode(buf)[0])
        st = self.stream
        want = [
            (topic, float(st.timestamps[k]), tuple(st.values[topic][k].tolist()))
            for k in range(st.steps)
            for topic, _ in fr.TOPICS
        ]
        wrong = sum(1 for f, w in zip(decoded, want) if (f.topic, f.timestamp, f.values) != w)
        figures = {
            "session.save_s": save_s,
            "session.bytes_written": dir_bytes(resave),
            "transport.decode_frames_per_s": len(decoded) / sp.duration,
        }
        return figures, wrong + abs(len(decoded) - len(want))

    def check(self, rec: Path, missing: int) -> int:
        """Frames and datagrams that did not come back bit for bit."""
        stream = self.stream
        reloaded = sess.load_session(rec)
        bad = sum(
            row_mismatches(reloaded.numeric.get(topic), stream.timestamps, stream.values[topic])
            for topic, _ in fr.TOPICS
        )
        audio = reloaded.audio.get("mic")
        got = audio.samples if audio is not None else np.empty(0, np.int16)
        return bad + max(chunk_mismatches(got, stream.pcm), missing)

    def close(self) -> None:
        if self.sender is not None:
            with contextlib.suppress(BrokenPipeError):
                self._command("quit")
            self.sender.stdin.close()
            self.sender.wait(timeout=30)
            self.sender.stdout.close()
            self.sender = None


# -- figures ----------------------------------------------------------------

def layer_figures(p: Pass) -> dict[str, float]:
    """Per-layer figures of one traced pass, from its spans and counts."""
    tr = p.tracer
    spans = tr.spans
    selfs = self_times(spans)
    named = lambda name: [s for s in spans if s.name == name]  # noqa: E731

    def self_sum(name):
        return sum(selfs[s.id] for s in named(name))

    c = tr.counts
    load_total = sum(s.duration for s in named("session.load_session"))
    trials = named("cli.process_trial")
    out = {
        "session.load_s": self_sum("session.load_session"),
        "session.bytes_read": c["session.bytes_read"],
        "session.csv_rows": c["session.csv_rows"],
        "session.load_mb_per_s": c["session.bytes_read"] / 1e6 / load_total if load_total else 0.0,
        "filters.denoise_raw_s": self_sum("filters.denoise_raw"),
        "filters.denoise_grid_s": self_sum("filters.denoise_session"),
        "filters.samples_filtered": c["filters.samples_filtered"],
        "filters.native_share": (
            c["filters.native_streams"] / c["filters.classified_streams"]
            if c["filters.classified_streams"] else 0.0
        ),
        "sync.sync_s": self_sum("sync.sync_session"),
        "sync.grid_points": c["sync.grid_points"],
        "sync.acceptance_rate": (
            c["sync.frames_accepted"] / c["sync.frames_matched"] if c["sync.frames_matched"] else 0.0
        ),
        "metrics.metrics_s": self_sum("metrics.compute_trial_metrics"),
        "_load_total_s": load_total,
    }
    reports = named("cli.report")
    mains, builds = named("cli.main"), named("cli.build_report")
    if reports:
        out["cli.report_s"] = sum(s.duration for s in reports)
    elif mains and builds:
        out["cli.report_s"] = mains[0].end - builds[0].start
    if trials:
        busy = sum(s.duration for s in trials)
        span = max(s.end for s in trials) - min(s.start for s in trials)
        out["cli.trial_s"] = statistics.median(s.duration for s in trials)
        out["cli.worker_busy_share"] = busy / (p.jobs * span)
        out["_busy_s"], out["_pool_s"] = busy, span
    for layer, value in layer_self_times(spans).items():
        out[f"{layer}.self_s"] = value
    out.update(p.layer)
    return out
