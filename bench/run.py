"""sessionforge benchmark: one workload, measured for a fixed time.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: batch, inmem and record, as listed in BENCHMARK.json, and
batch_par (the batch command with one worker per core), which is left out of
BENCHMARK.json to keep the whole set of runs within its time budget. The
seed picks the generated inputs; the program under test only sees those
inputs.

The run sets up its inputs several times and reports the median set-up time,
then measures passes in a closed loop for ``--seconds`` in a forked process,
so that the peak memory it reports belongs to the measured phase alone.
Every pass checks its outputs. With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes and
prints the per-layer metrics, including the tracing overhead, and writes the
spans to ``.bench_out/``. Human-readable lines come first; the last line is
one JSON object. The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUPS = 3
MIN_PASSES = 3
WORKLOADS = ("batch", "batch_par", "inmem", "record")
TIMING_UNITS = ("s", "ms")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def make_workload(name: str, work: Path, seed: int):
    from sfbench import workloads as wl

    if name == "batch":
        return wl.Batch(work, seed, jobs=1)
    if name == "batch_par":
        return wl.Batch(work, seed, jobs=len(os.sched_getaffinity(0)))
    if name == "inmem":
        return wl.InMemory(work, seed)
    return wl.Record(work, seed, SRC)


def release_free_heap() -> None:
    """Hand freed heap pages back to the OS, so that memory set-up left
    behind does not count toward the measured phase's peak."""
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def in_child(fn):
    """Run ``fn`` in a forked process and return its JSON-able result."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        status = 0
        try:
            data = json.dumps(fn())
        except BaseException:
            data = json.dumps({"error": traceback.format_exc()})
            status = 1
        with os.fdopen(wfd, "w") as f:
            f.write(data)
        os._exit(status)
    os.close(wfd)
    with os.fdopen(rfd) as f:
        data = f.read()
    os.waitpid(pid, 0)
    if not data:
        raise RuntimeError("measurement process ended without a result")
    result = json.loads(data)
    if "error" in result:
        raise RuntimeError("measurement failed:\n" + result["error"])
    return result


def describe(name, values, unit):
    from sfbench.stats import summarize

    return f"{name}: " + summarize(values).describe(unit)


def end_to_end(w, passes, setup_s, peak_mb, lines):
    """End-to-end metrics of the untraced passes.

    Each timing is taken from the run's fastest pass, and the per-trial
    latency percentiles are over each trial's fastest repeat: on a shared
    machine a run's median moves with other tenants' load far more than its
    fastest pass does. The median and tail over all passes are printed
    alongside.
    """
    from sfbench.stats import percentile

    walls = [p.wall_s for p in passes]
    stops = [p.stop_s for p in passes]
    ingest = [p.frames / p.ingest_s for p in passes]
    best_trial: dict[str, float] = {}
    for p in passes:
        for trial, t in p.trial_s.items():
            best_trial[trial] = min(t, best_trial.get(trial, t))
    trial_ms = [t * 1000 for t in best_trial.values()]
    all_trial_ms = [t * 1000 for p in passes for t in p.trial_s.values()]
    lines += [
        describe("setup_s (median reported)", setup_s, "s"),
        f"wall_s: fastest pass {min(walls):.6g} s; " + describe("all passes", walls, "s"),
        f"trials_per_s: {w.trials_per_pass} trials per pass over the fastest pass",
        f"ingest_frames_per_s: {passes[0].frames} frames per pass over the fastest ingest; "
        + describe("all passes", ingest, "1/s"),
        f"trial_ms_p50/p90: over {len(trial_ms)} trials, each its fastest of "
        f"{len(passes)} passes; " + describe("all trial runs", all_trial_ms, "ms"),
        f"stop_s: fastest pass {min(stops):.6g} s; " + describe("all passes", stops, "s"),
    ]
    return {
        "setup_s": statistics.median(setup_s),
        "wall_s": min(walls),
        "trials_per_s": w.trials_per_pass / min(walls),
        "ingest_frames_per_s": max(ingest),
        "trial_ms_p50": percentile(trial_ms, 50),
        "trial_ms_p90": percentile(trial_ms, 90),
        "stop_s": min(stops),
        "peak_rss_mb": peak_mb,
    }


def per_layer(w, runs, names, units, lines):
    from sfbench.workloads import layer_figures

    untraced, traced = runs[0], runs[1]
    single = runs[2] if len(runs) > 2 else traced
    figs = [layer_figures(p) for p in traced]
    out = {}
    for name in names:
        values = [f.get(name, 0.0) for f in figs]
        out[name] = statistics.median(values)
        if units[name] in TIMING_UNITS and any(values):
            lines.append(describe(name, values, units[name]))

    def trial_median(passes):
        spans = [s.duration for p in passes for s in p.tracer.spans if s.name == "cli.process_trial"]
        return statistics.median(spans) if spans else 0.0

    trial_n, trial_1 = trial_median(traced), trial_median(single)
    out["cli.trial_inflation"] = trial_n / trial_1 if trial_1 else 0.0
    wall_traced = statistics.median(p.wall_s for p in traced)
    wall_untraced = statistics.median(p.wall_s for p in untraced)
    out["trace.overhead_s"] = wall_traced - wall_untraced

    c = {k: sum(p.tracer.counts[k] for p in traced) for k in (
        "filters.native_streams", "filters.classified_streams",
        "sync.frames_accepted", "sync.frames_matched")}
    base = {k: statistics.median(f.get(k, 0.0) for f in figs) for k in ("_load_total_s", "_busy_s", "_pool_s")}
    if trial_n:
        lines += [
            f"cli.trial_inflation: median trial span {trial_n:.6g} s with "
            f"{traced[0].jobs} worker(s) over {trial_1:.6g} s with {single[0].jobs}",
            f"cli.worker_busy_share: {base['_busy_s']:.6g} s in trials over {traced[0].jobs} "
            f"worker(s) x {base['_pool_s']:.6g} s from first trial start to last trial end, per pass",
        ]
    if c["filters.classified_streams"]:
        lines.append(f"filters.native_share: {c['filters.native_streams']:g} streams filtered at "
                     f"native rate of {c['filters.classified_streams']:g} classified")
    if c["sync.frames_matched"]:
        lines.append(f"sync.acceptance_rate: {c['sync.frames_accepted']:g} frames accepted "
                     f"of {c['sync.frames_matched']:g} grid matches")
    if out["session.bytes_read"]:
        lines.append(f"session.load_mb_per_s: {out['session.bytes_read'] / 1e6:.6g} MB read over "
                     f"{base['_load_total_s']:.6g} s in load_session, per pass")
    if out["transport.decode_frames_per_s"]:
        lines.append(f"transport.decode_frames_per_s: {len(w.encoded)} frames over the "
                     "frame_decode span, median of passes")
    lines.append(f"trace.overhead_s: traced wall_s {wall_traced:.6g} s - untraced wall_s "
                 f"{wall_untraced:.6g} s, {len(traced)} and {len(untraced)} passes")
    selfs = {k: v for k, v in out.items() if k.endswith(".self_s") and v}
    if selfs:
        top = max(selfs, key=selfs.get)
        lines.append(f"largest layer self time: {top} {selfs[top]:.6g} s per pass")
    return out


def write_spans(path: Path, traced) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as f:
        for i, p in enumerate(traced):
            for sp in sorted(p.tracer.spans, key=lambda s: s.start):
                f.write(json.dumps({"pass": i, "id": sp.id, "name": sp.name, "start": sp.start,
                                    "end": sp.end, "parent": sp.parent, "trial": sp.trial}) + "\n")


def measure(w, args, setup_s, spec):
    from sfbench.tracing import Tracer

    warmup = w.run_pass()
    attempted, failed = warmup.attempted, warmup.failed
    lines = []
    t_end = time.monotonic() + args.seconds
    if not args.trace:
        passes = []
        while len(passes) < MIN_PASSES or time.monotonic() < t_end:
            gc.collect()
            passes.append(w.run_pass())
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        all_passes = passes
        catalogue = spec["end_to_end"]
    else:
        plan = w.trace_plan()
        runs = [[] for _ in plan]
        i = 0
        while min(len(r) for r in runs) < MIN_PASSES or time.monotonic() < t_end:
            step = plan[i % len(plan)]
            tracer = Tracer() if step["traced"] else None
            kwargs = {"jobs": step["jobs"]} if "jobs" in step else {}
            gc.collect()
            runs[i % len(plan)].append(w.run_pass(tracer, **kwargs))
            i += 1
        all_passes = [p for r in runs for p in r]
        catalogue = spec["per_layer"]
    attempted += sum(p.attempted for p in all_passes)
    failed += sum(p.failed for p in all_passes)
    cross_attempted, cross_failed = w.cross_check()
    attempted += cross_attempted
    failed += cross_failed

    units = {m["name"]: m["unit"] for m in catalogue}
    if args.trace:
        values = per_layer(w, runs, list(units), units, lines)
        out = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(out, runs[1])
        lines.append(f"spans: {sum(len(p.tracer.spans) for p in runs[1])} written to {out.relative_to(ROOT)}")
    else:
        values = end_to_end(w, passes, setup_s, peak_mb, lines)
    if set(values) != set(units):
        raise RuntimeError(f"metrics computed {sorted(values)} differ from BENCHMARK.json {sorted(units)}")
    lines.append(f"fail_ratio: {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    return {
        "lines": lines,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sessionforge" / "__init__.py").is_file():
        print(f"error: sessionforge sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    w = make_workload(args.workload, work, args.seed)
    try:
        setup_s = []
        for k in range(SETUPS):
            gc.collect()
            t0 = time.monotonic()
            w.setup(k)
            setup_s.append(time.monotonic() - t0)
        w.after_setup()
        if args.trace:
            w.prepare_trace()
        gc.collect()
        release_free_heap()
        result = in_child(lambda: measure(w, args, setup_s, spec))
    finally:
        w.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for line in result["lines"]:
        print(line)
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
