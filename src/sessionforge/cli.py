"""Command-line entry point wiring the modules into one pipeline.

Subcommands: record, synth, sync, denoise, analyze, curate, dialogue,
report, pipeline. Exit codes: 0 success, 1 data error, 2 usage error.
``--errors json`` prints failures as machine-readable JSON on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from itertools import repeat
from pathlib import Path

from . import curation, dialogue as dlg, filters, metrics, session as sess, sync, synth
from .errors import MissingFile, SessionForgeError

ENV_ROOT = "SESSIONFORGE_ROOT"


def _dataset_root(args) -> Path:
    root = getattr(args, "root", None) or os.environ.get(ENV_ROOT)
    if not root:
        raise SessionForgeError("no dataset root: pass --root or set " + ENV_ROOT)
    return Path(root)


def _aggregate_to_dict(agg: metrics.TaskAggregate) -> dict:
    return {"mean": agg.mean, "sd": agg.sd, "n": agg.n_trial}


def _comfort_entry(wheelchair_mean_jerk: float) -> dict:
    """The comfort band field that ``analyze`` and the report give a mean jerk."""
    return {"wheelchair_comfort_band": metrics.comfort_check(wheelchair_mean_jerk).wheelchair_band}


# -- per-trial processing ---------------------------------------------------

def denoise_and_sync(
    raw: sess.RawSession, tau: float | None, policy: filters.DenoisePolicy
) -> sess.SyncedSession:
    """The per-trial chain: native-rate denoise -> sync -> grid-rate denoise.
    The grid-rate stage takes every stream the native stage left; a stream of
    no policy class passes through there with one warning. Each stage is
    called through its module."""
    prefiltered, done = filters.denoise_raw(raw, policy, strict=False)
    synced = sync.sync_session(prefiltered, tau=tau)
    rest = {name: series for name, series in synced.numeric.items() if name not in done}
    if rest:
        grid = filters.denoise_session(replace(synced, numeric=rest), policy, strict=False)
        synced = replace(synced, numeric={**synced.numeric, **grid.numeric})
    return synced


def process_trial(
    trial_dir: Path, tau: float | None, policy: filters.DenoisePolicy
) -> tuple[metrics.TrialMetrics, tuple[dlg.AnnotatedDialogue, ...], sess.SessionManifest]:
    """What the report needs of one trial: its metrics after
    ``denoise_and_sync``, its dialogues and its manifest, a small picklable
    value holding no arrays. No stage reads audio, so each WAV's header is
    checked and its samples are left unread."""
    raw = sess.load_session(trial_dir, audio=False)
    synced = denoise_and_sync(raw, tau, policy)
    return metrics.compute_trial_metrics(synced), raw.dialogues, raw.manifest


def build_report(
    trials: list[metrics.TrialMetrics],
    dialogues: list[dlg.AnnotatedDialogue],
    manifests: list[sess.SessionManifest],
) -> dict:
    """Consolidated report: task performance, dialogue, and curation tables."""
    by_task = metrics.aggregate_by_task(trials)
    tasks = {}
    for task, row in by_task.items():
        tasks[task] = {
            "n": row["n"],
            **{m: _aggregate_to_dict(row[m]) for m in metrics.REPORTED_METRICS},
            **_comfort_entry(row["wheelchair_mean_jerk"].mean),
        }
    report: dict = {
        "tasks": tasks,
        "trials": [t.to_json_dict() for t in sorted(trials, key=lambda t: (t.task, t.trial_id))],
        "dialogue": dlg.ambiguity_distribution(dialogues) if dialogues else None,
    }
    if manifests:
        report["curation"] = curation.dataset_stats(manifests).to_json_dict()
    return report


def _json_text(obj) -> str:
    """The CLI's JSON output: indented, keys sorted, ending in a newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# The prefix of each reported metric's mean and sd columns in the CSV report.
CSV_PREFIXES = {
    "duration": "duration",
    "ee_path_length": "path",
    "ee_mean_jerk": "ee_jerk",
    "wheelchair_mean_jerk": "wc_jerk",
}


def _report_csv(report: dict) -> str:
    def fmt(v):
        return "" if v is None else repr(v)

    stats = [(m, stat) for m in metrics.REPORTED_METRICS for stat in ("mean", "sd")]
    lines = [",".join(["task", "n"] + [f"{CSV_PREFIXES[m]}_{stat}" for m, stat in stats])]
    for task, row in sorted(report["tasks"].items()):
        lines.append(",".join([task, str(row["n"])] + [fmt(row[m][stat]) for m, stat in stats]))
    return "\n".join(lines) + "\n"


# -- subcommand handlers ----------------------------------------------------

def _cmd_synth(args) -> int:
    if args.scenario:
        scenario = synth.Scenario.from_json_file(args.scenario)
        if args.seed is not None:
            scenario = replace(scenario, seed=args.seed)
    else:
        scenario = synth.Scenario(seed=args.seed if args.seed is not None else 0)
    session, _ = synth.gen_session(scenario)
    out = Path(args.out) / session.manifest.session_id if args.as_trial else Path(args.out)
    sess.save_session(session, out)
    print(f"wrote {session.manifest.session_id} to {out}")
    return 0


def _cmd_record(args) -> int:
    from .transport import RecorderConfig, start_recording

    config = RecorderConfig(
        session_root=Path(args.out),
        tcp_port=args.tcp_port,
        udp_port=args.udp_port,
        session_id=args.session_id,
    )
    handle = start_recording(config)
    print(f"recording on tcp:{handle.tcp_port} udp:{handle.udp_port}; ", end="")
    if args.duration:
        print(f"stopping after {args.duration} s")
        time.sleep(args.duration)
    else:
        print("press Ctrl-C to stop")
        try:
            while True:
                time.sleep(0.5)
        except KeyboardInterrupt:
            pass
    session = handle.stop()
    n = sum(s.n_samples for s in session.numeric.values())
    print(f"recorded {n} frames across {len(session.numeric)} topics -> {args.out}")
    return 0


def _cmd_sync(args) -> int:
    raw = sess.load_session(args.input, audio=False)  # sync reads no audio
    synced = sync.sync_session(raw, tau=args.tau)
    sess.save_synced(synced, args.out)
    print(_json_text(synced.report()), end="")
    return 0


def _load_policy(spec: str) -> filters.DenoisePolicy:
    if spec == "default":
        return filters.DenoisePolicy.default()
    return sess.read_user_json(Path(spec), filters.DenoisePolicy.from_json_dict, "denoise policy")


def _cmd_denoise(args) -> int:
    policy = _load_policy(args.policy)
    synced = sess.load_synced(args.input)
    denoised = filters.denoise_session(synced, policy, strict=not args.lenient)
    sess.save_synced(denoised, args.out)
    print(f"denoised {len(denoised.numeric)} streams -> {args.out}")
    return 0


def _cmd_analyze(args) -> int:
    synced = sess.load_synced(args.input)
    tm = metrics.compute_trial_metrics(synced)
    payload = {**tm.to_json_dict(), **_comfort_entry(tm.wheelchair_mean_jerk)}
    text = _json_text(payload)
    if args.report:
        Path(args.report).write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def _cmd_curate(args) -> int:
    if args.curate_cmd == "survey":
        summary = curation.survey_stats(curation.load_survey_csv(args.csv))
        print(_json_text(summary.per_question), end="")
        return 0
    root = _dataset_root(args)
    if args.curate_cmd == "label":
        flags = [f for f in (args.flags or "").split(",") if f]
        manifest = curation.label_trial(root, args.trial, flags)
        print(f"{args.trial}: success={manifest.success} flags={list(manifest.violation_flags)}")
        return 0
    if args.curate_cmd == "stats":
        stats = curation.dataset_stats(curation.load_manifests(root))
        if args.format == "json":
            print(_json_text(stats.to_json_dict()), end="")
        else:
            print("task,raw,successful")
            for task, row in stats.per_task.items():
                print(f"{task},{row['raw']},{row['successful']}")
            print(f"total,{stats.total_raw},{stats.total_successful}")
            print(f"percentage,,{stats.success_percentage}")
        return 0
    trials = curation.filter_successful(root, strict=not args.lenient)
    text = "\n".join(trials) + ("\n" if trials else "")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def _collect_dialogues(root: Path) -> list[dlg.AnnotatedDialogue]:
    curation.load_manifests(root)  # refuses a dataset that repeats a session_id
    return [d for trial_dir in sess.trial_dirs(root) for d in sess.read_dialogues(trial_dir)]


def _cmd_dialogue(args) -> int:
    if args.dialogue_cmd == "annotate":
        path = Path(args.file)
        if not path.is_file():
            raise MissingFile(str(path))
        dialogues = dlg.import_jsonl(path.read_bytes())
        label = dlg.AmbiguityLabel(
            clarity=dlg.Clarity(args.clarity),
            ambiguity_type=dlg.AmbiguityType(args.type) if args.type else None,
        )
        updated = []
        found = False
        for d in dialogues:
            if d.trial_id == args.trial:
                d = dlg.annotate_utterance(d, args.turn, label)
                found = True
            updated.append(d)
        if not found:
            raise SessionForgeError(f"trial {args.trial} not found in {path}")
        path.write_bytes(dlg.export_jsonl(updated))
        print(f"labeled {args.trial} turn {args.turn}: {args.clarity}" + (f"/{args.type}" if args.type else ""))
        return 0
    if args.dialogue_cmd == "export":
        dialogues = _collect_dialogues(_dataset_root(args))
        data = dlg.export_jsonl(dialogues)
        if args.out:
            Path(args.out).write_bytes(data)
            print(f"exported {len(dialogues)} dialogues -> {args.out}")
        else:
            sys.stdout.buffer.write(data)
        return 0
    dialogues = _collect_dialogues(_dataset_root(args))
    dist = dlg.ambiguity_distribution(dialogues)
    if args.by == "type":
        print(_json_text(dist["type_shares"]), end="")
    else:
        print(_json_text({"matrix": dist["matrix"], "utterances": dist["utterances"]}), end="")
    return 0


def _cmd_pipeline(args) -> int:
    """Run the batch pipeline; ``pipeline`` writes the report to ``--report``,
    ``report`` prints it."""
    root = _dataset_root(args)
    policy = _load_policy(args.policy)
    trial_dirs = sess.trial_dirs(root)
    if not trial_dirs:
        raise SessionForgeError(f"no trials under {root}")

    work = (process_trial, trial_dirs, repeat(args.tau), repeat(policy))
    if args.jobs > 1:  # threads: GIL-bound, no faster than one job
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(*work))
    else:
        results = list(map(*work))
    trials, dialogues, manifests = zip(*results)
    report = build_report(list(trials), [d for ds in dialogues for d in ds], list(manifests))
    text = _report_csv(report) if args.format == "csv" else _json_text(report)
    if args.cmd == "report":
        print(text, end="")
        return 0
    out = Path(args.report)
    out.write_text(text, encoding="utf-8")
    print(f"report -> {out}")
    return 0


# -- argument parsing -------------------------------------------------------

def _option(parse, ok, rule: str):
    """An option type: ``parse`` of the text, a usage error unless ``ok`` of it."""

    def checked(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = math.nan
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    return checked


# --tau, a match tolerance in seconds; record --duration; a --jobs worker count
_tau = _option(float, lambda x: math.isfinite(x) and x >= 0, "finite and >= 0")
_duration = _option(float, lambda x: math.isfinite(x) and x > 0, "finite and > 0")
_jobs = _option(int, lambda n: n >= 1, "an integer >= 1")


def _seed(text: str) -> int:
    """``--seed``: a scenario seed, under the scenario's own rule."""
    try:
        return synth.Scenario(seed=int(text)).seed
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sessionforge",
        description="Record, synchronize, denoise, and analyze multimodal teleoperation sessions.",
    )
    parser.add_argument("--errors", choices=["text", "json"], default="text")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("synth", help="generate a synthetic session")
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--scenario", help="scenario JSON file")
    p.add_argument("--out", required=True)
    p.add_argument("--as-trial", action="store_true", help="write under <out>/<session_id>")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("record", help="record live TCP/UDP streams")
    p.add_argument("--tcp-port", type=int, default=0)
    p.add_argument("--udp-port", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--session-id", default="recording")
    p.add_argument("--duration", type=_duration, default=None, help="stop after N seconds")
    p.set_defaults(func=_cmd_record)

    p = sub.add_parser("sync", help="align a raw session onto the reference grid")
    p.add_argument("--tau", type=_tau, default=None, help="match tolerance, seconds")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sync)

    p = sub.add_parser("denoise", help="zero-phase filter a synced session")
    p.add_argument("--policy", default="default", help="'default' or a policy JSON file")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lenient", action="store_true")
    p.set_defaults(func=_cmd_denoise)

    p = sub.add_parser("analyze", help="trial metrics from a synced session")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--report", help="write metrics JSON here")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("curate", help="trial labeling and dataset statistics")
    csub = p.add_subparsers(dest="curate_cmd", required=True)
    c = csub.add_parser("label")
    c.add_argument("trial")
    c.add_argument("--flags", default="", help="comma-separated violation kinds")
    c.add_argument("--root")
    c = csub.add_parser("stats")
    c.add_argument("--format", choices=["json", "csv"], default="json")
    c.add_argument("--root")
    c = csub.add_parser("filter")
    c.add_argument("--out")
    c.add_argument("--root")
    c.add_argument("--lenient", action="store_true")
    c = csub.add_parser("survey")
    c.add_argument("csv", help="CSV with question_id,participant_id,rating")
    p.set_defaults(func=_cmd_curate)

    p = sub.add_parser("dialogue", help="dialogue annotation and statistics")
    dsub = p.add_subparsers(dest="dialogue_cmd", required=True)
    d = dsub.add_parser("annotate")
    d.add_argument("--file", required=True)
    d.add_argument("--trial", required=True)
    d.add_argument("--turn", type=int, required=True)
    d.add_argument("--clarity", choices=[c.value for c in dlg.Clarity], required=True)
    d.add_argument("--type", choices=[t.value for t in dlg.AmbiguityType])
    d = dsub.add_parser("export")
    d.add_argument("--root")
    d.add_argument("--out")
    d = dsub.add_parser("stats")
    d.add_argument("--by", choices=["task", "type"], default="task")
    d.add_argument("--root")
    p.set_defaults(func=_cmd_dialogue)

    for name in ("pipeline", "report"):
        p = sub.add_parser(name, help="run the full batch pipeline over a dataset")
        p.add_argument("--root")
        p.add_argument("--tau", type=_tau, default=None)
        p.add_argument("--policy", default="default")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--jobs", type=_jobs, default=1)
        if name == "pipeline":
            p.add_argument("--report", default="report.json")
        p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SessionForgeError as exc:
        if args.errors == "json":
            print(json.dumps(exc.to_json_dict()), file=sys.stderr)
        else:
            print(f"error [{exc.module}/{exc.code}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
