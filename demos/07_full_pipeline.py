# The whole pipeline on a synthetic dataset, checked against ground truth:
# generate -> denoise at native rate -> sync -> metrics -> batch report.

import json
import tempfile
import warnings
from pathlib import Path

from sessionforge import Scenario, Task, gen_session, save_session
from sessionforge.cli import build_report, denoise_and_sync
from sessionforge.curation import load_manifests
from sessionforge.filters import DenoisePolicy
from sessionforge.metrics import compute_trial_metrics
from sessionforge.session import load_session
from sessionforge.synth import ProfileSpec

with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)

    # Nine noisy, jittered trials across three tasks.
    truths = {}
    for seed in range(9):
        task = [Task.FEEDING, Task.DRINKING, Task.DOOR_OPENING][seed % 3]
        scenario = Scenario(
            seed=seed,
            task=task,
            duration=3.0,
            timestamp_jitter_sd=0.005,
            noise_sd=0.01,
            ee_profile=ProfileSpec(kind="min_jerk", p0=(0, 0, 0), pf=(0.6, 0.2, 0.1)),
        )
        session, truth = gen_session(scenario)
        save_session(session, root / session.manifest.session_id)
        truths[session.manifest.session_id] = truth

    # Per-trial processing is the chain the CLI `pipeline` subcommand runs.
    trial_metrics, dialogues = [], []
    policy = DenoisePolicy.default()
    for trial_dir in sorted(root.iterdir()):
        raw = load_session(trial_dir, audio=False)
        synced = denoise_and_sync(raw, tau=None, policy=policy)
        tm = compute_trial_metrics(synced)
        trial_metrics.append(tm)
        dialogues.extend(raw.dialogues)

        truth = truths[tm.trial_id]
        expected = truth.expected_mean_jerk(truth.ee, synced.grid.timestamps)
        path_err = abs(tm.ee_path_length - truth.ee_path_length) / truth.ee_path_length
        jerk_err = abs(tm.ee_mean_jerk - expected) / expected
        print(f"{tm.trial_id}: path err {path_err:.2%}, jerk err {jerk_err:.2%}")
    manifests = load_manifests(root)

with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    report = build_report(trial_metrics, dialogues, manifests)

print()
for task, row in report["tasks"].items():
    print(f"{task:>14}: n={row['n']}, "
          f"jerk {row['ee_mean_jerk']['mean']:.3f} +/- {row['ee_mean_jerk']['sd']:.3f} m/s^3, "
          f"comfort band: {row['wheelchair_comfort_band']}")
print("curation:", report["curation"]["success_percentage"], "% successful")
print("report keys:", sorted(report))

# The report serializes deterministically — same dataset, same bytes.
a = json.dumps(report, sort_keys=True)
b = json.dumps(build_report(trial_metrics, dialogues, manifests), sort_keys=True)
assert a == b
print("report is byte-stable across rebuilds")
