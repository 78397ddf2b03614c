# Curate a small dataset (success labels, statistics, survey) and work with
# the dialogue annotation layer.

import tempfile
from pathlib import Path

from sessionforge import Scenario, Task, gen_session, save_session
from sessionforge.curation import (
    dataset_stats,
    filter_successful,
    label_trial,
    load_manifests,
    survey_stats,
)
from sessionforge.dialogue import (
    AmbiguityLabel,
    AmbiguityType,
    Clarity,
    ambiguity_distribution,
    annotate_utterance,
    export_jsonl,
    import_jsonl,
)

with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)

    # Six trials across three tasks; two of them go wrong.
    trials = []
    for seed, task in enumerate([Task.FEEDING, Task.FEEDING, Task.DRINKING,
                                 Task.DRINKING, Task.CLEANING, Task.CLEANING]):
        session, _ = gen_session(Scenario(seed=seed, task=task, duration=1.0))
        save_session(session, root / session.manifest.session_id)
        trials.append(session.manifest.session_id)

    # Success is exactly "no violation flags"; unknown kinds survive as other:<..>.
    for trial_id in trials:
        label_trial(root, trial_id, [])
    label_trial(root, trials[1], ["object_drop"])
    label_trial(root, trials[4], ["spilled the detergent"])

    stats = dataset_stats(load_manifests(root))
    print("per task:", stats.per_task)
    print(f"success: {stats.total_successful}/{stats.total_raw}"
          f" = {stats.success_percentage}% (half-up, 2 decimals)")
    print("curated subset:", filter_successful(root))

    # Dialogue: load a trial's transcript, re-label a turn, round trip JSONL.
    path = root / trials[0] / "dialogue.jsonl"
    (dialogue,) = import_jsonl(path.read_bytes())
    dialogue = annotate_utterance(
        dialogue, 2, AmbiguityLabel(Clarity.AMBIGUOUS, AmbiguityType.SPATIAL)
    )
    path.write_bytes(export_jsonl([dialogue]))
    assert import_jsonl(path.read_bytes()) == [dialogue]
    print("relabeled turn 2 of", trials[0], "and round tripped the JSONL")

    dialogues = []
    for trial_id in trials:
        dialogues.extend(import_jsonl((root / trial_id / "dialogue.jsonl").read_bytes()))
dist = ambiguity_distribution(dialogues)
print("utterance counts:", dist["utterances"])
print("ambiguity matrix (feeding):", dist["matrix"]["feeding"])

# Survey: medians plus top-box (share of 4s and 5s) per Likert question.
summary = survey_stats({
    "enjoyed_interaction": [5, 5, 4, 4, 2],
    "prefers_autonomy": [5, 4, 4, 2, 1],
})
for qid, row in summary.per_question.items():
    print(f"  {qid}: median {row['median']}, top-box {row['top_box_percent']:.0f}%")
