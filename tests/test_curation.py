import csv
import json

import numpy as np
import pytest

from sessionforge.curation import (
    Violation,
    dataset_stats,
    filter_successful,
    label_trial,
    load_manifests,
    load_survey_csv,
    survey_stats,
)
from sessionforge.errors import (
    EmptyInput,
    EmptyQuestion,
    MalformedSurvey,
    OutOfRangeRating,
    UnknownTrial,
    UnlabeledTrial,
)
from sessionforge.session import Task, save_session
from sessionforge.synth import Scenario, gen_session


def make_dataset(tmp_path, n_trials=4, task=Task.FEEDING):
    """Write n unlabeled trials (success null) and return their ids."""
    trial_ids = []
    for seed in range(n_trials):
        session, _ = gen_session(Scenario(seed=seed, task=task, duration=1.0))
        save_session(session, tmp_path / session.manifest.session_id)
        trial_id = session.manifest.session_id
        path = tmp_path / trial_id / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["success"] = None
        path.write_text(json.dumps(manifest, indent=2) + "\n")
        trial_ids.append(trial_id)
    return trial_ids


class TestLabeling:
    def test_label_success(self, tmp_path):
        (trial_id, *_) = make_dataset(tmp_path, 1)
        updated = label_trial(tmp_path, trial_id, [])
        assert updated.success is True
        assert updated.violation_flags == ()
        # persisted to disk
        on_disk = json.loads((tmp_path / trial_id / "manifest.json").read_text())
        assert on_disk["success"] is True

    def test_label_failure_with_known_flag(self, tmp_path):
        (trial_id, *_) = make_dataset(tmp_path, 1)
        updated = label_trial(tmp_path, trial_id, ["object_drop"])
        assert updated.success is False
        assert updated.violation_flags == ("object_drop",)

    def test_unknown_flag_kept_under_other(self, tmp_path):
        (trial_id, *_) = make_dataset(tmp_path, 1)
        updated = label_trial(tmp_path, trial_id, ["spilled_soup"])
        assert updated.violation_flags == ("other:spilled_soup",)
        assert updated.success is False

    def test_relabel_overwrites(self, tmp_path):
        (trial_id, *_) = make_dataset(tmp_path, 1)
        label_trial(tmp_path, trial_id, ["item_fell"])
        updated = label_trial(tmp_path, trial_id, [])
        assert updated.success is True and updated.violation_flags == ()

    def test_unknown_trial(self, tmp_path):
        make_dataset(tmp_path, 1)
        with pytest.raises(UnknownTrial):
            label_trial(tmp_path, "no-such-trial", [])

    def test_violation_vocabulary(self):
        assert {v.value for v in Violation} == {
            "object_drop",
            "item_fell",
            "environment_collision",
            "inappropriate_force",
        }


class TestDatasetStats:
    def test_paper_dataset_counts(self, tmp_path):
        # 66 raw trials, 53 successful -> 80.30 after half-up rounding
        tasks = list(Task)
        trial_ids = []
        for i in range(66):
            session, _ = gen_session(
                Scenario(seed=1000 + i, task=tasks[i % 5], duration=1.0)
            )
            save_session(session, tmp_path / session.manifest.session_id)
            trial_ids.append(session.manifest.session_id)
        for i, trial_id in enumerate(trial_ids):
            flags = [] if i < 53 else ["environment_collision"]
            label_trial(tmp_path, trial_id, flags)
        stats = dataset_stats(load_manifests(tmp_path))
        assert stats.total_raw == 66
        assert stats.total_successful == 53
        assert stats.success_percentage == "80.30"

    def test_percentage_against_decimal_recount(self, tmp_path):
        from decimal import ROUND_HALF_UP, Decimal

        trial_ids = make_dataset(tmp_path, 7)
        for i, trial_id in enumerate(trial_ids):
            label_trial(tmp_path, trial_id, [] if i % 3 else ["object_drop"])
        stats = dataset_stats(load_manifests(tmp_path))
        oracle = (
            Decimal(100) * Decimal(stats.total_successful) / Decimal(stats.total_raw)
        ).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)
        assert stats.success_percentage == str(oracle)

    def test_half_up_boundary(self, tmp_path):
        # 1/16 = 6.25% exactly; half-up keeps the 5
        trial_ids = make_dataset(tmp_path, 16)
        for i, trial_id in enumerate(trial_ids):
            label_trial(tmp_path, trial_id, [] if i == 0 else ["item_fell"])
        stats = dataset_stats(load_manifests(tmp_path))
        assert stats.success_percentage == "6.25"

    def test_per_task_counts(self, tmp_path):
        ids_a = make_dataset(tmp_path, 2, Task.DRINKING)
        for trial_id in ids_a:
            label_trial(tmp_path, trial_id, [])
        stats = dataset_stats(load_manifests(tmp_path))
        assert stats.per_task["drinking"] == {"raw": 2, "successful": 2}

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            dataset_stats([])


class TestFilterSuccessful:
    def test_strict_rejects_unlabeled(self, tmp_path):
        make_dataset(tmp_path, 2)
        with pytest.raises(UnlabeledTrial):
            filter_successful(tmp_path, strict=True)

    def test_lenient_warns_and_excludes(self, tmp_path):
        trial_ids = make_dataset(tmp_path, 3)
        label_trial(tmp_path, trial_ids[0], [])
        with pytest.warns(UserWarning, match="unlabeled"):
            kept = filter_successful(tmp_path, strict=False)
        assert kept == [trial_ids[0]]

    def test_ordering_by_task_then_trial(self, tmp_path):
        ids = make_dataset(tmp_path, 2, Task.FEEDING) + make_dataset(
            tmp_path, 2, Task.CLEANING
        )
        for trial_id in ids:
            label_trial(tmp_path, trial_id, [])
        kept = filter_successful(tmp_path)
        # cleaning sorts before feeding
        assert kept == sorted(ids[2:]) + sorted(ids[:2])

    def test_failures_excluded(self, tmp_path):
        ids = make_dataset(tmp_path, 3)
        for i, trial_id in enumerate(ids):
            label_trial(tmp_path, trial_id, ["object_drop"] if i == 1 else [])
        kept = filter_successful(tmp_path)
        assert ids[1] not in kept and len(kept) == 2


class TestSurvey:
    def test_median_odd_and_even(self):
        summary = survey_stats({"q1": [1, 4, 5], "q2": [2, 3, 4, 5]})
        assert summary.per_question["q1"]["median"] == 4.0
        assert summary.per_question["q2"]["median"] == 3.5

    def test_top_box(self):
        summary = survey_stats({"q": [5, 4, 4, 3, 1]})
        assert summary.per_question["q"]["top_box_percent"] == pytest.approx(60.0)

    def test_recount_oracle(self):
        rng = np.random.default_rng(13)
        ratings = [int(r) for r in rng.integers(1, 6, 101)]
        summary = survey_stats({"q": ratings})
        assert summary.per_question["q"]["median"] == float(np.median(ratings))
        assert summary.per_question["q"]["top_box_percent"] == pytest.approx(
            100.0 * sum(1 for r in ratings if r in (4, 5)) / len(ratings)
        )

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeRating):
            survey_stats({"q": [3, 6]})
        with pytest.raises(OutOfRangeRating):
            survey_stats({"q": [0]})

    def test_empty_question(self):
        with pytest.raises(EmptyQuestion):
            survey_stats({"q": []})

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "survey.csv"
        with path.open("w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["question_id", "participant_id", "rating"])
            writer.writerows([["q1", "p1", 4], ["q1", "p2", 5], ["q2", "p1", 3]])
        responses = load_survey_csv(path)
        assert responses == {"q1": [4, 5], "q2": [3]}

    @pytest.mark.parametrize(
        "text",
        ["rating,question_id\n5,q1\n4\n", "question_id,participant_id,rating\nq1,p1,5\n,p2,4\n"],
        ids=["short-row", "empty-cell"],
    )
    def test_row_without_question_id(self, tmp_path, text):
        path = tmp_path / "survey.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(MalformedSurvey, match=r"line 3: no question_id"):
            load_survey_csv(path)
