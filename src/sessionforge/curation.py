"""Trial success labeling, dataset filtering, and dataset/survey statistics."""

from __future__ import annotations

import statistics
import warnings
from collections import Counter
from dataclasses import dataclass, replace
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum
from pathlib import Path

from .errors import (
    DuplicateTrial,
    EmptyInput,
    EmptyQuestion,
    MalformedSurvey,
    MissingFile,
    OutOfRangeRating,
    UnknownTrial,
    UnlabeledTrial,
)
from .session import (
    SessionManifest,
    read_manifest,
    task_label,
    trial_dirs,
    write_manifest,
)


class Violation(str, Enum):
    OBJECT_DROP = "object_drop"
    ITEM_FELL = "item_fell"
    ENVIRONMENT_COLLISION = "environment_collision"
    INAPPROPRIATE_FORCE = "inappropriate_force"

    @classmethod
    def parse(cls, raw: str) -> str:
        """Known kinds map to the closed set; anything else is kept as
        ``other:<text>`` so no information is lost."""
        try:
            return cls(raw).value
        except ValueError:
            if raw.startswith("other:"):
                return raw
            return f"other:{raw}"


def label_trial(dataset_root: str | Path, trial_id: str, flags: list[str]) -> SessionManifest:
    """Set a trial's violation flags; success is exactly 'no flags'.

    Relabeling overwrites any previous flags. The updated manifest replaces
    the old one whole and is returned; a write that fails leaves the old one
    and raises IoError. A dataset that repeats a session_id is refused before
    anything is written.
    """
    for trial_dir, manifest in trial_manifests(dataset_root):
        if manifest.session_id != trial_id:
            continue
        parsed = tuple(Violation.parse(f) for f in flags)
        updated = replace(manifest, violation_flags=parsed, success=len(parsed) == 0)
        write_manifest(trial_dir, updated)
        return updated
    raise UnknownTrial(trial_id)


@dataclass(frozen=True)
class DatasetStats:
    per_task: dict[str, dict[str, int]]  # task -> {"raw": n, "successful": n}
    total_raw: int
    total_successful: int
    success_percentage: str  # 2 decimals, half-up, e.g. "80.30"

    def to_json_dict(self) -> dict:
        return {
            "per_task": {task: dict(row) for task, row in self.per_task.items()},
            "total_raw": self.total_raw,
            "total_successful": self.total_successful,
            "success_percentage": self.success_percentage,
        }


def _percentage(successful: int, raw: int) -> str:
    if raw == 0:
        return "0.00"
    pct = Decimal(100) * Decimal(successful) / Decimal(raw)
    return str(pct.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def _one_trial_per_id(manifests: list[SessionManifest]) -> None:
    """A dataset holds each session_id once, or it is refused: no rule can
    tell which copy of a trial is right."""
    counts = Counter(m.session_id for m in manifests)
    repeated = [f"{i!r} ({n} trials)" for i, n in counts.items() if n > 1]
    if repeated:
        raise DuplicateTrial(f"session_id held by more than one trial: {', '.join(repeated)}")


def dataset_stats(manifests: list[SessionManifest]) -> DatasetStats:
    """Raw vs successful counts per task, plus the overall percentage, over
    manifests holding each session_id once."""
    if not manifests:
        raise EmptyInput("no manifests")
    _one_trial_per_id(manifests)
    per_task: dict[str, dict[str, int]] = {}
    for m in manifests:
        row = per_task.setdefault(task_label(m.task), {"raw": 0, "successful": 0})
        row["raw"] += 1
        if m.success:
            row["successful"] += 1
    per_task = dict(sorted(per_task.items()))
    total_raw = sum(r["raw"] for r in per_task.values())
    total_successful = sum(r["successful"] for r in per_task.values())
    return DatasetStats(
        per_task=per_task,
        total_raw=total_raw,
        total_successful=total_successful,
        success_percentage=_percentage(total_successful, total_raw),
    )


def trial_manifests(dataset_root: str | Path) -> list[tuple[Path, SessionManifest]]:
    """Each trial directory of a dataset with its manifest, from one walk of
    the dataset, refused if a session_id repeats."""
    pairs = [(trial_dir, read_manifest(trial_dir)) for trial_dir in trial_dirs(dataset_root)]
    _one_trial_per_id([m for _, m in pairs])
    return pairs


def load_manifests(dataset_root: str | Path) -> list[SessionManifest]:
    """The manifests of a dataset's trials, refused if a session_id repeats."""
    return [m for _, m in trial_manifests(dataset_root)]


def filter_successful(dataset_root: str | Path, strict: bool = True) -> list[str]:
    """Trial ids of successful trials, ordered by (task, trial_id).

    Unlabeled trials (success is null) raise in strict mode and are excluded
    with a warning otherwise.
    """
    selected = []
    for m in load_manifests(dataset_root):
        if m.success is None:
            if strict:
                raise UnlabeledTrial(m.session_id)
            warnings.warn(f"trial {m.session_id} unlabeled; excluded")
            continue
        if m.success:
            selected.append((task_label(m.task), m.session_id))
    return [trial_id for _, trial_id in sorted(selected)]


@dataclass(frozen=True)
class SurveySummary:
    per_question: dict[str, dict]  # qid -> {"median": float, "top_box_percent": float, "n": int}


def survey_stats(responses: dict[str, list[int]]) -> SurveySummary:
    """Median and top-box percentage (ratings of 4 or 5) per question.

    Even-length rating lists take the mean of the middle two for the median.
    """
    per_question = {}
    for qid, ratings in responses.items():
        if not ratings:
            raise EmptyQuestion(qid)
        for r in ratings:
            if r not in (1, 2, 3, 4, 5):
                raise OutOfRangeRating(f"{qid}: rating {r}")
        n = len(ratings)
        median = float(statistics.median(ratings))
        top_box = 100.0 * sum(1 for r in ratings if r >= 4) / n
        per_question[qid] = {"median": median, "top_box_percent": top_box, "n": n}
    return SurveySummary(per_question=per_question)


def load_survey_csv(path: str | Path) -> dict[str, list[int]]:
    """Read survey responses: CSV columns question_id, participant_id, rating.

    A missing file raises MissingFile; a missing column, a row without a
    question_id or a rating that is not an integer raises MalformedSurvey
    naming the file and the line.
    """
    import csv

    path = Path(path)
    if not path.is_file():
        raise MissingFile(str(path))
    responses: dict[str, list[int]] = {}
    with path.open("r", encoding="utf-8", newline="") as f:
        reader = csv.DictReader(f)
        missing = [c for c in ("question_id", "rating") if c not in (reader.fieldnames or ())]
        if missing:
            raise MalformedSurvey(f"{path}: line 1: missing column(s) {', '.join(missing)}")
        for row in reader:
            if not row["question_id"]:  # None for a short row
                raise MalformedSurvey(f"{path}: line {reader.line_num}: no question_id")
            try:
                rating = int(row["rating"])
            except (TypeError, ValueError) as exc:  # TypeError: None for a short row
                raise MalformedSurvey(
                    f"{path}: line {reader.line_num}: rating {row['rating']!r} is not an integer"
                ) from exc
            responses.setdefault(row["question_id"], []).append(rating)
    return responses
