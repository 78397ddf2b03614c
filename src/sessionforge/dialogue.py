"""Multi-turn dialogue model, ambiguity labels, and JSONL serialization.

Utterance text is preserved verbatim (disfluencies, grammar slips and all);
labels attach only to user turns. One JSONL record per trial so frame
references stay coherent with the trial's grid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum

from .errors import LabelSchemaViolation, NotUserTurn, SerializationError


class Speaker(str, Enum):
    USER = "user"
    ROBOT = "robot"


class Clarity(str, Enum):
    SPECIFIC = "specific"
    AMBIGUOUS = "ambiguous"


class AmbiguityType(str, Enum):
    SPATIAL = "spatial"
    REFERENTIAL = "referential"
    INTENT_PRAGMATIC = "intent_pragmatic"
    TEMPORAL_INCREMENTAL = "temporal_incremental"
    OUT_OF_SCOPE = "out_of_scope"


@dataclass(frozen=True)
class AmbiguityLabel:
    clarity: Clarity
    ambiguity_type: AmbiguityType | None = None

    def __post_init__(self):
        if self.clarity is Clarity.AMBIGUOUS and self.ambiguity_type is None:
            raise LabelSchemaViolation("ambiguous label requires an ambiguity_type")
        if self.clarity is Clarity.SPECIFIC and self.ambiguity_type is not None:
            raise LabelSchemaViolation("specific label forbids an ambiguity_type")


@dataclass(frozen=True)
class Utterance:
    speaker: Speaker
    text: str
    t_start: float
    t_end: float
    trial_id: str
    turn_index: int

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise LabelSchemaViolation(
                f"utterance {self.turn_index}: t_start must be < t_end"
            )


@dataclass(frozen=True)
class AnnotatedDialogue:
    trial_id: str
    task: str
    turns: tuple[Utterance, ...]
    labels: dict[int, AmbiguityLabel] = field(default_factory=dict)
    frame_refs: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "turns", tuple(self.turns))
        indices = [u.turn_index for u in self.turns]
        if indices != list(range(len(self.turns))):
            raise LabelSchemaViolation(
                f"turn indices must be contiguous from 0, got {indices}"
            )
        by_index = {u.turn_index: u for u in self.turns}
        for idx in self.labels:
            if idx not in by_index:
                raise LabelSchemaViolation(f"label references unknown turn {idx}")
            if by_index[idx].speaker is not Speaker.USER:
                raise NotUserTurn(f"turn {idx} is not a user turn")


def annotate_utterance(
    dialogue: AnnotatedDialogue, turn_index: int, label: AmbiguityLabel
) -> AnnotatedDialogue:
    """Return a new dialogue with ``label`` attached to the given user turn;
    the new dialogue's own checks refuse a turn that is not the user's."""
    if not 0 <= turn_index < len(dialogue.turns):
        raise NotUserTurn(f"no turn with index {turn_index}")
    return replace(dialogue, labels={**dialogue.labels, turn_index: label})


def _dialogue_to_record(d: AnnotatedDialogue) -> dict:
    # Fixed key order: trial_id, task, turns, labels, frame_refs.
    return {
        "trial_id": d.trial_id,
        "task": d.task,
        "turns": [
            {
                "turn_index": u.turn_index,
                "speaker": u.speaker.value,
                "text": u.text,
                "t_start": u.t_start,
                "t_end": u.t_end,
            }
            for u in d.turns
        ],
        "labels": {
            str(k): {
                "clarity": v.clarity.value,
                "ambiguity_type": None if v.ambiguity_type is None else v.ambiguity_type.value,
            }
            for k, v in sorted(d.labels.items())
        },
        "frame_refs": {str(k): v for k, v in sorted(d.frame_refs.items())},
    }


def _dialogue_from_record(rec: dict, line_no: int = 0) -> AnnotatedDialogue:
    try:
        turns = tuple(
            Utterance(
                speaker=Speaker(t["speaker"]),
                text=t["text"],
                t_start=float(t["t_start"]),
                t_end=float(t["t_end"]),
                trial_id=rec["trial_id"],
                turn_index=int(t["turn_index"]),
            )
            for t in rec["turns"]
        )
        labels = {
            int(k): AmbiguityLabel(
                clarity=Clarity(v["clarity"]),
                ambiguity_type=None
                if v.get("ambiguity_type") is None
                else AmbiguityType(v["ambiguity_type"]),
            )
            for k, v in rec.get("labels", {}).items()
        }
        frame_refs = {int(k): int(v) for k, v in rec.get("frame_refs", {}).items()}
        return AnnotatedDialogue(
            trial_id=rec["trial_id"],
            task=rec["task"],
            turns=turns,
            labels=labels,
            frame_refs=frame_refs,
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise SerializationError(f"record {line_no}: {exc}") from exc


def export_jsonl(dialogues: list[AnnotatedDialogue]) -> bytes:
    """Serialize dialogues to JSONL, one UTF-8 record per trial per line."""
    lines = []
    for d in dialogues:
        try:
            line = json.dumps(_dialogue_to_record(d), ensure_ascii=False)
        except (TypeError, ValueError) as exc:
            raise SerializationError(f"trial {d.trial_id}: {exc}") from exc
        lines.append(line)
    return ("".join(line + "\n" for line in lines)).encode("utf-8")


def import_jsonl(data: bytes) -> list[AnnotatedDialogue]:
    """Parse JSONL bytes; validates the label schema of every record."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SerializationError(f"not UTF-8: {exc}") from exc
    dialogues = []
    # split on '\n' only: unescaped unicode line separators (e.g. U+0085) may
    # legitimately appear inside utterance text with ensure_ascii=False
    for i, line in enumerate(text.split("\n")):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SerializationError(f"line {i}: invalid JSON: {exc}") from exc
        dialogues.append(_dialogue_from_record(rec, i))
    return dialogues


def ambiguity_distribution(dialogues: list[AnnotatedDialogue]) -> dict:
    """Label counts by task and type, plus per-task utterance counts.

    Returns a dict with:
      matrix        task -> {"specific": n, <ambiguity type>: n, ...}
      utterances    task -> total turn count (both speakers)
      type_shares   ambiguity column -> {task: fraction of that column}
    """
    columns = ["specific"] + [t.value for t in AmbiguityType]
    matrix: dict[str, dict[str, int]] = {}
    utterances: dict[str, int] = {}
    for d in dialogues:
        row = matrix.setdefault(d.task, {c: 0 for c in columns})
        utterances[d.task] = utterances.get(d.task, 0) + len(d.turns)
        for label in d.labels.values():
            if label.clarity is Clarity.SPECIFIC:
                row["specific"] += 1
            else:
                row[label.ambiguity_type.value] += 1
    type_shares: dict[str, dict[str, float]] = {}
    for col in columns:
        total = sum(row[col] for row in matrix.values())
        if total > 0:
            type_shares[col] = {task: row[col] / total for task, row in matrix.items()}
    return {"matrix": matrix, "utterances": utterances, "type_shares": type_shares}
