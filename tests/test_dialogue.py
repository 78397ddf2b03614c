import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessionforge.dialogue import (
    AmbiguityLabel,
    AmbiguityType,
    AnnotatedDialogue,
    Clarity,
    Speaker,
    Utterance,
    ambiguity_distribution,
    annotate_utterance,
    export_jsonl,
    import_jsonl,
)
from sessionforge.errors import LabelSchemaViolation, NotUserTurn, SerializationError


def utterance(i, speaker=Speaker.USER, text="pass me the cup"):
    return Utterance(speaker=speaker, text=text, t_start=float(i), t_end=i + 0.9, turn_index=i)


def simple_dialogue():
    turns = (
        utterance(0, Speaker.USER, "I'm thirsty"),
        utterance(1, Speaker.ROBOT, "Would you like the water or the juice?"),
        utterance(2, Speaker.USER, "the water please"),
    )
    return AnnotatedDialogue(trial_id="t-1", task="drinking", turns=turns)


class TestSchema:
    def test_ambiguous_requires_type(self):
        with pytest.raises(LabelSchemaViolation):
            AmbiguityLabel(clarity=Clarity.AMBIGUOUS)

    def test_specific_forbids_type(self):
        with pytest.raises(LabelSchemaViolation):
            AmbiguityLabel(clarity=Clarity.SPECIFIC, ambiguity_type=AmbiguityType.SPATIAL)

    def test_five_ambiguity_types(self):
        assert [t.value for t in AmbiguityType] == [
            "spatial",
            "referential",
            "intent_pragmatic",
            "temporal_incremental",
            "out_of_scope",
        ]

    def test_non_contiguous_turns_rejected(self):
        with pytest.raises(LabelSchemaViolation):
            AnnotatedDialogue(trial_id="t", task="feeding", turns=(utterance(1),))

    def test_label_on_robot_turn_rejected(self):
        turns = (utterance(0), utterance(1, Speaker.ROBOT))
        with pytest.raises(NotUserTurn):
            AnnotatedDialogue(
                trial_id="t", task="feeding", turns=turns,
                labels={1: AmbiguityLabel(Clarity.SPECIFIC)},
            )

    def test_label_on_unknown_turn_rejected(self):
        with pytest.raises(LabelSchemaViolation):
            AnnotatedDialogue(
                trial_id="t", task="feeding", turns=(utterance(0),),
                labels={7: AmbiguityLabel(Clarity.SPECIFIC)},
            )

    def test_backwards_time_rejected(self):
        with pytest.raises(LabelSchemaViolation):
            Utterance(Speaker.USER, "x", t_start=2.0, t_end=1.0, turn_index=0)


class TestAnnotate:
    def test_annotate_returns_new_dialogue(self):
        d = simple_dialogue()
        label = AmbiguityLabel(Clarity.AMBIGUOUS, AmbiguityType.INTENT_PRAGMATIC)
        annotated = annotate_utterance(d, 0, label)
        assert annotated.labels == {0: label}
        assert d.labels == {}  # original untouched

    def test_annotate_robot_turn_rejected(self):
        with pytest.raises(NotUserTurn):
            annotate_utterance(simple_dialogue(), 1, AmbiguityLabel(Clarity.SPECIFIC))

    def test_reannotation_overwrites(self):
        d = annotate_utterance(simple_dialogue(), 0, AmbiguityLabel(Clarity.SPECIFIC))
        d = annotate_utterance(
            d, 0, AmbiguityLabel(Clarity.AMBIGUOUS, AmbiguityType.REFERENTIAL)
        )
        assert d.labels[0].ambiguity_type is AmbiguityType.REFERENTIAL


class TestJsonl:
    def test_round_trip(self):
        d = annotate_utterance(
            simple_dialogue(), 0, AmbiguityLabel(Clarity.AMBIGUOUS, AmbiguityType.INTENT_PRAGMATIC)
        )
        assert import_jsonl(export_jsonl([d])) == [d]

    def test_one_record_per_line_fixed_key_order(self):
        data = export_jsonl([simple_dialogue()])
        lines = data.decode("utf-8").splitlines()
        assert len(lines) == 1
        rec = json.loads(lines[0])
        assert list(rec) == ["trial_id", "task", "turns", "labels", "frame_refs"]

    def test_verbatim_text_preserved(self):
        text = "uh, c-can you, um… bring the ‘blue’ one?\tplease\\now"
        turns = (
            Utterance(Speaker.USER, text, 0.0, 1.0, 0),
        )
        d = AnnotatedDialogue(trial_id="t-π", task="feeding", turns=turns)
        back = import_jsonl(export_jsonl([d]))[0]
        assert back.turns[0].text == text
        assert back.trial_id == "t-π"

    def test_embedded_newline_in_text_survives(self):
        turns = (Utterance(Speaker.USER, "line one\nline two", 0.0, 1.0, 0),)
        d = AnnotatedDialogue(trial_id="t", task="feeding", turns=turns)
        data = export_jsonl([d])
        assert len(data.decode().splitlines()) == 1  # JSON escapes the newline
        assert import_jsonl(data)[0].turns[0].text == "line one\nline two"

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(list(Speaker)),
                st.text(min_size=0, max_size=40),
                st.sampled_from(
                    [None, Clarity.SPECIFIC] + [t for t in AmbiguityType]
                ),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_fuzzed_round_trip(self, spec):
        turns, labels = [], {}
        for i, (speaker, text, lab) in enumerate(spec):
            turns.append(Utterance(speaker, text, float(i), i + 0.5, i))
            if lab is not None and speaker is Speaker.USER:
                if lab is Clarity.SPECIFIC:
                    labels[i] = AmbiguityLabel(Clarity.SPECIFIC)
                else:
                    labels[i] = AmbiguityLabel(Clarity.AMBIGUOUS, lab)
        d = AnnotatedDialogue(
            trial_id="fz", task="cleaning", turns=tuple(turns), labels=labels,
            frame_refs={i: i * 3 for i in range(len(turns))},
        )
        assert import_jsonl(export_jsonl([d])) == [d]

    def test_invalid_json_line(self):
        with pytest.raises(SerializationError):
            import_jsonl(b'{"trial_id": "t"\n')

    def test_schema_violation_in_record(self):
        rec = {
            "trial_id": "t",
            "task": "feeding",
            "turns": [
                {"turn_index": 0, "speaker": "user", "text": "x", "t_start": 0, "t_end": 1}
            ],
            "labels": {"0": {"clarity": "ambiguous", "ambiguity_type": None}},
            "frame_refs": {},
        }
        with pytest.raises((SerializationError, LabelSchemaViolation)):
            import_jsonl(json.dumps(rec).encode() + b"\n")

    def test_blank_lines_skipped(self):
        data = export_jsonl([simple_dialogue()])
        assert import_jsonl(b"\n" + data + b"\n\n") == [simple_dialogue()]


class TestDistribution:
    def test_recount_oracle(self):
        dialogues = []
        plan = [
            ("feeding", [Clarity.SPECIFIC, AmbiguityType.SPATIAL, AmbiguityType.SPATIAL]),
            ("drinking", [AmbiguityType.INTENT_PRAGMATIC, Clarity.SPECIFIC]),
            ("cleaning", [AmbiguityType.SPATIAL]),
        ]
        for n, (task, labs) in enumerate(plan):
            turns = tuple(
                Utterance(Speaker.USER, f"u{i}", float(i), i + 0.5, i)
                for i in range(len(labs))
            )
            labels = {
                i: AmbiguityLabel(Clarity.SPECIFIC)
                if lab is Clarity.SPECIFIC
                else AmbiguityLabel(Clarity.AMBIGUOUS, lab)
                for i, lab in enumerate(labs)
            }
            dialogues.append(
                AnnotatedDialogue(trial_id=f"d{n}", task=task, turns=turns, labels=labels)
            )
        dist = ambiguity_distribution(dialogues)
        assert dist["matrix"]["feeding"]["specific"] == 1
        assert dist["matrix"]["feeding"]["spatial"] == 2
        assert dist["matrix"]["drinking"]["intent_pragmatic"] == 1
        assert dist["utterances"] == {"feeding": 3, "drinking": 2, "cleaning": 1}
        # spatial column: 2 of 3 from feeding, 1 of 3 from cleaning
        assert dist["type_shares"]["spatial"]["feeding"] == pytest.approx(2 / 3)
        assert dist["type_shares"]["spatial"]["cleaning"] == pytest.approx(1 / 3)
        assert "temporal_incremental" not in dist["type_shares"]  # empty column

    def test_empty_input(self):
        dist = ambiguity_distribution([])
        assert dist["matrix"] == {} and dist["utterances"] == {}
