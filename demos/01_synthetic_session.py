# Generate a synthetic teleoperation trial and poke at the container format.
#
# Every synthetic session is driven by a counter-based PRNG keyed on the
# scenario seed, so the same scenario always produces byte-identical files —
# handy for golden tests and for debugging the pipeline on known data.

import tempfile
from pathlib import Path

from sessionforge import Scenario, Task, gen_session, load_session, save_session, sessions_equal

# A drinking trial: the end effector travels 60 cm with a minimum-jerk
# profile, both cameras log frames with 3 ms timestamp jitter, and a 30 Hz
# narrowband disturbance (1 cm RMS) rides on every numeric channel.
scenario = Scenario(
    seed=42,
    task=Task.DRINKING,
    duration=4.0,
    timestamp_jitter_sd=0.003,
    noise_sd=0.01,
)
session, truth = gen_session(scenario)

print("trial id:       ", session.manifest.session_id)
print("streams declared:", [s.name for s in session.manifest.streams])
print("numeric shapes:  ", {k: v.values.shape for k, v in session.numeric.items()})
print("camera frames:   ", {k: len(v.frame_timestamps) for k, v in session.frame_logs.items()})
print("audio samples:   ", len(session.audio["mic"].samples))

# The ground truth carries closed forms for everything the analysis measures.
print("true EE path length:", truth.ee_path_length, "m")
print("true EE mean jerk:  ", truth.ee.mean_jerk(), "m/s^3 (full span)")

# The scripted dialogue ships with ambiguity labels on the user turns.
(dialogue,) = session.dialogues
for turn in dialogue.turns:
    label = dialogue.labels.get(turn.turn_index)
    tag = f" [{label.clarity.value}{'/' + label.ambiguity_type.value if label.ambiguity_type else ''}]" if label else ""
    print(f"  {turn.speaker.value:>5}: {turn.text}{tag}")

# Round trip through the on-disk container: manifest + CSV streams + WAV +
# JSONL. Equality is checked down to float bit patterns.
with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp) / session.manifest.session_id
    save_session(session, root)
    print("wrote", sorted(p.name for p in root.iterdir()))
    assert sessions_equal(session, load_session(root))
print("save -> load round trip is lossless")
