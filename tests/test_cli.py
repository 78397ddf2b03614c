import json
import warnings

import pytest

from sessionforge.cli import main
from sessionforge.curation import label_trial
from sessionforge.session import Task, save_session
from sessionforge.synth import Scenario, gen_session


@pytest.fixture
def dataset(tmp_path):
    root = tmp_path / "data"
    trial_ids = []
    for seed, task in [(0, Task.FEEDING), (1, Task.FEEDING), (2, Task.DRINKING)]:
        session, _ = gen_session(Scenario(seed=seed, task=task, duration=2.0))
        save_session(session, root / session.manifest.session_id)
        trial_ids.append(session.manifest.session_id)
    for i, trial_id in enumerate(trial_ids):
        label_trial(root, trial_id, [] if i != 1 else ["object_drop"])
    return root, trial_ids


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        code, _, _ = run(capsys, "no-such-command")
        assert code == 2

    def test_data_error_is_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "sync", "--in", str(tmp_path / "missing"), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "error [" in err

    def test_errors_json_machine_readable(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "--errors", "json", "sync",
            "--in", str(tmp_path / "missing"), "--out", str(tmp_path / "o"),
        )
        assert code == 1
        payload = json.loads(err)
        assert {"module", "code", "message"} <= set(payload)


    def test_malformed_csv_row_is_json_error(self, capsys, dataset):
        root, trial_ids = dataset
        path = root / trial_ids[0] / "streams" / "ee_pose.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run(capsys, "--errors", "json", "pipeline", "--root", str(root))
        assert code == 1
        payload = json.loads(err)
        assert payload["code"] == "malformed-manifest"
        assert "ee_pose.csv" in payload["message"]

class TestSynthCommand:
    def test_synth_writes_session(self, capsys, tmp_path):
        code, out, _ = run(capsys, "synth", "--seed", "3", "--out", str(tmp_path / "s"))
        assert code == 0
        assert (tmp_path / "s" / "manifest.json").is_file()

    def test_as_trial_layout(self, capsys, tmp_path):
        code, _, _ = run(capsys, "synth", "--seed", "3", "--out", str(tmp_path), "--as-trial")
        assert code == 0
        assert (tmp_path / "synth-feeding-00000003" / "manifest.json").is_file()

    def test_scenario_file(self, capsys, tmp_path):
        scenario = tmp_path / "sc.json"
        scenario.write_text(json.dumps({"seed": 4, "task": "cleaning", "duration": 1.5}))
        code, _, _ = run(capsys, "synth", "--scenario", str(scenario), "--out", str(tmp_path), "--as-trial")
        assert code == 0
        assert (tmp_path / "synth-cleaning-00000004" / "manifest.json").is_file()


class TestStageCommands:
    def test_sync_then_analyze(self, capsys, tmp_path, dataset):
        root, trial_ids = dataset
        synced_dir = tmp_path / "synced"
        code, out, _ = run(capsys, "sync", "--in", str(root / trial_ids[0]), "--out", str(synced_dir))
        assert code == 0
        summary = json.loads(out)
        assert summary["grid_rate"] == 12.0
        report = tmp_path / "m.json"
        code, out, _ = run(capsys, "analyze", "--in", str(synced_dir), "--report", str(report))
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["wheelchair_comfort_band"] == "below"
        assert payload["ee_mean_jerk"] >= 0.0

    def test_denoise_round(self, capsys, tmp_path, dataset):
        root, trial_ids = dataset
        synced_dir, out_dir = tmp_path / "synced", tmp_path / "den"
        run(capsys, "sync", "--in", str(root / trial_ids[0]), "--out", str(synced_dir))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # IMU cutoff clamp at 12 Hz grid
            code, out, _ = run(
                capsys, "denoise", "--in", str(synced_dir), "--out", str(out_dir), "--lenient"
            )
        assert code == 0
        assert (out_dir / "grid.json").is_file()


class TestCurateCommands:
    def test_stats_json(self, capsys, dataset):
        root, _ = dataset
        code, out, _ = run(capsys, "curate", "stats", "--root", str(root))
        assert code == 0
        stats = json.loads(out)
        assert stats["total_raw"] == 3 and stats["total_successful"] == 2
        assert stats["success_percentage"] == "66.67"

    def test_stats_csv(self, capsys, dataset):
        root, _ = dataset
        code, out, _ = run(capsys, "curate", "stats", "--format", "csv", "--root", str(root))
        assert code == 0
        assert out.splitlines()[0] == "task,raw,successful"
        assert "percentage,,66.67" in out

    def test_label_and_filter(self, capsys, dataset, tmp_path):
        root, trial_ids = dataset
        code, out, _ = run(capsys, "curate", "label", trial_ids[1], "--flags", "", "--root", str(root))
        assert code == 0 and "success=True" in out
        listing = tmp_path / "keep.txt"
        code, out, _ = run(capsys, "curate", "filter", "--out", str(listing), "--root", str(root))
        assert code == 0
        assert set(listing.read_text().split()) == set(trial_ids)

    def test_env_root_fallback(self, capsys, dataset, monkeypatch):
        root, _ = dataset
        monkeypatch.setenv("SESSIONFORGE_ROOT", str(root))
        code, out, _ = run(capsys, "curate", "stats")
        assert code == 0 and json.loads(out)["total_raw"] == 3

    def test_missing_root_is_error(self, capsys, monkeypatch):
        monkeypatch.delenv("SESSIONFORGE_ROOT", raising=False)
        code, _, err = run(capsys, "curate", "stats")
        assert code == 1 and "root" in err

    def test_survey(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "question_id,participant_id,rating\nq1,p1,5\nq1,p2,4\nq1,p3,2\n"
        )
        code, out, _ = run(capsys, "curate", "survey", str(path))
        assert code == 0
        summary = json.loads(out)
        assert summary["q1"]["median"] == 4.0
        assert summary["q1"]["top_box_percent"] == pytest.approx(200 / 3)


class TestDialogueCommands:
    def test_export_and_stats(self, capsys, dataset, tmp_path):
        root, _ = dataset
        out_file = tmp_path / "all.jsonl"
        code, _, _ = run(capsys, "dialogue", "export", "--root", str(root), "--out", str(out_file))
        assert code == 0
        assert len(out_file.read_bytes().decode().splitlines()) == 3
        code, out, _ = run(capsys, "dialogue", "stats", "--root", str(root))
        assert code == 0
        dist = json.loads(out)
        assert dist["utterances"] == {"drinking": 3, "feeding": 6}

    def test_annotate_rewrites_file(self, capsys, dataset):
        root, trial_ids = dataset
        path = root / trial_ids[0] / "dialogue.jsonl"
        code, out, _ = run(
            capsys, "dialogue", "annotate", "--file", str(path), "--trial", trial_ids[0],
            "--turn", "2", "--clarity", "ambiguous", "--type", "spatial",
        )
        assert code == 0
        rec = json.loads(path.read_text().splitlines()[0])
        assert rec["labels"]["2"] == {"clarity": "ambiguous", "ambiguity_type": "spatial"}

    def test_annotate_robot_turn_fails(self, capsys, dataset):
        root, trial_ids = dataset
        path = root / trial_ids[0] / "dialogue.jsonl"
        code, _, err = run(
            capsys, "dialogue", "annotate", "--file", str(path), "--trial", trial_ids[0],
            "--turn", "1", "--clarity", "specific",
        )
        assert code == 1 and "not a user turn" in err


class TestPipeline:
    def test_report_deterministic(self, capsys, dataset, tmp_path):
        root, _ = dataset
        outputs = []
        for _ in range(2):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code, out, _ = run(capsys, "report", "--root", str(root))
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]
        report = json.loads(outputs[0])
        assert set(report["tasks"]) == {"feeding", "drinking"}
        assert report["tasks"]["feeding"]["n"] == 2
        assert report["curation"]["success_percentage"] == "66.67"
        assert report["dialogue"]["matrix"]

    def test_pipeline_writes_report_file(self, capsys, dataset, tmp_path, monkeypatch):
        root, _ = dataset
        report_path = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, _, _ = run(
                capsys, "pipeline", "--root", str(root), "--report", str(report_path)
            )
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["curation"]["total_raw"] == 3

    def test_parallel_jobs_match_serial(self, capsys, dataset):
        root, _ = dataset
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, serial, _ = run(capsys, "report", "--root", str(root))
            _, parallel, _ = run(capsys, "report", "--root", str(root), "--jobs", "3")
        assert serial == parallel

    def test_csv_format(self, capsys, dataset):
        root, _ = dataset
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, out, _ = run(capsys, "report", "--root", str(root), "--format", "csv")
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith("task,n,")
        assert any(line.startswith("feeding,2,") for line in out.splitlines())
