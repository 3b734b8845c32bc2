"""Tests for evaluation-result persistence."""

import json
import random

import pytest

from repro.core import results_io
from repro.core.harness import EvaluationHarness
from repro.core.metrics import EvalRecord, EvalResult
from repro.core.question import Category
from repro.models import WITH_CHOICE, build_model


def _small_result():
    result = EvalResult("test-model", "test-ds", "with_choice")
    result.add(EvalRecord("q-1", Category.DIGITAL, "A", True, "auto", 0.9))
    result.add(EvalRecord("q-2", Category.ANALOG, "", False, "manual", 0.5))
    return result


def _with_checksum(manifest_line, record_lines):
    """Patch a manifest line's sha256 to match the given record lines."""
    import hashlib

    head = json.loads(manifest_line)
    head["sha256"] = hashlib.sha256(
        "\n".join(record_lines).encode("utf-8")).hexdigest()
    return json.dumps(head, sort_keys=True)


class TestRoundTrip:
    def test_dumps_loads(self):
        result = _small_result()
        restored = results_io.loads(results_io.dumps(result))
        assert restored.model_name == result.model_name
        assert restored.pass_at_1() == result.pass_at_1()
        assert restored.records[1].judge_method == "manual"
        assert restored.records[0].perception == pytest.approx(0.9)

    def test_save_load_file(self, tmp_path):
        path = results_io.save(_small_result(), tmp_path / "r.jsonl")
        restored = results_io.load(path)
        assert len(restored) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            results_io.loads("")

    def test_version_checked(self):
        text = results_io.dumps(_small_result()).replace(
            f'"format_version": {results_io.FORMAT_VERSION}',
            '"format_version": 99')
        with pytest.raises(ValueError, match="format"):
            results_io.loads(text)

    def test_truncation_detected(self):
        text = results_io.dumps(_small_result())
        truncated = "\n".join(text.splitlines()[:-1])
        with pytest.raises(ValueError, match="truncated"):
            results_io.loads(truncated)

    def test_full_evaluation_round_trip(self, tmp_path, chipvqa):
        harness = EvaluationHarness()
        result = harness.evaluate(build_model("paligemma"), chipvqa,
                                  WITH_CHOICE)
        restored = results_io.load(
            results_io.save(result, tmp_path / "pali.jsonl"))
        assert restored.pass_at_1() == result.pass_at_1()
        assert restored.pass_at_1_by_category() == \
            result.pass_at_1_by_category()


def _random_result(rng: random.Random) -> EvalResult:
    """A randomised EvalResult covering every serialised field,
    including the runner telemetry block."""
    methods = ("auto", "manual")
    snippets = ("B", "the gain is 40 dB", "", "x · y + z̅",
                "refused", "42 µm", 'quoted "answer"')
    result = EvalResult(
        model_name=f"model-{rng.randrange(1000)}",
        dataset_name=rng.choice(("chipvqa", "chipvqa/dig", "custom-ds")),
        setting=rng.choice(("with_choice", "no_choice")),
        resolution_factor=rng.choice((1, 2, 8, 16)),
    )
    if rng.random() < 0.7:
        result.telemetry = {
            "wall_time_s": round(rng.uniform(0, 100), 6),
            "attempts": float(rng.randrange(1, 5)),
            "retries": float(rng.randrange(0, 4)),
            "cache_hits": float(rng.randrange(0, 200)),
            "cache_misses": float(rng.randrange(0, 200)),
        }
    for index in range(rng.randrange(1, 25)):
        result.add(EvalRecord(
            qid=f"q-{index}",
            category=rng.choice(list(Category)),
            response=rng.choice(snippets),
            correct=rng.random() < 0.5,
            judge_method=rng.choice(methods),
            perception=round(rng.random(), 6),
        ))
    return result


class TestRoundTripProperty:
    def test_randomised_results_round_trip(self):
        """Property: loads(dumps(r)) == r over randomised results,
        telemetry and resolution factor included."""
        rng = random.Random(20260806)
        for _ in range(50):
            result = _random_result(rng)
            restored = results_io.loads(results_io.dumps(result))
            assert restored.model_name == result.model_name
            assert restored.dataset_name == result.dataset_name
            assert restored.setting == result.setting
            assert restored.resolution_factor == result.resolution_factor
            assert restored.telemetry == result.telemetry
            assert restored.records == result.records

    def test_dumps_without_telemetry_is_canonical(self):
        rng = random.Random(11)
        result = _random_result(rng)
        result.telemetry = {"wall_time_s": 1.25, "attempts": 2.0}
        stripped = results_io.dumps(result, telemetry=False)
        assert "telemetry" not in stripped
        restored = results_io.loads(stripped)
        assert restored.telemetry is None
        assert restored.records == result.records

    def test_file_round_trip_preserves_telemetry(self, tmp_path):
        result = _small_result()
        result.telemetry = {"wall_time_s": 0.5, "retries": 1.0}
        restored = results_io.load(
            results_io.save(result, tmp_path / "t.jsonl"))
        assert restored.telemetry == {"wall_time_s": 0.5, "retries": 1.0}


class TestForwardCompatibility:
    def test_unknown_manifest_keys_ignored(self):
        """A file written by a future minor revision with extra manifest
        keys must load, not crash."""
        text = results_io.dumps(_small_result())
        lines = text.splitlines()
        manifest = json.loads(lines[0])
        manifest["schema_url"] = "https://example.com/v2"
        manifest["shard"] = {"index": 3, "of": 8}
        lines[0] = json.dumps(manifest, sort_keys=True)
        restored = results_io.loads("\n".join(lines))
        assert len(restored) == 2
        assert restored.pass_at_1() == _small_result().pass_at_1()

    def test_unknown_record_keys_ignored(self):
        text = results_io.dumps(_small_result())
        lines = text.splitlines()
        for index in (1, 2):
            record = json.loads(lines[index])
            record["latency_ms"] = 12.5
            record["annotator"] = "a3"
            lines[index] = json.dumps(record, sort_keys=True)
        # a writer adding record fields recomputes the checksum too
        lines[0] = _with_checksum(lines[0], lines[1:])
        restored = results_io.loads("\n".join(lines))
        assert restored.records[0].qid == "q-1"
        assert restored.records[1].judge_method == "manual"

    def test_old_files_without_new_fields_load_with_defaults(self):
        """A pre-telemetry file (no resolution_factor/telemetry keys)
        still loads with the documented defaults."""
        text = results_io.dumps(_small_result())
        lines = text.splitlines()
        manifest = json.loads(lines[0])
        del manifest["resolution_factor"]
        manifest.pop("telemetry", None)
        lines[0] = json.dumps(manifest, sort_keys=True)
        restored = results_io.loads("\n".join(lines))
        assert restored.resolution_factor == 1
        assert restored.telemetry is None


class TestChecksums:
    def test_manifest_line_carries_sha256(self):
        head = json.loads(results_io.dumps(_small_result()).splitlines()[0])
        assert head["format_version"] == 2
        assert len(head["sha256"]) == 64

    def test_bit_flip_in_record_detected(self):
        text = results_io.dumps(_small_result())
        flipped = text.replace('"response": "A"', '"response": "B"')
        assert flipped != text  # the flip landed
        with pytest.raises(ValueError, match="checksum mismatch"):
            results_io.loads(flipped)

    def test_v1_file_without_checksum_still_loads(self):
        """Backward compatibility: pre-checksum artifacts load cleanly."""
        lines = results_io.dumps(_small_result()).splitlines()
        head = json.loads(lines[0])
        head["format_version"] = 1
        del head["sha256"]
        lines[0] = json.dumps(head, sort_keys=True)
        restored = results_io.loads("\n".join(lines))
        assert len(restored) == 2
        assert restored.pass_at_1() == _small_result().pass_at_1()

    def test_v2_file_missing_checksum_rejected(self):
        lines = results_io.dumps(_small_result()).splitlines()
        head = json.loads(lines[0])
        del head["sha256"]
        lines[0] = json.dumps(head, sort_keys=True)
        with pytest.raises(ValueError, match="missing its sha256"):
            results_io.loads("\n".join(lines))

    def test_checksum_identical_for_same_records(self):
        """The checksum covers records only, so telemetry (which varies
        run to run) does not perturb it."""
        result = _small_result()
        bare = json.loads(results_io.dumps(result).splitlines()[0])
        result.telemetry = {"wall_time_s": 1.5}
        timed = json.loads(results_io.dumps(result).splitlines()[0])
        assert bare["sha256"] == timed["sha256"]


class TestAtomicSave:
    def test_save_leaves_no_temp_file(self, tmp_path):
        path = results_io.save(_small_result(), tmp_path / "r.jsonl")
        assert path.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_save_overwrites_atomically(self, tmp_path):
        """Overwriting an existing artifact swaps whole files: the torn
        intermediate of a naive in-place write never exists."""
        path = tmp_path / "r.jsonl"
        results_io.save(_small_result(), path)
        bigger = _small_result()
        bigger.add(EvalRecord("q-3", Category.DIGITAL, "C", True,
                              "auto", 1.0))
        results_io.save(bigger, path)
        assert len(results_io.load(path)) == 3
        assert not list(tmp_path.glob("*.tmp"))

    def test_atomic_write_text_round_trips(self, tmp_path):
        target = tmp_path / "x.txt"
        results_io.atomic_write_text(target, "payload\n")
        assert target.read_text(encoding="utf-8") == "payload\n"


class TestVerify:
    def test_verify_file_ok(self, tmp_path):
        path = results_io.save(_small_result(), tmp_path / "r.jsonl")
        audit = results_io.verify_file(path)
        assert audit.status == "ok"
        assert audit.records == 2

    def test_verify_file_legacy_v1(self, tmp_path):
        lines = results_io.dumps(_small_result()).splitlines()
        head = json.loads(lines[0])
        head["format_version"] = 1
        del head["sha256"]
        lines[0] = json.dumps(head, sort_keys=True)
        path = tmp_path / "old.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        audit = results_io.verify_file(path)
        assert audit.status == "legacy"

    def test_verify_file_corrupt_and_missing(self, tmp_path):
        path = results_io.save(_small_result(), tmp_path / "r.jsonl")
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace('"correct": true', '"correct": false'),
                        encoding="utf-8")
        assert results_io.verify_file(path).status == "corrupt"
        assert results_io.verify_file(tmp_path / "gone.jsonl").status == \
            "missing"

    def test_verify_run_flags_missing_manifest_entries(self, tmp_path):
        from repro.core.runner import ParallelRunner, WorkUnit
        from repro.core.question import Category
        from repro.models import WITH_CHOICE
        from repro.core.benchmark import build_chipvqa

        subset = build_chipvqa().by_category(Category.DIGITAL)
        unit = WorkUnit(model=build_model("kosmos-2"), dataset=subset,
                        setting=WITH_CHOICE)
        ParallelRunner(run_dir=tmp_path).run([unit])
        assert results_io.verify_run(tmp_path).ok
        (tmp_path / f"{unit.unit_id}.jsonl").unlink()
        audit = results_io.verify_run(tmp_path)
        assert not audit.ok
        assert audit.counts().get("missing") == 1

    def test_verify_run_rejects_non_directory(self, tmp_path):
        with pytest.raises(ValueError, match="not a run directory"):
            results_io.verify_run(tmp_path / "nope")
