"""The benchmark timing layer: record building, merge-on-write JSON,
and path resolution."""

import json

import pytest

import time

from repro.bench.timing import (
    SCHEMA,
    bench_json_path,
    failure_record,
    fingerprint_record,
    record_entry,
    table6_record,
    timed,
)
from repro.fingerprint import Fingerprinter, WORKLOAD_BY_KEY
from repro.fingerprint.adapters import make_ext3_adapter


class TestTimed:
    def test_returns_value_and_duration(self):
        value, wall = timed(lambda: 42)
        assert value == 42
        assert wall >= 0.0

    def test_exception_keeps_the_measurement(self):
        def boom():
            time.sleep(0.01)
            raise RuntimeError("mid-run failure")

        with pytest.raises(RuntimeError) as excinfo:
            timed(boom)
        # The elapsed time up to the failure rides on the exception, so
        # drivers can still record the run instead of dropping it.
        assert excinfo.value.timed_wall_s >= 0.01

    def test_failure_record_shape(self):
        try:
            timed(lambda: (_ for _ in ()).throw(ValueError("x" * 500)))
        except ValueError as exc:
            record = failure_record(exc, jobs=4, fs="ext3")
        assert record["status"] == "failed"
        assert record["error"] == "ValueError"
        assert len(record["error_detail"]) <= 200
        assert record["wall_s"] >= 0.0
        assert (record["jobs"], record["fs"]) == (4, "ext3")

    def test_failure_record_outside_timed_defaults_to_zero(self):
        record = failure_record(RuntimeError("never timed"))
        assert record["wall_s"] == 0.0


BENCH_KINDS = [
    ("fingerprint", "REPRO_BENCH_JSON", "BENCH_fingerprint.json"),
    ("crash", "REPRO_BENCH_CRASH_JSON", "BENCH_crash.json"),
    ("array", "REPRO_BENCH_ARRAY_JSON", "BENCH_array.json"),
    ("fleet", "REPRO_BENCH_FLEET_JSON", "BENCH_fleet.json"),
]


class TestBenchJsonPath:
    def test_env_override(self, tmp_path, monkeypatch):
        for kind, env_var, _ in BENCH_KINDS:
            target = tmp_path / f"custom-{kind}.json"
            monkeypatch.setenv(env_var, str(target))
            assert bench_json_path(kind) == target

    def test_default_is_root_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for kind, env_var, filename in BENCH_KINDS:
            monkeypatch.delenv(env_var, raising=False)
            assert bench_json_path(kind, tmp_path / "r") == tmp_path / "r" / filename
            assert bench_json_path(kind) == tmp_path / filename


class TestRecordEntry:
    def test_creates_and_merges(self, tmp_path):
        path = tmp_path / "BENCH_fingerprint.json"
        record_entry("first", {"wall_s": 1.0}, path=path)
        record_entry("second", {"wall_s": 2.0}, path=path)
        data = json.loads(path.read_text())
        assert data["schema"] == SCHEMA
        assert set(data["entries"]) == {"first", "second"}
        assert "generated_at" in data

    def test_rerun_updates_in_place(self, tmp_path):
        path = tmp_path / "BENCH_fingerprint.json"
        record_entry("run", {"wall_s": 1.0}, path=path)
        record_entry("run", {"wall_s": 0.5}, path=path)
        data = json.loads(path.read_text())
        assert data["entries"]["run"]["wall_s"] == 0.5

    def test_corrupt_file_starts_fresh(self, tmp_path):
        path = tmp_path / "BENCH_fingerprint.json"
        path.write_text("{not json")
        record_entry("run", {"wall_s": 1.0}, path=path)
        data = json.loads(path.read_text())
        assert data["entries"] == {"run": {"wall_s": 1.0}}


class TestFingerprintRecord:
    @pytest.fixture(scope="class")
    def run(self):
        fp = Fingerprinter(make_ext3_adapter(),
                           workloads=[WORKLOAD_BY_KEY["a"], WORKLOAD_BY_KEY["b"]])
        matrix, wall_s = timed(fp.run)
        return fp, matrix, wall_s

    def test_record_shape(self, run):
        fp, matrix, wall_s = run
        record = fingerprint_record(fp, matrix, wall_s)
        assert record["jobs"] == 1
        assert record["tests_run"] == fp.tests_run
        assert record["total_cells"] == len(fp.cells)
        assert record["applicable_cells"] == len(matrix.cells)
        assert set(record["workloads"]) == {"a", "b"}
        for entry in record["workloads"].values():
            assert entry["wall_s"] > 0
            assert entry["reads"] > 0
            assert entry["busy_time_s"] > 0

    def test_record_is_json_serializable(self, run, tmp_path):
        fp, matrix, wall_s = run
        path = record_entry("fingerprint_ext3",
                            fingerprint_record(fp, matrix, wall_s),
                            path=tmp_path / "BENCH_fingerprint.json")
        data = json.loads(path.read_text())
        assert data["entries"]["fingerprint_ext3"]["total_cells"] > 0


class TestTable6Record:
    def test_record_shape(self):
        class FakeRow:
            label = "Baseline"
            seconds = 1.25
            reads = 10
            writes = 5

        class FakeRun:
            results = {"Web": [FakeRow()]}

            def normalized(self, bench):
                return [1.0]

        record = table6_record(FakeRun(), 3.0)
        assert record["wall_s"] == 3.0
        assert record["benches"]["Web"]["variants"][0]["label"] == "Baseline"
        assert record["benches"]["Web"]["normalized"] == [1.0]
