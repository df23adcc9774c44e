"""The BENCH result records (``repro.bench.records``): record building,
the one merge-on-write writer, path resolution, and the ``repro bench
--compare`` results comparator.

The module keeps the name it had when the records carried wall-clock
fields, so the tests that survived that change keep their ids.
"""

import ast
import copy
import json
from pathlib import Path

import pytest

from repro.bench.records import (
    SCHEMA,
    bench_json_path,
    failure_record,
    fingerprint_record,
    record_entry,
    table6_record,
)
from repro.cli import main
from repro.fingerprint import Fingerprinter, WORKLOAD_BY_KEY
from repro.fingerprint.adapters import make_ext3_adapter

REPO_ROOT = Path(__file__).parent.parent

#: What ``test_src_reads_no_host_clock`` refuses under ``src/``.
CLOCK_MODULES = {"time", "datetime"}
CLOCK_FUNCTIONS = {"perf_counter", "monotonic", "process_time"}


def _clock_keys(value, path=""):
    """Key paths of every host-clock field in a JSON value."""
    if isinstance(value, dict):
        for key, sub in value.items():
            here = f"{path}.{key}" if path else key
            if key.startswith("wall_s") or key == "generated_at":
                yield here
            yield from _clock_keys(sub, here)
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            yield from _clock_keys(sub, f"{path}[{i}]")


class TestFailureRecord:
    def test_failure_record_shape(self):
        record = failure_record(ValueError("x" * 500), profile="ext3",
                                workload="creat")
        assert record["status"] == "failed"
        assert record["error"] == "ValueError"
        assert len(record["error_detail"]) <= 200
        assert (record["profile"], record["workload"]) == ("ext3", "creat")
        assert not list(_clock_keys(record))


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
        record_entry("first", {"states": 1}, path=path)
        record_entry("second", {"states": 2}, path=path)
        data = json.loads(path.read_text())
        assert set(data) == {"schema", "entries"}
        assert data["schema"] == SCHEMA
        assert set(data["entries"]) == {"first", "second"}

    def test_rerun_updates_in_place(self, tmp_path):
        path = tmp_path / "BENCH_fingerprint.json"
        record_entry("run", {"states": 1}, path=path)
        record_entry("run", {"states": 5}, path=path)
        data = json.loads(path.read_text())
        assert data["entries"]["run"]["states"] == 5

    def test_corrupt_file_starts_fresh(self, tmp_path):
        path = tmp_path / "BENCH_fingerprint.json"
        path.write_text("{not json")
        record_entry("run", {"states": 1}, path=path)
        data = json.loads(path.read_text())
        assert data["entries"] == {"run": {"states": 1}}

    def test_foreign_schema_starts_fresh(self, tmp_path):
        path = tmp_path / "BENCH_fingerprint.json"
        path.write_text(json.dumps({
            "schema": "repro-bench-timing/1",
            "entries": {"old": {"wall_s": 1.0}}}))
        record_entry("run", {"states": 1}, path=path)
        data = json.loads(path.read_text())
        assert data["entries"] == {"run": {"states": 1}}


def _run_ab():
    fp = Fingerprinter(make_ext3_adapter(),
                       workloads=[WORKLOAD_BY_KEY["a"], WORKLOAD_BY_KEY["b"]])
    return fp, fp.run()


class TestFingerprintRecord:
    @pytest.fixture(scope="class")
    def run(self):
        return _run_ab()

    def test_record_shape(self, run):
        fp, matrix = run
        record = fingerprint_record(fp, matrix)
        assert "jobs" not in record
        assert record["tests_run"] == fp.tests_run
        assert record["total_cells"] == len(fp.cells)
        assert record["applicable_cells"] == len(matrix.cells)
        assert set(record["workloads"]) == {"a", "b"}
        for entry in record["workloads"].values():
            assert entry["reads"] > 0
            assert entry["busy_time_s"] > 0
            assert entry["event_digest"]
        assert not list(_clock_keys(record))

    def test_record_is_json_serializable(self, run, tmp_path):
        fp, matrix = run
        path = record_entry("fingerprint_ext3",
                            fingerprint_record(fp, matrix),
                            path=tmp_path / "BENCH_fingerprint.json")
        data = json.loads(path.read_text())
        assert data["entries"]["fingerprint_ext3"]["total_cells"] > 0

    def test_rerecording_a_rerun_leaves_the_bytes_unchanged(self, run, tmp_path):
        path = tmp_path / "BENCH_fingerprint.json"
        record_entry("fingerprint_ext3_ab", fingerprint_record(*run), path=path)
        first = path.read_bytes()
        record_entry("fingerprint_ext3_ab", fingerprint_record(*_run_ab()),
                     path=path)
        assert path.read_bytes() == first


class TestTable6Record:
    def test_record_shape(self):
        class FakeRow:
            label = "(baseline)"
            seconds = 1.25
            reads = 10
            writes = 5

        class FakeRun:
            results = {"Web": [FakeRow()]}

            def normalized(self, bench):
                return [1.0]

        record = table6_record(FakeRun())
        assert set(record) == {"benches"}
        assert record["benches"]["Web"]["variants"][0]["label"] == "(baseline)"
        assert record["benches"]["Web"]["normalized"] == [1.0]
        assert record["benches"]["Web"]["paper_mean_abs_err"] == 0.0
        assert record["benches"]["Web"]["paper_max_abs_err"] == 0.0


class TestCommittedFiles:
    def test_result_files_carry_no_host_clock(self):
        files = sorted(REPO_ROOT.glob("BENCH_*.json"))
        assert len(files) == len(BENCH_KINDS)
        for path in files:
            data = json.loads(path.read_text())
            assert data["schema"] == SCHEMA, path.name
            assert not list(_clock_keys(data)), path.name

    def test_src_reads_no_host_clock(self):
        """Timing lives in ``perf/``: nothing under ``src/`` imports a
        clock module or names a clock function, so every output of the
        package is a function of its arguments."""
        offenders = []
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [
                        alias.name for alias in node.names]
                elif isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                else:
                    continue
                offenders += [
                    f"{path.relative_to(REPO_ROOT)}:{node.lineno}: {name}"
                    for name in names
                    if name.split(".")[0] in CLOCK_MODULES
                    or name in CLOCK_FUNCTIONS]
        assert not offenders, offenders


#: One entry per record family, shaped like the committed files.
ENTRIES = {
    "crash_ext3_creat_j1": {"jobs": 1, "violations": 36,
                            "violation_digest": "aa11"},
    "fleet_campaign": {"matrix": {"mirror2": {"baseline": 0.125,
                                              "scrub": 0.02}},
                       "event_digest_jobs1": "e1", "event_digest_jobs4": "e1"},
    "figure2_ext3": {"tests_run": 271,
                     "workloads": {"a": {"reads": 34, "event_digest": "d0"}}},
    "table6_overheads": {"benches": {"Web": {"normalized": [1.0, 1.02]}}},
}


class TestCompare:
    @pytest.fixture
    def compare(self, tmp_path, capsys):
        def run(old_entries, new_entries, new_schema=SCHEMA):
            old, new = tmp_path / "old.json", tmp_path / "new.json"
            old.write_text(json.dumps(
                {"schema": SCHEMA, "entries": old_entries}))
            new.write_text(json.dumps(
                {"schema": new_schema, "entries": new_entries}))
            code = main(["bench", "--compare", str(old), str(new)])
            captured = capsys.readouterr()
            return code, captured.out + captured.err
        return run

    def test_identical_files_pass(self, compare):
        code, _ = compare(ENTRIES, ENTRIES)
        assert code == 0

    def test_disjoint_extra_entries_pass(self, compare):
        new = dict(ENTRIES, fleet_default_j2={"matrix": {}})
        old = dict(ENTRIES, crash_ixt3_creat_j2={"violations": 1})
        code, out = compare(old, new)
        assert code == 0
        assert "fleet_default_j2" in out and "crash_ixt3_creat_j2" in out

    @pytest.mark.parametrize("entry, keys, value, named", [
        ("crash_ext3_creat_j1", ["violation_digest"], "bb22",
         "crash_ext3_creat_j1: violation_digest:"),
        ("fleet_campaign", ["matrix", "mirror2", "baseline"], 0.13,
         "fleet_campaign: matrix.mirror2.baseline:"),
        ("figure2_ext3", ["workloads", "a", "event_digest"], "d1",
         "figure2_ext3: workloads.a.event_digest:"),
        ("table6_overheads", ["benches", "Web", "normalized", 1], 1.03,
         "table6_overheads: benches.Web.normalized[1]:"),
    ])
    def test_changed_value_fails_naming_entry_and_key(
            self, compare, entry, keys, value, named):
        new = copy.deepcopy(ENTRIES)
        target = new[entry]
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        code, out = compare(ENTRIES, new)
        assert code == 1
        assert named in out
        # ... and only that one value is reported.
        assert out.count("::error::") == 1

    def test_key_on_one_side_only_fails(self, compare):
        new = copy.deepcopy(ENTRIES)
        del new["crash_ext3_creat_j1"]["violations"]
        code, out = compare(ENTRIES, new)
        assert code == 1
        assert "crash_ext3_creat_j1: violations: 36 -> <absent>" in out

    def test_jobs_width_disagreement_inside_one_file_fails(self, compare):
        new = copy.deepcopy(ENTRIES)
        new["fleet_campaign"]["event_digest_jobs4"] = "e4"
        old = copy.deepcopy(new)
        code, out = compare(old, new)
        assert code == 1
        assert "digests disagree across jobs widths" in out

    def test_foreign_schema_is_a_usage_error(self, compare):
        code, out = compare(ENTRIES, ENTRIES, new_schema="repro-bench-timing/1")
        assert code == 2
        assert "repro-bench-timing/1" in out

    def test_threshold_and_strict_are_gone(self, capsys):
        for flag in (["--threshold", "2.0"], ["--strict"]):
            with pytest.raises(SystemExit):
                main(["bench", "--compare", "a", "b", *flag])
        capsys.readouterr()
