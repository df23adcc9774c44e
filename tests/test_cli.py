"""The command-line interface."""

import json

import pytest

from repro.bench.records import SCHEMA
from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def bench_json(tmp_path, monkeypatch):
    """Redirect the CLI's result records away from the repo root."""
    target = tmp_path / "BENCH_fingerprint.json"
    monkeypatch.setenv("REPRO_BENCH_JSON", str(target))
    return target


class TestCLI:
    def test_taxonomy(self, capsys):
        assert main(["taxonomy"]) == 0
        out = capsys.readouterr().out
        assert "D_errorcode" in out and "R_redundancy" in out

    def test_space(self, capsys):
        assert main(["space"]) == 0
        out = capsys.readouterr().out
        assert "parity" in out and "%" in out

    def test_fingerprint_subset(self, capsys):
        assert main(["fingerprint", "ext3", "--workloads", "g"]) == 0
        out = capsys.readouterr().out
        assert "Detection" in out and "fault-injection tests" in out

    def test_fingerprint_writes_bench_json(self, capsys, bench_json):
        assert main(["fingerprint", "ext3", "--workloads", "ab"]) == 0
        assert "results written to" in capsys.readouterr().out
        data = json.loads(bench_json.read_text())
        # A sliced run never lands on the full-matrix row's key.
        assert set(data["entries"]) == {"fingerprint_ext3_ab"}
        entry = data["entries"]["fingerprint_ext3_ab"]
        assert "jobs" not in entry and entry["total_cells"] > 0
        assert set(entry["workloads"]) == {"a", "b"}

    def test_fingerprint_no_bench_json(self, capsys, bench_json):
        assert main(["fingerprint", "ext3", "--workloads", "g",
                     "--no-bench-json"]) == 0
        assert "results written" not in capsys.readouterr().out
        assert not bench_json.exists()

    def test_fingerprint_unknown_fs(self, capsys):
        assert main(["fingerprint", "fat32"]) == 2
        assert "unknown file system" in capsys.readouterr().err

    def test_fsck_demo_repairs(self, capsys):
        assert main(["fsck-demo"]) == 0
        out = capsys.readouterr().out
        assert "problems found" in out
        assert out.rstrip().endswith("fsck: clean")

    def test_table6_quick_single_bench(self, capsys):
        assert main(["table6", "--quick", "--benches", "Web"]) == 0
        out = capsys.readouterr().out
        assert "(baseline)" in out
        assert "Mc Mr Dc Dp Tc" in out
        assert "Web |measured - paper|: mean 0.00" in out

    def test_trace_writes_chrome_json_and_metrics(self, capsys, tmp_path):
        trace_out = tmp_path / "t.json"
        metrics_out = tmp_path / "m.json"
        assert main(["trace", "ext3", "--workload", "creat",
                     "-o", str(trace_out), "--metrics-out",
                     str(metrics_out)]) == 0
        out = capsys.readouterr().out
        assert "span-tree digest:" in out
        doc = json.loads(trace_out.read_text())
        assert doc["traceEvents"]
        assert doc["otherData"]["span_tree_digest"]
        snap = json.loads(metrics_out.read_text())
        assert snap["schema"] == "repro-metrics/1"
        assert metrics_out.with_suffix(".prom").read_text().startswith("# ")

    def test_trace_list_and_unknown_fs(self, capsys):
        assert main(["trace", "--list"]) == 0
        assert "creat" in capsys.readouterr().out
        assert main(["trace", "fat32"]) == 2
        assert "unknown file system" in capsys.readouterr().err

    def test_fingerprint_trace_and_metrics_flags(self, capsys, tmp_path,
                                                 bench_json):
        trace_out = tmp_path / "t.json"
        metrics_out = tmp_path / "m.json"
        assert main(["fingerprint", "ext3", "--workloads", "a",
                     "--trace", "--trace-out", str(trace_out),
                     "--metrics", "--metrics-out", str(metrics_out)]) == 0
        out = capsys.readouterr().out
        assert "span-tree digest:" in out
        assert json.loads(trace_out.read_text())["traceEvents"]
        entry = json.loads(bench_json.read_text())["entries"]["fingerprint_ext3_a"]
        assert entry["span_digest"]
        assert entry["metrics"]["schema"] == "repro-metrics/1"

    def test_crash_trace_flag(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_CRASH_JSON",
                           str(tmp_path / "BENCH_crash.json"))
        trace_out = tmp_path / "c.json"
        assert main(["crash", "ext3", "--workload", "creat",
                     "--trace", "--trace-out", str(trace_out)]) == 0
        assert "span-tree digest:" in capsys.readouterr().out
        assert json.loads(trace_out.read_text())["traceEvents"]
        entry = json.loads(
            (tmp_path / "BENCH_crash.json").read_text()
        )["entries"]["crash_ext3_creat"]
        assert entry["span_digest"] and "jobs" not in entry

    def test_array_slice_leaves_the_full_matrix_key(self, capsys, tmp_path,
                                                    monkeypatch):
        target = tmp_path / "BENCH_array.json"
        monkeypatch.setenv("REPRO_BENCH_ARRAY_JSON", str(target))
        full = {"cells": "the full-matrix row"}
        target.write_text(json.dumps({
            "schema": SCHEMA, "entries": {"array_fingerprint": full}}))
        assert main(["array", "--geometry", "mirror2",
                     "--geometry", "rdp5"]) == 0
        assert "(array_fingerprint_mirror2-rdp5)" in capsys.readouterr().out
        entries = json.loads(target.read_text())["entries"]
        assert entries["array_fingerprint"] == full
        sliced = entries["array_fingerprint_mirror2-rdp5"]
        assert sliced["geometries"] == ["mirror2", "rdp5"]
        assert set(sliced) == {"cells", "geometries", "event_digest"}

    @pytest.mark.parametrize("command", [
        ["fingerprint", "ext3"], ["crash"], ["trace"], ["array"],
        ["fleet"], ["report"]])
    def test_jobs_below_one_exits_2(self, command, capsys):
        # Only fleet and report take --jobs; the others reject the option
        # outright, whatever its value.
        with pytest.raises(SystemExit) as exc:
            main([*command, "--jobs", "0"])
        assert exc.value.code == 2
        expected = ("--jobs must be >= 1" if command[0] in ("fleet", "report")
                    else "unrecognized arguments: --jobs")
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["fingerprint", "ext3"], ["crash"], ["trace"], ["array"]])
    def test_jobs_is_fleet_and_report_only(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    def test_negative_max_torn_exits_2(self, capsys):
        # A negative cap would hide every torn state and report a pass.
        with pytest.raises(SystemExit) as exc:
            main(["crash", "ext3", "--workload", "creat", "--max-torn", "-1",
                  "--fail-on-violation", "--no-bench-json"])
        assert exc.value.code == 2
        assert "--max-torn must be >= 0" in capsys.readouterr().err

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


TINY_FLEET = ["--trials", "2", "--mission-hours", "2000",
              "--geometry", "single", "--geometry", "mirror2",
              "--policy", "baseline", "--no-crosscheck"]


class TestFleetCLI:
    @pytest.fixture(autouse=True)
    def fleet_json(self, tmp_path, monkeypatch):
        target = tmp_path / "BENCH_fleet.json"
        monkeypatch.setenv("REPRO_BENCH_FLEET_JSON", str(target))
        return target

    def test_fleet_prints_incident_summary(self, capsys):
        assert main(["fleet", *TINY_FLEET, "--no-bench-json"]) == 0
        out = capsys.readouterr().out
        assert "P(data loss)" in out
        assert "incidents (top loss mode per cell):" in out
        assert "single/baseline:" in out

    def test_fleet_records_both_digest_families(self, capsys, fleet_json):
        assert main(["fleet", *TINY_FLEET]) == 0
        entry = json.loads(
            fleet_json.read_text())["entries"]["fleet_default_j1"]
        assert entry["event_digest_jobs1"]
        assert entry["incident_digest_jobs1"]

    def test_failed_crosscheck_replaces_the_passing_row(
            self, capsys, fleet_json, tmp_path, monkeypatch):
        from repro.fleet import campaign

        argv = ["fleet", *TINY_FLEET[:-1],
                "--metrics-out", str(tmp_path / "m.json")]
        assert main(argv) == 0
        row = json.loads(fleet_json.read_text())["entries"]["fleet_default_j1"]
        assert row["crosscheck"]["within_tolerance"] is True

        summary = campaign.crosscheck_summary
        monkeypatch.setattr(
            campaign, "crosscheck_summary",
            lambda **kw: {**summary(**kw), "within_tolerance": False})
        (tmp_path / "m.json").unlink()
        assert main(argv) == 1
        assert "::error::mirror2" in capsys.readouterr().err
        row = json.loads(fleet_json.read_text())["entries"]["fleet_default_j1"]
        assert row["crosscheck"]["within_tolerance"] is False
        assert (tmp_path / "m.json").exists()

    def test_fleet_rejects_unknown_geometry(self, capsys):
        assert main(["fleet", "--geometry", "floppy8"]) == 2
        assert "unknown geometry" in capsys.readouterr().err


class TestReportCLI:
    def test_report_writes_schema_valid_json(self, capsys, tmp_path):
        out_path = tmp_path / "campaign_report.json"
        assert main(["report", *TINY_FLEET, "-o", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "campaign report written to" in out
        assert "(schema-valid)" in out
        body = json.loads(out_path.read_text())
        assert body["schema"] == "repro-campaign-report/1"
        assert body["incident_digest"]
        assert body["timeseries"]
        assert len(body["incidents"]) >= 1
        for incident in body["incidents"]:
            assert incident["causes"]

    def test_report_has_no_profile_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["report", *TINY_FLEET, "--profile"])
        assert exc.value.code == 2

    def test_trace_trial_exports_perfetto_timeline(self, capsys, tmp_path):
        trace_out = tmp_path / "t.json"
        assert main(["report", *TINY_FLEET,
                     "--trace-trial", "mirror2/baseline:0",
                     "--trace-out", str(trace_out)]) == 0
        out = capsys.readouterr().out
        assert "trial mirror2/baseline#0:" in out
        assert "ui.perfetto.dev" in out
        doc = json.loads(trace_out.read_text())
        assert doc["traceEvents"]
        flight = json.loads(
            trace_out.with_suffix(".flight.json").read_text())
        assert flight["schema"] == "repro-timeseries/1"
        assert flight["tracks"]

    def test_trace_trial_rejects_bad_cell(self, capsys):
        assert main(["report", *TINY_FLEET,
                     "--trace-trial", "mirror2/baseline"]) == 2
        assert "GEOMETRY/POLICY:N" in capsys.readouterr().err
        assert main(["report", *TINY_FLEET,
                     "--trace-trial", "floppy8/baseline:0"]) == 2


#: (argv, BENCH file, entry, the function it runs) per command that
#: records a result row.
FAILING_RUNS = {
    "fingerprint": (["fingerprint", "ext3", "--workloads", "a"],
                    "BENCH_fingerprint.json", "fingerprint_ext3_a",
                    "repro.fingerprint.harness.Fingerprinter.run"),
    "crash": (["crash", "ext3", "--workload", "creat"],
              "BENCH_crash.json", "crash_ext3_creat", "repro.crash.explore"),
    "array": (["array", "--geometry", "mirror2"],
              "BENCH_array.json", "array_fingerprint_mirror2",
              "repro.redundancy.fingerprint.run_array_fingerprint"),
    "fleet": (["fleet", *TINY_FLEET], "BENCH_fleet.json", "fleet_default_j1",
              "repro.fleet.campaign.run_fleet"),
}


class TestFailureRows:
    """A run that raises — an error or an interrupt — replaces its
    command's result row with a failure row, then re-raises."""

    @pytest.fixture(autouse=True)
    def bench_files(self, tmp_path, monkeypatch):
        for kind, var in (("fingerprint", "REPRO_BENCH_JSON"),
                          ("crash", "REPRO_BENCH_CRASH_JSON"),
                          ("array", "REPRO_BENCH_ARRAY_JSON"),
                          ("fleet", "REPRO_BENCH_FLEET_JSON")):
            monkeypatch.setenv(var, str(tmp_path / f"BENCH_{kind}.json"))
        return tmp_path

    @pytest.mark.parametrize("exc_type", [RuntimeError, KeyboardInterrupt])
    @pytest.mark.parametrize("command", sorted(FAILING_RUNS))
    def test_failure_row_then_reraise(self, command, exc_type, bench_files,
                                      capsys):
        argv, filename, entry, run_path = FAILING_RUNS[command]
        target = bench_files / filename

        def raiser(*args, **kwargs):
            raise exc_type("boom")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(run_path, raiser)
            with pytest.raises(exc_type):
                main(argv)
        row = json.loads(target.read_text())["entries"][entry]
        assert row["status"] == "failed"
        assert row["error"] == exc_type.__name__
        assert row["error_detail"] == "boom"
        # The process is still usable: the same command now succeeds and
        # its result replaces the failure row.
        assert main(argv) == 0
        row = json.loads(target.read_text())["entries"][entry]
        assert "status" not in row
        capsys.readouterr()


class TestDigestMismatches:
    def test_flags_each_family_separately(self):
        from repro.cli import _digest_mismatches

        entries = {
            "ok": {"event_digest_jobs1": "a", "event_digest_jobs4": "a",
                   "incident_digest_jobs1": "b", "incident_digest_jobs4": "b"},
            "bad_event": {"event_digest_jobs1": "a",
                          "event_digest_jobs4": "x"},
            "bad_incident": {"incident_digest_jobs1": "b",
                             "incident_digest_jobs4": "y",
                             "event_digest_jobs1": "a",
                             "event_digest_jobs4": "a"},
            "not_a_record": 3,
        }
        assert _digest_mismatches(entries) == ["bad_event", "bad_incident"]
