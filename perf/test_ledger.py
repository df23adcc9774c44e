"""Tests of the ledger's own machinery (``python -m pytest perf -q``).

Not collected by tier-1: ``pyproject.toml`` limits that to ``tests/``.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from perf import compare, metrics, run
from perf.trace import LAYERS, ROOT_LAYER, SPECS, DiskMeter, Tracer, _fs_specs, _resolve
from perf.workloads import (
    WORKLOADS, CrashExplore, FleetCampaignJ2, Skipped, Workload,
)


# -- self-time arithmetic ----------------------------------------------------------


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _nested(tracer: Tracer, full: bool):
    """outer(a) -> middle(b) x2 -> inner(a) — a layer re-entered below
    another, the shape fs -> journal -> fs takes."""
    inner = tracer.wrap("a", "inner", lambda: _spin(0.002), full=full)

    def middle_body():
        _spin(0.001)
        inner()

    middle = tracer.wrap("b", "middle", middle_body, full=full)

    def outer_body():
        middle()
        _spin(0.001)
        middle()

    return tracer.wrap("a", "outer", outer_body, full=full)


@pytest.mark.parametrize("full", [False, True])
def test_self_times_sum_to_the_root_duration(full):
    tracer = Tracer()
    outer = _nested(tracer, full)
    with tracer.root():
        outer()
        _spin(0.001)
    taken = tracer.take()
    root_s = taken.total_s(ROOT_LAYER)
    total_self = sum(taken.self_s(layer) for layer in ("a", "b", ROOT_LAYER))
    assert total_self == pytest.approx(root_s, abs=1e-9)
    assert taken.calls("a") == 3 and taken.calls("b") == 2
    assert taken.self_s("b") >= 0.002
    assert taken.self_s(ROOT_LAYER) >= 0.001
    # ``inner`` is entered from layer b, ``outer`` from the root.
    assert taken.calls("a", "inner", parent="b") == 2
    assert taken.entered_s("a", "outer") == taken.total_s("a", "outer")


def test_aggregated_and_full_record_paths_agree():
    tracer = Tracer()
    outer = _nested(tracer, full=True)
    with tracer.root():
        outer()
    taken = tracer.take()
    # Rebuild each layer's self time from the span records alone.
    from_spans = {"a": 0.0, "b": 0.0}
    for index, (_, layer, start, end, _, _) in enumerate(taken.spans):
        children = sum(s[3] - s[2] for s in taken.spans if s[4] == index)
        from_spans[layer] += (end - start) - children
    for layer, expected in from_spans.items():
        assert taken.self_s(layer) == pytest.approx(expected, abs=1e-9)
    assert [s[0] for s in taken.spans] == [
        "outer", "middle", "inner", "middle", "inner"]
    assert [s[4] for s in taken.spans] == [-1, 0, 1, 0, 3]


def test_take_resets_in_place():
    tracer = Tracer()
    fn = tracer.wrap("a", "f", lambda: None, full=True)
    fn()
    assert tracer.take().calls("a") == 1
    fn()
    fn()
    taken = tracer.take()
    assert taken.calls("a") == 2 and len(taken.spans) == 2


def test_a_generator_cannot_be_wrapped():
    def gen():
        yield 1
    with pytest.raises(TypeError):
        Tracer().wrap("a", "gen", gen)


# -- install / uninstall -------------------------------------------------------------


def _wrapped_attributes():
    """``(holder, name) -> object`` for everything install() touches."""
    from repro.bench.workloads import BENCHMARKS

    found = {}
    for spec in list(SPECS) + _fs_specs():
        owner = _resolve(spec.owner)
        for name in spec.names:
            found[(spec.owner, name)] = vars(owner)[name]
    for bench, entry in BENCHMARKS.items():
        for phase, fn in entry.items():
            found[("BENCHMARKS", bench, phase)] = fn
    import repro.crash
    import repro.fingerprint.harness as harness
    found[("repro.crash", "explore")] = repro.crash.explore
    found[("harness", "infer_policy")] = harness.infer_policy
    return found


def _traced_crash_pass():
    """Three of crash_explore's 35 explorations, traced and metered."""
    wanted = {"ext3/creat", "jfs/rename", "ext3@rdp5/creat"}
    workload = CrashExplore(0)
    jobs = [job for job in workload.jobs() if job[0] in wanted]
    tracer, meter = Tracer(), DiskMeter()
    meter.install()
    tracer.install()
    try:
        done = run._run_pass(workload, jobs, tracer)
    finally:
        tracer.uninstall()
        meter.uninstall()
    return tracer.take(), meter.take(), done.raw, done.wall_s


def test_every_wrapped_attribute_is_restored_to_the_identical_object():
    before = _wrapped_attributes()
    taken, disk, raw, _ = _traced_crash_pass()
    after = _wrapped_attributes()
    assert after.keys() == before.keys()
    for key, original in before.items():
        assert after[key] is original, key
    # ... and the pass really went through the wrappers.
    assert not any(isinstance(r, Exception) for r in raw.values())
    assert taken.calls("crash.engine", "explore") == 3
    assert taken.calls("fs") > 0 and taken.calls("disk.disk") > 0
    assert disk["reads"] > 0


def test_lookup_sites_are_wrapped_while_installed():
    import repro.crash
    import repro.crash.engine as engine
    from repro.bench.workloads import BENCHMARKS, postmark

    tracer = Tracer()
    tracer.install()
    try:
        assert repro.crash.explore is engine.explore is not None
        assert engine.explore.__wrapped__ is not None
        assert BENCHMARKS["Post"]["run"] is not postmark
        assert BENCHMARKS["Post"]["run"].__wrapped__ is postmark
    finally:
        tracer.uninstall()
    assert BENCHMARKS["Post"]["run"] is postmark


def test_two_traced_runs_of_crash_explore_give_identical_counts():
    readings = []
    for _ in range(2):
        taken, disk, raw, _ = _traced_crash_pass()
        values = metrics.pass_metrics(taken, disk, {})
        readings.append({name: value for name, value in values.items()
                         if metrics.repeats_exactly(name)})
    assert readings[0] == readings[1]
    assert readings[0]["crash.engine.states"] > 100
    assert readings[0]["redundancy.array.member_ios"] > 0
    assert readings[0]["disk.disk.reads"] > 0


def test_unattributed_time_is_small_on_a_real_pass():
    taken, _, _, wall = _traced_crash_pass()
    assert taken.self_s(ROOT_LAYER) <= 0.15 * wall
    total_self = sum(taken.self_s(layer) for layer in LAYERS + (ROOT_LAYER,))
    assert total_self == pytest.approx(taken.total_s(ROOT_LAYER), abs=1e-6)


def test_disk_meter_survives_restore_and_dropped_disks():
    from repro.disk.disk import make_disk

    meter = DiskMeter()
    meter.install()
    try:
        disk = make_disk(8, 512)
        disk.write_block(1, b"x" * 512)
        snapshot = disk.snapshot()
        disk.read_block(1)
        disk.restore(snapshot)          # zeroes disk.stats in place
        disk.read_block(1)
        del disk                        # as replace_member drops a disk
        other = make_disk(8, 512)
        other.read_block(0)
    finally:
        meter.uninstall()
    reading = meter.take()
    assert (reading["reads"], reading["writes"]) == (3, 1)
    assert reading["busy_time_s"] > 0
    assert meter.take()["reads"] == 0


# -- failure accounting ----------------------------------------------------------------


class _OneBadUnit(Workload):
    name = expected_key = "one_bad_unit"
    unit = "block"

    def jobs(self):
        from repro.disk.disk import make_disk

        def good():
            disk = make_disk(8, 512)
            disk.write_block(0, b"y" * 512)
            return disk.read_block(0)

        def bad():
            raise RuntimeError("boom")

        return [("first", good), ("broken", bad), ("last", good)]

    def summarise(self, key, raw):
        return {"units": 1, "result": {"bytes": len(raw)}, "stream": None}


def test_a_unit_that_raises_is_counted_without_aborting(tmp_path, monkeypatch):
    monkeypatch.setitem(WORKLOADS, _OneBadUnit.name, _OneBadUnit)
    monkeypatch.setattr(run, "_probe_setup",
                        lambda name, seed: ([0.25], [0.3]))
    result, record = run.run_one(_OneBadUnit.name, 0, 0.0, False,
                                 out_dir=tmp_path)
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (3, 1)
    nine = record["end_to_end"]
    assert nine["failure_rate"]["value"] == pytest.approx(1 / 3)
    assert nine["sim_mismatches"]["value"] == 0
    assert nine["device_ios"]["value"] == 4      # both good units ran
    assert any("broken: raised RuntimeError: boom" in n
               for n in record["notes"])
    assert set(result["metrics"]) == set(metrics.DRIVER_END_TO_END)
    assert (tmp_path / "run_one_bad_unit_trace0.json").exists()


def test_a_result_that_differs_from_the_pinned_one_is_a_mismatch():
    workload = _OneBadUnit(0)
    pinned = {"device_ios": 2, "virtual_s": 0.5,
              "jobs": {"first": {"units": 1, "result": {"bytes": 512},
                                 "stream": "abc"},
                       "last": {"units": 1, "result": {"bytes": 999},
                                "stream": None}}}
    book = run._Book(workload, pinned)
    summaries = {"first": {"units": 1, "result": {"bytes": 512},
                           "stream": "changed"},
                 "last": {"units": 1, "result": {"bytes": 512},
                          "stream": None}}
    book.judge(summaries, None)
    assert (book.attempted, book.failed, book.mismatched) == (2, 1, 1)
    assert book.stream_changed == 1     # reported, not failed
    # A device count that moved fails the whole pass.
    book.judge(summaries, {"reads": 2, "writes": 1, "busy_time_s": 0.5})
    assert (book.attempted, book.failed) == (4, 3)


def test_j2_is_skipped_on_a_single_cpu(monkeypatch, capsys):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    with pytest.raises(Skipped):
        FleetCampaignJ2(0)
    code = run.main(["--workload", "fleet_campaign_j2", "--seed", "0",
                     "--seconds", "1", "--trace", "0"])
    assert code == run.EXIT_SKIPPED
    out = capsys.readouterr().out
    assert "skipped: fleet_campaign_j2" in out
    assert '"correct"' not in out


def test_ledger_records_skipped_not_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "_child", lambda *args: run.EXIT_SKIPPED)
    out = tmp_path / "ledger.json"
    assert run.run_ledger(["fleet_campaign_j2"], 0, 1, True, out) == 0
    ledger = json.loads(out.read_text())
    assert ledger["workloads"]["fleet_campaign_j2"] == {"status": "skipped"}
    assert {"cpu_count", "python", "platform", "git_sha", "seed"} \
        <= ledger["host"].keys()


def test_usage_errors_exit_2(tmp_path, capsys):
    assert run.main(["--workload", "nope"]) == run.EXIT_USAGE
    assert run.main(["--compare", str(tmp_path / "a"), str(tmp_path / "b")]) \
        == run.EXIT_USAGE
    (tmp_path / "a").write_text("{}")
    assert run.main(["--compare", str(tmp_path / "a"), str(tmp_path / "a")]) \
        == run.EXIT_USAGE
    capsys.readouterr()


# -- the contract file ------------------------------------------------------------------


def test_benchmark_json_lists_what_the_code_reports():
    contract = run._benchmark_json()
    assert contract["paths"] == ["perf"]
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS) \
        == list(run.WORKLOAD_NAMES)
    assert {w["name"]: w["why"] for w in contract["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()}
    assert all(len(w["why"]) <= 200 for w in contract["workloads"])
    listed = {m["name"]: (m["unit"], m["better"], m["bound"])
              for m in contract["end_to_end"]}
    assert listed == {name: metrics.END_TO_END[name]
                      for name in metrics.DRIVER_END_TO_END}
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} \
        == metrics.PER_LAYER
    assert len(metrics.PER_LAYER) <= 128
    assert all(f"{layer}.self_s" in metrics.PER_LAYER for layer in LAYERS)


# -- compare -------------------------------------------------------------------------------


def test_judge_pass_worse_unresolved():
    steady = [1.0, 1.01, 0.99, 1.0]
    assert compare.judge("wall_s", 1.0, 1.2, steady, steady) == ("PASS", False)
    assert compare.judge("wall_s", 1.0, 1.3, steady, steady) == ("WORSE", True)
    assert compare.judge("wall_s", 1.0, 0.7, steady, steady) == ("PASS", True)
    assert compare.judge("units_per_s", 100.0, 70.0) == ("WORSE", True)
    wide = [0.7, 1.0, 1.4, 1.8]
    assert compare.judge("wall_s", 1.0, 1.05, steady, wide)[0] == "UNRESOLVED"
    # ... unless every run of B beats every run of A.
    assert compare.judge("wall_s", 1.0, 0.5, wide,
                         [0.3, 0.4, 0.5, 0.6])[0] == "PASS"
    # Exact metrics may not move in either direction.
    assert compare.judge("virtual_s", 2.5, 2.5) == ("PASS", False)
    assert compare.judge("virtual_s", 2.5, 2.4) == ("WORSE", True)
    # setup_s has 0.2 s of absolute slack beside its 25%.
    assert compare.judge("setup_s", 0.4, 0.55)[0] == "PASS"
    assert compare.judge("setup_s", 0.4, 0.65)[0] == "WORSE"


def _ledger(wall_s: float, journal_self_s: float):
    nine = metrics.end_to_end(
        setup_s=0.4, wall_s=wall_s, units=100,
        disk={"reads": 500, "writes": 500, "seeks": 0, "busy_time_s": 2.0},
        peak_rss_mb=50.0, attempted=100, failed=0, sim_mismatches=0)
    layers = {name: {"value": 0.0, "unit": unit}
              for name, unit in metrics.PER_LAYER.items()}
    layers["fs.journal.self_s"]["value"] = journal_self_s
    return {"schema": "perf-ledger/1", "host": {"git_sha": None},
            "workloads": {"crash_explore": {
                "status": "ok",
                "end_to_end": metrics.with_units(nine, metrics.END_TO_END),
                "samples": {"wall_s": [wall_s] * 3, "setup_s": [0.4] * 5},
                "per_layer": layers}}}


def test_compare_names_the_layer_that_moved_and_exits_1(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_ledger(4.0, 1.0)))
    b.write_text(json.dumps(_ledger(6.0, 1.9)))
    assert run.main(["--compare", str(a), str(a)]) == 0
    capsys.readouterr()
    assert run.main(["--compare", str(a), str(b)]) == compare.EXIT_WORSE
    out = capsys.readouterr().out
    row = next(line for line in out.splitlines()
               if line.strip().startswith("wall_s"))
    assert "WORSE" in row and "1.500 x A" in row and "25%" in row
    assert "moved most: fs.journal.self_s +0.900 s" in row
    assert "virtual_s" in out and "exact" in out
    # The other direction is an improvement, not a failure.
    assert run.main(["--compare", str(b), str(a)]) == 0
    assert "moved most: fs.journal.self_s -0.900 s" in capsys.readouterr().out
