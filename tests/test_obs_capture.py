"""The one observed-run product (``repro.obs.capture.TraceCapture``):
whichever driver built it, the span-tree digest and metrics snapshot
repeat run for run, ``write()`` emits the same three files, and the
run's provenance references resolve against its streams."""

import json

import pytest

from repro.crash import explore
from repro.fingerprint import Fingerprinter, WORKLOAD_BY_KEY
from repro.fingerprint.adapters import make_ext3_adapter
from repro.obs.capture import trace_workloads
from repro.obs.metrics import validate_snapshot
from repro.obs.trace import resolve_ref


def _fingerprint():
    fp = Fingerprinter(make_ext3_adapter(),
                       workloads=[WORKLOAD_BY_KEY[k] for k in "ab"],
                       trace=True, metrics=True)
    matrix = fp.run()
    return fp.observed, [ref for obs in matrix.cells.values()
                         for ref in obs.provenance]


def _crash():
    report = explore("ext3", "creat", trace=True)
    return report.observed, [ref for violation in report.violations
                             for ref in violation.provenance]


def _trace():
    return trace_workloads("ext3", ["creat"]), []


@pytest.mark.parametrize("run", [_fingerprint, _crash, _trace])
def test_one_product_whichever_driver(run, tmp_path, capsys):
    first, refs = run()
    again, _ = run()
    assert first.span_digest() == again.span_digest()
    assert json.dumps(first.metrics, sort_keys=True) == \
        json.dumps(again.metrics, sort_keys=True)

    streams = first.by_label()
    assert streams
    for ref in refs:
        resolve_ref(ref, streams)

    trace_out, metrics_out = tmp_path / "t.json", tmp_path / "m.json"
    first.write(str(trace_out), str(metrics_out))
    doc = json.loads(trace_out.read_text())
    assert doc["traceEvents"]
    assert doc["otherData"]["span_tree_digest"] == first.span_digest()
    out = capsys.readouterr().out
    if first.metrics is None:      # crash runs collect no metrics
        assert not metrics_out.exists() and "metrics written" not in out
    else:
        assert validate_snapshot(json.loads(metrics_out.read_text())) == []
        assert metrics_out.with_suffix(".prom").read_text().startswith("# HELP")
        assert "metrics written" in out


def test_parts_nest_one_level_under_the_root():
    observed, _ = _fingerprint()
    assert observed.root == "fingerprint:ext3" and not observed.streams
    assert [part.root for part in observed.parts] == ["a", "b"]
    first = observed.parts[0]
    assert first.category == "workload"
    assert first.streams[0][0] == "a:baseline"
    assert set(observed.by_label()) == {
        label for part in observed.parts for label, _ in part.streams}
