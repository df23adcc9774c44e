"""Metrics registry: instruments, snapshots, associative merging,
Prometheus text rendering, event-stream accumulation, and the committed
JSON schema."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.events import (
    DetectionEvent,
    EventLog,
    FaultArmedEvent,
    IOEvent,
    JournalCommitEvent,
    PolicyActionEvent,
    RecoveryEvent,
    Severity,
)
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    derive_rates,
    metrics_from_events,
    render_prometheus,
    validate_snapshot,
)
from repro.obs.trace import enable_tracing


class TestInstruments:
    def test_counter_accumulates_and_rejects_decrements(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_io_total", op="read", outcome="ok")
        c.inc()
        c.inc(3)
        assert c.value == 4
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_same_name_different_labels_are_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("repro_io_total", op="read").inc()
        reg.counter("repro_io_total", op="write").inc(2)
        snap = reg.snapshot()
        assert [c["value"] for c in snap["counters"]] == [1, 2]

    def test_label_order_does_not_split_series(self):
        reg = MetricsRegistry()
        reg.counter("x", a="1", b="2").inc()
        reg.counter("x", b="2", a="1").inc()
        assert len(reg.snapshot()["counters"]) == 1

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_io_latency_seconds", op="read")
        h.observe(LATENCY_BUCKETS[0] / 2)  # below the lowest bound
        assert all(n == 1 for n in h.bucket_counts)
        h.observe(LATENCY_BUCKETS[-1] * 10)  # above every bound
        assert all(n == 1 for n in h.bucket_counts)
        assert h.count == 2

    def test_histogram_bound_mismatch_is_an_error(self):
        reg = MetricsRegistry()
        reg.histogram("h", bounds=(1.0, 2.0))
        with pytest.raises(ValueError):
            reg.histogram("h", bounds=(1.0, 5.0))


class TestSnapshots:
    def _sample(self, seed=1):
        reg = MetricsRegistry()
        reg.counter("repro_cache_hits_total", layer="block-cache").inc(3 * seed)
        reg.counter("repro_cache_misses_total", layer="block-cache").inc(seed)
        reg.gauge("repro_faults_currently_armed").set(seed)
        reg.histogram("repro_io_latency_seconds", op="read").observe(0.001 * seed)
        return reg

    def test_snapshot_round_trip(self):
        snap = self._sample().snapshot()
        again = MetricsRegistry.from_snapshot(snap).snapshot()
        assert json.dumps(snap, sort_keys=True) == json.dumps(again, sort_keys=True)

    def test_snapshot_is_deterministic(self):
        a = json.dumps(self._sample().snapshot(), sort_keys=True)
        b = json.dumps(self._sample().snapshot(), sort_keys=True)
        assert a == b

    def test_merge_sums_counters_and_maxes_gauges(self):
        merged = self._sample(1).merge(self._sample(2))
        snap = merged.snapshot()
        hits = next(c for c in snap["counters"]
                    if c["name"] == "repro_cache_hits_total")
        assert hits["value"] == 9
        armed = next(g for g in snap["gauges"]
                     if g["name"] == "repro_faults_currently_armed")
        assert armed["value"] == 2  # max, not sum

    def test_merge_snapshots_is_associative(self):
        snaps = [self._sample(s).snapshot() for s in (1, 2, 3)]
        left = MetricsRegistry.merge_snapshots([
            MetricsRegistry.merge_snapshots(snaps[:2]), snaps[2],
        ])
        right = MetricsRegistry.merge_snapshots([
            snaps[0], MetricsRegistry.merge_snapshots(snaps[1:]),
        ])
        flat = MetricsRegistry.merge_snapshots(snaps)
        assert json.dumps(left, sort_keys=True) == json.dumps(flat, sort_keys=True)
        assert json.dumps(right, sort_keys=True) == json.dumps(flat, sort_keys=True)

    def test_merge_rederives_hit_rate_from_summed_counters(self):
        merged = MetricsRegistry.merge_snapshots(
            [self._sample(1).snapshot(), self._sample(2).snapshot()]
        )
        rate = next(g for g in merged["gauges"]
                    if g["name"] == "repro_cache_hit_rate")
        # 9 hits / 12 lookups — not the max of the per-worker rates.
        assert rate["value"] == pytest.approx(9 / 12)

    def test_derive_rates_direct(self):
        reg = MetricsRegistry()
        reg.counter("repro_cache_hits_total", layer="l").inc(1)
        reg.counter("repro_cache_misses_total", layer="l").inc(3)
        derive_rates(reg)
        assert reg.gauge("repro_cache_hit_rate", layer="l").value == 0.25


class TestPrometheusText:
    def test_render_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.counter("repro_io_total", op="read", outcome="ok").inc(5)
        reg.gauge("repro_cache_hit_rate", layer="block-cache").set(0.5)
        h = reg.histogram("repro_io_latency_seconds", op="read",
                          bounds=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        text = render_prometheus(reg.snapshot())
        assert "# TYPE repro_io_total counter" in text
        assert 'repro_io_total{op="read",outcome="ok"} 5' in text
        assert "# TYPE repro_cache_hit_rate gauge" in text
        assert 'repro_io_latency_seconds_bucket{le="0.1",op="read"} 1' in text
        assert 'repro_io_latency_seconds_bucket{le="1",op="read"} 2' in text
        assert 'repro_io_latency_seconds_bucket{le="+Inf",op="read"} 2' in text
        assert 'repro_io_latency_seconds_count{op="read"} 2' in text

    def test_help_lines_present_for_known_families(self):
        reg = MetricsRegistry()
        reg.counter("repro_detections_total", level="D_sanity").inc()
        assert "# HELP repro_detections_total" in render_prometheus(reg.snapshot())


class TestMetricsFromEvents:
    def _stream(self):
        log = EventLog()
        tracer = enable_tracing(log)
        span = tracer.start("run", "run")
        log.emit(FaultArmedEvent(op="read", fault_kind="fail", block=7))
        log.emit(IOEvent("read", 7, "error", "inode"))
        log.emit(IOEvent("read", 8, "ok", "data"))
        log.emit(DetectionEvent(Severity.WARNING, "fs", "sanity-fail",
                                "bad inode", mechanism="sanity"))
        log.emit(RecoveryEvent(Severity.INFO, "fs", "retry-success",
                               "second attempt", mechanism="retry"))
        log.emit(PolicyActionEvent(Severity.ERROR, "fs", "remount-ro",
                                   "degrading"))
        log.emit(JournalCommitEvent(source="journal", ops=1))
        tracer.end(span)
        return log

    def _value(self, snap, name, **labels):
        for c in snap["counters"]:
            if c["name"] == name and all(
                c["labels"].get(k) == v for k, v in labels.items()
            ):
                return c["value"]
        return 0

    def test_iron_level_bucketing(self):
        snap = metrics_from_events(self._stream()).snapshot()
        assert self._value(snap, "repro_io_total", op="read", outcome="error") == 1
        assert self._value(snap, "repro_io_total", op="read", outcome="ok") == 1
        assert self._value(snap, "repro_faults_armed_total") == 1
        assert self._value(snap, "repro_faults_fired_total", op="read") == 1
        assert self._value(snap, "repro_detections_total", level="D_sanity") == 1
        assert self._value(snap, "repro_recoveries_total", level="R_retry") == 1
        # remount-ro is a stop action: counted under R_stop too.
        assert self._value(snap, "repro_recoveries_total", level="R_stop") == 1
        assert self._value(snap, "repro_policy_actions_total",
                           action="remount-ro") == 1
        assert self._value(snap, "repro_journal_commits_total") == 1
        assert self._value(snap, "repro_spans_total", category="run") == 1

    def test_accumulates_into_existing_registry(self):
        reg = metrics_from_events(self._stream())
        metrics_from_events(self._stream(), reg)
        snap = reg.snapshot()
        assert self._value(snap, "repro_faults_fired_total", op="read") == 2

    def test_stop_levels_match_inference_stop_actions(self):
        # One set in obs.events serves both: metrics' R_stop counter and
        # inference's R_stop verdict cannot drift apart.
        from repro.fingerprint.inference import STOP_ACTIONS
        from repro.obs.metrics import STOP_ACTION_TAGS

        assert STOP_ACTION_TAGS == STOP_ACTIONS
        assert STOP_ACTION_TAGS is STOP_ACTIONS


class TestSchemaValidation:
    def test_committed_schema_accepts_real_snapshots(self):
        snap = metrics_from_events(TestMetricsFromEvents()._stream()).snapshot()
        assert validate_snapshot(snap) == []

    def test_rejects_wrong_schema_tag(self):
        snap = MetricsRegistry().snapshot()
        snap["schema"] = "bogus/9"
        assert validate_snapshot(snap)

    def test_rejects_negative_counter(self):
        reg = MetricsRegistry()
        reg.counter("x").inc(2)
        snap = reg.snapshot()
        snap["counters"][0]["value"] = -1
        assert validate_snapshot(snap)

    def test_rejects_missing_sections_and_extra_keys(self):
        snap = MetricsRegistry().snapshot()
        del snap["gauges"]
        assert validate_snapshot(snap)
        snap2 = MetricsRegistry().snapshot()
        snap2["surprise"] = True
        assert validate_snapshot(snap2)

    def test_rejects_non_string_label_values(self):
        reg = MetricsRegistry()
        reg.counter("x", op="read").inc()
        snap = reg.snapshot()
        snap["counters"][0]["labels"]["op"] = 7
        assert validate_snapshot(snap)

    def test_errors_carry_the_json_path(self, tmp_path):
        from repro.common.schema import validate_json

        schema = tmp_path / "s.json"
        schema.write_text(json.dumps({
            "type": "object",
            "properties": {"rate": {"type": "number"}},
            "additionalProperties": {"type": "array", "items": {"type": "integer"}},
        }))
        errors = validate_json(
            {"rate": float("nan"), "bins": [1, 2, "x"]}, schema)
        assert errors == [
            "$.rate: non-finite number",
            "$.bins[2]: expected type integer, got str",
        ]


class TestLabelEscaping:
    def test_backslash_quote_and_newline_escape(self):
        reg = MetricsRegistry()
        reg.counter("repro_io_total", path='a\\b"c\nd').inc()
        text = render_prometheus(reg.snapshot())
        assert 'path="a\\\\b\\"c\\nd"' in text
        # Exactly one physical sample line for the series: the newline
        # in the label value must not split the exposition.
        lines = [l for l in text.splitlines()
                 if l.startswith("repro_io_total{")]
        assert len(lines) == 1

    def test_backslash_escaped_before_quote(self):
        # A value ending in backslash must not swallow the closing
        # quote: \ -> \\ first, then " -> \".
        reg = MetricsRegistry()
        reg.counter("repro_io_total", path='trailing\\').inc()
        text = render_prometheus(reg.snapshot())
        assert 'path="trailing\\\\"' in text

    def test_plain_values_unchanged(self):
        reg = MetricsRegistry()
        reg.counter("repro_io_total", op="read").inc()
        assert 'op="read"' in render_prometheus(reg.snapshot())


class TestDeriveRatesGuards:
    def test_zero_reads_derives_no_hit_rate(self):
        reg = MetricsRegistry()
        reg.counter("repro_cache_hits_total", layer="buffer").inc(0)
        reg.counter("repro_cache_misses_total", layer="buffer").inc(0)
        derive_rates(reg)
        assert not any(e["name"] == "repro_cache_hit_rate"
                       for e in reg.snapshot()["gauges"])

    def test_zero_trials_derives_no_loss_probability(self):
        reg = MetricsRegistry()
        reg.counter("repro_fleet_trials_total", geometry="m2",
                    policy="base", outcome="survived").inc(0)
        derive_rates(reg)
        assert not any(e["name"] == "repro_fleet_loss_probability"
                       for e in reg.snapshot()["gauges"])

    def test_empty_registry_is_a_no_op(self):
        reg = MetricsRegistry()
        derive_rates(reg)
        assert len(reg) == 0

    def test_loss_probability_recomputed_from_summed_cells(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg, lost in ((a, 1), (b, 3)):
            reg.counter("repro_fleet_trials_total", geometry="m2",
                        policy="base", outcome="detected-loss").inc(lost)
            reg.counter("repro_fleet_trials_total", geometry="m2",
                        policy="base", outcome="survived").inc(10 - lost)
        a.merge(b)
        derive_rates(a)
        gauge = [e for e in a.snapshot()["gauges"]
                 if e["name"] == "repro_fleet_loss_probability"]
        assert gauge and gauge[0]["value"] == pytest.approx(0.2)


class TestMergeOrderProperty:
    """Hypothesis: merging per-worker registries in ANY order (and any
    grouping) yields byte-identical snapshots and Prometheus text —
    counters and histogram buckets sum, gauges max, time-series bins
    fold, all associative and commutative."""

    @staticmethod
    def _apply(registry, op):
        kind, name, label, value = op
        if kind == 0:
            registry.counter(name, cell=label).inc(value)
        elif kind == 1:
            registry.gauge(name, cell=label).set(value)
        elif kind == 2:
            registry.histogram(
                name, bounds=(1.0, 10.0), cell=label).observe(value)
        else:
            series = registry.timeseries(name, 100.0, 8, cell=label)
            series.fold((series.bin_index(value * 7.0),), (1,), (value,),
                        (value,), (value,))

    @given(
        parts=st.lists(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=3),
                    st.sampled_from(["m_alpha", "m_beta"]),
                    st.sampled_from(["a", "b"]),
                    # Small integers: exactly representable, so float
                    # sums cannot depend on addition order.
                    st.integers(min_value=0, max_value=12).map(float),
                ),
                max_size=12,
            ),
            min_size=1, max_size=4,
        ),
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_order_and_grouping_invariant(self, parts, order):
        def build(ops):
            registry = MetricsRegistry()
            for op in ops:
                self._apply(registry, op)
            return registry

        def dump(registry):
            derive_rates(registry)
            snap = registry.snapshot()
            return json.dumps(snap, sort_keys=True), render_prometheus(snap)

        # Left-to-right merge in the given order.
        forward = MetricsRegistry()
        for ops in parts:
            forward.merge(build(ops))
        # A shuffled order...
        shuffled_parts = list(parts)
        order.shuffle(shuffled_parts)
        shuffled = MetricsRegistry()
        for ops in shuffled_parts:
            shuffled.merge(build(ops))
        # ...and a nested grouping (pairwise tree instead of a chain).
        grouped = [build(ops) for ops in parts]
        while len(grouped) > 1:
            grouped = [a.merge(b) for a, b in
                       zip(grouped[::2], grouped[1::2])] + \
                (grouped[-1:] if len(grouped) % 2 else [])
        tree = grouped[0]

        assert dump(forward) == dump(shuffled) == dump(tree)
