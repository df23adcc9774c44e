"""Virtual-clock time series: ring-bounded tracks, mergeable binned
series, the flight recorder, and their registry integration."""

import json
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    MetricsRegistry,
    render_prometheus,
    validate_snapshot,
)
from repro.obs.timeseries import (
    SERIES_BINS,
    TRACK_CAP,
    FlightRecorder,
    PackedSeries,
    TimeSeries,
    Track,
    labels_key,
)


def _observe(series, t, value):
    """One observation: a fold of one value into the bin of *t*."""
    series.fold((series.bin_index(t),), (1,), (value,), (value,), (value,))


class TestTrack:
    def test_accepts_everything_below_cap(self):
        track = Track("g", cap=16)
        for i in range(10):
            track.sample(float(i), float(i))
        assert track.samples == [(float(i), float(i)) for i in range(10)]
        assert track.stride == 1

    def test_bounded_by_cap_for_any_offer_count(self):
        track = Track("g", cap=32)
        for i in range(100_000):
            track.sample(float(i), 1.0)
        assert len(track.samples) < 32
        assert track.offered == 100_000

    def test_decimation_is_deterministic_in_offer_sequence(self):
        a, b = Track("g", cap=16), Track("g", cap=16)
        for i in range(5_000):
            a.sample(i * 0.5, i % 7)
            b.sample(i * 0.5, i % 7)
        assert a.samples == b.samples
        assert a.stride == b.stride

    def test_retained_samples_span_the_whole_timeline(self):
        track = Track("g", cap=16)
        for i in range(10_000):
            track.sample(float(i), 0.0)
        times = [t for t, _v in track.samples]
        assert times[0] == 0.0
        # After thinning, retained offers are multiples of the stride,
        # so coverage reaches at least the last accepted multiple.
        assert times[-1] >= 10_000 - track.stride

    def test_last_property(self):
        track = Track("g")
        assert track.last is None
        track.sample(1.0, 2.0)
        assert track.last == (1.0, 2.0)

    def test_cap_below_two_rejected(self):
        with pytest.raises(ValueError):
            Track("g", cap=1)


class TestTimeSeries:
    def test_bin_index_clamps_both_ends(self):
        series = TimeSeries("g", (), t_max=100.0, bins=10)
        assert series.bin_index(-5.0) == 0
        assert series.bin_index(0.0) == 0
        assert series.bin_index(99.9) == 9
        assert series.bin_index(100.0) == 9  # loss exactly at mission end
        assert series.bin_index(250.0) == 9

    def test_observe_tracks_count_sum_min_max(self):
        series = TimeSeries("g", (), t_max=10.0, bins=2)
        _observe(series, 1.0, 3.0)
        _observe(series, 2.0, 5.0)
        _observe(series, 9.0, 7.0)
        assert series.counts == [2, 1]
        assert series.sums == [8.0, 7.0]
        assert series.mins == [3.0, 7.0]
        assert series.maxs == [5.0, 7.0]

    def test_merge_is_associative_and_commutative(self):
        import random

        rnd = random.Random(11)
        # Exactly-representable values so float sums are order-free.
        obs = [(rnd.uniform(0, 50), float(rnd.randrange(16)))
               for _ in range(300)]

        def build(part):
            s = TimeSeries("g", (), 50.0, 8)
            for t, v in part:
                _observe(s, t, v)
            return s

        a, b, c = build(obs[:100]), build(obs[100:180]), build(obs[180:])
        left = build([]).merge(a).merge(b).merge(c)
        right = build([]).merge(c).merge(b).merge(a)
        nested = build([]).merge(build([]).merge(a).merge(c)).merge(b)
        assert left.to_entry() == right.to_entry() == nested.to_entry()

    def test_merge_layout_mismatch_is_an_error(self):
        a = TimeSeries("g", (), 100.0, 10)
        with pytest.raises(ValueError):
            a.merge(TimeSeries("g", (), 100.0, 20))
        with pytest.raises(ValueError):
            a.merge(TimeSeries("g", (), 50.0, 10))

    def test_entry_round_trip(self):
        series = TimeSeries("g", labels_key({"cell": "m2"}), 10.0, 4)
        _observe(series, 1.0, 2.0)
        _observe(series, 8.0, 4.0)
        entry = series.to_entry()
        again = TimeSeries.from_entry(json.loads(json.dumps(entry)))
        assert again.to_entry() == entry


def _merge_per_bin(mine: TimeSeries, other: TimeSeries) -> TimeSeries:
    """The per-bin loop ``TimeSeries.merge`` replaced, kept as the
    reference its zip comprehensions must match."""
    for i in range(mine.bins):
        mine.counts[i] += other.counts[i]
        mine.sums[i] += other.sums[i]
        for ours, theirs, pick in ((mine.mins, other.mins, min),
                                   (mine.maxs, other.maxs, max)):
            if theirs[i] is not None:
                ours[i] = (theirs[i] if ours[i] is None
                           else pick(ours[i], theirs[i]))
    return mine


#: The values where a fold's comparisons matter: ties, both zeros,
#: both infinities, NaN, and empty (``None``) bins.
_EDGES = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 0.5, 1e-300])
_VALUE = st.one_of(_EDGES, st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def _series_columns(draw, bins):
    counts = draw(st.lists(st.integers(0, 9), min_size=bins, max_size=bins))
    sums = draw(st.lists(_VALUE, min_size=bins, max_size=bins))
    extremes = st.lists(st.one_of(st.none(), _VALUE),
                        min_size=bins, max_size=bins)
    return counts, sums, draw(extremes), draw(extremes)


def _with_columns(series, columns):
    series.counts, series.sums, series.mins, series.maxs = (
        list(column) for column in columns)
    return series


def _series(columns, bins):
    return _with_columns(TimeSeries("g", (("cell", "x"),), 40.0, bins),
                         columns)


class TestMergeMatchesThePerBinLoop:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda bins: st.tuples(st.just(bins), st.lists(
            _series_columns(bins), min_size=1, max_size=4))))
    def test_merge_and_entry_fold_equal_the_loop(self, drawn):
        bins, (first, *rest) = drawn
        want, got = _series(first, bins), _series(first, bins)
        registry = MetricsRegistry()
        _with_columns(registry.timeseries("g", 40.0, bins, cell="x"), first)
        for columns in rest:
            _merge_per_bin(want, _series(columns, bins))
            got.merge(_series(columns, bins))
            registry.timeseries("g", 40.0, bins, cell="x").fold(
                range(bins), *columns)
        # repr tells -0.0 from 0.0, and nan from any other value.
        expected = repr(want.to_entry())
        assert repr(got.to_entry()) == expected
        assert repr(registry.snapshot()["timeseries"][0]) == expected

    def test_a_column_of_the_wrong_length_is_rejected(self):
        series = TimeSeries("g", (), 10.0, 3)
        with pytest.raises(ValueError):
            series.fold(range(3), [1, 1, 1], [1.0, 1.0, 1.0], [None] * 3,
                        [None] * 2)


class TestFlightRecorder:
    def test_tracks_sorted_and_bounded(self):
        rec = FlightRecorder(["z_gauge", "a_gauge"], cap=8)
        for i in range(1000):
            rec.sample(float(i), (1.0, 2.0))
        assert [t.name for t in rec.tracks()] == ["a_gauge", "z_gauge"]
        assert all(len(t.samples) < 8 for t in rec.tracks())
        assert len(rec) == 2

    def test_packed_series_hold_occupied_bins_only(self):
        rec = FlightRecorder(["a", "b"])
        for t, values in ((1.0, (5.0, -1.0)), (9.0, (2.0, 0.5)),
                          (2.0, (3.0, -0.0))):
            rec.sample(t, values)
        assert rec.packed(10.0, bins=4) == PackedSeries(
            slots=(0, 3), counts=(2, 1),
            sums=((8.0, 2.0), (-1.0, 0.5)),
            mins=((3.0, 2.0), (-1.0, 0.5)),
            maxs=((5.0, 2.0), (-0.0, 0.5)))
        assert FlightRecorder(["a"]).packed(10.0) == PackedSeries(
            (), (), ((),), ((),), ((),))

    def test_snapshot_schema_tag(self):
        rec = FlightRecorder(["g"])
        rec.sample(0.0, (1,))
        snap = rec.to_snapshot()
        assert snap["schema"] == "repro-timeseries/1"
        assert snap["tracks"][0]["samples"] == [[0.0, 1.0]]

    def test_row_of_the_wrong_width_is_rejected(self):
        rec = FlightRecorder(["a", "b"])
        with pytest.raises(ValueError):
            rec.sample(0.0, (1.0,))

    @pytest.mark.parametrize("rows", [0, 1, 7, 8, 9, 100, 1000])
    def test_rows_equal_independent_tracks(self, rows):
        """One row per instant is seven tracks offered the same instants:
        same tracks, same bins, same snapshot, byte for byte."""
        import random

        names = [f"g{k}" for k in (3, 0, 6, 1, 5, 2, 4)]  # not sorted
        rnd = random.Random(rows)
        rec = FlightRecorder(names, cap=8)
        tracks = {name: Track(name, cap=8) for name in names}
        for i in range(rows):
            t = i * rnd.uniform(0.1, 3.0)
            values = [rnd.choice([rnd.randrange(9), rnd.uniform(-2, 2),
                                  -0.0, 0.0]) for _ in names]
            rec.sample(t, values)
            for name, value in zip(names, values):
                tracks[name].sample(t, value)
        want = [tracks[name] for name in sorted(names)]
        assert [t.to_entry() for t in rec.tracks()] == \
            [t.to_entry() for t in want]
        binned = []
        for track in want:
            series = TimeSeries(track.name, labels_key({"cell": "x"}),
                                t_max=rows or 1.0, bins=5)
            for t, value in track.samples:
                _observe(series, t, value)
            binned.append(series.to_entry())
        registry = MetricsRegistry()
        rec.packed(rows or 1.0, bins=5).fold_into(
            [registry.timeseries(name, rows or 1.0, 5, cell="x")
             for name in names])
        got = registry.snapshot()["timeseries"]
        assert json.dumps(got) == json.dumps(binned)
        assert json.dumps(rec.to_snapshot()) == json.dumps({
            "schema": "repro-timeseries/1",
            "tracks": [t.to_entry() for t in want]})


def _binned_entries(rec, t_max, bins, **labels):
    """``FlightRecorder.binned`` as it was before trials shipped packed
    series: per gauge (sorted by name) a fresh entry whose bins take the
    rows' values one by one, in row order."""
    index = TimeSeries("", (), t_max, bins).bin_index
    entries = []
    for g, name in sorted(enumerate(rec.names), key=lambda item: item[1]):
        counts, sums = [0] * bins, [0.0] * bins
        mins, maxs = [None] * bins, [None] * bins
        for row in rec.rows:
            i, value = index(row[0]), row[1 + g]
            counts[i] += 1
            sums[i] += value
            low, high = mins[i], maxs[i]
            mins[i] = value if low is None or value < low else low
            maxs[i] = value if high is None or value > high else high
        entries.append({"name": name, "labels": dict(labels_key(labels)),
                        "t_max": float(t_max), "bins": bins,
                        "counts": counts, "sums": sums,
                        "mins": mins, "maxs": maxs})
    return entries


def _fold_entries(merged, entries):
    """The registry fold trials went through before: every bin of each
    entry into the series of its name and labels, whole columns."""
    for entry in entries:
        key = (entry["name"], tuple(sorted(entry["labels"].items())))
        mine = merged.setdefault(key, {
            **entry, "counts": [0] * entry["bins"],
            "sums": [0.0] * entry["bins"], "mins": [None] * entry["bins"],
            "maxs": [None] * entry["bins"]})
        mine["counts"] = [a + b for a, b in zip(mine["counts"],
                                                entry["counts"])]
        mine["sums"] = [a + b for a, b in zip(mine["sums"], entry["sums"])]
        mine["mins"] = [b if b is not None and (a is None or b < a) else a
                        for a, b in zip(mine["mins"], entry["mins"])]
        mine["maxs"] = [b if b is not None and (a is None or b > a) else a
                        for a, b in zip(mine["maxs"], entry["maxs"])]


_GAUGE_NAMES = ("g_zeta", "g_alpha", "g_mid")     # not sorted


@st.composite
def _trials(draw):
    t_max = draw(st.sampled_from([1.0, 40.0, 10_000.0]))
    bins = draw(st.sampled_from([1, 3, 7, SERIES_BINS]))
    edges = [t_max * k / bins for k in range(bins + 1)]
    when = st.one_of(st.sampled_from(edges + [0.0, t_max * 1.5]),
                     st.floats(0.0, t_max * 1.25))
    row = st.tuples(when, st.tuples(*[_VALUE] * len(_GAUGE_NAMES)))
    trials = draw(st.lists(st.tuples(st.sampled_from(["a", "b"]),
                                     st.lists(row, max_size=24)),
                           min_size=1, max_size=5))
    return t_max, bins, trials


class TestPackedFoldMatchesToday:
    @settings(max_examples=300, deadline=None)
    @given(_trials())
    def test_packed_fold_equals_binned_entries_folded(self, drawn):
        """Trials in order, each binned the old way and folded whole
        into the reference, and packed (through a pickle, as from a
        worker) and folded into a registry: ``repr``-equal, so signed
        zeros, infinities and NaN land exactly where they did."""
        t_max, bins, trials = drawn
        merged, registry = {}, MetricsRegistry()
        for cell, rows in trials:
            rec = FlightRecorder(_GAUGE_NAMES, cap=8)
            for t, values in rows:
                rec.sample(t, values)
            _fold_entries(merged, _binned_entries(rec, t_max, bins,
                                                  cell=cell))
            packed = pickle.loads(pickle.dumps(rec.packed(t_max, bins)))
            packed.fold_into([registry.timeseries(name, t_max, bins,
                                                  cell=cell)
                              for name in _GAUGE_NAMES])
        want = [merged[key] for key in sorted(merged)]
        assert repr(registry.snapshot()["timeseries"]) == repr(want)


class TestRegistryIntegration:
    def test_timeseries_is_a_fourth_instrument(self):
        registry = MetricsRegistry()
        series = registry.timeseries("repro_fleet_latent_blocks", 100.0,
                                     10, geometry="mirror2")
        _observe(series, 5.0, 1.0)
        assert len(registry) == 1
        again = registry.timeseries("repro_fleet_latent_blocks", 100.0,
                                    10, geometry="mirror2")
        assert again is series

    def test_relayout_is_an_error(self):
        registry = MetricsRegistry()
        registry.timeseries("g", 100.0, 10)
        with pytest.raises(ValueError):
            registry.timeseries("g", 100.0, 20)

    def test_snapshot_round_trip_and_schema(self):
        registry = MetricsRegistry()
        series = registry.timeseries("g", 50.0, 5, cell="a")
        _observe(series, 10.0, 2.0)
        snap = registry.snapshot()
        assert validate_snapshot(snap) == []
        again = MetricsRegistry.from_snapshot(snap)
        assert again.snapshot() == snap

    def test_merge_folds_binwise(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        _observe(a.timeseries("g", 10.0, 2), 1.0, 1.0)
        _observe(b.timeseries("g", 10.0, 2), 8.0, 3.0)
        a.merge(b)
        entry = a.snapshot()["timeseries"][0]
        assert entry["counts"] == [1, 1]
        assert entry["sums"] == [1.0, 3.0]

    def test_old_snapshots_without_timeseries_still_load(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        snap = registry.snapshot()
        del snap["timeseries"]
        again = MetricsRegistry.from_snapshot(snap)
        assert again.snapshot()["counters"] == registry.snapshot()["counters"]

    def test_prometheus_renders_bin_means_with_timestamps(self):
        registry = MetricsRegistry()
        series = registry.timeseries("repro_fleet_degraded_members",
                                     100.0, 10, geometry="m2")
        _observe(series, 5.0, 1.0)
        _observe(series, 5.0, 3.0)
        text = render_prometheus(registry.snapshot())
        # Bin mean = 2, virtual timestamp = bin midpoint (5 h) in ms.
        assert ('repro_fleet_degraded_members{geometry="m2"} 2 '
                f"{5 * 3_600_000}") in text
        assert "# TYPE repro_fleet_degraded_members gauge" in text

    def test_defaults_are_sane(self):
        assert TRACK_CAP >= 64
        assert SERIES_BINS >= 12
