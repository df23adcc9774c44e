"""Virtual-clock time series: the fleet flight recorder's substrate.

The metrics registry (:mod:`repro.obs.metrics`) answers "how much":
counters, gauges, histograms — totals with no time axis.  The fleet
simulator needs "when": how many members were degraded *while* the
latent-error population peaked, where the scrub cursor was when the
rebuild window opened.  This module records gauges **over the virtual
fleet clock** (hours, never wall time) with the same discipline the
rest of the observability layer obeys:

* **Deterministic** — sampling decisions depend only on the offered
  sample sequence (a stride-doubling ring bound), never on wall time or
  memory pressure, so two runs of the same trial record byte-identical
  series.
* **Bounded** — a :class:`Track` holds at most ``cap`` raw samples; at
  capacity it thins to every second sample and doubles its acceptance
  stride, so a mission of any length costs O(cap) memory while keeping
  samples spread across the whole timeline.
* **Ordered cross-worker merge** — the registry hosts the *binned*
  :class:`TimeSeries` (fixed bins over ``[0, t_max]``, per-bin
  count/sum/min/max) as a fourth instrument type, and a pool worker
  ships each trial's bins back as a :class:`PackedSeries` (occupied
  bins only).  Counts, mins and maxs combine exactly in any grouping;
  float sums do not (the scrub-cursor and rebuild-progress gauges are
  fractions), so a campaign is byte-identical at any ``--jobs`` width
  because ``pool_map`` yields trials in submission order and the parent
  folds them one by one in that order, as they arrive.  Workers must
  never pre-merge a chunk's series.

Two representations, two jobs: raw :class:`Track` samples feed a single
trial's post-mortem timeline (``repro report --trace-trial``); binned
:class:`TimeSeries` feed the campaign report and the Prometheus
exposition.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

#: Default raw-sample capacity of one flight-recorder track.
TRACK_CAP = 256

#: Default bin count for the mergeable, campaign-level series.
SERIES_BINS = 48

LabelsKey = Tuple[Tuple[str, str], ...]


def labels_key(labels: Mapping[str, str]) -> LabelsKey:
    """Canonical sorted label tuple (the registry's instrument key)."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Track:
    """Ring-bounded raw ``(t, value)`` samples for one gauge.

    Decimation is deterministic in the *offered* sample sequence: the
    track accepts every ``stride``-th offer; when the buffer reaches
    ``cap`` it drops every second retained sample and doubles the
    stride.  Retained samples are always the offers at indices that are
    multiples of the current stride, so identical offer sequences yield
    identical tracks regardless of when the caller looks.
    """

    __slots__ = ("name", "cap", "stride", "offered", "samples")

    def __init__(self, name: str, cap: int = TRACK_CAP):
        if cap < 2:
            raise ValueError("track cap must be >= 2")
        self.name = name
        self.cap = cap
        self.stride = 1
        self.offered = 0
        self.samples: List[Tuple[float, float]] = []

    def sample(self, t: float, value: float) -> None:
        index = self.offered
        self.offered += 1
        if index % self.stride:
            return
        self.samples.append((float(t), float(value)))
        if len(self.samples) >= self.cap:
            del self.samples[1::2]
            self.stride *= 2

    @property
    def last(self) -> Optional[Tuple[float, float]]:
        return self.samples[-1] if self.samples else None

    def to_entry(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "cap": self.cap,
            "stride": self.stride,
            "offered": self.offered,
            "samples": [[t, v] for t, v in self.samples],
        }


class TimeSeries:
    """Fixed-bin gauge-over-virtual-clock series with associative merge.

    The clock range ``[0, t_max]`` is split into ``bins`` equal bins;
    each observation lands in one bin as (count, sum, min, max).  Like
    fixed-bound histograms, fixed bins are what make merging
    associative *and* bounded: combining per-trial series never grows
    the representation, and any grouping of merges yields the same
    state.  Samples past ``t_max`` clamp into the last bin (a trial can
    establish loss exactly at mission end).
    """

    __slots__ = ("name", "labels", "t_max", "counts", "sums", "mins", "maxs")

    def __init__(self, name: str, labels: LabelsKey, t_max: float,
                 bins: int = SERIES_BINS):
        if t_max <= 0:
            raise ValueError("t_max must be > 0")
        if bins < 1:
            raise ValueError("bins must be >= 1")
        self.name = name
        self.labels = labels
        self.t_max = float(t_max)
        self.counts = [0] * bins
        self.sums = [0.0] * bins
        self.mins: List[Optional[float]] = [None] * bins
        self.maxs: List[Optional[float]] = [None] * bins

    @property
    def bins(self) -> int:
        return len(self.counts)

    def bin_index(self, t: float) -> int:
        if t <= 0:
            return 0
        return min(self.bins - 1, int(t / self.t_max * self.bins))

    def merge(self, other: "TimeSeries") -> "TimeSeries":
        """Bin-wise combination (in place; returns self).

        Counts and sums add, mins/maxs fold.  Float sums do not regroup
        exactly, so a reproducible caller merges in a fixed order.  The
        bin layouts must agree, as histograms' bucket bounds must.
        """
        if (other.t_max, other.bins) != (self.t_max, self.bins):
            raise ValueError(
                f"timeseries {self.name!r} merged with different bin layout"
            )
        return self.fold(range(self.bins), other.counts, other.sums,
                         other.mins, other.maxs)

    def fold(self, slots: Sequence[int], counts: Sequence[int],
             sums: Sequence[float], mins: Sequence[Optional[float]],
             maxs: Sequence[Optional[float]]) -> "TimeSeries":
        """Fold ``counts[k]``, ``sums[k]``, ``mins[k]`` and ``maxs[k]`` into
        bin ``slots[k]``, in order (in place; returns self).  An empty bin
        left out changes nothing in a series whose sums began at ``0.0``."""
        if not len(slots) == len(counts) == len(sums) == len(mins) == len(maxs):
            raise ValueError(f"timeseries {self.name!r} folded with "
                             "columns of unequal length")
        for i, count, total, low, high in zip(slots, counts, sums, mins, maxs):
            self.counts[i] += count
            self.sums[i] += total
            # The comparisons min(a, b) and max(a, b) make: ties, signed
            # zeros and NaN fold as they do.
            a, b = self.mins[i], self.maxs[i]
            self.mins[i] = low if low is not None and (a is None or low < a) else a
            self.maxs[i] = high if high is not None and (b is None or high > b) else b
        return self

    def to_entry(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "t_max": self.t_max,
            "bins": self.bins,
            "counts": list(self.counts),
            "sums": list(self.sums),
            "mins": list(self.mins),
            "maxs": list(self.maxs),
        }

    @classmethod
    def from_entry(cls, entry: Mapping[str, Any]) -> "TimeSeries":
        series = cls(entry["name"], labels_key(entry.get("labels", {})),
                     entry["t_max"], int(entry["bins"]))
        series.counts = [int(n) for n in entry["counts"]]
        series.sums = [float(s) for s in entry["sums"]]
        series.mins = [None if m is None else float(m) for m in entry["mins"]]
        series.maxs = [None if m is None else float(m) for m in entry["maxs"]]
        if len(series.counts) != series.bins:
            raise ValueError("timeseries entry bins/counts length mismatch")
        return series


class PackedSeries(NamedTuple):
    """One trial's gauges binned, occupied bins only, as a pool worker
    ships them.  The gauges share their bins and counts; ``sums``,
    ``mins`` and ``maxs`` hold a column per gauge, in recorder order.
    Names, labels, ``t_max`` and bin count are the receiver's to know."""

    slots: Tuple[int, ...]
    counts: Tuple[int, ...]
    sums: Tuple[Tuple[float, ...], ...]
    mins: Tuple[Tuple[float, ...], ...]
    maxs: Tuple[Tuple[float, ...], ...]

    def fold_into(self, series: Sequence[TimeSeries]) -> None:
        """Fold gauge ``g`` into ``series[g]``, cut into the same bins."""
        for target, *columns in zip(series, self.sums, self.mins, self.maxs):
            target.fold(self.slots, self.counts, *columns)


class FlightRecorder:
    """Per-trial sampler: one row of named gauges per virtual instant.

    The fleet simulator names its gauges once and offers all of them
    at every discrete event and tick, so the rows share one
    :class:`Track` decimation and each gauge's track is exactly the one
    it would have had on its own.  At trial end, :meth:`packed` bins
    the rows into a :class:`PackedSeries` (the picklable aggregate the
    campaign folds into its registry, trial by trial), and
    :meth:`to_snapshot` exports the raw samples for single-trial
    post-mortems and the ``--trace-trial`` timeline.
    """

    __slots__ = ("names", "cap", "stride", "offered", "rows")

    def __init__(self, names: Sequence[str], cap: int = TRACK_CAP):
        if cap < 2:
            raise ValueError("track cap must be >= 2")
        self.names = tuple(names)
        self.cap = cap
        self.stride = 1
        self.offered = 0
        #: Retained ``(t, *values)`` rows, values in :attr:`names` order.
        self.rows: List[Tuple[float, ...]] = []

    def sample(self, t: float, values: Sequence[float]) -> None:
        """Offer one value per gauge at clock *t* (:meth:`Track.sample`)."""
        if len(values) != len(self.names):
            raise ValueError("a row holds one value per gauge")
        index = self.offered
        self.offered += 1
        if index % self.stride:
            return
        self.rows.append((float(t), *map(float, values)))
        if len(self.rows) >= self.cap:
            del self.rows[1::2]
            self.stride *= 2

    def _columns(self) -> List[Tuple[float, ...]]:
        """The retained times, then one value column per gauge."""
        return list(zip(*self.rows)) or [()] * (len(self.names) + 1)

    def tracks(self) -> List[Track]:
        times, *columns = self._columns()
        out = []
        for name, values in sorted(zip(self.names, columns)):
            track = Track(name, self.cap)
            track.stride, track.offered = self.stride, self.offered
            track.samples = list(zip(times, values))
            out.append(track)
        return out

    def __len__(self) -> int:
        return len(self.names)

    def packed(self, t_max: float, bins: int = SERIES_BINS) -> PackedSeries:
        """The rows binned over ``[0, t_max]``, occupied bins only: each
        bin takes its rows in row order, the sum from ``0.0`` and the min
        and max by the comparisons :meth:`TimeSeries.fold` makes."""
        times, *columns = self._columns()
        bin_index = TimeSeries("", (), t_max, bins).bin_index
        slots = [bin_index(t) for t in times]
        where = {slot: k for k, slot in enumerate(sorted(set(slots)))}
        rows, n = [where[slot] for slot in slots], len(where)
        gauges = []
        for values in columns:
            total, low, high = [0.0] * n, [None] * n, [None] * n
            for k, value in zip(rows, values):
                total[k] += value
                a, b = low[k], high[k]
                low[k] = value if a is None or value < a else a
                high[k] = value if b is None or value > b else b
            gauges.append((tuple(total), tuple(low), tuple(high)))
        sums, mins, maxs = tuple(zip(*gauges)) or ((), (), ())
        return PackedSeries(tuple(where), tuple(map(slots.count, where)),
                            sums, mins, maxs)

    def to_snapshot(self) -> Dict[str, Any]:
        """Raw per-track samples (``repro-timeseries/1``)."""
        return {
            "schema": "repro-timeseries/1",
            "tracks": [track.to_entry() for track in self.tracks()],
        }


__all__ = [
    "SERIES_BINS",
    "TRACK_CAP",
    "FlightRecorder",
    "PackedSeries",
    "TimeSeries",
    "Track",
    "labels_key",
]
