"""The typed storage-event pipeline: one schema for every observable.

Every layer of the storage stack — the fault injector at the device
boundary, the VFS buffer layer, the journal framing, and each file
system's policy code — reports through :class:`StorageEvent` records
appended to a shared :class:`EventLog`.  ``SysLog`` is a view over
this stream; the I/O trace is the log's own :class:`IOEvent` objects
(``EventLog.io_events()``), and policy inference matches the
structured events directly.

Import from the submodule that defines a name (``repro.obs.events``,
``repro.obs.trace``, …): the package re-exports nothing, so loading
the event schema does not load the exporters built on it.

:mod:`repro.obs.trace` layers hierarchical spans over the same stream
(run → workload → VFS op → journal transaction → block I/O) and exports
Chrome trace-event JSON for Perfetto; :mod:`repro.obs.metrics` folds
the stream and the device stack's counters into a mergeable metrics
registry with Prometheus-text and JSON-snapshot exporters.

The fleet flight recorder builds on all three:
:mod:`repro.obs.timeseries` records gauges over the *virtual* fleet
clock (ring-bounded raw tracks, associatively-mergeable binned
series), and :mod:`repro.obs.postmortem` walks recorded event streams
to classify every lost trial into a typed :class:`Incident` with
``resolve_ref``-able provenance.
"""
