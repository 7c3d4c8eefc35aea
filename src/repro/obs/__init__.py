"""Observability for the PIM-EBVO stack: spans, metrics, exporters.

The paper's evaluation is an *attribution* exercise -- Fig. 10-a/10-b
break one tracked frame down into per-kernel cycles and per-category
memory accesses.  This package builds that visibility into the stack
instead of bolting it onto one benchmark script:

* :mod:`repro.obs.tracer` -- a hierarchical span tracer on the
  *simulated-cycle* timeline.  Spans snapshot the device
  :class:`~repro.pim.cost.CostLedger` at entry/exit, so every span
  carries its exact cycle/access/energy delta and leaf spans tile their
  parent without drift.  Disabled (the default) it is a true no-op.
* :mod:`repro.obs.metrics` -- a process-wide registry of named
  counters, gauges and histograms (program-cache hits, replay fallback
  reasons, LM iterations, keyframe insertions, per-frame cycles).
* :mod:`repro.obs.export` -- Chrome trace-event JSON (loadable in
  Perfetto / ``chrome://tracing``), a JSONL metrics stream, and a
  console summary reproducing the paper's Fig. 10-a/10-b tables from a
  live run.
* :mod:`repro.obs.context` -- explicit trace-context propagation:
  :class:`TraceContext` handles carried across threads and detached
  :class:`SpanHandle` spans, so a serving request admitted on one
  thread and tracked on another still yields one connected span tree.
* :mod:`repro.obs.slo` -- a rolling-window SLO engine (exact latency /
  queue-wait quantiles, goodput, deadline-miss rate, error-budget burn)
  feeding ``VOService.stats()`` and ``BENCH_serve.json``.
* :mod:`repro.obs.flight` -- an always-on flight recorder: a bounded
  event ring plus span trees of the last N failed requests, dumped as
  a stamped incident bundle when a breaker opens or chaos fails.
* :mod:`repro.obs.promtext` -- Prometheus text exposition (and a
  validating parser) for the metrics registry, served by the status
  endpoint.
* :mod:`repro.obs.stamp` -- the shared git-SHA/toolchain provenance
  stamp every emitted artifact carries.
* :func:`repro.obs.setup_logging` -- one-call stdlib ``logging``
  configuration shared by every CLI entry point.

Nothing in this package imports :mod:`repro.pim` (devices and ledgers
are duck-typed), so the pim/kernels/vo layers can depend on it freely.
"""

from repro.obs.context import (
    NULL_HANDLE,
    SpanHandle,
    TraceContext,
    current_context,
)
from repro.obs.flight import (
    FlightRecorder,
    get_flight_recorder,
    set_flight_recorder,
)
from repro.obs.logconf import setup_logging
from repro.obs.promtext import (
    parse_prometheus_text,
    render_prometheus_text,
)
from repro.obs.slo import SloEngine, SloTargets, percentile
from repro.obs.stamp import git_dirty, git_sha, run_stamp
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.obs.tracer import (
    CLOCK,
    Span,
    Tracer,
    annotate,
    current_span,
    disable_tracing,
    enable_tracing,
    get_tracer,
    set_tracer,
    span,
    tracing_enabled,
)
from repro.obs.export import (
    chrome_trace_events,
    console_summary,
    op_breakdown_rows,
    write_chrome_trace,
    write_metrics_jsonl,
)

__all__ = [
    "CLOCK", "Span", "Tracer", "annotate", "current_span",
    "disable_tracing", "enable_tracing", "get_tracer", "set_tracer",
    "span", "tracing_enabled",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "get_registry",
    "set_registry",
    "chrome_trace_events", "console_summary", "op_breakdown_rows",
    "write_chrome_trace", "write_metrics_jsonl",
    "NULL_HANDLE", "SpanHandle", "TraceContext", "current_context",
    "SloEngine", "SloTargets", "percentile",
    "FlightRecorder", "get_flight_recorder", "set_flight_recorder",
    "parse_prometheus_text", "render_prometheus_text",
    "git_sha", "git_dirty", "run_stamp",
    "setup_logging",
]
