"""Tests for the telemetry subsystem: tracer, metrics, exporters.

Covers the ISSUE acceptance criteria: exact per-kernel cycle
attribution (kernel spans tile the device ledger), true no-op when
disabled (bit-identical device state), and a Perfetto-loadable Chrome
trace (valid JSON, complete events, monotone timestamps).
"""

import json
import logging
import subprocess

import numpy as np
import pytest

from repro.kernels.edge_detect import detect_edges_fast, detect_edges_replay
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    console_summary,
    get_registry,
    set_registry,
    setup_logging,
    write_chrome_trace,
    write_metrics_jsonl,
)
from repro.obs import stamp
from repro.obs.export import access_share_rows, kernel_cycle_rows
from repro.obs.tracer import (
    CLOCK,
    Tracer,
    _NULL_SPAN,
    disable_tracing,
    get_tracer,
    set_tracer,
    span,
    tracing_enabled,
)
from repro.pim import Imm, PIMConfig, PIMDevice, ProgramRecorder, Rel
from repro.pim.program import ProgramCache


@pytest.fixture()
def fresh_obs():
    """Isolated tracer + registry, restored afterwards."""
    old_tracer, old_registry = get_tracer(), get_registry()
    tracer, registry = Tracer(), MetricsRegistry()
    set_tracer(tracer)
    set_registry(registry)
    tracer.enable()
    yield tracer, registry
    tracer.disable()
    set_tracer(old_tracer)
    set_registry(old_registry)


def _frame(seed=0, shape=(48, 64)):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=shape, dtype=np.int64)


def _detect_device(shape):
    height, width = shape
    return PIMDevice(PIMConfig(wordline_bits=width * 8,
                               num_rows=height + 8))


class TestSpanAttribution:
    def test_kernel_spans_tile_frame_ledger(self, fresh_obs):
        """Sum of kernel-span cycle deltas == ledger total for a frame."""
        tracer, _ = fresh_obs
        img = _frame()
        device = _detect_device(img.shape)
        snap = device.ledger.snapshot()
        detect_edges_replay(device, img)
        total = device.ledger.delta_since(snap).cycles

        kernel = [s for s in tracer.spans if s.category == "kernel"]
        assert {s.name for s in kernel} == {"lpf", "hpf", "nms"}
        assert sum(s.cycles for s in kernel) == total

        pipeline = [s for s in tracer.spans
                    if s.name == "detect_edges"]
        assert len(pipeline) == 1
        assert pipeline[0].cycles == total

    def test_span_cycles_match_result_cycles(self, fresh_obs):
        tracer, _ = fresh_obs
        img = _frame(1)
        device = _detect_device(img.shape)
        result = detect_edges_replay(device, img)
        by_name = {s.name: s for s in tracer.spans
                   if s.category == "kernel"}
        for stage in ("lpf", "hpf", "nms"):
            assert by_name[stage].cycles == result.cycles[stage]

    def test_span_nesting_and_clock(self, fresh_obs):
        tracer, _ = fresh_obs
        img = _frame(2)
        device = _detect_device(img.shape)
        detect_edges_replay(device, img)
        spans = tracer.spans
        parent = next(s for s in spans if s.name == "detect_edges")
        children = [s for s in spans if s.parent_id == parent.span_id]
        assert children  # the three kernel spans nest under the frame
        for child in children:
            assert child.ts >= parent.ts
            assert child.ts + child.dur <= parent.ts + parent.dur
        # Single device => clock duration equals ledger cycles.
        assert parent.dur == parent.cycles

    def test_replay_spans_nest_under_kernel_spans(self, fresh_obs):
        tracer, _ = fresh_obs
        img = _frame(3)
        detect_edges_replay(_detect_device(img.shape), img)
        replay = [s for s in tracer.spans if s.category == "replay"]
        assert replay
        kernel_ids = {s.span_id for s in tracer.spans
                      if s.category == "kernel"}
        assert all(s.parent_id in kernel_ids for s in replay)
        assert all(s.attrs["executed_mode"] in ("eager", "compiled")
                   for s in replay)


class TestDisabledNoOp:
    def test_span_is_shared_null_singleton(self):
        disable_tracing()
        assert span("anything") is _NULL_SPAN
        assert span("other", category="kernel") is _NULL_SPAN
        assert not tracing_enabled()

    def test_disabled_run_bit_identical(self, fresh_obs):
        tracer, _ = fresh_obs
        img = _frame(4)
        dev_traced = _detect_device(img.shape)
        traced = detect_edges_replay(dev_traced, img)

        tracer.disable()
        dev_plain = _detect_device(img.shape)
        plain = detect_edges_replay(dev_plain, img)

        np.testing.assert_array_equal(traced.edge_map, plain.edge_map)
        np.testing.assert_array_equal(dev_traced._mem, dev_plain._mem)
        assert dev_traced.ledger.cycles == dev_plain.ledger.cycles
        assert dev_traced.ledger.sram_reads == dev_plain.ledger.sram_reads
        assert dev_traced.ledger.sram_writes == \
            dev_plain.ledger.sram_writes

    def test_disabled_clock_does_not_advance(self, fresh_obs):
        tracer, _ = fresh_obs
        tracer.disable()
        before = CLOCK.now()
        img = _frame(5)
        detect_edges_replay(_detect_device(img.shape), img)
        assert CLOCK.now() == before

    def test_matches_fast_reference_with_tracing(self, fresh_obs):
        img = _frame(6)
        traced = detect_edges_replay(_detect_device(img.shape), img)
        np.testing.assert_array_equal(
            traced.edge_map, detect_edges_fast(img).edge_map)


class TestChromeTraceExport:
    def test_schema_and_monotone_timestamps(self, fresh_obs, tmp_path):
        tracer, _ = fresh_obs
        img = _frame(7)
        detect_edges_replay(_detect_device(img.shape), img)
        path = tmp_path / "trace.json"
        write_chrome_trace(path, tracer=tracer)

        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert complete
        for event in complete:
            assert set(event) >= {"name", "ph", "ts", "dur", "pid",
                                  "tid", "args"}
            assert event["ts"] >= 0 and event["dur"] >= 0
        stamps = [e["ts"] for e in complete]
        assert stamps == sorted(stamps)
        meta = [e for e in events if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in meta)

    def test_kernel_events_carry_ledger_args(self, fresh_obs, tmp_path):
        tracer, _ = fresh_obs
        img = _frame(8)
        detect_edges_replay(_detect_device(img.shape), img)
        path = tmp_path / "trace.json"
        write_chrome_trace(path, tracer=tracer)
        events = json.loads(path.read_text())["traceEvents"]
        lpf = next(e for e in events if e.get("name") == "lpf")
        for key in ("cycles", "energy_pj", "mem_rd", "mem_wr",
                    "tmp_reg"):
            assert key in lpf["args"]


class TestConsoleSummary:
    def test_fig10_tables(self, fresh_obs):
        tracer, _ = fresh_obs
        img = _frame(9)
        detect_edges_replay(_detect_device(img.shape), img)
        text = console_summary(tracer=tracer)
        for kernel in ("lpf", "hpf", "nms"):
            assert kernel in text
        assert "mem_rd" in text and "tmp_reg" in text

    def test_kernel_rows_share_sums_to_one(self, fresh_obs):
        tracer, _ = fresh_obs
        img = _frame(10)
        detect_edges_replay(_detect_device(img.shape), img)
        rows = kernel_cycle_rows(tracer.spans)
        assert rows
        assert sum(r["cycle_share"] for r in rows) == pytest.approx(1.0)
        shares = access_share_rows(tracer.spans)
        for row in shares:
            assert row["mem_rd"] + row["mem_wr"] + row["tmp_reg"] == \
                pytest.approx(1.0)


class TestMetricsRegistry:
    def test_counter_labels_and_total(self):
        c = Counter("replays")
        c.inc(mode="auto")
        c.inc(mode="auto")
        c.inc(mode="eager")
        assert c.value(mode="auto") == 2
        assert c.value(mode="eager") == 1
        assert c.total() == 3
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge(self):
        g = Gauge("depth")
        g.set(4)
        g.inc(2)
        assert g.value() == 6
        assert g.value(other="x") is None

    def test_histogram_summary_and_cumulative_buckets(self):
        h = Histogram("cycles", bounds=(10.0, 100.0))
        for v in (5, 50, 500):
            h.observe(v)
        summary = h.summary()
        assert summary["count"] == 3
        assert summary["min"] == 5 and summary["max"] == 500
        buckets = h.series()[0]["buckets"]
        assert buckets["10.0"] == 1
        assert buckets["100.0"] == 2     # cumulative: <=100 covers <=10
        assert buckets["+Inf"] == 3      # +Inf == count

    def test_registry_type_conflict(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("a", "first").inc()
        registry.histogram("b").observe(3)
        json.dumps(registry.snapshot())

    def test_jsonl_export(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("hits").inc(5)
        path = tmp_path / "metrics.jsonl"
        write_metrics_jsonl(path, registry=registry)
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert lines[0]["name"] == "hits"
        assert lines[0]["series"][0]["value"] == 5


class TestProgramCacheStats:
    def test_stats_and_hit_rate(self, fresh_obs):
        config = PIMConfig(wordline_bits=64, num_rows=8)
        cache = ProgramCache(capacity=4, name="test-stats")

        def body(rec):
            rec.add(Rel(0), Rel(0), Imm(1), signed=False)

        cache.get_or_record("k1", config, body, name="p")
        cache.get_or_record("k1", config, body, name="p")
        cache.get_or_record("k2", config, body, name="p")
        stats = cache.stats()
        assert stats["name"] == "test-stats"
        assert stats["hits"] == 1 and stats["misses"] == 2
        assert stats["size"] == 2 and stats["capacity"] == 4
        assert stats["hit_rate"] == pytest.approx(1 / 3)

    def test_registry_counters_wired(self, fresh_obs):
        _, registry = fresh_obs
        config = PIMConfig(wordline_bits=64, num_rows=8)
        cache = ProgramCache(capacity=4, name="test-wired")

        def body(rec):
            rec.add(Rel(0), Rel(0), Imm(1), signed=False)

        cache.get_or_record("k", config, body, name="p")
        cache.get_or_record("k", config, body, name="p")
        assert registry.counter("program_cache_hits_total").value(
            cache="test-wired") == 1
        assert registry.counter("program_cache_misses_total").value(
            cache="test-wired") == 1

    def test_clear_resets_view_not_counters(self, fresh_obs):
        _, registry = fresh_obs
        config = PIMConfig(wordline_bits=64, num_rows=8)
        cache = ProgramCache(capacity=4, name="test-clear")

        def body(rec):
            rec.add(Rel(0), Rel(0), Imm(1), signed=False)

        cache.get_or_record("k", config, body, name="p")
        cache.clear()
        assert cache.stats()["misses"] == 0
        # The registry counter stays monotonic.
        assert registry.counter("program_cache_misses_total").value(
            cache="test-clear") == 1


class TestReplayReasons:
    CONFIG = PIMConfig(wordline_bits=64, num_rows=16)

    def _program(self, body):
        rec = ProgramRecorder(self.CONFIG, name="t")
        body(rec)
        return rec.finish()

    def test_reason_none_when_batchable(self):
        program = self._program(
            lambda r: r.add(Rel(0), Rel(0), Imm(1), signed=False))
        device = PIMDevice(self.CONFIG)
        assert device.batch_rejection_reason(program, [1, 2, 3]) is None

    def test_bases_not_increasing(self):
        program = self._program(
            lambda r: r.add(Rel(0), Rel(0), Imm(1), signed=False))
        device = PIMDevice(self.CONFIG)
        assert device.batch_rejection_reason(program, [2, 1]) == \
            "bases-not-increasing"

    def test_rel_aliasing_within_span(self):
        def body(rec):
            rec.add(Rel(0), Rel(1), Imm(0), signed=False)
            rec.add(Rel(1), Rel(0), Imm(0), signed=False)
        program = self._program(body)
        device = PIMDevice(self.CONFIG)
        reason = device.batch_rejection_reason(program, [1, 2])
        assert reason == "rel-aliasing-within-span"
        # Far enough apart, the footprints are disjoint again.
        assert device.batch_rejection_reason(program, [1, 5]) is None

    def test_abs_write_aliases_rel_row(self):
        def body(rec):
            rec.add(8, Rel(0), Imm(1), signed=False)
        program = self._program(body)
        device = PIMDevice(self.CONFIG)
        assert device.batch_rejection_reason(program, [7, 8]) == \
            "abs-write-aliases-rel-row"

    def test_fallback_counter_and_span_attr(self, fresh_obs):
        tracer, registry = fresh_obs
        program = self._program(
            lambda r: r.add(Rel(0), Rel(0), Imm(1), signed=False))
        device = PIMDevice(self.CONFIG)
        device.run_program(program, [2, 1], mode="auto")
        assert registry.counter("pim_replay_fallback_total").value(
            reason="bases-not-increasing") == 1
        assert registry.counter("pim_replay_total").value(
            mode="eager") == 1
        rp = next(s for s in tracer.spans if s.category == "replay")
        assert rp.attrs["fallback_reason"] == "bases-not-increasing"
        assert rp.attrs["requested_mode"] == "auto"
        assert rp.attrs["executed_mode"] == "eager"

    def test_forced_eager_not_a_fallback(self, fresh_obs):
        _, registry = fresh_obs
        program = self._program(
            lambda r: r.add(Rel(0), Rel(0), Imm(1), signed=False))
        device = PIMDevice(self.CONFIG)
        device.run_program(program, [1, 2], mode="eager")
        assert registry.counter("pim_replay_total").value(
            mode="eager") == 1
        assert registry.counter("pim_replay_fallback_total").total() == 0

    def test_fallback_reason_is_named(self, run_auto):
        program = self._program(
            lambda r: r.add(Rel(0), Rel(0), Imm(1), signed=False))
        device = PIMDevice(self.CONFIG)
        assert run_auto(device, program, [2, 1]) == \
            ("eager", "bases-not-increasing")
        assert run_auto(device, program, [1, 2]) == ("compiled", None)


class TestLogging:
    def test_setup_logging_idempotent(self):
        logger = setup_logging()
        handlers = list(logger.handlers)
        assert setup_logging() is logger
        assert list(logger.handlers) == handlers

    def test_verbose_sets_debug(self):
        logger = setup_logging(verbose=True)
        assert logger.level == logging.DEBUG
        setup_logging()  # back to INFO for other tests
        assert logger.level == logging.INFO

    def test_changed_stream_retargets_existing_handler(self):
        """A later call with a different stream must redirect the one
        attached handler, not silently keep writing to the old one."""
        import io
        import sys

        logger = setup_logging()
        original = next(h for h in logger.handlers
                        if getattr(h, "_repro_console", False))
        first, second = io.StringIO(), io.StringIO()
        try:
            assert setup_logging(stream=first) is logger
            logging.getLogger("repro.test").info("to first")
            assert setup_logging(stream=second) is logger
            logging.getLogger("repro.test").info("to second")
            # Still exactly one console handler, now on the new stream.
            consoles = [h for h in logger.handlers
                        if getattr(h, "_repro_console", False)]
            assert len(consoles) == 1
            assert consoles[0].stream is second
            assert "to first" in first.getvalue()
            assert "to second" not in first.getvalue()
            assert "to second" in second.getvalue()
            # A call without a stream leaves the target untouched.
            setup_logging()
            assert consoles[0].stream is second
        finally:
            original.setStream(sys.stderr)


class TestRunStamp:
    """``git_dirty`` tells a stamp taken from uncommitted code apart."""

    @staticmethod
    def fake_git(monkeypatch, status_stdout):
        calls = []

        def run(cmd, **kwargs):
            calls.append(cmd)
            if status_stdout is None:
                raise subprocess.CalledProcessError(128, cmd)
            out = "abc123\n" if cmd[1] == "rev-parse" else status_stdout
            return subprocess.CompletedProcess(cmd, 0, stdout=out)

        monkeypatch.setattr(stamp.subprocess, "run", run)
        return calls

    def test_clean_tree(self, monkeypatch):
        calls = self.fake_git(monkeypatch, "")
        fields = stamp.run_stamp()
        assert fields["git_sha"] == "abc123"
        assert fields["git_dirty"] is False
        assert ["git", "status", "--porcelain",
                "--untracked-files=no"] in calls

    def test_modified_tracked_file(self, monkeypatch):
        self.fake_git(monkeypatch, " M src/repro/kernels/hessian.py\n")
        assert stamp.run_stamp()["git_dirty"] is True

    def test_outside_git(self, monkeypatch):
        self.fake_git(monkeypatch, None)
        fields = stamp.run_stamp()
        assert fields["git_sha"] is None
        assert fields["git_dirty"] is None

    def test_git_missing(self, monkeypatch):
        def run(cmd, **kwargs):
            raise FileNotFoundError("git")

        monkeypatch.setattr(stamp.subprocess, "run", run)
        assert stamp.git_dirty() is None
