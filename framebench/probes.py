"""Layer probes: time and count calls into the program from outside.

Nothing under ``src/`` knows about this module.  While a
:class:`Tracer` is installed it rebinds module attributes (the names a
caller looks up at call time, e.g. ``repro.vo.frontend.hessian_fast``)
and class methods to thin wrappers, and restores the originals when it
is removed.  Each timed wrapper records a span ``(id, parent, name,
start, end, frame)``; spans of one tracked frame share the frame's
index, and a span's parent is the innermost timed span open on the same
thread when it started.  Counting wrappers (``ops.saturate`` runs ~15k
times a frame) only bump a per-frame counter.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import Counter, defaultdict

#: Top-level stages of ``EBVOTracker.process`` (children of the frame
#: span); their sum over the frame time is ``trace.attributed_frac``.
STAGES = (
    ("repro.vo.tracker", "validate_frame", "vo.health.validate"),
    ("repro.vo.tracker", "build_pyramid", "vo.pyramid.build"),
    ("repro.vo.tracker", "extract_features", "vo.features.extract"),
    ("repro.vo.tracker", "lm_estimate", "vo.lm"),
    ("frontend", "detect", "vo.frontend.detect"),
    ("frontend", "prepare_keyframe", "vo.frontend.prepare_keyframe"),
    ("frontend", "make_features", "vo.frontend.make_features"),
)

#: Timed layers below the stages.
LAYERS = (
    ("frontend", "error", "vo.frontend.error"),
    ("frontend", "linearize", "vo.frontend.linearize"),
    ("repro.vo.frontend", "hessian_fast", "kernels.hessian_fast"),
    ("repro.vo.frontend", "warp_fast", "kernels.warp_fast"),
    ("repro.vo.frontend", "jacobian_fast", "kernels.jacobian_fast"),
    ("repro.vo.frontend", "warp_float", "kernels.warp_float"),
    ("repro.vo.frontend", "jacobian_float", "kernels.jacobian_float"),
    ("repro.vo.frontend", "detect_edges_fast", "kernels.detect_edges_fast"),
    ("repro.vo.frontend", "detect_edges_replay",
     "kernels.detect_edges_replay"),
    ("repro.vo.frontend", "detect_edges_reference",
     "vision.detect_edges_reference"),
    ("repro.vo.frontend", "distance_transform", "vision.distance_transform"),
    ("repro.pim.device:PIMDevice", "run_program", "pim.run_program"),
)

#: Call counters (no span: too frequent to time individually).
COUNTED = (
    ("repro.fixedpoint.ops", "saturate", "fixedpoint.saturate"),
    ("repro.fixedpoint.ops", "sat_add", "fixedpoint.sat_add"),
)

FRAME = "vo.tracker.process"
_FRONTENDS = ("repro.vo.frontend:FloatFrontend",
              "repro.vo.frontend:PIMFrontend")


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _owners(owner: str):
    return [_resolve(o) for o in _FRONTENDS] if owner == "frontend" \
        else [_resolve(owner)]


class _Frame:
    """Per-frame aggregates: layer time, self time, calls, counters."""

    def __init__(self, index: int):
        self.index = index
        self.total = 0.0
        self.attributed = 0.0
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()


class Tracer:
    """Install/remove the probes; keep spans and per-frame aggregates."""

    def __init__(self):
        self.frames = []
        self.spans = []
        self.bytes_sent = Counter()
        #: Wall time and number of ``ShardRouter.checkpoint_shard``
        #: calls (the supervisor's sweeps run outside any frame).
        self.checkpoint_s = 0.0
        self.checkpoints = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved = []
        self._next_id = 0

    # -- installation ----------------------------------------------------

    def install(self) -> "Tracer":
        from repro.vo.tracker import EBVOTracker
        self._patch(EBVOTracker, "process", self._timed(FRAME, frame=True))
        for owner, attr, name in STAGES + LAYERS:
            for obj in _owners(owner):
                self._patch(obj, attr, self._timed(name))
        for owner, attr, name in COUNTED:
            self._patch(_resolve(owner), attr, self._counted(name))
        self._patch(_resolve("repro.shard.transport"), "write_message",
                    self._byte_counter)
        self._patch(_resolve("repro.shard.router:ShardRouter"),
                    "checkpoint_shard", self._checkpoint_timer)
        return self

    def remove(self) -> None:
        while self._saved:
            obj, attr, original, had_own = self._saved.pop()
            if had_own:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    def _patch(self, obj, attr: str, make) -> None:
        had_own = attr in vars(obj)
        original = getattr(obj, attr)
        self._saved.append((obj, attr, vars(obj).get(attr), had_own))
        setattr(obj, attr, make(original))

    # -- wrappers --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, name: str, frame: bool = False):
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                stack = tracer._stack()
                if frame:
                    record = _Frame(len(tracer.frames))
                    tracer.frames.append(record)
                elif not stack:
                    return original(*args, **kwargs)
                else:
                    record = stack[0][1]
                parent = stack[-1] if stack else None
                span_id = tracer._next_id
                tracer._next_id += 1
                entry = [span_id, record, 0.0]
                stack.append(entry)
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    duration = end - start
                    if frame:
                        record.total = duration
                    else:
                        record.time[name] += duration
                        record.self_time[name] += duration - entry[2]
                        record.calls[name] += 1
                        parent[2] += duration
                        if parent is stack[0]:
                            record.attributed += duration
                    tracer.spans.append(
                        (span_id, parent[0] if parent else None, name,
                         start, end, record.index))
            return wrapper
        return make

    def _counted(self, name: str):
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                stack = tracer._stack()
                if stack:
                    stack[0][1].counts[name] += 1
                return original(*args, **kwargs)
            return wrapper
        return make

    def _byte_counter(self, original):
        tracer = self

        class _CountingSocket:
            def __init__(self, sock, op):
                self._sock = sock
                self._op = op

            def sendall(self, data):
                with tracer._lock:
                    tracer.bytes_sent[self._op] += len(data)
                return self._sock.sendall(data)

        def wrapper(sock, payload):
            op = payload.get("op") if isinstance(payload, dict) else None
            return original(_CountingSocket(sock, op), payload)
        return wrapper

    def _checkpoint_timer(self, original):
        tracer = self

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                with tracer._lock:
                    tracer.checkpoint_s += time.perf_counter() - start
                    tracer.checkpoints += 1
        return wrapper

    # -- aggregation -----------------------------------------------------

    def chrome_trace(self, frames: int) -> dict:
        """Spans of the first ``frames`` frames as Chrome trace-event
        JSON."""
        spans = [s for s in self.spans if s[5] < frames]
        origin = min((s[3] for s in spans), default=0.0)
        return {"traceEvents": [
            {"name": name, "ph": "X", "pid": 1, "tid": 1,
             "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
             "args": {"id": sid, "parent": parent, "frame": frame}}
            for sid, parent, name, start, end, frame in spans]}


def layer_metrics(frames) -> dict:
    """Per-frame means of the probed layers over ``frames``."""
    n = max(len(frames), 1)

    def per_frame(getter) -> float:
        return sum(getter(f) for f in frames) / n

    def ms(name: str) -> float:
        return 1e3 * per_frame(lambda f: f.time[name])

    total = sum(f.total for f in frames)
    return {
        "fixedpoint.saturate_calls":
            per_frame(lambda f: f.counts["fixedpoint.saturate"]),
        "fixedpoint.sat_add_calls":
            per_frame(lambda f: f.counts["fixedpoint.sat_add"]),
        "kernels.hessian_fast_ms": ms("kernels.hessian_fast"),
        "kernels.warp_fast_ms": ms("kernels.warp_fast"),
        "kernels.jacobian_fast_ms": ms("kernels.jacobian_fast"),
        "vo.frontend.linearize_ms": ms("vo.frontend.linearize"),
        "vo.frontend.linearize_calls":
            per_frame(lambda f: f.calls["vo.frontend.linearize"]),
        "vo.frontend.error_ms": ms("vo.frontend.error"),
        "vo.frontend.error_calls":
            per_frame(lambda f: f.calls["vo.frontend.error"]),
        "vo.lm.self_ms": 1e3 * per_frame(lambda f: f.self_time["vo.lm"]),
        "kernels.detect_edges_fast_ms": ms("kernels.detect_edges_fast"),
        "kernels.detect_edges_replay_ms": ms("kernels.detect_edges_replay"),
        "pim.run_program_ms": ms("pim.run_program"),
        "pim.run_program_calls":
            per_frame(lambda f: f.calls["pim.run_program"]),
        "vision.distance_transform_ms": ms("vision.distance_transform"),
        "vo.frontend.prepare_keyframe_ms":
            ms("vo.frontend.prepare_keyframe"),
        "vo.pyramid.build_ms": ms("vo.pyramid.build"),
        "vo.features.extract_ms": ms("vo.features.extract"),
        "vision.detect_edges_reference_ms":
            ms("vision.detect_edges_reference"),
        "kernels.warp_float_ms": ms("kernels.warp_float"),
        "kernels.jacobian_float_ms": ms("kernels.jacobian_float"),
        "trace.attributed_frac":
            sum(f.attributed for f in frames) / total if total else 0.0,
    }
