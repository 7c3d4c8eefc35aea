"""Workloads of the tracked-frame benchmark, their inputs and checks.

Inputs are rendered from the workload seed before any timing starts:
the seed picks where on each synthetic sequence's camera path a
segment starts, and the program only ever sees the rendered frames.
Every workload is a closed loop: a client submits its next frame only
after the previous pose came back.

* Tracking workloads run one ``EBVOTracker`` in this process.  It
  passes over one seed-chosen segment of ``TRACK_FRAMES`` frames again
  and again, with a fresh ``TrackerState`` per pass; every pass must
  repeat the first pass bit for bit.  The segment is one continuous
  stretch of the camera path, so segments of two seeds share most of
  their frames and the same mix of costly frames (LM steps, keyframes).
* The serving workload runs one client against ``ShardRouter(shards=1)``
  under a ``Supervisor`` with its default settings, supervised as
  ``python -m repro.shard`` serves.  The client runs one session that
  goes back and forth over its segment.  Every pose it gets back must
  equal, bit for bit, the pose of an in-process solo ``EBVOTracker``
  run over the same frames.

Peak memory is measured from set-up on: the peak of input rendering is
cleared first.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional

import numpy as np

from repro.dataset import (
    desk_orbit_trajectory,
    make_desk_scene,
    make_structure_notex_scene,
    notex_far_trajectory,
    render_sequence,
)
from repro.evaluation.ate import absolute_trajectory_error
from repro.geometry.camera import TUM_QVGA
from repro.kernels.common import KERNEL_PROGRAM_CACHE
from repro.obs.metrics import get_registry
from repro.shard.router import ShardRouter
from repro.shard.supervisor import Supervisor
from repro.shard.worker import ShardSpec
from repro.vo import (
    OK,
    EBVOTracker,
    FloatFrontend,
    PIMFrontend,
    TrackerConfig,
)
from repro.vo.tracker import TrackerState

from probes import Tracer, layer_metrics

FPS = 30.0
#: Span of the camera path (frames) that segment starts are drawn from.
MAX_OFFSET = 12
#: Tracking: frames of the segment.
TRACK_FRAMES = 200
#: Serving: frames of the client's back-and-forth segment (a pass
#: over it is 200 frames).
SERVE_FRAMES = 101
#: Set-up samples per run (their median is ``setup_s``).
TRACK_SETUPS = 11
SERVE_SETUPS = 5
#: Segment length and set-up samples of a ``--quick`` run.
QUICK_FRAMES = 4
QUICK_SETUPS = 2

_SEQUENCES = {
    "fr2_desk": (make_desk_scene, 10, desk_orbit_trajectory),
    "fr3_st_ntex_far": (make_structure_notex_scene, 20,
                        notex_far_trajectory),
}


@dataclass
class Segment:
    frames: list
    groundtruth: list


def render_segment(sequence: str, offset: int, n: int) -> Segment:
    """Frames ``offset .. offset+n-1`` of a named synthetic sequence."""
    make_scene, scene_seed, trajectory = _SEQUENCES[sequence]
    poses = trajectory(offset + n, FPS)[offset:]
    frames = render_sequence(make_scene(seed=scene_seed), poses,
                             TUM_QVGA, FPS)
    return Segment(frames, poses)


def pose_bytes(pose) -> bytes:
    return pose.R.tobytes() + pose.t.tobytes()


def ate_mm(tracks) -> float:
    """ATE RMSE (mm) over ``[(poses, groundtruth), ...]``, each track
    aligned on its own."""
    errors = np.concatenate([
        absolute_trajectory_error(poses, gt).errors
        for poses, gt in tracks])
    return float(np.sqrt(np.mean(errors ** 2)) * 1e3)


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current resident set."""
    with open("/proc/self/clear_refs", "w") as clear_refs:
        clear_refs.write("5")


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set size of a process (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def stop_multiprocessing_helpers() -> None:
    """Stop and reap the forkserver and resource-tracker processes the
    shard router's ``forkserver`` start method launched (private
    CPython hooks); the next shard spawn launches them again."""
    from multiprocessing import forkserver, resource_tracker
    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()


def _detect_sums():
    registry = get_registry()
    return (registry.histogram("frame_detect_cycles").summary()["sum"],
            registry.histogram("frame_detect_energy_pj").summary()["sum"])


def _pim_counts():
    """(compiled replays, replays, program-cache hits, lookups) so far."""
    registry = get_registry()
    replays = registry.counter("pim_replay_total")
    cache = KERNEL_PROGRAM_CACHE.name
    hits = registry.counter("program_cache_hits_total").value(cache=cache)
    misses = registry.counter("program_cache_misses_total").value(
        cache=cache)
    return np.array([replays.value(mode="compiled"), replays.total(),
                     hits, hits + misses])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass
class Frame:
    """One frame: its latency and what the checks and layers need."""

    latency_s: float
    position: int
    pose: object = None
    health: str = OK
    result: object = None
    sim: Optional[dict] = None
    error: Optional[str] = None
    failed: bool = False
    #: perf_counter() when the frame came back.
    end_s: float = field(default_factory=time.perf_counter)


@dataclass
class Outcome:
    """Everything one run measured; ``run.py`` turns it into metrics.

    ``timed`` excludes the first frame (charged to set-up); ``checked``
    is every frame the output checks covered.  ``first_cycle`` is the
    fixed frame set (the same for every run of a seed) behind the
    deterministic figures: ATE, pose digest, simulated cycles.
    """

    timed: List[Frame]
    setup_s: List[float]
    peak_rss_mb: float
    checked: List[Frame]
    first_cycle: List[Frame]
    ate_mm: float
    ate_bound_mm: float
    layers: dict = field(default_factory=dict)
    chrome_trace: Optional[dict] = None

    @property
    def pose_digest(self) -> str:
        sha = hashlib.sha256()
        for frame in self.first_cycle:
            sha.update(pose_bytes(frame.pose))
        return sha.hexdigest()


def _check(frames, reference) -> None:
    """Mark frames that errored, ended not OK or left the reference."""
    for frame in frames:
        expected = None if frame.error else reference(frame)
        frame.failed = (expected is None or frame.health != OK or
                        pose_bytes(frame.pose) != pose_bytes(expected))


def _check_ate(outcome: Outcome) -> Outcome:
    if not outcome.ate_mm <= outcome.ate_bound_mm:
        for frame in outcome.first_cycle:
            frame.failed = True
    return outcome


def _sim_metrics(cycle: List[Frame]) -> dict:
    sims = [f.sim for f in cycle if f.sim]
    n = max(len(cycle), 1)

    def per_frame(key):
        return sum(s.get(key, 0) for s in sims) / n
    return {
        "sim_detect_cycles_per_frame": per_frame("cycles"),
        "sim_detect_energy_nj_per_frame": per_frame("energy_pj") / 1e3,
        "pim.detect_cycles.lpf": per_frame("lpf"),
        "pim.detect_cycles.hpf": per_frame("hpf"),
        "pim.detect_cycles.nms": per_frame("nms"),
    }


def _tracker_metrics(results) -> dict:
    n = max(len(results), 1)
    return {
        "vo.lm.iterations":
            sum(r.lm.iterations for r in results if r.lm) / n,
        "vo.lm.rejected_steps":
            sum(r.lm.rejected_steps for r in results if r.lm) / n,
        "vo.features.count": sum(r.num_features for r in results) / n,
        "vo.tracker.keyframes_per_100":
            100.0 * sum(r.is_keyframe for r in results) / n,
    }


def _mean_ms(frames) -> float:
    return 1e3 * sum(f.latency_s for f in frames) / max(len(frames), 1)


# -- tracking workloads -----------------------------------------------------


class TrackingWorkload:
    """One in-process ``EBVOTracker`` with the PIM frontend, detecting
    edges by compiled device replay."""

    def __init__(self, sequence: str, ate_bound_mm: float):
        self.sequence = sequence
        self.ate_bound_mm = ate_bound_mm
        self.segment: Optional[Segment] = None
        #: The first complete pass over the segment.
        self.first_pass: List[Frame] = []

    def run(self, seed: int, seconds: float, trace: bool,
            quick: bool) -> Outcome:
        n = QUICK_FRAMES if quick else TRACK_FRAMES
        offset = int(np.random.default_rng(seed).integers(MAX_OFFSET))
        self.segment = render_segment(self.sequence, offset, n)
        reset_peak_rss()

        setup_s = []
        for _ in range(QUICK_SETUPS if quick else TRACK_SETUPS):
            # Every sample is a cold start: the kernel programs are
            # recorded again, as in a fresh process.
            KERNEL_PROGRAM_CACHE.clear()
            start = time.perf_counter()
            config = TrackerConfig(camera=TUM_QVGA, pim_device_detect=True)
            tracker = EBVOTracker(PIMFrontend(config), config)
            first = self._process(tracker, 0, start)
            setup_s.append(time.perf_counter() - start)

        layers, chrome = {}, None
        if not trace:
            timed = self._phase(tracker, seconds, first)
        else:
            # The traced phase repeats the untraced phase's frames, so
            # trace.overhead_frac compares like with like.
            base = self._phase(tracker, seconds / 2, first)
            tracer = Tracer()
            before = _pim_counts()
            with tracer:
                traced = self._phase(tracker, seconds / 2)
            compiled, replays, hits, lookups = _pim_counts() - before
            layers = layer_metrics(tracer.frames[:n])
            layers.update(_tracker_metrics(
                [f.result for f in traced[:n]]))
            layers.update(_sim_metrics(traced[:n]))
            layers["pim.replay_compiled_frac"] = _ratio(compiled, replays)
            layers["pim.program_cache_hit_rate"] = _ratio(hits, lookups)
            layers["trace.overhead_frac"] = \
                _mean_ms(traced[:n]) / _mean_ms(base[:n]) - 1.0
            timed = base + traced
            chrome = tracer.chrome_trace(n)

        if self.first_pass:
            ate = ate_mm([([f.pose for f in self.first_pass],
                           self.segment.groundtruth)])
        else:
            ate = float("inf")
        if not trace:
            layers = _sim_metrics(self.first_pass)
        checked = [first] + timed
        _check(checked, self._reference)
        return _check_ate(Outcome(
            timed=timed, setup_s=setup_s, peak_rss_mb=vm_hwm_mb(),
            checked=checked, first_cycle=self.first_pass, ate_mm=ate,
            ate_bound_mm=self.ate_bound_mm, layers=layers,
            chrome_trace=chrome))

    def _process(self, tracker, index: int,
                 start: Optional[float] = None) -> Frame:
        frame = self.segment.frames[index]
        before = _detect_sums()
        if start is None:
            start = time.perf_counter()
        result = tracker.process(frame.gray, frame.depth, frame.timestamp)
        latency = time.perf_counter() - start
        after = _detect_sums()
        sim = dict(tracker.frontend.last_detect_cycles,
                   cycles=after[0] - before[0],
                   energy_pj=after[1] - before[1])
        return Frame(latency, index, result.pose, result.health,
                     result, sim)

    def _phase(self, tracker, seconds: float,
               resume: Optional[Frame] = None):
        """Pass over the segment again and again until ``seconds``
        passed.  The phase ends with a whole pass, so every frame of the
        segment is timed equally often and the share of costly frames
        does not depend on when the deadline fell.

        ``resume`` is the already processed first frame of a pass that
        this phase continues; otherwise the phase starts a fresh pass.
        Returns the timed frames.
        """
        n = len(self.segment.frames)
        deadline = time.perf_counter() + seconds
        timed: List[Frame] = []
        this_pass = [resume] if resume else []
        if not this_pass:
            tracker.state = TrackerState()
        while True:
            try:
                frame = self._process(tracker, len(this_pass))
            except Exception as exc:  # counted as failed; exit != 0
                timed.append(Frame(0.0, len(this_pass),
                                   error=repr(exc)))
                break
            timed.append(frame)
            this_pass.append(frame)
            if len(this_pass) == n:
                if not self.first_pass:
                    self.first_pass = this_pass
                this_pass = []
                tracker.state = TrackerState()
                if time.perf_counter() >= deadline:
                    break
        return timed

    def _reference(self, frame: Frame):
        ref = self.first_pass
        return ref[frame.position].pose if frame.position < len(ref) \
            else None


# -- serving workload -------------------------------------------------------


def pingpong(n: int) -> List[int]:
    """Frame order of one back-and-forth pass: 0..n-1, then n-2..1."""
    return list(range(n)) + list(range(n - 2, 0, -1))


class ServeWorkload:
    """One closed-loop client behind a supervised
    ``ShardRouter(shards=1)``."""

    def __init__(self, sequence: str, ate_bound_mm: float):
        self.sequence = sequence
        self.ate_bound_mm = ate_bound_mm
        self.spec = ShardSpec(frontend="float", workers=1)
        self.frames: list = []
        self.order: List[int] = []
        #: Every answered frame of the session, in order.
        self.done: List[Frame] = []

    def run(self, seed: int, seconds: float, trace: bool,
            quick: bool) -> Outcome:
        n = QUICK_FRAMES if quick else SERVE_FRAMES
        offset = int(np.random.default_rng(seed).integers(MAX_OFFSET))
        segment = render_segment(self.sequence, offset, n)
        self.frames = segment.frames
        self.order = pingpong(n)
        cycle = len(self.order)
        reset_peak_rss()

        setup_s = []
        served = None
        try:
            for _ in range(QUICK_SETUPS if quick else SERVE_SETUPS):
                if served is not None:
                    self._stop(*served)
                    served = None
                start = time.perf_counter()
                served = self._start()
                first = self._submit(served[0], 0, start)
                setup_s.append(time.perf_counter() - start)
            router = served[0]
            self.done.append(first)
            if not trace:
                timed = self._phase(router, seconds)
            else:
                base = self._phase(router, seconds / 2)
                tracer = Tracer()
                with tracer:
                    traced = self._phase(router, seconds / 2)
                timed = base + traced
            peak = vm_hwm_mb() + vm_hwm_mb(router.shards[0].pid)
        finally:
            if served is not None:
                self._stop(*served)

        ref_tracer = Tracer() if trace else None
        reference = self._solo_reference(ref_tracer)
        cycle_frames = self.done[:cycle]
        layers = _sim_metrics(cycle_frames)
        if trace:
            layers.update(self._serve_layers(traced, tracer))
            layers.update(layer_metrics(ref_tracer.frames[:cycle]))
            layers.update(_tracker_metrics(reference[:cycle]))
            layers["trace.overhead_frac"] = \
                _mean_ms(traced) / _mean_ms(base) - 1.0

        def expected(frame: Frame):
            return reference[frame.position].pose \
                if frame.position < len(reference) else None

        checked = [first] + timed
        _check(checked, expected)
        complete = len(cycle_frames) == cycle
        track = ([f.pose for f in cycle_frames],
                 [segment.groundtruth[i] for i in self.order])
        return _check_ate(Outcome(
            timed=timed, setup_s=setup_s, peak_rss_mb=peak,
            checked=checked, first_cycle=cycle_frames,
            ate_mm=ate_mm([track]) if complete else float("inf"),
            ate_bound_mm=self.ate_bound_mm, layers=layers,
            chrome_trace=ref_tracer.chrome_trace(cycle) if trace else None))

    def _start(self):
        """Cold-start the served program: the router, its shard worker
        and their supervisor.  Returns ``(router, supervisor)``."""
        router = ShardRouter(shards=1, spec=self.spec).start()
        try:
            supervisor = Supervisor(router).start()
        except BaseException:
            router.close()
            raise
        return router, supervisor

    @staticmethod
    def _stop(router, supervisor) -> None:
        """Stop what ``_start`` started, down to the ``multiprocessing``
        forkserver and resource tracker, so the next set-up is as cold
        as the first."""
        supervisor.stop()
        router.close()
        stop_multiprocessing_helpers()

    def _frame(self, position: int):
        return self.frames[self.order[position % len(self.order)]]

    def _submit(self, router, position: int,
                start: Optional[float] = None) -> Frame:
        frame = self._frame(position)
        if start is None:
            start = time.perf_counter()
        result = router.submit("c0", frame.gray, frame.depth,
                               timestamp=position / FPS, timeout=120.0)
        return Frame(time.perf_counter() - start, position,
                     result.pose, result.health, result)

    def _phase(self, router, seconds: float):
        """Submit frames until ``seconds`` passed and the session ended
        a whole back-and-forth pass (as the tracking phase ends with a
        whole pass); returns the timed frames."""
        deadline = time.perf_counter() + seconds
        timed: List[Frame] = []
        while True:
            position = len(self.done)
            try:
                frame = self._submit(router, position)
            except Exception as exc:  # counted as failed; exit != 0
                timed.append(Frame(0.0, position, error=repr(exc)))
                return timed
            self.done.append(frame)
            timed.append(frame)
            if (len(self.done) % len(self.order) == 0 and
                    time.perf_counter() >= deadline):
                return timed

    def _solo_reference(self, tracer: Optional[Tracer]):
        """FrameResults of an in-process solo tracker over the frames
        the client sent, in the order it sent them."""
        if tracer is not None:
            tracer.install()
        try:
            config = TrackerConfig()
            tracker = EBVOTracker(FloatFrontend(config), config)
            for position in range(len(self.done)):
                frame = self._frame(position)
                tracker.process(frame.gray, frame.depth, position / FPS)
        finally:
            if tracer is not None:
                tracer.remove()
        return tracker.results

    @staticmethod
    def _serve_layers(frames: List[Frame], tracer: Tracer) -> dict:
        """Router-side layers of the traced phase."""
        answered = [f for f in frames if f.result is not None]
        hop = [f.latency_s - f.result.queue_s - f.result.service_s
               for f in answered]
        return {
            "serve.queue_ms_p50":
                1e3 * float(np.median([f.result.queue_s
                                       for f in answered])),
            "serve.service_ms_p50":
                1e3 * float(np.median([f.result.service_s
                                       for f in answered])),
            "shard.hop_ms_p50": 1e3 * float(np.median(hop)),
            "shard.bytes_per_frame":
                tracer.bytes_sent["frame"] / max(len(answered), 1),
            "shard.checkpoint_ms":
                1e3 * tracer.checkpoint_s / max(len(answered), 1),
            "serve.retries": float(sum(f.result.retries
                                       for f in answered)),
            "serve.rejections": float(sum(
                1 for f in frames if f.error and "Backpressure" in f.error)),
        }


#: Workload name -> factory of a fresh runner.
WORKLOADS = {
    "track_pim_device_sparse": partial(
        TrackingWorkload, "fr3_st_ntex_far", ate_bound_mm=60.0),
    # One client: with two, the parent (pickling 1.2 MB frames) and the
    # shard worker kept both cores of a two-core host busy at once, and
    # interference between them spread fps by 25-35% from run to run.
    "serve_float_shard": partial(
        ServeWorkload, "fr2_desk", ate_bound_mm=60.0),
}
