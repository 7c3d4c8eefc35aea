"""End-to-end tracked-frame benchmark: one workload, one run.

Usage (from the repository root)::

    python3 framebench/run.py --workload track_pim_device_sparse \
        --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no probe installed;
``--trace 1`` measures an untraced and a traced phase over the same
frames and reports the per-layer metrics.  Lines starting with ``#``
are the human-readable report (every metric by name and unit, sample
counts, output checks, pose digest); the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every output check passed.  See ``framebench/README.md`` for
the workloads and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics (untraced run) and their units.
END_TO_END = {
    "fps": "1/s",
    "frame_ms_p50": "ms",
    "frame_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced run) and their units; per timed frame
#: unless the README notes otherwise.
PER_LAYER = {
    "fixedpoint.saturate_calls": "count",
    "fixedpoint.sat_add_calls": "count",
    "kernels.hessian_fast_ms": "ms",
    "kernels.warp_fast_ms": "ms",
    "kernels.jacobian_fast_ms": "ms",
    "vo.frontend.linearize_ms": "ms",
    "vo.frontend.linearize_calls": "count",
    "vo.frontend.error_ms": "ms",
    "vo.frontend.error_calls": "count",
    "vo.lm.self_ms": "ms",
    "vo.lm.iterations": "count",
    "vo.lm.rejected_steps": "count",
    "kernels.detect_edges_fast_ms": "ms",
    "kernels.detect_edges_replay_ms": "ms",
    "pim.run_program_ms": "ms",
    "pim.run_program_calls": "count",
    "pim.replay_compiled_frac": "frac",
    "pim.program_cache_hit_rate": "frac",
    "pim.detect_cycles.lpf": "cycles",
    "pim.detect_cycles.hpf": "cycles",
    "pim.detect_cycles.nms": "cycles",
    "sim_detect_cycles_per_frame": "cycles",
    "sim_detect_energy_nj_per_frame": "nJ",
    "vision.distance_transform_ms": "ms",
    "vo.frontend.prepare_keyframe_ms": "ms",
    "vo.tracker.keyframes_per_100": "count",
    "vo.pyramid.build_ms": "ms",
    "vo.features.extract_ms": "ms",
    "vo.features.count": "count",
    "vision.detect_edges_reference_ms": "ms",
    "kernels.warp_float_ms": "ms",
    "kernels.jacobian_float_ms": "ms",
    "serve.queue_ms_p50": "ms",
    "serve.service_ms_p50": "ms",
    "shard.hop_ms_p50": "ms",
    "shard.bytes_per_frame": "bytes",
    "shard.checkpoint_ms": "ms",
    "serve.retries": "count",
    "serve.rejections": "count",
    "trace.attributed_frac": "frac",
    "trace.overhead_frac": "frac",
    "ate_rmse_mm": "mm",
    "failed_frac": "frac",
}

#: Workloads whose traced run must attribute this share of frame time
#: to named stages.
ATTRIBUTION_FLOOR = 0.90
ATTRIBUTION_GATED = ("track_pim_device_sparse",)


def _pin_blas_threads() -> None:
    """One BLAS thread, set before numpy loads (and inherited by shard
    workers), so load never exceeds the benchmark's own threads."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _keep_temp_files_in_checkout() -> None:
    """Point ``tempfile`` at ``.framebench/tmp``, where the shard
    router's forkserver then puts its socket, so a run writes only
    inside the checkout.  A Unix socket path holds at most 107 bytes,
    so a checkout too deep for the socket path keeps the system
    default."""
    tmp = ROOT / ".framebench" / "tmp"
    if len(str(tmp)) <= 60:
        tmp.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(tmp)


def percentile_with_tail(values, q: float):
    """(q-th percentile, samples strictly beyond it)."""
    import numpy as np
    value = float(np.percentile(values, q))
    return value, sum(1 for v in values if v > value)


def answered(frames):
    """Frames that returned a pose, in completion order."""
    return sorted((f for f in frames if f.error is None),
                  key=lambda f: f.end_s)


def end_to_end(outcome) -> dict:
    """Timings over the whole timed phase, set-up median and peak
    memory."""
    done = answered(outcome.timed)
    latencies = [1e3 * f.latency_s for f in done]
    start = done[0].end_s - done[0].latency_s
    return {
        "fps": len(done) / (done[-1].end_s - start),
        "frame_ms_p90": percentile_with_tail(latencies, 90)[0],
        "frame_ms_p50": statistics.median(latencies),
        "setup_s": statistics.median(outcome.setup_s),
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def report(workload: str, args, outcome, metrics: dict, units: dict,
           failed: int, attempted: int) -> None:
    latencies = [f.latency_s for f in answered(outcome.timed)]
    beyond = percentile_with_tail(latencies, 90)[1] if latencies else 0
    lines = [
        f"workload={workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}",
        f"frames_timed = {len(outcome.timed)}; frame_ms_p90 has "
        f"{beyond} samples beyond it",
        "setup_samples_s = " + ", ".join(f"{s:.4f}"
                                          for s in outcome.setup_s),
        f"failed_frac = {failed / attempted:.6f} frac "
        f"({failed} of {attempted})",
        f"ate_rmse_mm = {outcome.ate_mm:.6f} mm "
        f"(bound {outcome.ate_bound_mm} mm)",
        f"pose_sha256 = {outcome.pose_digest} "
        f"({len(outcome.first_cycle)} poses)",
    ]
    for name in ("sim_detect_cycles_per_frame",
                 "sim_detect_energy_nj_per_frame"):
        lines.append(f"{name} = {outcome.layers.get(name, 0.0):.6f} "
                     f"{PER_LAYER[name]}")
    for name, value in metrics.items():
        lines.append(f"{name} = {value:.6f} {units[name]}")
    for line in lines:
        print("# " + line)


def main(argv=None) -> int:
    from harness import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny segments, for the self-test only")
    args = parser.parse_args(argv)

    outcome = WORKLOADS[args.workload]().run(
        args.seed, args.seconds, bool(args.trace), args.quick)

    attempted = len(outcome.checked)
    failed = sum(f.failed for f in outcome.checked)
    correct = failed == 0
    if args.trace:
        units = PER_LAYER
        metrics = {name: 0.0 for name in PER_LAYER}
        metrics.update(outcome.layers)
        metrics["ate_rmse_mm"] = outcome.ate_mm
        metrics["failed_frac"] = failed / attempted
        if (args.workload in ATTRIBUTION_GATED and
                not metrics["trace.attributed_frac"] >= ATTRIBUTION_FLOOR):
            print(f"# attribution gate failed: trace.attributed_frac "
                  f"{metrics['trace.attributed_frac']:.4f} < "
                  f"{ATTRIBUTION_FLOOR}")
            correct = False
        out = ROOT / ".framebench"
        out.mkdir(exist_ok=True)
        with open(out / f"{args.workload}-seed{args.seed}.trace.json",
                  "w") as fh:
            json.dump(outcome.chrome_trace, fh)
    else:
        units = END_TO_END
        metrics = end_to_end(outcome)
    report(args.workload, args, outcome, metrics, units, failed,
           attempted)
    for frame in outcome.checked:
        if frame.error:
            print(f"# error: frame {frame.position}: {frame.error}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    _pin_blas_threads()
    _keep_temp_files_in_checkout()
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
