"""Fig. 8: tracked trajectory vs ground truth for two sequences.

The paper overlays the PIM EBVO output trajectory (green) on the
ground truth (red) for a feature-rich and a feature-poor sequence.
This bench regenerates the overlay as SVG files under
``benchmarks/reports/`` and checks the tracks stay locked.
"""

import numpy as np
from conftest import bench_frames

from repro.analysis import format_table, run_fig8_trajectories, \
    trajectory_svg


def test_fig8_trajectories(benchmark, record_report, results_dir):
    out = benchmark.pedantic(
        run_fig8_trajectories, kwargs={"n_frames": bench_frames()},
        rounds=1, iterations=1)

    rows = []
    for name, data in out.items():
        svg_path = results_dir / f"fig8_{name}.svg"
        trajectory_svg({"groundtruth": data["groundtruth"],
                        "estimated": data["estimated"]}, svg_path)
        gap = np.linalg.norm(data["estimated"] - data["groundtruth"],
                             axis=1)
        rows.append([name, f"{data['rpe_t']:.3f}",
                     f"{data['rpe_rot']:.2f}", f"{gap.max():.3f}",
                     svg_path.name])
    record_report("fig8_trajectories", format_table(
        ["sequence", "RPE t (m/s)", "RPE rot (deg/s)",
         "max position gap (m)", "overlay"],
        rows, title="Fig. 8 - trajectory vs groundtruth (PIM frontend)"))

    for name, data in out.items():
        gap = np.linalg.norm(data["estimated"] - data["groundtruth"],
                             axis=1)
        # The green track follows the red one (Fig. 8's visual claim).
        assert gap.max() < 0.30, name
