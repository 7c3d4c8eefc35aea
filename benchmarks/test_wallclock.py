"""Wall-clock speedup of compiled-program replay (simulator speed).

Asserts the headline acceptance criteria of the capture/replay layer:
the compiled executor runs the QVGA LPF -> HPF -> NMS chain at least
10x faster than eagerly replaying the same programs row by row, and
the warp kernel no slower than its eager reference, with bit-identical
SRAM contents and identical ledger totals on every path.  Results are
archived under ``benchmarks/results/``; the committed repo-root
``BENCH_pim.json`` is regenerated by ``benchmarks/run_wallclock.py``.
"""

import json

from repro.analysis.wallclock import run_wallclock, write_results


def test_wallclock_replay_speedup(record_report, tmp_path):
    results = run_wallclock(repeats=3)
    edge = results["edge_pipeline"]
    warp = results["warp"]

    assert edge["mask_bit_identical"]
    assert edge["matches_vectorized_reference"]
    assert edge["sram_bit_identical"]
    assert edge["ledger_identical"]
    assert warp["ledger_identical"]
    assert warp["sram_bit_identical"]
    assert edge["compiled_speedup_vs_eager"] >= 10.0, (
        f"compiled replay only {edge['compiled_speedup_vs_eager']}x "
        f"faster than eager")
    assert warp["compiled_speedup_vs_eager"] >= 1.0, (
        f"compiled warp replay slower than eager "
        f"({warp['compiled_speedup_vs_eager']}x)")

    path = write_results(results, tmp_path / "BENCH_pim.json")
    record_report("wallclock_replay", json.dumps(results, indent=2))
    assert json.loads(path.read_text()) == results
