"""One-shot scaling report: wall time and µs/row of `singlab search`.

    python3 bench/scaling.py

Runs the CLI once per row of the table below (CSV output, so rows are
counted as stdout lines minus the header), through the same child runner as
the benchmark, prints a table and writes bench/scaling.json.  It takes about
two minutes on two cores.  Not a gated workload: one run each, no digests.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import ROOT, cli_argv, run_child  # noqa: E402

CASES = [
    (mode, p_max, 1)
    for mode in ("artin-only", "single-contraction", "multi-contraction")
    for p_max in (200, 400)
] + [("single-contraction", 300, 1), ("single-contraction", 300, 2)]

OUT = ROOT / "bench" / "scaling.json"


def main() -> int:
    results = []
    for mode, p_max, workers in CASES:
        argv = cli_argv(
            ["search", "--mode", mode, "--p-max", str(p_max), "--format", "csv", "--workers", str(workers)]
        )
        run = run_child(argv, time.perf_counter() + 600, keep_stdout=True)
        if not run.ok:
            print(f"error: {mode} p_max {p_max} workers {workers}: exit {run.returncode}", file=sys.stderr)
            return 1
        rows = run.stdout.count(b"\n") - 1
        results.append(
            {
                "mode": mode,
                "p_max": p_max,
                "workers": workers,
                "rows": rows,
                "wall_s": round(run.wall_s, 3),
                "us_per_row": round(run.wall_s / rows * 1e6, 1),
                "peak_rss_mb": round(run.rss_mb, 1),
            }
        )
        print("{mode:>18} p_max {p_max}  workers {workers}  {rows:>7} rows  {wall_s:7.2f} s  "
              "{us_per_row:6.1f} us/row  {peak_rss_mb:6.1f} MB".format(**results[-1]), flush=True)
    growth = {}
    for mode in ("artin-only", "single-contraction", "multi-contraction"):
        per_row = {r["p_max"]: r["us_per_row"] for r in results if r["mode"] == mode and r["workers"] == 1}
        growth[mode] = round(per_row[400] / per_row[200], 2)
        print(f"{mode:>18} us/row growth 200 -> 400: x{growth[mode]}")
    report = {
        "machine": {"cpus": os.cpu_count(), "arch": platform.machine(), "python": platform.python_version()},
        "runs": results,
        "us_per_row_growth_200_to_400": growth,
    }
    OUT.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
