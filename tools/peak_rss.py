"""Print the child-only peak RSS and the wall time of singlab CLI runs.

Usage, from any directory (Unix only):

    python tools/peak_rss.py [--runs N] ARGS...

Each of the N runs (default 5) starts ``python -m singlab.cli ARGS`` with
PYTHONPATH set to the ``src`` of the checkout this file is in, drains its
stdout, and reaps it with ``os.wait4``; stderr is passed through.  Two lines
give the median, min and max over the runs: the child's ``ru_maxrss`` in MB
(KiB / 1024, as ``bench/run.py`` reports it), the largest of the child and
the pool workers it reaped, and the wall time from spawn to exit.  A run
that exits non-zero stops the tool with that exit code.

The tool imports only os, sys and time, because the spawner's own RSS
floors the child's reading.  The child starts on the spawner's memory,
whether by fork (a copy) or by vfork (shared, as glibc's posix_spawn
does), and exec keeps that high-water mark in ``ru_maxrss``.  With 80 MB
of ballast in the spawner, ``python -c pass`` read 90-94 MB; a bare
interpreter reads about 13 MB and ``singlab resolve 5 2`` about 15.7 MB
(CPython 3.11.7 on Linux x86-64).  So a spawner that imported subprocess,
selectors or argparse would raise the floor of what it measures.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(args: list[str]) -> tuple[float, float]:
    """(peak RSS in MB, wall seconds) of one CLI run with stdout drained."""
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = [sys.executable, "-m", "singlab.cli", *args]
    r, w = os.pipe()
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=[(os.POSIX_SPAWN_DUP2, w, 1)])
    os.close(w)
    while os.read(r, 1 << 16):
        pass
    os.close(r)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code:
        sys.exit(f"singlab {' '.join(args)} exited {code}")
    return usage.ru_maxrss / 1024, wall


def summary(values: list[float], digits: int) -> str:
    values = sorted(values)
    n = len(values)
    median = (values[(n - 1) // 2] + values[n // 2]) / 2
    return f"median {median:.{digits}f}  min {values[0]:.{digits}f}  max {values[-1]:.{digits}f}"


def main(argv: list[str]) -> int:
    runs = 5
    if argv[:1] == ["--runs"]:
        if len(argv) < 2 or not argv[1].isdigit() or int(argv[1]) < 1:
            sys.exit("--runs takes a positive integer")
        runs, argv = int(argv[1]), argv[2:]
    if not argv:
        sys.exit("usage: python tools/peak_rss.py [--runs N] ARGS...")
    rss, wall = zip(*(run(argv) for _ in range(runs)))
    print(f"{runs} runs: singlab {' '.join(argv)}")
    print(f"peak_rss_mb  {summary(rss, 2)}")
    print(f"wall_s       {summary(wall, 3)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
