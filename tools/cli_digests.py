"""Print a digest line for each run of a fixed set of singlab CLI commands.

Each line holds the command's arguments, the sha256 of its stdout, the
sha256 of its stderr and its exit code.  The set is every ``search`` mode x
format x {no filter, --positive, --dedup-conjugate, both} x --workers 1 and
2 at ``--p-max``, one ``--max-contractions 2`` scan per format, then the
point commands, then the help and invalid calls whose bytes the library
keeps stable (the ``--help`` of ``search`` and of each command that takes
``P Q``), then ``search --p-max 10`` (31 generated rows) under each value
of ``SINGLAB_ROW_LIMIT`` in ``ROW_LIMITS``, whose lines start with the
variable.  Every other run has no ``SINGLAB_ROW_LIMIT``.  Run it from the
root of a checkout; it runs that checkout's ``python -m singlab.cli`` with
``PYTHONPATH=src``:

    python tools/cli_digests.py [--p-max 400] > digests.txt

Two checkouts are compared by diffing their outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from itertools import product

MODES = ("artin-only", "single-contraction", "multi-contraction")
FORMATS = ("table", "json", "csv")
FILTERS = ((), ("--positive",), ("--dedup-conjugate",), ("--positive", "--dedup-conjugate"))

POINT_COMMANDS = (
    ("tables", "--theorems", "--r-max", "20"),
    ("tables", "--theorems", "--r-max", "60"),
    ("family", "--curves", "2", "--r", "3", "--s", "1", "--d", "1"),
    ("invariants", "19", "7"),
    ("invariants", "8", "3", "--contract", "0..1"),
    ("invariants", "15", "4", "--contract", "0..0", "--contract", "1..1"),
    ("eta", "9", "2", "--method", "both"),
    ("typet", "enumerate", "--r-max", "6", "--s-max", "3"),
    ("typet", "recognize", "5,2"),
    ("typet", "recognize", "2,2"),
    ("resolve", "5", "2"),
    ("graphs", "--non-minimal", "4"),
)

ERROR_COMMANDS = (
    ("search", "--help"),
    ("resolve", "--help"),
    ("eta", "--help"),
    ("invariants", "--help"),
    ("search", "--p-max", "1"),
    ("search", "--p-max", "10", "--workers", "0"),
    ("search", "--p-max", "10", "--max-contractions", "0"),
    ("search", "--p-max", "10", "--mode", "x"),
    ("search",),
    ("invariants", "9", "2", "--contract", "0..5"),
    ("family", "--curves", "1", "--r", "2", "--s", "1", "--d", "2"),
)

# Invalid (0, x), at the row count (31, exit 0) and one below it (30, exit 3).
ROW_LIMITS = ("0", "x", "31", "30")


def commands(p_max: int):
    for mode, fmt, flags, workers in product(MODES, FORMATS, FILTERS, ("1", "2")):
        yield (
            "search", "--p-max", str(p_max), "--mode", mode, "--format", fmt,
            *flags, "--workers", workers,
        )
    for fmt in FORMATS:
        yield (
            "search", "--p-max", str(p_max), "--mode", "multi-contraction",
            "--max-contractions", "2", "--format", fmt,
        )
    yield from POINT_COMMANDS
    yield from ERROR_COMMANDS


def runs(p_max: int):
    # (environment variables set for the run, arguments) of each run.
    for command in commands(p_max):
        yield {}, command
    for limit in ROW_LIMITS:
        yield {"SINGLAB_ROW_LIMIT": limit}, ("search", "--p-max", "10")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--p-max", type=int, default=400)
    args = parser.parse_args(argv)
    env = dict(os.environ)
    env.pop("SINGLAB_ROW_LIMIT", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ("src", env.get("PYTHONPATH"))))
    for extra, command in runs(args.p_max):
        run = subprocess.run(
            [sys.executable, "-m", "singlab.cli", *command],
            capture_output=True,
            env={**env, **extra},
        )
        print(
            *(f"{name}={value}" for name, value in extra.items()),
            " ".join(command),
            f"stdout={_sha256(run.stdout)}",
            f"stderr={_sha256(run.stderr)}",
            f"exit={run.returncode}",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
