"""singlab benchmark: four workloads, end-to-end metrics, traced per-layer run.

    python3 bench/run.py --workload scan_single --seed 1 --seconds 22 --trace 0
    python3 bench/run.py                      # every workload, tracing off

Run from the repository root.  The scan workloads start the CLI exactly as a
user would (``python -m singlab.cli search ...`` with ``PYTHONPATH=src``);
``point_queries`` runs ``bench/child.py`` with pairs drawn here from the seed.
With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it reports calls and self time per layer from ``bench/tracer.py`` plus the
derived per-layer metrics.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``bench/README.md`` for why each workload exists and which per-layer metric
should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYER_FUNCTIONS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


@dataclass(frozen=True)
class Scan:
    args: tuple[str, ...]
    workers: int
    rows: int
    sha256: str  # stdout of the seed commit; byte-identical for any worker count


SCANS = {
    "scan_artin": Scan(
        ("--mode", "artin-only", "--p-max", "400", "--format", "csv"),
        1,
        48_677,
        "2772342e67849629849fe018302dd3214da883ce9d8bbee53bfb5a998c612847",
    ),
    "scan_single": Scan(
        ("--mode", "single-contraction", "--p-max", "200"),
        1,
        25_535,
        "deb14e390e82648a82e1dcb529ac2271e46e70d6ff488f7d1ca72b2d98c995e7",
    ),
    "scan_multi_w2": Scan(
        ("--mode", "multi-contraction", "--p-max", "200", "--format", "json"),
        2,
        28_010,
        "d36f1a1bd505fb10fa8d928beb5b4853d37044246d097eede43868c461e32652",
    ),
}
WORKLOADS = (*SCANS, "point_queries")

SETUP_ARGS = ("resolve", "5", "2")
SETUP_STDOUT = b"(3,2)\n"
# Short child runs; the median needs this many to hold still on a noisy host.
# A start-up sample lasts about 0.2 s, so a handful taken back to back sees
# only the host's state of that moment.  One is taken per STARTUP_EVERY_S of
# each workload iteration, right after it, so that their median spans the run
# and every workload gets about as many.
STARTUP_EVERY_S = 1.0
STARTUP_MIN = 12

# point_queries: p log-uniform in [10^3, 10^4], q uniform, coprime.  The
# body is large enough that query_p99_us lands about 20 pairs deep into the
# body's tail rather than on its 3rd-slowest pair, which varies by seed.  Pairs
# whose chain is longer than BODY_K_MAX are drawn in the LONG_CHAIN_BANDS
# strata instead (two pairs per band, from the same law conditioned on the
# band), so every seed carries the same long-chain load.  The substring
# sweep costs O(k^2 sqrt p): one unstratified draw of 1000 pairs took 154 s,
# 140 s of it on a single k = 7610 pair, and q = p - 1 at p = 10^4 would
# alone exceed a run's time limit.
BODY_PAIRS = 3000
BODY_K_MAX = 128
LONG_CHAIN_BANDS = ((144, 160), (288, 320), (576, 640), (1152, 1280))
PAIRS_PER_BAND = 2
# The float eta oracle holds to 1e-9 only for p <= 200, so these pairs are
# the ones the cotangent check runs on.
SMALL_PAIRS = 100
SMALL_P_RANGE = (3, 200)

CHILD_TIMEOUT_S = 90
RUN_DEADLINE_S = 170
ADDRESS_SPACE_CAP = 2 << 30

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "us_per_row": "us",
    "first_byte_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_us": "us",
    "query_p99_us": "us",
}
DERIVED_PER_LAYER = {
    "invariants.find_type_t_substrings.intervals": "count",
    "invariants.find_type_t_substrings.hits": "count",
    "invariants.find_type_t_substrings.hit_ratio": "ratio",
    "chains.hj_resolve.per_pair": "ratio",
    "type_t.recognize_type_t.per_row": "ratio",
    "search.parallel_efficiency": "ratio",
    "search.pairs": "count",
    "search.rows.artin": "count",
    "search.rows.contracted": "count",
    "render.bytes": "B",
    "render.ns_per_byte": "ns/B",
    "trace.overhead_share": "ratio",
}
PER_LAYER = {
    **{f"{fn}.{kind}": unit for fn in LAYER_FUNCTIONS for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **DERIVED_PER_LAYER,
}


class BenchError(Exception):
    """The benchmark cannot run here."""


@dataclass
class ChildRun:
    wall_s: float
    first_byte_s: float
    sha256: str
    stdout: bytes | None
    stderr: bytes
    rss_mb: float
    returncode: int
    killed: bool

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.killed

    def stats(self) -> dict | None:
        """The JSON object on the last stderr line of a bench/child.py run."""
        lines = self.stderr.decode(errors="replace").strip().splitlines()
        try:
            return json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            return None


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def run_child(argv, deadline: float, stdin: bytes = b"", keep_stdout: bool = False) -> ChildRun:
    """Run argv to exit; time spawn to first stdout byte and to exit with
    stdout drained.  The process group is killed at the deadline or after
    CHILD_TIMEOUT_S; peak RSS is the largest of the child and the children
    it reaped (pool workers)."""
    env = dict(os.environ, PYTHONPATH="src")
    start = time.perf_counter()
    limit = min(deadline, start + CHILD_TIMEOUT_S)
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=env,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        preexec_fn=_cap_address_space,
        start_new_session=True,
    )
    first_byte = None
    digest = hashlib.sha256()
    out: list[bytes] = []
    err = bytearray()
    killed = False
    with selectors.DefaultSelector() as sel:
        try:
            proc.stdin.write(stdin)
            proc.stdin.close()
        except BrokenPipeError:
            pass
        sel.register(proc.stdout, selectors.EVENT_READ)
        sel.register(proc.stderr, selectors.EVENT_READ)
        while sel.get_map():
            remaining = limit - time.perf_counter()
            if remaining <= 0:
                os.killpg(proc.pid, signal.SIGKILL)
                killed = True
                break
            for key, _ in sel.select(remaining):
                chunk = os.read(key.fd, 1 << 16)
                if not chunk:
                    sel.unregister(key.fileobj)
                elif key.fileobj is proc.stdout:
                    if first_byte is None:
                        first_byte = time.perf_counter() - start
                    digest.update(chunk)
                    if keep_stdout:
                        out.append(chunk)
                else:
                    err += chunk
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return ChildRun(
        wall_s=wall,
        first_byte_s=wall if first_byte is None else first_byte,
        sha256=digest.hexdigest(),
        stdout=b"".join(out) if keep_stdout else None,
        stderr=bytes(err),
        rss_mb=usage.ru_maxrss / 1024,
        returncode=proc.returncode,
        killed=killed,
    )


def cli_argv(args) -> list[str]:
    return [sys.executable, "-m", "singlab.cli", *args]


def child_argv(args) -> list[str]:
    return [sys.executable, str(BENCH / "child.py"), *args]


def scan_args(scan: Scan, workers: int) -> list[str]:
    return ["search", *scan.args, "--workers", str(workers)]


# --- point_queries inputs ------------------------------------------------


def chain_length(p: int, q: int, stop: int) -> int:
    """Length of the Hirzebruch-Jung chain of (p, q), or stop + 1 if longer."""
    k = 0
    a, b = p, q
    while b > 0 and k <= stop:
        e = -(-a // b)
        a, b = b, e * b - a
        k += 1
    return k


def query_pairs(seed: int) -> list[tuple[int, int]]:
    """The seeded point-query list: body, then small-p, then long-chain strata."""
    rng = random.Random(seed)

    def draw(p_lo: int, p_hi: int) -> tuple[int, int]:
        while True:
            p = round(10 ** rng.uniform(math.log10(p_lo), math.log10(p_hi)))
            q = rng.randrange(1, p)
            if math.gcd(p, q) == 1:
                return p, q

    body: list[tuple[int, int]] = []
    while len(body) < BODY_PAIRS:
        p, q = draw(10**3, 10**4)
        if chain_length(p, q, BODY_K_MAX) <= BODY_K_MAX:
            body.append((p, q))
    small = [draw(*SMALL_P_RANGE) for _ in range(SMALL_PAIRS)]
    long_chains = []
    for lo, hi in LONG_CHAIN_BANDS:
        found = 0
        while found < PAIRS_PER_BAND:
            p, q = draw(10**3, 10**4)
            if lo < chain_length(p, q, hi) <= hi:
                long_chains.append((p, q))
                found += 1
    return body + small + long_chains


# --- measurement ---------------------------------------------------------


def percentile(values, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


class Run:
    """Counts operations and failures, and holds the run's deadline."""

    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        self.seconds = seconds
        self.start = time.perf_counter()
        self.deadline = self.start + RUN_DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, ok: bool, what: str, count: int = 1, failed: int | None = None) -> None:
        self.attempted += count
        lost = (0 if ok else count) if failed is None else failed
        self.failed += lost
        if lost:
            self.errors.append(what)

    def measuring(self, started: float, done: int) -> bool:
        """Whether to start another iteration of the measured loop."""
        now = time.perf_counter()
        if now >= self.deadline - 1:
            return False
        return done == 0 or now - started < self.seconds


def check_scan(run: Run, name: str, result: ChildRun, how: str = "") -> bool:
    ok = result.ok and result.sha256 == SCANS[name].sha256
    why = f"exit {result.returncode}, killed {result.killed}, sha256 {result.sha256[:12]}"
    run.record(ok, f"{name}{how}: {why}: {result.stderr[-300:].decode(errors='replace')}")
    return ok


def setup_once(run: Run) -> float:
    result = run_child(cli_argv(SETUP_ARGS), run.deadline, keep_stdout=True)
    run.record(result.ok and result.stdout == SETUP_STDOUT, f"setup: exit {result.returncode}")
    return result.wall_s


def run_queries(run: Run, pairs, trace: bool) -> tuple[ChildRun, dict | None]:
    """One pass over the query list in a bench/child.py process."""
    payload = json.dumps(pairs).encode()
    argv = child_argv(["queries", "--trace"] if trace else ["queries"])
    result = run_child(argv, run.deadline, stdin=payload, keep_stdout=True)
    stats = result.stats() if result.ok else None
    answered = result.stdout.count(b"\n") if result.stdout else 0
    if stats is None:
        run.record(False, f"point_queries: exit {result.returncode}, killed {result.killed}", len(pairs) + 1)
    else:
        # One line per query; a missing line is a query that never answered.
        failed = stats["failed"] if answered >= len(pairs) else len(pairs) + 1
        run.record(failed == 0, f"point_queries: {failed} failed operations", len(pairs) + 1, failed)
    return result, stats


def end_to_end(name: str, run: Run) -> dict:
    setups: list[float] = []

    def startup_samples(count: int) -> None:
        setups.extend(setup_once(run) for _ in range(count))

    started = time.perf_counter()
    done: list[ChildRun] = []
    if name == "point_queries":
        pairs = query_pairs(run.seed)
        walls, latencies, reports = [], [], 0
        while run.measuring(started, len(done)):
            result, stats = run_queries(run, pairs, trace=False)
            done.append(result)
            startup_samples(math.ceil(result.wall_s / STARTUP_EVERY_S))
            if stats is not None:
                walls.append(stats["wall_s"])
                latencies += stats["latencies_s"]
                reports = stats["reports"]
        wall = statistics.median(walls) if walls else math.nan
        per_row = wall / reports if reports else math.nan
    else:
        scan = SCANS[name]
        while run.measuring(started, len(done)):
            result = run_child(cli_argv(scan_args(scan, scan.workers)), run.deadline)
            check_scan(run, name, result)
            done.append(result)
            startup_samples(math.ceil(result.wall_s / STARTUP_EVERY_S))
        latencies = [r.wall_s for r in done]
        wall = statistics.median(latencies)
        per_row = wall / scan.rows
    startup_samples(max(0, STARTUP_MIN - len(setups)))
    metrics = dict(
        setup_s=statistics.median(setups),
        wall_s=wall,
        us_per_row=per_row * 1e6,
        first_byte_s=statistics.median(r.first_byte_s for r in done),
        peak_rss_mb=statistics.median(r.rss_mb for r in done),
        query_p50_us=percentile(latencies, 0.50) * 1e6 if latencies else math.nan,
        query_p99_us=percentile(latencies, 0.99) * 1e6 if latencies else math.nan,
    )
    return {key: (value, END_TO_END[key]) for key, value in metrics.items()}


def per_layer(name: str, run: Run) -> dict:
    started = time.perf_counter()
    untraced: list[float] = []
    untraced_w2: list[float] = []
    traced: list[float] = []
    summaries: list[dict] = []
    rows = pairs_seen = 0
    pairs = query_pairs(run.seed) if name == "point_queries" else []
    while run.measuring(started, len(summaries)):
        if name == "point_queries":
            _, stats = run_queries(run, pairs, trace=False)
            if stats is not None:
                untraced.append(stats["wall_s"])
            _, stats = run_queries(run, pairs, trace=True)
            if stats is not None:
                traced.append(stats["wall_s"])
                summaries.append(stats["trace"])
                rows, pairs_seen = stats["reports"], stats["queries"]
        else:
            scan = SCANS[name]
            result = run_child(cli_argv(scan_args(scan, 1)), run.deadline)
            if check_scan(run, name, result):
                untraced.append(result.wall_s)
            if scan.workers > 1:
                result = run_child(cli_argv(scan_args(scan, scan.workers)), run.deadline)
                if check_scan(run, name, result):
                    untraced_w2.append(result.wall_s)
            result = run_child(child_argv(["cli", "--trace", "--", *scan_args(scan, 1)]), run.deadline)
            stats = result.stats()
            if check_scan(run, name, result, " traced") and stats is not None:
                traced.append(result.wall_s)
                summaries.append(stats["trace"])
        if not summaries:
            break
    if not summaries:
        return {key: (math.nan, unit) for key, unit in PER_LAYER.items()}
    # Counts must repeat exactly; a traced pass that disagrees is a failure.
    reference = (summaries[0]["calls"], summaries[0]["counts"])
    for summary in summaries[1:]:
        run.record((summary["calls"], summary["counts"]) == reference, f"{name}: trace counts differ")
    calls, counts = reference
    metrics: dict[str, float] = {}
    for fn in LAYER_FUNCTIONS:
        metrics[f"{fn}.calls"] = calls.get(fn, 0)
        metrics[f"{fn}.self_s"] = statistics.median(s["self_s"].get(fn, 0.0) for s in summaries)
    for key in DERIVED_PER_LAYER:
        metrics[key] = counts.get(key, 0)
    if name != "point_queries":
        pairs_seen = counts.get("search.pairs", 0)
        rows = counts.get("search.rows.artin", 0) + counts.get("search.rows.contracted", 0)
    intervals = counts.get("invariants.find_type_t_substrings.intervals", 0)
    metrics["invariants.find_type_t_substrings.hit_ratio"] = (
        counts.get("invariants.find_type_t_substrings.hits", 0) / intervals if intervals else 0.0
    )
    metrics["chains.hj_resolve.per_pair"] = calls.get("chains.hj_resolve", 0) / pairs_seen if pairs_seen else 0.0
    metrics["type_t.recognize_type_t.per_row"] = calls.get("type_t.recognize_type_t", 0) / rows if rows else 0.0
    rendered = counts.get("render.bytes", 0)
    render_s = sum(metrics[f"render.{fn}.self_s"] for fn in ("render_table", "render_json", "render_csv"))
    metrics["render.ns_per_byte"] = render_s / rendered * 1e9 if rendered else 0.0
    metrics["search.parallel_efficiency"] = (
        statistics.median(untraced) / (2 * statistics.median(untraced_w2)) if untraced_w2 and untraced else 0.0
    )
    base = statistics.median(untraced) if untraced else math.nan
    metrics["trace.overhead_share"] = (statistics.median(traced) - base) / base
    return {key: (metrics[key], unit) for key, unit in PER_LAYER.items()}


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> tuple[Run, dict]:
    workers = SCANS[name].workers if name in SCANS else 1
    cpus = os.cpu_count() or 1
    if workers > cpus:
        raise BenchError(f"{name} needs {workers} worker processes, only {cpus} cores are available")
    run = Run(seed, seconds)
    metrics = per_layer(name, run) if trace else end_to_end(name, run)
    return run, metrics


def report(run: Run, metrics: dict, prefix: str = "") -> None:
    for key, (value, unit) in metrics.items():
        print(f"{prefix}{key} = {value:.6g} {unit}")
    share = run.failed / run.attempted if run.attempted else 1.0
    print(f"{prefix}failed_share = {share:.6g} ({run.failed}/{run.attempted} operations)")
    for error in run.errors[:10]:
        print(f"{prefix}error: {error}", file=sys.stderr)


def result_line(run_list, metrics: dict) -> str:
    attempted = sum(r.attempted for r in run_list)
    failed = sum(r.failed for r in run_list)
    finite = all(math.isfinite(value) for value, _ in metrics.values())
    return json.dumps(
        {
            "correct": failed == 0 and finite and attempted > 0,
            "attempted": max(attempted, 1),
            "failed": failed,
            # NaN (nothing measured) is not JSON; such a run is not correct.
            "metrics": {
                key: {"value": value if math.isfinite(value) else 0.0, "unit": unit}
                for key, (value, unit) in metrics.items()
            },
        }
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "singlab" / "__init__.py").is_file():
        print(f"error: no singlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs, merged = [], {}
    try:
        for name in names:
            run, metrics = run_workload(name, args.seed, args.seconds, bool(args.trace))
            prefix = f"{name}." if len(names) > 1 else ""
            report(run, metrics, prefix)
            runs.append(run)
            merged.update({prefix + key: value for key, value in metrics.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result_line(runs, merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
