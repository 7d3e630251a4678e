"""Child process of the benchmark: point queries, and traced CLI runs.

    python bench/child.py queries [--trace]   < pairs.json
    python bench/child.py cli --trace -- search --mode ... --p-max ...

``queries`` reads a JSON list of ``[p, q]`` from stdin, runs one query per
pair, prints one line per query (``p q reports`` or ``p q error: ...``) as one
block once the list is done, the way ``singlab search`` prints its rows, and
then runs ``enumerate_type_t(12, 4)`` once.  ``cli`` runs ``singlab.cli.main``
in process, so the CLI's stdout is this process's stdout.  Either way the
last line on stderr is a JSON object with the timings (and, with
``--trace``, the tracer summary).  Run with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import nullcontext

from singlab import chains, cli, eta, invariants, type_t
from tracer import Tracer

# Above this order the float oracle drifts past the tolerance.
COTANGENT_P_MAX = 200
COTANGENT_TOL = 1e-9
# enumerate_type_t is exponential in r_max (0.23 s at 12, 13.6 s at 16).
ENUMERATE_ARGS = (12, 4)


class OracleMismatch(Exception):
    pass


def run_query(p: int, q: int) -> int:
    """One `invariants` + `typet` + `eta` query on (p, q); returns the
    number of reports built.  Raises on any failed oracle."""
    g = chains.CyclicQuotient(p, q)
    artin = invariants.configuration_invariants(invariants.artin_configuration(g))
    reports = 1
    for a, b, _params in invariants.find_type_t_substrings(artin.chain):
        invariants.configuration_invariants(invariants.configuration(g, [(a, b)]))
        reports += 1
    exact = eta.eta_exact(g)
    if exact != artin.eta:
        raise OracleMismatch(f"eta_exact {exact} != report eta {artin.eta}")
    if chains.chain_to_quotient(chains.hj_resolve(g)) != g:
        raise OracleMismatch("chain_to_quotient(hj_resolve(g)) != g")
    if p <= COTANGENT_P_MAX:
        diff = abs(eta.eta_cotangent(g) - float(exact))
        if diff > COTANGENT_TOL:
            raise OracleMismatch(f"eta_cotangent off by {diff:.3e}")
    return reports


def queries(pairs) -> dict:
    latencies = []
    lines = []
    reports = 0
    failed = 0
    clock = time.perf_counter
    start = clock()
    for p, q in pairs:
        t0 = clock()
        try:
            built = run_query(p, q)
        except Exception as exc:  # one failed query must not stop the list
            built = f"error: {type(exc).__name__}: {exc}"
            failed += 1
        latencies.append(clock() - t0)
        if isinstance(built, int):
            reports += built
        lines.append(f"{p} {q} {built}\n")
    sys.stdout.write("".join(lines))
    sys.stdout.flush()
    try:
        type_t.enumerate_type_t(*ENUMERATE_ARGS)
    except Exception as exc:
        failed += 1
        sys.stdout.write(f"enumerate_type_t error: {type(exc).__name__}: {exc}\n")
    wall = clock() - start
    return {
        "wall_s": wall,
        "latencies_s": latencies,
        "reports": reports,
        "queries": len(pairs),
        "failed": failed,
    }


def main(argv: list[str]) -> int:
    mode, rest = (argv[0], argv[1:]) if argv else ("", [])
    trace = rest[:1] == ["--trace"]
    if trace:
        rest = rest[1:]
    tracer = Tracer() if trace else None
    with tracer.installed() if trace else nullcontext():
        if mode == "queries":
            stats = queries(json.load(sys.stdin))
            code = 0
        elif mode == "cli" and trace and rest[:1] == ["--"]:
            start = time.perf_counter()
            code = cli.main(rest[1:])
            stats = {"wall_s": time.perf_counter() - start}
        else:
            print("usage: child.py queries [--trace] | cli --trace -- ARGS", file=sys.stderr)
            return 2
    sys.stdout.flush()
    if trace:
        stats["trace"] = tracer.summary()
    sys.stderr.write(json.dumps(stats) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
