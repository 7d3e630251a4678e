"""Exhaustive invariant scans over (p, q) ranges.

A scan visits every coprime pair 2 <= p <= p_max, 1 <= q < p and emits the
Artin report plus, depending on the mode, one report per contracted type-T
substring of the chain (``single-contraction``) or per disjoint set of such
substrings up to a size cap (``multi-contraction``).

Each p is one unit of work, ``_p_part``, which makes one pass over q.  It
resolves each pair's chain once and builds every contracted row from that
chain and a disjoint subset of the hits of ``find_type_t_substrings``,
which checked each hit against its continued fraction; a row is not
re-resolved or re-recognised.
``scan_pieces``, the path of ``singlab search``, resolves the chain from
the integers (p, q).  ``scan`` reads it from
``artin_configuration(CyclicQuotient(p, q))``, so that its calls nest as a
point query's do (configuration, then hj_resolve), which the benchmark's
tracer test checks; the chain source is the only difference between the
two.  Every row of a pair shares p, q, the chain, k, sum_e, q^(-1;p) and
eta, so the unit computes them once per pair, as a pair record
(q, chain, k, sum_e, q_inv, eta_num) whose eta numerator is checked
against the Dedekind-sum eta there, once per pair.  A row adds only
(b2, c_num, label), read from the pair record and its subset of the
(start, stop, params) tuples that the sweep returned, and no report is
built per row.  The unit sorts each pair's rows by label, so the order in
which the subsets are found does not matter; it counts the rows
generated, applies the ``--dedup-conjugate`` and ``--positive`` filters,
and turns the (p, pair, rows) records that are left into a part.
For ``scan_pieces`` the part is that p's output already rendered by one of
``render.FORMATS`` into a str, so a worker process sends back text;
``render.stitch`` writes each part to an unnamed temporary file in $TMPDIR
(the spool) as it arrives and keeps none of it in memory.  For ``scan``
the part is the records, and the parent builds the ``InvariantReport``s,
so ``scan`` holds O(rows).  ``configuration_invariants`` builds the same
report for one configuration; it is the reference the scan's rows are
tested against.  The units are mapped over p in process or by a process
pool, whose ``map`` returns them in p order, so the rows are sorted by
(p, q, label) and the output is byte-identical regardless of how many
workers produced it.  ``_parts`` imports the process pool, and
multiprocessing with it, only when it starts a pool.  Once the scan
completes, the format's reader reads the spool back in pieces of 16 KiB
at most (a padded table line longer than that is a piece of its own), so
the parent's peak memory does not grow with the output.

The environment variable SINGLAB_ROW_LIMIT (default 10_000_000) bounds the
number of generated rows, counted before the filters.  It is checked as the
parts arrive; exceeding it cancels the pending units and aborts the scan
before anything is emitted.
"""

from __future__ import annotations

import os
from contextlib import closing
from dataclasses import dataclass
from functools import partial
from math import gcd
from operator import itemgetter
from typing import Iterator

from .chains import CyclicQuotient, ResolutionChain, _hj_chain
from .errors import RowLimitExceeded, SinglabError, _check_int
from .invariants import (
    InvariantReport,
    _pair_record,
    _report,
    _row,
    artin_configuration,
    find_type_t_substrings,
)
from .render import _format, stitch

__all__ = ["MODES", "SearchQuery", "scan", "scan_pieces", "row_limit"]

MODES = ("artin-only", "single-contraction", "multi-contraction")

_DEFAULT_ROW_LIMIT = 10_000_000


def row_limit() -> int:
    """The configured output bound (SINGLAB_ROW_LIMIT, default 10_000_000)."""
    raw = os.environ.get("SINGLAB_ROW_LIMIT", str(_DEFAULT_ROW_LIMIT))
    try:
        value = int(raw)
    except ValueError as exc:
        raise SinglabError(f"SINGLAB_ROW_LIMIT must be an integer, got {raw!r}") from exc
    _check_int("SINGLAB_ROW_LIMIT", value, 1)
    return value


@dataclass(frozen=True)
class SearchQuery:
    """Parameters of one scan.

    The defaults here are the ones ``singlab search`` uses for a flag left
    out.
    """

    p_max: int
    mode: str = "artin-only"
    positive_only: bool = False
    workers: int = 1
    max_contractions: int = 3
    dedup_conjugate: bool = False

    def __post_init__(self) -> None:
        for name, least in (("p_max", 2), ("workers", 1), ("max_contractions", 1)):
            _check_int(name, getattr(self, name), least)
        for name in ("positive_only", "dedup_conjugate"):
            value = getattr(self, name)
            if value is not True and value is not False:
                raise SinglabError(f"{name} must be a bool, got {value!r}")
        if self.mode not in MODES:
            raise SinglabError(f"mode must be one of {MODES}, got {self.mode!r}")


def _disjoint_subsets(intervals, cap):
    # Nonempty subsets of at most cap pairwise-disjoint intervals (tuples
    # that start with start, stop), each in interval order.  The intervals
    # are sorted by start, so the last member of a subset has its largest
    # stop, and an interval extends a subset only if it starts after that.
    subsets = [[]]
    for iv in intervals:
        subsets += [
            s + [iv] for s in subsets if len(s) < cap and (not s or s[-1][1] < iv[0])
        ]
    return subsets[1:]


def _artin_chain(p: int, q: int) -> ResolutionChain:
    # The chain source of scan(): through the validated quotient and its
    # Artin configuration, as a point query resolves it.
    return artin_configuration(CyclicQuotient(p, q)).chain


def _pair_rows(p: int, q: int, chain: ResolutionChain, cap: int) -> tuple[tuple, list]:
    # The pair record of (p, q), (q, chain, k, sum_e, q_inv, eta_num), and
    # its rows (b2, c_num, label) sorted by label, each _row(p, pair, hits):
    # the Artin row, with no hits, and, if cap > 0, one row per disjoint
    # subset of at most cap type-T hits.
    pair = _pair_record(p, q, chain)
    rows = [_row(p, pair, ())]
    if cap:
        # The hits are disjoint within a subset and sorted by start, so each
        # subset is a valid configuration as it stands.
        for chosen in _disjoint_subsets(find_type_t_substrings(chain), cap):
            rows.append(_row(p, pair, chosen))
        rows.sort(key=itemgetter(2))
    return pair, rows


def _p_part(p: int, query: SearchQuery, part, resolve):
    # One unit: each coprime pair of p by ascending q, with its chain from
    # resolve(p, q).  Returns the number of rows generated, before the
    # filters, and part() of the (p, pair, rows) records the filters keep.
    # A single contraction is a disjoint subset of size one.
    cap = {"artin-only": 0, "single-contraction": 1}.get(query.mode, query.max_contractions)
    dedup, positive = query.dedup_conjugate, query.positive_only
    generated, records = 0, []
    for q in range(1, p):
        if gcd(p, q) != 1:
            continue
        pair, rows = _pair_rows(p, q, resolve(p, q), cap)
        generated += len(rows)
        # pair[4] is q_inv, and row[1] is c_num = p*C.
        if dedup and q > pair[4]:
            continue
        if positive:
            rows = [row for row in rows if row[1] > 0]
        records.append((p, pair, rows))
    return generated, part(records)


def _parts(query: SearchQuery, part, resolve) -> Iterator:
    # The parts of p = 2..p_max in p order, from at most one process per
    # core this process may run on (its CPU affinity, where the platform
    # has one); resolve(p, q) is the chain source, a module-level function
    # so that a pool can pickle it.
    limit = row_limit()
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    n = min(query.workers, query.p_max - 1, cores or os.cpu_count() or 1)
    unit = partial(_p_part, query=query, part=part, resolve=resolve)
    ps = range(2, query.p_max + 1)
    pool = None
    if n > 1:
        # The first use of the name imports concurrent.futures.process: about
        # 20 ms and 2.4 MB that a one-process scan does not pay.
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=n)
    generated = 0
    try:
        for count, done in pool.map(unit, ps) if pool else map(unit, ps):
            generated += count
            if generated > limit:
                raise RowLimitExceeded(
                    f"scan exceeded SINGLAB_ROW_LIMIT = {limit} rows"
                )
            yield done
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def scan(query: SearchQuery) -> list[InvariantReport]:
    """Run the scan and return its rows, sorted by (p, q, label)."""
    # Each part is a list of records, so a worker sends integers and the
    # parent builds the reports.
    return [
        _report(p, pair, row)
        for part in _parts(query, list, _artin_chain)
        for p, pair, rows in part
        for row in rows
    ]


def scan_pieces(query: SearchQuery, fmt: str) -> Iterator[str]:
    """Run the scan and return its rows rendered as ``fmt``, in pieces.

    ``fmt`` is a key of ``render.FORMATS`` ("table", "json" or "csv"); any
    other raises ``SinglabError`` before a pool or a spool exists.  The
    scan completes before this returns, so a row-limit abort or a failed
    check raises before any piece exists.  ``"".join`` of the pieces equals
    ``render_<fmt>(scan(query))``; each p is rendered by the unit that
    computed it into a str part, and ``render.stitch`` writes it to an
    unnamed temporary file in $TMPDIR as it arrives, then the format's
    reader reads the pieces back from that file: each of 16 KiB at most,
    or one padded table line where that line is longer.
    A spool that cannot be created or written raises ``SinglabError``.
    """
    part = _format(fmt)[0]
    # Closing the parts shuts the pool down at once if the spool fails.
    with closing(_parts(query, part, _hj_chain)) as parts:
        return stitch(fmt, parts)
