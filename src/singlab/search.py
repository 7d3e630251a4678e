"""Exhaustive invariant scans over (p, q) ranges.

A scan visits every coprime pair 2 <= p <= p_max, 1 <= q < p and emits the
Artin report plus, depending on the mode, one report per contracted type-T
substring of the chain (``single-contraction``) or per disjoint set of such
substrings up to a size cap (``multi-contraction``).

Each p is one unit of work.  A unit resolves each pair's chain once and
builds every contracted row from that chain and a disjoint subset of the
hits of ``find_type_t_substrings``, which checked each hit against its
continued fraction; a row is not re-resolved or re-recognised.
``scan_pieces``, the path of ``singlab search``, resolves the chain from
the integers (p, q).  ``scan`` reads it from
``artin_configuration(CyclicQuotient(p, q))``, so that its calls nest as a
point query's do (configuration, then hj_resolve), which the benchmark's
tracer test checks; the chain source is the only difference between the
two.  Every row of a pair shares p, q, the chain, k, sum_e, q^(-1;p) and
eta, so the unit computes them once per pair, as a pair record
(q, chain, k, sum_e, q_inv, eta_num) whose eta numerator is checked
against the Dedekind-sum eta there, once per pair.  Each hit's b2 change
and label are computed once per pair too, so a row adds only
(b2, c_num, label), and no report is built per row.  The unit sorts each
pair's rows by label, applies the ``--dedup-conjugate`` and ``--positive``
filters, and turns the (p, pair, rows) records that are left into a part.
For ``scan_pieces`` the part is that p's output already rendered by one of
``render.FORMATS`` into a compact part (text, and for the table its column
widths), so a worker process sends back text; ``render.stitch`` writes
each part to an unnamed temporary file in $TMPDIR (the spool) as it
arrives and keeps only the table's column widths in memory.  For ``scan``
the part is the records, and the parent builds the ``InvariantReport``s,
so ``scan`` holds O(rows).  ``configuration_invariants`` builds the same
report for one configuration; it is the reference the scan's rows are
tested against.  The units are mapped over p in process or by a process
pool, whose ``map`` returns them in p order, so the rows are sorted by
(p, q, label) and the output is byte-identical regardless of how many
workers produced it.  ``_parts`` imports the process pool, and
multiprocessing with it, only when it starts a pool.  Once the scan
completes, the stitcher reads the spool back in pieces of about 1 MiB at
most, so the parent's peak memory does not grow with the output.

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
from .errors import RowLimitExceeded, SinglabError
from .invariants import (
    InvariantReport,
    _b2,
    _hit,
    _label,
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
    raw = os.environ.get("SINGLAB_ROW_LIMIT")
    if raw is None:
        return _DEFAULT_ROW_LIMIT
    try:
        value = int(raw)
    except ValueError as exc:
        raise SinglabError(f"SINGLAB_ROW_LIMIT must be an integer, got {raw!r}") from exc
    if value < 1:
        raise SinglabError(f"SINGLAB_ROW_LIMIT must be positive, got {value}")
    return value


@dataclass(frozen=True)
class SearchQuery:
    """Parameters of one scan."""

    p_max: int
    mode: str = "artin-only"
    positive_only: bool = False
    workers: int = 1
    max_contractions: int = 3
    dedup_conjugate: bool = False

    def __post_init__(self) -> None:
        # bool is an int subclass, so a bool count is caught by identity.
        for name in ("p_max", "workers", "max_contractions"):
            value = getattr(self, name)
            if not isinstance(value, int) or value is True or value is False:
                raise SinglabError(f"{name} must be an integer, got {value!r}")
        for name in ("positive_only", "dedup_conjugate"):
            value = getattr(self, name)
            if value is not True and value is not False:
                raise SinglabError(f"{name} must be a bool, got {value!r}")
        if self.p_max < 2:
            raise SinglabError(f"need p_max >= 2, got {self.p_max}")
        if self.mode not in MODES:
            raise SinglabError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.workers < 1:
            raise SinglabError(f"need workers >= 1, got {self.workers}")
        if self.max_contractions < 1:
            raise SinglabError(
                f"need max_contractions >= 1, got {self.max_contractions}"
            )


def _disjoint_subsets(intervals, cap):
    # Nonempty subsets of pairwise-disjoint intervals (tuples that start
    # with start, stop), at most cap of them, in lexicographic order of the
    # chosen index tuple.
    def extend(start, chosen_stop, chosen):
        for i in range(start, len(intervals)):
            iv = intervals[i]
            if iv[0] <= chosen_stop:
                continue
            picked = chosen + [iv]
            yield picked
            if len(picked) < cap:
                yield from extend(i + 1, iv[1], picked)

    # intervals are sorted by (start, stop); overlap only needs the last stop
    # because every chosen interval starts after the previous one ends.
    yield from extend(0, -1, [])


def _artin_chain(p: int, q: int) -> ResolutionChain:
    # The chain source of scan(): through the validated quotient and its
    # Artin configuration, as a point query resolves it.
    return artin_configuration(CyclicQuotient(p, q)).chain


def _pair_rows(p: int, q: int, cap: int, resolve) -> tuple[tuple, list]:
    # The pair record of (p, q), (q, chain, k, sum_e, q_inv, eta_num), with
    # the chain from resolve(p, q), and its rows (b2, c_num, label) sorted by
    # label: the Artin row, whose b2 is k, and, if cap > 0, one row per
    # disjoint subset of at most cap type-T hits.
    chain = resolve(p, q)
    pair = _pair_record(p, q, chain)
    k, eta_num = pair[2], pair[5]
    rows = [_row(p, eta_num, k, _label(()))]
    if cap:
        # The hits are disjoint within a subset and sorted by start, so each
        # subset is a valid configuration as it stands.
        hits = [_hit(iv) for iv in find_type_t_substrings(chain)]
        for chosen in _disjoint_subsets(hits, cap):
            rows.append(_row(p, eta_num, _b2(k, chosen), _label(chosen)))
        rows.sort(key=itemgetter(2))
    return pair, rows


def _p_rows(p: int, mode: str, cap: int, resolve) -> Iterator[tuple[tuple, list]]:
    # _pair_rows of every coprime pair with this p, by ascending q.  A
    # single contraction is a disjoint subset of size one.
    cap = {"artin-only": 0, "single-contraction": 1}.get(mode, cap)
    for q in range(1, p):
        if gcd(p, q) == 1:
            yield _pair_rows(p, q, cap, resolve)


def _p_part(p: int, query: SearchQuery, part, resolve):
    # The rows generated for p, and part() of the (p, pair, rows) records of
    # the rows the filters keep.
    pairs = list(_p_rows(p, query.mode, query.max_contractions, resolve))
    generated = sum(len(rows) for _, rows in pairs)
    if query.dedup_conjugate:
        # pair[0] is q and pair[4] is q_inv.
        pairs = [(pair, rows) for pair, rows in pairs if pair[0] <= pair[4]]
    if query.positive_only:
        # row[1] is c_num = p*C.
        pairs = [(pair, [row for row in rows if row[1] > 0]) for pair, rows in pairs]
    return generated, part([(p, pair, rows) for pair, rows in pairs])


def _parts(query: SearchQuery, part, resolve) -> Iterator:
    # The parts of p = 2..p_max in p order, from at most one process per
    # core; resolve(p, q) is the chain source, a module-level function so
    # that a pool can pickle it.
    limit = row_limit()
    n = min(query.workers, query.p_max - 1, os.cpu_count() or 1)
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
    computed it, and ``render.stitch`` spools it to an unnamed temporary
    file in $TMPDIR as it arrives and reads the pieces, of about 1 MiB at
    most, back from that file.  A spool that cannot be created or written
    raises ``SinglabError``.
    """
    part = _format(fmt)[0]
    # Closing the parts shuts the pool down at once if the spool fails.
    with closing(_parts(query, part, _hj_chain)) as parts:
        return stitch(fmt, parts)
