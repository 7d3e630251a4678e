"""Exhaustive invariant scans over (p, q) ranges.

A scan visits every coprime pair 2 <= p <= p_max, 1 <= q < p and emits the
Artin report plus, depending on the mode, one report per contracted type-T
substring of the chain (``single-contraction``) or per disjoint set of such
substrings up to a size cap (``multi-contraction``).  Rows are sorted by
(p, q, label), so the output is byte-identical regardless of how many
workers produced it.  Every row re-validates the two-route C identity.

The environment variable SINGLAB_ROW_LIMIT (default 10_000_000) bounds the
number of generated rows; exceeding it aborts the scan before anything is
emitted.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import gcd

from .chains import CyclicQuotient
from .errors import RowLimitExceeded, SinglabError
from .invariants import (
    InvariantReport,
    artin_configuration,
    configuration,
    configuration_invariants,
    find_type_t_substrings,
)

__all__ = ["MODES", "SearchQuery", "scan", "row_limit"]

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
    # Nonempty subsets of pairwise-disjoint intervals, at most cap of them,
    # in lexicographic order of the chosen index tuple.
    def extend(start, chosen_stop, chosen):
        for i in range(start, len(intervals)):
            a, b, _ = intervals[i]
            if a <= chosen_stop:
                continue
            picked = chosen + [i]
            yield [intervals[j] for j in picked]
            if len(picked) < cap:
                yield from extend(i + 1, b, picked)

    # intervals are sorted by (start, stop); overlap only needs the last stop
    # because every chosen interval starts after the previous one ends.
    yield from extend(0, -1, [])


def _pair_rows(p: int, q: int, mode: str, cap: int) -> list[InvariantReport]:
    g = CyclicQuotient(p, q)
    rows = [configuration_invariants(artin_configuration(g))]
    if mode == "artin-only":
        return rows
    chain = rows[0].chain
    subs = find_type_t_substrings(chain)
    if mode == "single-contraction":
        chosen_sets = [[iv] for iv in subs]
    else:
        chosen_sets = list(_disjoint_subsets(subs, cap))
    for chosen in chosen_sets:
        cfg = configuration(g, [(a, b) for a, b, _ in chosen])
        rows.append(configuration_invariants(cfg))
    return rows


def _scan_range(args: tuple[int, int, str, int, int]) -> list[InvariantReport]:
    p_lo, p_hi, mode, cap, limit = args
    rows: list[InvariantReport] = []
    for p in range(p_lo, p_hi):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            rows.extend(_pair_rows(p, q, mode, cap))
            if len(rows) > limit:
                raise RowLimitExceeded(
                    f"scan exceeded SINGLAB_ROW_LIMIT = {limit} rows"
                )
    return rows


def _scan_tasks(query: SearchQuery, limit: int) -> list[tuple[int, int, str, int, int]]:
    # Split [2, p_max] into contiguous p-ranges, one per process: at most
    # one per worker, per core and per p.
    span = query.p_max - 1
    n = min(query.workers, span, os.cpu_count() or 1)
    bounds = [2 + (span * i) // n for i in range(n + 1)]
    return [
        (bounds[i], bounds[i + 1], query.mode, query.max_contractions, limit)
        for i in range(n)
    ]


def scan(query: SearchQuery) -> list[InvariantReport]:
    """Run the scan and return its rows, sorted by (p, q, label)."""
    limit = row_limit()
    tasks = _scan_tasks(query, limit)
    if len(tasks) == 1:
        rows = _scan_range(tasks[0])
    else:
        with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
            rows = [row for part in pool.map(_scan_range, tasks) for row in part]
    if len(rows) > limit:
        raise RowLimitExceeded(f"scan exceeded SINGLAB_ROW_LIMIT = {limit} rows")
    if query.dedup_conjugate:
        rows = [row for row in rows if row.q <= row.q_inv]
    if query.positive_only:
        rows = [row for row in rows if row.positive]
    rows.sort(key=lambda row: (row.p, row.q, row.label))
    return rows
