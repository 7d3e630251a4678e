"""Deterministic rendering of invariant reports.

Exact values survive serialization: JSON carries {"num", "den"} strings plus
a 15-significant-digit decimal convenience string, CSV carries "num/den"
text, and the table marks positive C with a trailing "+".

Each format is a pair of functions.  The part function renders a run of
rows (a scan renders one p at a time) into a compact, picklable part: CSV
body lines, JSON object lines joined by ",\\n", or, for the table, the
part's column widths plus one string holding its rows, one line per row
with the cells joined by a tab.  The stitcher yields the output in pieces,
in order: what the format writes once (the CSV header, the JSON brackets,
the table header) and each part, the table's padded to the column widths
over all parts.  A caller can write the pieces one at a time, so no joined
copy of the output is built.  ``FORMATS`` maps each format name to its
pair, and ``render_<fmt>(rows)`` joins the pieces of a single part.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .exact import decimal_str
from .invariants import InvariantReport

__all__ = [
    "FORMATS",
    "chain_text",
    "csv_part",
    "json_part",
    "render_csv",
    "render_json",
    "render_table",
    "stitch_csv",
    "stitch_json",
    "stitch_table",
    "table_part",
]


def chain_text(chain: Sequence[int]) -> str:
    return "(" + ",".join(str(e) for e in chain) + ")"


def _num_den(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _rational_obj(x: Fraction) -> dict:
    return {
        "num": str(x.numerator),
        "den": str(x.denominator),
        "approx": decimal_str(x),
    }


def json_part(rows: Iterable[InvariantReport]) -> str:
    """One JSON object per row, joined by ",\\n" ("" for no rows)."""
    return ",\n".join(
        json.dumps(
            {
                "p": row.p,
                "q": row.q,
                "chain": list(row.chain),
                "k": row.k,
                "sum_e": row.sum_e,
                "q_inv": row.q_inv,
                "eta": _rational_obj(row.eta),
                "b2": row.b2,
                "c": _rational_obj(row.c_value),
                "positive": row.positive,
                "label": row.label,
            }
        )
        for row in rows
    )


def stitch_json(parts: Iterable[str]) -> Iterator[str]:
    """The pieces of a JSON array of the objects of every part, in order."""
    opening = "[\n"
    for part in parts:
        if part:
            yield opening
            yield part
            opening = ",\n"
    yield "[]\n" if opening == "[\n" else "\n]\n"


def render_json(rows: Iterable[InvariantReport]) -> str:
    return "".join(stitch_json([json_part(rows)]))


_CSV_HEADER = "p,q,chain,k,sum_e,q_inv,eta,b2,c,positive,label\n"


def csv_part(rows: Iterable[InvariantReport]) -> str:
    """The CSV body lines of the rows, without the header."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [
            row.p,
            row.q,
            chain_text(row.chain),
            row.k,
            row.sum_e,
            row.q_inv,
            _num_den(row.eta),
            row.b2,
            _num_den(row.c_value),
            "true" if row.positive else "false",
            row.label,
        ]
        for row in rows
    )
    return buf.getvalue()


def stitch_csv(parts: Iterable[str]) -> Iterator[str]:
    """The header, then the body lines of every part, in order."""
    yield _CSV_HEADER
    yield from parts


def render_csv(rows: Iterable[InvariantReport]) -> str:
    return "".join(stitch_csv([csv_part(rows)]))


_TABLE_COLUMNS = ("p", "q", "chain", "k", "sum_e", "q_inv", "eta", "b2", "C", "label")
_LEFT_ALIGNED = {"chain", "label"}


def table_part(rows: Iterable[InvariantReport]) -> tuple[tuple[int, ...], str]:
    """The column widths of the rows and their unpadded lines, one string.

    Each line holds a row's cells in ``_TABLE_COLUMNS`` order, joined by a
    tab, and the lines are joined by newlines; no cell contains either.
    """
    records = [
        (
            str(row.p),
            str(row.q),
            chain_text(row.chain),
            str(row.k),
            str(row.sum_e),
            str(row.q_inv),
            _num_den(row.eta),
            str(row.b2),
            _num_den(row.c_value) + ("+" if row.positive else ""),
            row.label,
        )
        for row in rows
    ]
    widths = tuple(max(map(len, column)) for column in zip(*records))
    return widths or (0,) * len(_TABLE_COLUMNS), "\n".join(map("\t".join, records))


def stitch_table(parts: Iterable[tuple[tuple[int, ...], str]]) -> Iterator[str]:
    """The header, then the rows of each part, padded to common widths."""
    parts = list(parts)
    widths = [len(col) for col in _TABLE_COLUMNS]
    for part_widths, _ in parts:
        widths = list(map(max, widths, part_widths))
    line = "  ".join(
        f"{{:{'<' if col in _LEFT_ALIGNED else '>'}{width}}}"
        for col, width in zip(_TABLE_COLUMNS, widths)
    ).format
    yield line(*_TABLE_COLUMNS).rstrip() + "\n"
    for _, text in parts:
        if text:
            yield "".join(
                [line(*cells.split("\t")).rstrip() + "\n" for cells in text.split("\n")]
            )


def render_table(rows: Iterable[InvariantReport]) -> str:
    return "".join(stitch_table([table_part(rows)]))


FORMATS = {
    "table": (table_part, stitch_table),
    "json": (json_part, stitch_json),
    "csv": (csv_part, stitch_csv),
}
