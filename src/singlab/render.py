"""Deterministic rendering of invariant reports.

Exact values survive serialization: JSON carries {"num", "den"} strings plus
a 15-significant-digit decimal convenience string, CSV carries "num/den"
text, and the table marks positive C with a trailing "+".

Each format is a pair of functions.  The part function renders a run of
rows (a scan renders one p at a time) into a picklable part: CSV body
lines, JSON object lines joined by ",\\n", or one tuple of cell strings per
table row.  The stitcher joins parts in order and adds what the format
writes once: the CSV header, the JSON brackets, the table header and the
column widths over all rows.  ``FORMATS`` maps each format name to its
pair, and ``render_<fmt>(rows)`` stitches a single part.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from itertools import chain as concat
from typing import Iterable, Sequence

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


def stitch_json(parts: Iterable[str]) -> str:
    """A JSON array of the objects of every part, in order."""
    # One join over the parts and separators, so the text is copied once.
    pieces = ["[\n"]
    for part in parts:
        if part:
            pieces += (part, ",\n")
    if len(pieces) == 1:
        return "[]\n"
    pieces[-1] = "\n]\n"
    return "".join(pieces)


def render_json(rows: Iterable[InvariantReport]) -> str:
    return stitch_json([json_part(rows)])


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


def stitch_csv(parts: Iterable[str]) -> str:
    """The header followed by the body lines of every part, in order."""
    return "".join([_CSV_HEADER, *parts])


def render_csv(rows: Iterable[InvariantReport]) -> str:
    return stitch_csv([csv_part(rows)])


_TABLE_COLUMNS = ("p", "q", "chain", "k", "sum_e", "q_inv", "eta", "b2", "C", "label")
_LEFT_ALIGNED = {"chain", "label"}


def table_part(rows: Iterable[InvariantReport]) -> list[tuple[str, ...]]:
    """One tuple of cell strings per row, in ``_TABLE_COLUMNS`` order."""
    return [
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


def stitch_table(parts: Iterable[list[tuple[str, ...]]]) -> str:
    """The header and every row of every part, padded to common widths."""
    records = [_TABLE_COLUMNS, *concat.from_iterable(parts)]
    widths = [max(map(len, column)) for column in zip(*records)]
    line = "  ".join(
        f"{{:{'<' if col in _LEFT_ALIGNED else '>'}{width}}}"
        for col, width in zip(_TABLE_COLUMNS, widths)
    )
    return "".join([line.format(*record).rstrip() + "\n" for record in records])


def render_table(rows: Iterable[InvariantReport]) -> str:
    return stitch_table([table_part(rows)])


FORMATS = {
    "table": (table_part, stitch_table),
    "json": (json_part, stitch_json),
    "csv": (csv_part, stitch_csv),
}
