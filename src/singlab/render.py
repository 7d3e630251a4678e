"""Deterministic rendering of invariant reports.

Exact values survive serialization: JSON carries {"num", "den"} strings plus
a 15-significant-digit decimal convenience string, CSV carries "num/den"
text, and the table marks positive C with a trailing "+".

Each format is a part function and a reader.  The part function renders a
run of records into a part, a picklable str: CSV body lines, one JSON
object per row with ",\\n" before each, or the table's unpadded lines with
the cells joined by a tab.  A record is (p, pair, rows): the pair record
(q, chain, k, sum_e, q_inv, eta_num) with 3*p*eta = eta_num, and the pair's
rows (b2, c_num, label) with p*C = c_num (a scan renders one p at a time).
The pair's cells are formatted once per record and only b2, C, positive
and the label per row.  Parts concatenate, so the parts of a run are
written to a text stream as they arrive, and the reader turns that stream
into the output in pieces of at most 16 KiB (``_PIECE``): what the
format writes once (the CSV header, the JSON brackets, the table header)
and the streamed text, the table's lines padded as they are read.  The
one exception is a padded table line longer than ``_PIECE``: it is a piece
of its own, so the read-back still holds one line at a time.
``FORMATS`` maps each format name to its (part function, reader) pair.
``stitch(fmt, parts)`` streams the parts to an unnamed temporary file in
$TMPDIR, the spool, and a spool that cannot be created or written raises
``SinglabError``; a caller can write the pieces one at a time, so no joined
copy of the output is built.  ``render_<fmt>(rows)`` renders invariant
reports as one part and reads it in memory, so it never touches $TMPDIR;
``render_table`` refuses a report whose label holds a tab or a newline.
Each row format and each reader is written once.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import suppress
from fractions import Fraction
from functools import partial
from itertools import islice
from math import gcd
from typing import Iterable, Iterator, Sequence

from .errors import SinglabError
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
    "stitch",
    "table_part",
]


def chain_text(chain: Sequence[int]) -> str:
    return "(" + ",".join(map(str, chain)) + ")"


def _ratio(num: int, den: int) -> str:
    # num/den in lowest terms, as Fraction prints it: den > 0 and 0 is 0/1.
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def _rational_json(num: int, den: int) -> str:
    # {"num", "den", "approx"} of num/den; int true division rounds
    # correctly, so the float is float(Fraction(num, den)).
    g = gcd(num, den)
    return (
        f'{{"num": "{num // g}", "den": "{den // g}", '
        f'"approx": "{decimal_str(num / den)}"}}'
    )


def _over(x: Fraction, den: int) -> int:
    # The integer numerator of x over den; a report's eta is over 3p and
    # its C over p.
    num, rest = divmod(x.numerator * den, x.denominator)
    if rest:
        raise SinglabError(f"{x} is not a fraction over {den}")
    return num


def _records(rows: Iterable[InvariantReport]) -> Iterator[tuple[int, tuple, list]]:
    # One (p, pair, rows) record per report, whose one row is (b2, c_num, label).
    for row in rows:
        p = row.p
        yield (
            p,
            (row.q, row.chain, row.k, row.sum_e, row.q_inv, _over(row.eta, 3 * p)),
            [(row.b2, _over(row.c_value, p), row.label)],
        )


# The readers yield the output in pieces of at most this many characters
# (or one padded table line, if that is longer), and the table's width pass
# reads blocks of this many, so the read-back holds a few pieces and one
# block's cells at a time.
_PIECE = 1 << 14

# A text stream over a binary buffer, with no newline translation.
_text = partial(io.TextIOWrapper, encoding="utf-8", newline="\n")


def _blocks(stream) -> Iterator[str]:
    return iter(partial(stream.read, _PIECE), "")


def json_part(records: Iterable[tuple[int, tuple, list]]) -> str:
    """One JSON object per row, each after ",\\n" ("" for no rows)."""
    lines = []
    for p, (q, chain, k, sum_e, q_inv, eta_num), rows in records:
        head = (
            f'{{"p": {p}, "q": {q}, "chain": [{", ".join(map(str, chain))}], '
            f'"k": {k}, "sum_e": {sum_e}, "q_inv": {q_inv}, '
            f'"eta": {_rational_json(eta_num, 3 * p)}, "b2": '
        )
        for b2, c_num, label in rows:
            lines.append(
                f',\n{head}{b2}, "c": {_rational_json(c_num, p)}, '
                f'"positive": {"true" if c_num > 0 else "false"}, '
                f'"label": {json.dumps(label)}}}'
            )
    return "".join(lines)


def _read_json(spool) -> Iterator[str]:
    # A JSON array of the spooled objects, less the ",\n" before the first.
    if not spool.read(2):
        yield "[]\n"
        return
    yield "[\n"
    yield from _blocks(spool)
    yield "\n]\n"


def render_json(rows: Iterable[InvariantReport]) -> str:
    return _render("json", rows)


def _csv_field(text: str) -> str:
    # A text cell as csv.writer's minimal quoting writes it with the "\n"
    # line terminator.
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_part(records: Iterable[tuple[int, tuple, list]]) -> str:
    """The CSV body lines of the rows, without the header."""
    lines = []
    for p, (q, chain, k, sum_e, q_inv, eta_num), rows in records:
        head = (
            f"{p},{q},{_csv_field(chain_text(chain))},{k},{sum_e},{q_inv},"
            f"{_ratio(eta_num, 3 * p)},"
        )
        for b2, c_num, label in rows:
            lines.append(
                f"{head}{b2},{_ratio(c_num, p)},"
                f"{'true' if c_num > 0 else 'false'},{_csv_field(label)}\n"
            )
    return "".join(lines)


def _read_csv(spool) -> Iterator[str]:
    yield "p,q,chain,k,sum_e,q_inv,eta,b2,c,positive,label\n"
    yield from _blocks(spool)


def render_csv(rows: Iterable[InvariantReport]) -> str:
    return _render("csv", rows)


_TABLE_COLUMNS = ("p", "q", "chain", "k", "sum_e", "q_inv", "eta", "b2", "C", "label")


def table_part(records: Iterable[tuple[int, tuple, list]]) -> str:
    """The unpadded lines of the rows, each ending in a newline.

    Each line holds a row's cells in ``_TABLE_COLUMNS`` order, joined by a
    tab; no cell contains a tab or a newline.
    """
    lines = []
    for p, (q, chain, k, sum_e, q_inv, eta_num), rows in records:
        head = (
            f"{p}\t{q}\t{chain_text(chain)}\t{k}\t{sum_e}\t{q_inv}\t"
            f"{_ratio(eta_num, 3 * p)}\t"
        )
        for b2, c_num, label in rows:
            lines.append(
                f"{head}{b2}\t{_ratio(c_num, p)}{'+' if c_num > 0 else ''}\t{label}\n"
            )
    return "".join(lines)


def _read_table(spool) -> Iterator[str]:
    # The header, then the spooled lines padded to the column widths over
    # the header and every line: a first pass measures the lines block by
    # block, carrying a line cut at a block's end into the next block, and
    # a second pass pads them as it reads them.
    widths = [len(col) for col in _TABLE_COLUMNS]
    rest = ""
    for block in _blocks(spool):
        *lines, rest = (rest + block).split("\n")
        # The header's cells keep every column in a block of no whole line.
        columns = zip(_TABLE_COLUMNS, *[cells.split("\t") for cells in lines])
        widths = [max(width, max(map(len, col))) for width, col in zip(widths, columns)]
    spool.seek(0)
    # The label, the last column, is not padded, so a spooled line keeps its
    # newline and has no trailing spaces.
    line = "  ".join(
        "{}" if col == "label" else f"{{:{'<' if col == 'chain' else '>'}{width}}}"
        for col, width in zip(_TABLE_COLUMNS, widths)
    ).format
    yield line(*_TABLE_COLUMNS) + "\n"
    # A padded line is shorter than sum(widths) + 2 * len(widths).
    batch = max(1, _PIECE // (sum(widths) + 2 * len(widths)))
    while lines := list(islice(spool, batch)):
        yield "".join([line(*cells.split("\t")) for cells in lines])


def render_table(rows: Iterable[InvariantReport]) -> str:
    # A tab or a newline in a label would split its line into other cells
    # and lines; the scan's labels never hold one, so table_part does not look.
    rows = list(rows)
    for row in rows:
        if "\t" in row.label or "\n" in row.label:
            raise SinglabError(f"a table label holds a tab or a newline: {row.label!r}")
    return _render("table", rows)


FORMATS = {
    "table": (table_part, _read_table),
    "json": (json_part, _read_json),
    "csv": (csv_part, _read_csv),
}


def _format(fmt: str):
    # The (part function, reader) pair of fmt.
    if fmt not in FORMATS:
        raise SinglabError(f"format must be one of {tuple(FORMATS)}, got {fmt!r}")
    return FORMATS[fmt]


def _guarded(directory, fn, *args, **kwargs):
    # fn(*args, **kwargs), with a failure of the spool raised as a
    # SinglabError that names the spool's directory.
    try:
        return fn(*args, **kwargs)
    except OSError as exc:
        raise SinglabError(
            f"cannot spool the output in {directory!r}: {exc.strerror or exc}"
        ) from exc


def stitch(fmt: str, parts: Iterable[str]) -> Iterator[str]:
    """The pieces of the output of ``fmt``'s parts, in order.

    ``fmt`` is a key of ``FORMATS``.  Every part is written to an unnamed
    temporary file in $TMPDIR as it arrives, and the format's reader reads
    the pieces back from it.  An error in the parts raises before this
    returns, so before any piece exists.  The file is closed when the
    pieces are used up, when their generator is closed, and on every error.
    """
    reader = _format(fmt)[1]
    import tempfile  # render_<fmt> does not pay for the import

    # tempfile would pass over a TMPDIR that does not exist; name it.
    directory = os.environ.get("TMPDIR") or tempfile.gettempdir()
    spool = _text(_guarded(directory, tempfile.TemporaryFile, dir=directory))
    try:
        for part in parts:
            _guarded(directory, spool.write, part)
        _guarded(directory, spool.seek, 0)
    except BaseException:
        with suppress(OSError):  # a failed flush still closes the file
            spool.close()
        raise
    return _read_back(reader, spool)


def _read_back(reader, spool) -> Iterator[str]:
    with spool:
        yield from reader(spool)


def _render(fmt: str, rows: Iterable[InvariantReport]) -> str:
    # The output of one part of the rows, read in memory: a BytesIO keeps
    # one byte per ASCII character, where io.StringIO would keep four.
    part, reader = FORMATS[fmt]
    return "".join(reader(_text(io.BytesIO(part(_records(rows)).encode()))))
