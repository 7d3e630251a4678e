"""Deterministic rendering of invariant reports.

Exact values survive serialization: JSON carries {"num", "den"} strings plus
a 15-significant-digit decimal convenience string, CSV carries "num/den"
text, and the table marks positive C with a trailing "+".

Each format is a part function and a stitcher; the first renders a run of
records into a compact, picklable part: CSV body lines, JSON object lines
joined by ",\\n", or, for the table, the part's column widths plus one
string holding its rows, one line per row with the cells joined by a tab.
A record is (p, pair, rows): the pair record (q, chain, k, sum_e, q_inv,
eta_num) with 3*p*eta = eta_num, and the pair's rows (b2, c_num, label)
with p*C = c_num (a scan renders one p at a time).  The pair's cells are
formatted once per record and only b2, C, positive and the label per row.
The stitcher writes each part to a spool as it arrives: what the format
writes between parts (the JSON separators, the table's line ends) goes
with it, and only the table's column widths, merged over the parts, stay
in memory.  Once every part is in, it reads the spool back and yields the
output in pieces of at most about 1 MiB (``_PIECE``), in order: what the
format writes once (the CSV header, the JSON brackets, the table header)
and the spooled text, the table's lines padded to the merged widths as
they are read.  ``FORMATS`` maps each format name to its (part function,
stitcher class) pair.  ``stitch(fmt, parts)`` spools to an unnamed
temporary file in $TMPDIR, and a spool that cannot be created or written
raises ``SinglabError``; a caller can write the pieces one at a time, so
no joined copy of the output is built.  ``render_<fmt>(rows)`` turns
invariant reports into the records of a single part and stitches it
through a spool in memory, so it never touches $TMPDIR.  Each row format
and each stitching routine is written once.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import suppress
from fractions import Fraction
from functools import partial
from itertools import groupby, islice
from math import gcd
from operator import attrgetter
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
        raise ValueError(f"{x} is not a fraction over {den}")
    return num


def _records(rows: Iterable[InvariantReport]) -> Iterator[tuple[int, tuple, list]]:
    # One (p, pair, rows) record per run of consecutive rows that share their
    # pair-level fields; each row keeps (b2, c_num, label).
    pair_fields = attrgetter("p", "q", "chain", "k", "sum_e", "q_inv", "eta")
    for (p, q, chain, k, sum_e, q_inv, eta), same in groupby(rows, key=pair_fields):
        yield (
            p,
            (q, chain, k, sum_e, q_inv, _over(eta, 3 * p)),
            [(row.b2, _over(row.c_value, p), row.label) for row in same],
        )


# The stitchers read the output back in pieces of at most about this many
# characters.
_PIECE = 1 << 20


def _guarded(directory, fn, *args, **kwargs):
    # fn(*args, **kwargs), with a failure of the spool raised as a
    # SinglabError that names the spool's directory.
    try:
        return fn(*args, **kwargs)
    except OSError as exc:
        raise SinglabError(
            f"cannot spool the output in {directory!r}: {exc.strerror or exc}"
        ) from exc


def _stitch(stitcher, parts, buffer, directory=None) -> Iterator[str]:
    # Write each part to the spool, the binary buffer, as it arrives; once
    # every part is in, return the pieces read back from it.  An error in the
    # parts raises here, before any piece exists.  The spool is closed when
    # the pieces are used up, when their generator is closed, and on every
    # error.  A failed write names the spool's directory (None: memory).
    stream = io.TextIOWrapper(buffer, encoding="utf-8", newline="\n")
    try:
        for part in parts:
            _guarded(directory, stitcher.add, part, stream.write)
        _guarded(directory, stream.seek, 0)
    except BaseException:
        with suppress(OSError):  # a failed flush still closes the file
            stream.close()
        raise
    return _read_back(stitcher, stream)


def _read_back(stitcher, stream) -> Iterator[str]:
    with stream:
        yield from stitcher.pieces(stream)


def _blocks(stream) -> Iterator[str]:
    return iter(partial(stream.read, _PIECE), "")


def json_part(records: Iterable[tuple[int, tuple, list]]) -> str:
    """One JSON object per row, joined by ",\\n" ("" for no rows)."""
    lines = []
    for p, (q, chain, k, sum_e, q_inv, eta_num), rows in records:
        head = (
            f'{{"p": {p}, "q": {q}, "chain": [{", ".join(map(str, chain))}], '
            f'"k": {k}, "sum_e": {sum_e}, "q_inv": {q_inv}, '
            f'"eta": {_rational_json(eta_num, 3 * p)}, "b2": '
        )
        for b2, c_num, label in rows:
            lines.append(
                f'{head}{b2}, "c": {_rational_json(c_num, p)}, '
                f'"positive": {"true" if c_num > 0 else "false"}, '
                f'"label": {json.dumps(label)}}}'
            )
    return ",\n".join(lines)


class _JsonStitcher:
    # A JSON array of the objects of every part: the parts with rows are
    # spooled joined by ",\n", and read back between "[\n" and "\n]\n".
    rows = False

    def add(self, part: str, write) -> None:
        if part:
            if self.rows:
                write(",\n")
            write(part)
            self.rows = True

    def pieces(self, spool) -> Iterator[str]:
        if not self.rows:
            yield "[]\n"
            return
        yield "[\n"
        yield from _blocks(spool)
        yield "\n]\n"


def render_json(rows: Iterable[InvariantReport]) -> str:
    return _render("json", rows)


_CSV_HEADER = "p,q,chain,k,sum_e,q_inv,eta,b2,c,positive,label\n"


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


class _CsvStitcher:
    # The header, then the body lines of every part as they were spooled.
    def add(self, part: str, write) -> None:
        write(part)

    def pieces(self, spool) -> Iterator[str]:
        yield _CSV_HEADER
        yield from _blocks(spool)


def render_csv(rows: Iterable[InvariantReport]) -> str:
    return _render("csv", rows)


_TABLE_COLUMNS = ("p", "q", "chain", "k", "sum_e", "q_inv", "eta", "b2", "C", "label")
_LEFT_ALIGNED = {"chain", "label"}


def table_part(
    records: Iterable[tuple[int, tuple, list]]
) -> tuple[tuple[int, ...], str]:
    """The column widths of the rows and their unpadded lines, one string.

    Each line holds a row's cells in ``_TABLE_COLUMNS`` order, joined by a
    tab, and the lines are joined by newlines; no cell contains either.
    """
    pair_cells, row_cells, lines = [], [], []
    for p, (q, chain, k, sum_e, q_inv, eta_num), rows in records:
        if not rows:
            continue
        cells = (
            str(p),
            str(q),
            chain_text(chain),
            str(k),
            str(sum_e),
            str(q_inv),
            _ratio(eta_num, 3 * p),
        )
        pair_cells.append(cells)
        head = "\t".join(cells)
        for b2, c_num, label in rows:
            tail = (str(b2), _ratio(c_num, p) + ("+" if c_num > 0 else ""), label)
            row_cells.append(tail)
            lines.append(f"{head}\t{tail[0]}\t{tail[1]}\t{label}")
    widths = tuple(
        max(map(len, column)) for column in (*zip(*pair_cells), *zip(*row_cells))
    )
    return widths or (0,) * len(_TABLE_COLUMNS), "\n".join(lines)


class _TableStitcher:
    # The header, then the lines of every part padded to the column widths
    # over all parts.  The widths are merged as the parts are spooled, so
    # they are known before any line is read back.
    def __init__(self) -> None:
        self.widths = [len(col) for col in _TABLE_COLUMNS]

    def add(self, part: tuple[tuple[int, ...], str], write) -> None:
        widths, text = part
        self.widths = list(map(max, self.widths, widths))
        if text:
            write(text)
            write("\n")

    def pieces(self, spool) -> Iterator[str]:
        line = "  ".join(
            f"{{:{'<' if col in _LEFT_ALIGNED else '>'}{width}}}"
            for col, width in zip(_TABLE_COLUMNS, self.widths)
        ).format
        yield line(*_TABLE_COLUMNS).rstrip() + "\n"
        # A padded line is shorter than sum(widths) + 2 * len(widths).
        batch = max(1, _PIECE // (sum(self.widths) + 2 * len(self.widths)))
        while lines := list(islice(spool, batch)):
            # rstrip drops the label's padding and the spooled newline.
            yield "".join([line(*cells.split("\t")).rstrip() + "\n" for cells in lines])


def render_table(rows: Iterable[InvariantReport]) -> str:
    return _render("table", rows)


FORMATS = {
    "table": (table_part, _TableStitcher),
    "json": (json_part, _JsonStitcher),
    "csv": (csv_part, _CsvStitcher),
}


def _format(fmt: str):
    # The (part function, stitcher class) pair of fmt.
    if fmt not in FORMATS:
        raise SinglabError(f"format must be one of {tuple(FORMATS)}, got {fmt!r}")
    return FORMATS[fmt]


def stitch(fmt: str, parts: Iterable) -> Iterator[str]:
    """The pieces of the output of ``fmt``'s parts, in order.

    ``fmt`` is a key of ``FORMATS``.  Every part is spooled to an unnamed
    temporary file in $TMPDIR before this returns (see the module
    docstring).
    """
    stitcher = _format(fmt)[1]()
    import tempfile  # only a stitch to a file pays for the import

    # tempfile would pass over a TMPDIR that does not exist; name it.
    directory = os.environ.get("TMPDIR") or tempfile.gettempdir()
    buffer = _guarded(directory, tempfile.TemporaryFile, dir=directory)
    return _stitch(stitcher, parts, buffer, directory)


def _render(fmt: str, rows: Iterable[InvariantReport]) -> str:
    # The output of one part of the rows, spooled in memory: a BytesIO keeps
    # one byte per ASCII character, where io.StringIO would keep four.
    part, stitcher = FORMATS[fmt]
    return "".join(_stitch(stitcher(), [part(_records(rows))], io.BytesIO()))
