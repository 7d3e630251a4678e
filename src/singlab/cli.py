"""Command-line interface.

Exit codes: 0 on success, 2 on invalid arguments, 3 when the scan row-limit
resource guard aborts, and 1, with nothing on stderr, when the reader closes
stdout before the output is written (``singlab search ... | head -1``).  All
flags are long-form.
"""

from __future__ import annotations

import argparse
import os
import sys

from .chains import CyclicQuotient, ResolutionChain, hj_resolve, non_minimal_graph
from .errors import RowLimitExceeded, SinglabError
from .eta import eta_cotangent, eta_exact
from .exact import decimal_str
from .invariants import attach_family, configuration, configuration_invariants, theorem_tables
from .render import FORMATS, chain_text, render_table
from .search import MODES, SearchQuery, scan_pieces
from .type_t import enumerate_type_t, recognize_type_t

__all__ = ["main", "build_parser"]

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singlab",
        description="Resolution combinatorics and topological invariants of "
        "cyclic quotient surface singularities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_resolve = sub.add_parser("resolve", help="Hirzebruch-Jung chain of (1/P)(1,Q)")
    p_resolve.add_argument("p", type=int)
    p_resolve.add_argument("q", type=int)

    p_eta = sub.add_parser("eta", help="eta invariant of the lens space S^3/(1/P)(1,Q)")
    p_eta.add_argument("p", type=int)
    p_eta.add_argument("q", type=int)
    p_eta.add_argument(
        "--method", choices=("exact", "cotangent", "both"), default="exact"
    )

    p_inv = sub.add_parser(
        "invariants", help="invariant report of (1/P)(1,Q) with optional contractions"
    )
    p_inv.add_argument("p", type=int)
    p_inv.add_argument("q", type=int)
    p_inv.add_argument(
        "--contract",
        action="append",
        default=[],
        metavar="A..B",
        help="contract the type-T substring chain[A..B] (inclusive, 0-based); repeatable",
    )

    p_typet = sub.add_parser("typet", help="type T(r,s,d) singularities")
    typet_sub = p_typet.add_subparsers(dest="typet_command", required=True)
    p_rec = typet_sub.add_parser("recognize", help="recognize a chain as type T")
    p_rec.add_argument("entries", help="comma-separated chain entries, e.g. 5,2")
    p_enum = typet_sub.add_parser("enumerate", help="enumerate type-T chains")
    p_enum.add_argument("--r-max", type=int, required=True)
    p_enum.add_argument("--s-max", type=int, required=True)

    p_family = sub.add_parser(
        "family", help="(-2)-curve attachment family: pipeline vs closed forms"
    )
    p_family.add_argument("--curves", type=int, required=True, metavar="M")
    p_family.add_argument("--r", type=int, required=True)
    p_family.add_argument("--s", type=int, required=True)
    p_family.add_argument("--d", type=int, required=True)

    p_graphs = sub.add_parser("graphs", help="named dual graphs")
    p_graphs.add_argument("--non-minimal", type=int, required=True, metavar="N")

    p_tables = sub.add_parser("tables", help="invariant tables of the named families")
    p_tables.add_argument("--theorems", action="store_true", required=True)
    p_tables.add_argument("--r-max", type=int, default=20)

    p_search = sub.add_parser("search", help="exhaustive scan over (p, q)")
    p_search.add_argument("--p-max", type=int, required=True)
    p_search.add_argument("--mode", choices=MODES, default="artin-only")
    p_search.add_argument("--positive", action="store_true")
    p_search.add_argument("--format", choices=tuple(FORMATS), default="table")
    p_search.add_argument("--workers", type=int, default=1)
    p_search.add_argument("--max-contractions", type=int, default=3)
    p_search.add_argument("--dedup-conjugate", action="store_true")

    return parser


def _parse_interval(text: str) -> tuple[int, int]:
    try:
        a, b = text.split("..")
        return int(a), int(b)
    except ValueError as exc:
        raise SinglabError(f"contraction intervals look like A..B, got {text!r}") from exc


def _parse_entries(text: str) -> ResolutionChain:
    try:
        return ResolutionChain(int(e) for e in text.split(","))
    except ValueError as exc:
        raise SinglabError(f"chain entries look like 5,2, got {text!r}") from exc


def _run(args: argparse.Namespace, out) -> int:
    if args.command == "resolve":
        out.write(chain_text(hj_resolve(CyclicQuotient(args.p, args.q))) + "\n")
    elif args.command == "eta":
        g = CyclicQuotient(args.p, args.q)
        both = args.method == "both"
        if args.method in ("exact", "both"):
            exact = eta_exact(g)
            out.write(f"{'exact ' if both else ''}{exact}\n")
        if args.method in ("cotangent", "both"):
            cotangent = eta_cotangent(g)
            out.write(f"{'cotangent ' if both else ''}{decimal_str(cotangent)}\n")
        if both:
            out.write(f"difference {abs(cotangent - float(exact)):.3e}\n")
    elif args.command == "invariants":
        g = CyclicQuotient(args.p, args.q)
        cfg = configuration(g, [_parse_interval(t) for t in args.contract])
        out.write(render_table([configuration_invariants(cfg)]))
    elif args.command == "typet":
        if args.typet_command == "recognize":
            params = recognize_type_t(_parse_entries(args.entries))
            out.write((params.label() if params else "not type T") + "\n")
        else:
            entries = enumerate_type_t(args.r_max, args.s_max)
            for params, chain in entries:
                out.write(f"{params.label()} {chain_text(chain)}\n")
    elif args.command == "family":
        report, _closed = attach_family(args.curves, args.r, args.s, args.d)
        out.write(render_table([report]))
    elif args.command == "graphs":
        out.write(chain_text(non_minimal_graph(args.non_minimal)) + "\n")
    elif args.command == "tables":
        out.write(render_table(theorem_tables(args.r_max)))
    elif args.command == "search":
        query = SearchQuery(
            p_max=args.p_max,
            mode=args.mode,
            positive_only=args.positive,
            workers=args.workers,
            max_contractions=args.max_contractions,
            dedup_conjugate=args.dedup_conjugate,
        )
        # The pieces are at most about 1 MiB each, and out's buffer joins
        # the small ones.
        out.writelines(scan_pieces(query, args.format))
    # Flush here, so that a closed pipe raises before main returns.
    out.flush()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return _run(args, sys.stdout)
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's final flush of what is
        # still buffered cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except RowLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SinglabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
