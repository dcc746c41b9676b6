"""Command-line interface.

Exit codes: 0 success, 1 validation failure, 2 usage error.  ``main`` alone
maps errors to them, by type: :class:`frieze.ValidationFailure`, raised where
well-formed input fails a mathematical condition or a documented cap, exits 1;
any other ``ValueError`` (malformed input, a bad or missing flag, a stdout
closed by its reader) exits 2.  Errors go to stderr as single-line JSON.

There is one argparse parser per process, ``_PARSER``, built when this
module is imported; ``main`` only parses with it, so calling ``main`` many
times in one process does not rebuild it (building the ten parsers costs
some thirty times as much as parsing one argv).  Reusing it is safe:
``parse_args`` makes a fresh ``Namespace`` on every call and does not
change the parser, help text is wrapped to ``COLUMNS`` when it is printed,
not when the parser is built, ``prog`` is fixed, and every default and
help string is a constant fixed at import.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import triangulation
from .classify import classify_triangle, realize_triangle
from .core import (frieze_from_json, frieze_to_json, grid_from_polygon,
                   to_polygon, validate_local, validate_tame)
from .enumeration import MAX_NODES, enumerate_friezes, enumeration_summary
from .propagation import build_pattern
from .ptolemy import verify_all_ptolemy
from .render import render_ascii, render_svg
from .scalars import RHO_BUDGET, ValidationFailure, parse_domain, scalar_from_str
from .triangulation import (MAX_VERTICES, Triangulation, accordion, cut_subpolygon,
                            frieze_from_triangulation, triangulation_from_json,
                            triangulation_to_json)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2


def _fail(kind: str, message: str, detail=None) -> None:
    record = {"error": kind, "message": message}
    if detail is not None:
        record["detail"] = detail
    if sys.stderr is not None:  # None when descriptor 2 was closed at start-up
        with contextlib.suppress(OSError):  # a failing stderr leaves the exit code
            print(json.dumps(record), file=sys.stderr, flush=True)


def _parse_scalars(text: str) -> list:
    return [scalar_from_str(part) for part in text.split(",") if part.strip()]


def _load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"cannot read JSON from {path}: {exc}") from None


def _load_any(path: str):
    obj = _load_json(path)
    if isinstance(obj, dict) and "diagonals" in obj:
        return triangulation_from_json(obj)
    return frieze_from_json(obj)


def _emit(text: str, path: str | None) -> None:
    to_stdout = path is None or path == "-"
    if to_stdout and sys.stdout is None:  # descriptor 1 was closed at start-up
        raise ValueError("cannot write stdout: it is closed")
    try:
        if to_stdout:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
    except OSError as exc:
        if to_stdout:  # so the flush at interpreter exit fails no second time
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        raise ValueError(f"cannot write {'stdout' if to_stdout else path}: {exc}") from None


def _report_detail(report) -> list:
    return [{"rule": v.rule, "at": list(v.at), "detail": v.detail}
            for v in report.violations]


def _cmd_build(args) -> int:
    boundary = _parse_scalars(args.boundary)
    quiddity = _parse_scalars(args.quiddity)
    _refuse_above(len(boundary))
    grid = build_pattern(boundary, quiddity)
    report = validate_local(grid).merged(validate_tame(grid))
    if not report.ok:
        raise ValidationFailure("pattern violates the frieze conditions",
                                _report_detail(report))
    _emit(json.dumps(frieze_to_json(to_polygon(grid)), indent=2) + "\n", args.output)
    return EXIT_OK


def _cmd_validate(args) -> int:
    f = frieze_from_json(_load_json(args.file))
    grid = grid_from_polygon(f)
    report = (validate_local(grid)
              .merged(validate_tame(grid))
              .merged(verify_all_ptolemy(f)))
    if not report.ok:
        raise ValidationFailure("frieze fails validation", _report_detail(report))
    _emit(json.dumps({"m": f.m, "valid": True}) + "\n", None)
    return EXIT_OK


def _refuse_above(m: int) -> None:
    """Exit 1 above the cap on an m x m table, read at call time so a patch takes effect."""
    cap = triangulation.MAX_TABLE_VERTICES
    if m > cap:
        raise ValidationFailure(f"the frieze of a {m}-gon is above the limit of "
                                f"MAX_TABLE_VERTICES = {cap} vertices")


def _capped_frieze(tri: Triangulation):
    """The classic frieze of ``tri``, refused above the cap on its m x m table."""
    _refuse_above(tri.m)
    return frieze_from_triangulation(tri)


def _cmd_from_triangulation(args) -> int:
    tri = triangulation_from_json(_load_json(args.file))
    _emit(json.dumps(frieze_to_json(_capped_frieze(tri)), indent=2) + "\n", args.output)
    return EXIT_OK


def _cmd_cut(args) -> int:
    f = frieze_from_json(_load_json(args.file))
    verts = [int(part) for part in args.verts.split(",") if part.strip()]
    sub = cut_subpolygon(f, verts)
    _emit(json.dumps(frieze_to_json(sub), indent=2) + "\n", args.output)
    return EXIT_OK


def _cmd_accordion(args) -> int:
    tri, k = accordion(args.a, args.b)
    doc = {"triangulation": triangulation_to_json(tri), "k": k}
    _emit(json.dumps(doc, indent=2) + "\n", args.output)
    return EXIT_OK


def _cmd_classify(args) -> int:
    verdict = classify_triangle(args.a, args.b, args.c)
    _emit("true\n" if verdict else "false\n", None)
    return EXIT_OK


def _cmd_realize(args) -> int:
    tri, vertices = realize_triangle(args.a, args.b, args.c)
    doc = {"triangulation": triangulation_to_json(tri), "vertices": list(vertices)}
    _emit(json.dumps(doc, indent=2) + "\n", args.output)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    boundary = _parse_scalars(args.boundary)
    domain = parse_domain(args.domain)
    results = enumerate_friezes(boundary, domain, max_nodes=args.max_nodes)
    docs = [frieze_to_json(f) for f in results]
    docs.append(enumeration_summary(boundary, domain, results))
    _emit("".join(json.dumps(doc) + "\n" for doc in docs), None)
    return EXIT_OK


def _cmd_render(args) -> int:
    if args.mark is not None and args.format == "ascii":
        raise ValueError("--mark applies only to --format svg")
    obj = _load_any(args.file)
    if args.format == "ascii":
        f = _capped_frieze(obj) if isinstance(obj, Triangulation) else obj
        _emit(render_ascii(f), args.output)
    else:
        mark = tuple(int(part) for part in args.mark.split(",")) if args.mark else None
        _emit(render_svg(obj, mark=mark), args.output)
    return EXIT_OK


_SIZE_LIMIT = (f"Builds a polygon of at most {MAX_VERTICES} vertices; a larger one "
               "exits 1 before it is built.")

_TABLE_LIMIT = ("The frieze of a triangulation is an m x m table: it is built for at most "
                f"MAX_TABLE_VERTICES = {triangulation.MAX_TABLE_VERTICES} vertices, and a "
                "larger triangulation exits 1 before it is built.")

_BUILD_LIMIT = ("The frieze of m boundary entries is an m x m table: it is built for at most "
                f"MAX_TABLE_VERTICES = {triangulation.MAX_TABLE_VERTICES} vertices, and a "
                "longer boundary exits 1 before it is built.")

_FACTOR_LIMIT = (" To size it, the gcd of two labels is factored: trial division to 10**4, "
                 f"then Pollard-Brent within RHO_BUDGET = {RHO_BUDGET} steps (about a "
                 "second); a gcd it cannot split within the budget exits 1.")

_BOUNDARY_HELP = ("comma-separated scalars; write --boundary=-1,... when the "
                 "first one is negative")


def _count(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """argparse that raises its flag errors for ``main`` to report."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="frieze",
        description="Build, validate, enumerate and draw friezes with coefficients.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--output", "-o", default=None, help="output file (default stdout)")

    p = sub.add_parser("build", help="boundary + quiddity -> validated frieze JSON",
                       description=_BUILD_LIMIT)
    p.add_argument("--boundary", required=True, help=_BOUNDARY_HELP)
    p.add_argument("--quiddity", required=True, help="comma-separated scalars")
    add_output(p)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("validate", help="check a frieze JSON document")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("from-triangulation", help="triangulation JSON -> frieze JSON",
                       description=_TABLE_LIMIT)
    p.add_argument("file")
    add_output(p)
    p.set_defaults(func=_cmd_from_triangulation)

    p = sub.add_parser("cut", help="restrict a frieze to a subpolygon")
    p.add_argument("file")
    p.add_argument("--verts", required=True, help="comma-separated vertices")
    add_output(p)
    p.set_defaults(func=_cmd_cut)

    p = sub.add_parser("accordion", help="triangulation showing a, b across a unit edge",
                       description=_SIZE_LIMIT)
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    add_output(p)
    p.set_defaults(func=_cmd_accordion)

    p = sub.add_parser("classify-triangle", help="is (a, b, c) realizable?")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("realize-triangle", help="triangulation realizing (a, b, c)",
                       description=_SIZE_LIMIT + _FACTOR_LIMIT)
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    add_output(p)
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("enumerate", help="all friezes with a boundary over a domain")
    p.add_argument("--boundary", required=True, help=_BOUNDARY_HELP)
    p.add_argument("--domain", required=True,
                   help="nat | nonzero-int | scaled:p/q | scaled-nat:p/q | set:v1,v2,...")
    p.add_argument("--max-nodes", type=_count, default=MAX_NODES,
                   help=f"search budget in quiddity values tried (default {MAX_NODES}); "
                        "only generated values are tried, those a congruence or a divisor "
                        "lets step to integer entries; past it the command exits 1")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("render", help="draw a frieze or triangulation",
                       description="An ASCII drawing of a triangulation draws its frieze. "
                                   + _TABLE_LIMIT)
    p.add_argument("file")
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.add_argument("--mark", default=None, help="three distinct vertices i,j,k to highlight (svg only)")
    add_output(p)
    p.set_defaults(func=_cmd_render)

    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    """Run one ``frieze`` command and return its exit code (0, 1 or 2).

    ``argv`` defaults to ``sys.argv[1:]``.  It may be called any number of
    times in one process: every call parses with the module's one parser,
    which keeps nothing from an earlier call.
    """
    try:
        args = _PARSER.parse_args(argv)
        return args.func(args)
    except SystemExit:  # argparse exits only after printing --help
        return EXIT_OK
    except ValidationFailure as exc:
        _fail("validation", str(exc), exc.detail)
        return EXIT_INVALID
    except ValueError as exc:
        _fail("usage", str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
