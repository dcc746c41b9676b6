"""Write ``manifest.json``: the golden outputs of the ``frieze`` command.

    python tests/golden/regenerate.py [SRC]

Runs every case in ``CASES`` through ``frieze.cli.main`` in one process,
with the package imported from SRC (default: the ``src`` directory of this
checkout), and records each case's argv, stdin, exit code and the SHA-256
of its stdout and of its stderr.  Input documents are given on stdin
through ``-``, so no case reads a file.  A case whose argv holds ``OUT``
writes through ``-o`` to that name in a fresh temporary directory, and
records the SHA-256 of the file's bytes too.  Help text is wrapped at
``COLUMNS`` = 80, and the manifest notes the Python version, since argparse
lays out help differently across versions.  Stdlib only.

``tests/test_cli.py`` replays the manifest.  A change that means to alter
an output regenerates the manifest and names the cases whose hashes moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
COLUMNS = "80"

SQUARE = {"m": 4, "entries": {"1,2": "7", "1,3": "9", "1,4": "3",
                              "2,3": "5", "2,4": "4", "3,4": "3"}}
HEX_TRI = {"m": 6, "diagonals": [[2, 4], [2, 5], [2, 6]]}
HEX_FRIEZE = {"m": 6, "entries": {
    "1,2": "1", "1,3": "4", "1,4": "3", "1,5": "2", "1,6": "1", "2,3": "1", "2,4": "1",
    "2,5": "1", "2,6": "1", "3,4": "1", "3,5": "2", "3,6": "3", "4,5": "1", "4,6": "2",
    "5,6": "1"}}
CORRUPTED = {"m": 4, "entries": {**SQUARE["entries"], "1,3": "10"}}


def fan(m: int) -> dict:
    """The triangulation of the m-gon by the diagonals at vertex 1."""
    return {"m": m, "diagonals": [[1, q] for q in range(3, m)]}


def gauged_fan(m: int, weights: list[Fraction], wrong: dict | None = None) -> dict:
    """The fan's classic frieze rescaled to c(p, q) w_p w_q, with entries replaced by ``wrong``.

    Row p is walked by c(p, w+1) = q(w) c(p, w) - c(p, w-1) on the fan's
    quiddity (m - 2, 1, 2, ..., 2, 1); ``weights[p]`` is w_p.
    """
    quiddity = [m - 2, 1, *[2] * (m - 3), 1]
    entries = {}
    for p in range(1, m):
        x, y = -1, 0  # c(p, p-1), c(p, p)
        for w in range(p, m):
            x, y = y, quiddity[w - 1] * y - x
            entries[f"{p},{w + 1}"] = str(y * weights[p] * weights[w + 1])
    return {"m": m, "entries": {**entries, **(wrong or {})}}


W6 = [None, *map(Fraction, ("1/2", "3", "2/3", "5/4", "1", "7/3"))]
W7 = [None, *map(Fraction, ("3/2", "1", "2/5", "4", "1/3", "3/7", "2"))]
W8 = [None, *map(Fraction, ("1", "5/3", "1/2", "2", "3/4", "1", "6", "2/9"))]
ALL_ONES_6 = {"m": 6, "entries": {f"{p},{q}": "1" for p in range(1, 7) for q in range(p + 1, 7)}}

# the triangulation printed by ``frieze accordion 21 13``
ACCORDION_21_13 = {"m": 9, "diagonals": [[2, 8], [2, 9], [3, 7], [3, 8], [4, 6], [4, 7]]}

# the triangulations of the benchmark's cli workload at seed 1
SEED1_TRI8 = {"m": 8, "diagonals": [[1, 3], [1, 5], [1, 6], [1, 7], [3, 5]]}
SEED1_TRI7 = {"m": 7, "diagonals": [[1, 3], [1, 4], [1, 5], [5, 7]]}

#: the argv placeholder for an output file, written with ``-o``
OUT = "OUT"
F80_F81_F82 = ["23416728348467685", "37889062373143906", "61305790721611591"]
P = str(10**18 + 3)
COMMANDS = ("build", "validate", "from-triangulation", "cut", "accordion",
            "classify-triangle", "realize-triangle", "enumerate", "render")

#: (argv, stdin document or None)
CASES = [
    # the README examples
    (["build", "--boundary", "3,7,5,3", "--quiddity", "4,9,4,9"], None),
    (["validate", "-"], SQUARE),
    (["render", "-", "--format", "ascii"], SQUARE),
    (["from-triangulation", "-"], HEX_TRI),
    (["cut", "-", "--verts", "1,2,3,5"], HEX_FRIEZE),
    (["classify-triangle", "1", "2", "2"], None),
    (["realize-triangle", "2", "3", "1"], None),
    (["realize-triangle", *["1000000016000000063"] * 3], None),
    (["accordion", "4", "3"], None),
    (["enumerate", "--boundary", "3,7,5,3", "--domain", "nat"], None),
    (["enumerate", "--boundary", "6,1,8,6,3", "--domain", "nat", "--max-nodes", "1000"], None),
    (["render", "-", "--format", "svg", "--mark", "1,3,5"], HEX_TRI),
    # help
    (["--help"], None),
    *(([command, "--help"], None) for command in COMMANDS),
    # the exit-1 and exit-2 kinds of the benchmark's cli workload
    (["build", "--boundary", "3,7,5,3", "--quiddity", "4,8,4,8"], None),
    (["validate", "-"], CORRUPTED),
    (["accordion", "4", "6"], None),
    (["realize-triangle", "1", "2", "2"], None),
    (["build", "--boundary", "1,x,1", "--quiddity", "1,1,1"], None),
    (["enumerate", "--boundary", "1,1,1,1", "--domain", "bogus"], None),
    # enumeration over each kind of domain
    (["enumerate", "--boundary", "1,1,1,1,1,1,1", "--domain", "nonzero-int"], None),
    (["enumerate", "--boundary", "1,1,1,1,1,1", "--domain", "scaled:1/2"], None),
    (["enumerate", "--boundary=-2/3,-2/3,-2/3,-2/3,-2/3", "--domain", "scaled:-2/3"], None),
    (["enumerate", "--boundary", "1,1,1,1,1", "--domain", "set:1,2,3"], None),
    # realize-triangle refusals
    (["realize-triangle", *F80_F81_F82], None),
    (["realize-triangle", P, P, P], None),
    # classic friezes and realizations of the benchmark's larger polygons, the
    # whole realize ladder among them
    (["from-triangulation", "-"], fan(12)),
    (["from-triangulation", "-"], ACCORDION_21_13),
    (["render", "-", "--format", "ascii"], fan(12)),
    (["realize-triangle", "44", "1", "1"], None),
    (["realize-triangle", "48", "47", "1"], None),
    (["realize-triangle", "72", "71", "1"], None),
    (["realize-triangle", "50", "1", "1"], None),
    (["realize-triangle", "56", "1", "1"], None),
    (["realize-triangle", "62", "1", "1"], None),
    (["realize-triangle", "68", "1", "1"], None),
    (["realize-triangle", "76", "1", "1"], None),
    (["realize-triangle", "54", "53", "1"], None),
    (["realize-triangle", "60", "59", "1"], None),
    (["realize-triangle", "66", "65", "1"], None),
    # the SVG size cap: the largest polygon drawn and the smallest refused
    (["render", "-", "--format", "svg"], fan(64)),
    (["render", "-", "--format", "svg"], fan(65)),
    # the table cap on build: the fan's frieze one boundary entry above it
    (["build", "--boundary", ",".join(["1"] * 2001),
      "--quiddity", ",".join(map(str, [1999, 1, *[2] * 1998, 1]))], None),
    # rational maps: one wrong entry each, an all-ones map, cut, render and build
    (["validate", "-"], gauged_fan(6, W6)),
    (["validate", "-"], gauged_fan(6, W6, {"2,5": "7/2"})),
    (["validate", "-"], gauged_fan(7, W7, {"1,4": "-3/5"})),
    (["validate", "-"], gauged_fan(8, W8, {"3,8": "1"})),
    (["validate", "-"], ALL_ONES_6),
    (["cut", "-", "--verts", "1,3,4,6"], gauged_fan(7, W7)),
    (["render", "-", "--format", "ascii"], gauged_fan(6, W6)),
    (["build", "--boundary", "3/2,7/2,5/2,3/2", "--quiddity", "2,9/2,2,9/2"], None),
    (["build", "--boundary", "1,2,3", "--quiddity", "1/2,1/3,1/5"], None),
    # larger searches, each domain kind, uncapped
    (["enumerate", "--boundary", "1,1,1,1,1,1,1,1", "--domain", "nat"], None),
    (["enumerate", "--boundary", "1,1,1,1,1,1,1,1", "--domain", "nonzero-int"], None),
    (["enumerate", "--boundary", "2,3,5,7,11", "--domain", "nat"], None),
    (["enumerate", "--boundary", "6,1,8,6,3", "--domain", "nat"], None),
    (["enumerate", "--boundary", "2,1,2,1,2,1", "--domain", "nonzero-int"], None),
    (["enumerate", "--boundary", ",".join(["1/2"] * 7), "--domain", "scaled:1/2"], None),
    (["enumerate", "--boundary=" + ",".join(["-2/3"] * 6), "--domain", "scaled:-2/3"], None),
    (["enumerate", "--boundary", "1,2,1,2,1,2", "--domain", "set:1,2,3,4,5,6"], None),
    # row steps that leave a remainder at a negative divisor: a build that is
    # no frieze, and a search that prunes them at the divisor -2
    (["build", "--boundary=-2,3,-5,7", "--quiddity", "1,1,1,2"], None),
    (["enumerate", "--boundary", "1,1,-2,1,2", "--domain", "nonzero-int"], None),
    # written to a file with -o: whole and rational builds (the second one's rows
    # leave a remainder), a classic frieze, cuts that keep and shrink the common
    # denominator, and both render formats
    (["build", "--boundary", "3/2,7/2,5/2,3/2", "--quiddity", "2,9/2,2,9/2", "-o", OUT], None),
    (["build", "--boundary", "7/6,3/2,2,5/6,5/4,7/3",
      "--quiddity", "28,1/3,15/2,4/3,35/6,1/2", "-o", OUT], None),
    (["from-triangulation", "-", "-o", OUT], fan(12)),
    (["from-triangulation", "-", "-o", OUT], ACCORDION_21_13),
    (["cut", "-", "--verts", "2,4,5,8", "-o", OUT], gauged_fan(8, W8)),
    (["cut", "-", "--verts", "2,5,6,7", "-o", OUT], gauged_fan(7, W7)),
    (["render", "-", "--format", "ascii", "-o", OUT], gauged_fan(8, W8)),
    (["render", "-", "--format", "ascii", "-o", OUT], HEX_TRI),
    (["render", "-", "--format", "svg", "--mark", "2,4,7", "-o", OUT], gauged_fan(7, W7)),
    (["render", "-", "--format", "svg", "-o", OUT], ACCORDION_21_13),
    # accordions built through the mirror (13 8, and 2 7 with a < b) and
    # directly (8 13), and the bare triangle's three unit pairs
    (["accordion", "13", "8"], None),
    (["accordion", "8", "13"], None),
    (["accordion", "2", "7"], None),
    (["accordion", "1", "0"], None),
    (["accordion", "0", "1"], None),
    (["accordion", "1", "1"], None),
    # triangles refused by their 2-valuations (2 2 2) and by their gcds
    # (1 2 4), and one admitted
    (["classify-triangle", "2", "2", "2"], None),
    (["classify-triangle", "1", "2", "4"], None),
    (["classify-triangle", "3", "5", "7"], None),
    # a search stopped one node before it would finish: its full run tries 16,181 values
    (["enumerate", "--boundary", "2,3,5,7,11", "--domain", "nat", "--max-nodes", "16180"], None),
    # malformed input exits 2 from every command that reads it: labels below 1 and
    # below 0, a boundary too short, and a zero boundary entry
    (["realize-triangle", "0", "1", "1"], None),
    (["classify-triangle", "0", "1", "1"], None),
    (["accordion", "-1", "2"], None),
    (["enumerate", "--boundary", "1,1", "--domain", "nat"], None),
    (["enumerate", "--boundary", "0,1,1,1", "--domain", "nat"], None),
    (["build", "--boundary", "0,1,1,1", "--quiddity", "1,1,1,1"], None),
    # the SVG cap with a mark: a mark that is no integer list is malformed before
    # the cap is checked; a well-formed mark, or one of the wrong count, meets the cap
    (["render", "-", "--format", "svg", "--mark", "1,2,x"], fan(65)),
    (["render", "-", "--format", "svg", "--mark", "1,2,3"], fan(65)),
    (["render", "-", "--format", "svg", "--mark", "1,2"], fan(65)),
    (["render", "-", "--format", "svg"], gauged_fan(65, [None, *[Fraction(1)] * 65])),
    # the benchmark's cli commands at seed 1 that read no frieze document
    (["build", "--boundary", "27/28,36/7,4/7,8/63,8/9,3,9/4",
      "--quiddity", "7,18/49,64/9,1/7,40/3,3/4,54/7"], None),
    (["build", "--boundary", "27/28,36/7,4/7,8/63,8/9,3,9/4",
      "--quiddity", "6,18/49,64/9,1/7,40/3,3/4,54/7"], None),
    (["build", "--boundary", "1,1,1,1,1,1", "--quiddity", "2,2,1,4,1,2"], None),
    (["from-triangulation", "-"], SEED1_TRI8),
    (["from-triangulation", "-"], SEED1_TRI7),
    (["enumerate", "--boundary", "1,1,2,2", "--domain", "nat"], None),
    (["realize-triangle", "15", "12", "27"], None),
    (["realize-triangle", "7", "1", "30"], None),
    (["realize-triangle", "50", "45", "39"], None),
    (["accordion", "8", "16"], None),
    (["accordion", "28", "5"], None),
    (["accordion", "29", "12"], None),
    (["classify-triangle", "31", "43", "26"], None),
    (["classify-triangle", "26", "44", "19"], None),
    (["render", "-", "--format", "svg", "--mark", "2,6,3"], SEED1_TRI8),
    (["render", "-", "--format", "svg", "--mark", "1,3,5"], SEED1_TRI7),
]


def run(main, argv: list[str], stdin: str) -> tuple[int, str, str, bytes | None]:
    """Exit code, stdout and stderr of one ``main(argv)`` call, and the bytes
    written to ``OUT`` (None if the argv names no ``OUT`` or nothing was written)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / OUT
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([str(path) if arg == OUT else arg for arg in argv])
            written = path.read_bytes() if path.exists() else None
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue(), written


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def record(code: int, out: str, err: str, written: bytes | None) -> dict:
    """A case's outcome as the manifest keeps it; ``output_sha256`` only for an ``OUT`` case."""
    outcome = {"exit": code, "stdout_sha256": sha256(out), "stderr_sha256": sha256(err)}
    if written is not None:
        outcome["output_sha256"] = sha256(written)
    return outcome


def main(src: Path) -> None:
    sys.path.insert(0, str(src))
    os.environ["COLUMNS"] = COLUMNS
    from frieze.cli import main as frieze_main

    cases = []
    for argv, doc in CASES:
        stdin = "" if doc is None else json.dumps(doc)
        cases.append({"argv": argv, "stdin": stdin,
                      **record(*run(frieze_main, argv, stdin))})
    head = {"python": "%d.%d" % sys.version_info[:2], "columns": COLUMNS}
    lines = ",\n".join(json.dumps(case) for case in cases)  # one case a line, for diffs
    text = json.dumps(head)[:-1] + ', "cases": [\n' + lines + "\n]}\n"
    (HERE / "manifest.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else HERE.parent.parent / "src")
