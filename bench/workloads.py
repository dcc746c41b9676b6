"""The four workloads: seeded inputs, timed calls, output bytes and oracles.

A workload is built from a seed and the imported ``frieze`` package.  Its
``calls()`` are the timed items; ``serialize`` turns an item's result into
the bytes that traced and untraced passes must reproduce exactly; ``check``
is the oracle, returning a problem description or None.  Oracles lean on
the reference math in ``inputs`` and on package functions the timed item
did not use, never on the timed result alone.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import inputs as gen


def _fractions(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in text.split(","))


def _csv(values) -> str:
    return ",".join(gen.scalar_str(v) for v in values)


def _pairs_text(f) -> str:
    return ";".join(f"{p},{q}={gen.scalar_str(v)}" for (p, q), v in f.pairs())


class Enumerate:
    """``enumerate_friezes`` over a fixed list of boundaries in seeded order.

    The list is the nat ladder plus every rotation and reflection of each
    small case.  The seed only orders it: the search time of a boundary
    moves by up to 2x with its rotation, so seeded rotations would make the
    timings measure the seed rather than the program.
    """

    #: the nat ladder; counts are the paper's 9 and Catalan numbers, the
    #: rest as found by the complete search at the start of this benchmark
    FIXED = (("nat", "3,7,5,3", 9), ("nat", "2,3,5,7", 2), ("nat", "2,2,2,2,2", 20),
             ("nat", "1,1,1,1,1,1,1", 42), ("nat", "1,1,2,2", 3))
    #: small cases; each appears in all its rotations and reflections
    SMALL = (("nat", "1,1,1,1", 2), ("nat", "1,1,1,1,1", 5), ("nat", "1,1,1,1,1,1", 14),
             ("nat", "1,2,1,2", 2), ("nat", "2,1,1,1", 2), ("nat", "2,2,2,2", 4),
             ("nat", "3,1,1,1", 3),
             ("nonzero-int", "1,1,1,1", 4), ("nonzero-int", "1,1,1,1,1", 5),
             ("nonzero-int", "2,1,1,1", 4), ("nonzero-int", "1,2,1,2", 4),
             ("nonzero-int", "2,-1,1,1", 2), ("nonzero-int", "1,-1,1,-1", 4),
             ("nonzero-int", "1,1,-1,-1,1", 5),
             ("scaled:1/2", "1/2,1/2,1/2,1/2", 4), ("scaled:1/2", "1/2,1/2,1/2,1/2,1/2", 5),
             ("scaled:1/2", "1/2,1/2,1,1", 6), ("scaled:1/3", "1/3,1/3,1/3,1/3", 4),
             ("set:1,2,3", "1,1,1,1,1", 5), ("set:1,2,3,4,5", "1,2,1,2", 2),
             ("set:1,2,4,6,8", "2,2,2,2", 4), ("set:1,2,3", "1,1,1,1,1,1", 2),
             ("set:-1,1,2,3", "1,1,1,1", 2), ("set:1,2,3,4,5,6", "1,1,2,2", 3))

    def __init__(self, seed: int, frieze) -> None:
        self.F = frieze
        rng = random.Random(f"enumerate:{seed}")
        cases = [(spec, _fractions(b), n) for spec, b, n in self.FIXED]
        for spec, b, n in self.SMALL:
            cases += [(spec, image, n) for image in gen.dihedral_images(_fractions(b))]
        rng.shuffle(cases)
        self.cases = cases
        self.labels = [f"enumerate {spec} {_csv(b)}" for spec, b, _ in cases]

    def calls(self):
        return [functools.partial(self._run, spec, b) for spec, b, _ in self.cases]

    def _run(self, spec, boundary):
        return self.F.enumerate_friezes(list(boundary), self.F.parse_domain(spec))

    def serialize(self, index, results) -> str:
        return "\n".join(_pairs_text(f) for f in results)

    def check(self, index, results):
        F = self.F
        spec, d, count = self.cases[index]
        m = len(d)
        if len(results) != count:
            return f"{len(results)} friezes, expected {count}"
        keys = [tuple(f.pairs()) for f in results]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            return "results are not sorted and distinct"
        for f in results:
            entries = dict(f.pairs())
            if f.m != m or any(gen.grid_value(m, entries, i, i + 1) != d[i]
                               for i in range(m)):
                return "a frieze has the wrong boundary"
            if not all(gen.domain_member(spec, v) for v in entries.values()):
                return "a frieze has an entry outside the domain"
            grid = F.grid_from_polygon(f)
            if not (F.validate_local(grid).ok and F.validate_tame(grid).ok):
                return "a frieze fails validate_local/validate_tame"
        if spec == "nat" and set(d) == {1}:
            triangulations = F.enumerate_triangulations(m)
            reference = {tuple(sorted(gen.classic_frieze(m, t.diagonals).items()))
                         for t in triangulations}
            library = {tuple(F.frieze_from_triangulation(t).pairs()) for t in triangulations}
            if set(keys) != reference or set(keys) != library:
                return "unit-boundary friezes differ from the triangulation friezes"
        return None


class _CheckItem:
    __slots__ = ("m", "clean", "entries", "corrupt", "text", "samples")


class Check:
    """Build and verify friezes of seeded random triangulations, m = 6 .. 32.

    Items alternate classic integer friezes and gauge-rescaled rational
    ones (c(p,q) t_p t_q); every third item has one corrupted long
    diagonal that the validators must report.
    """

    LADDER = tuple(range(6, 21)) * 2 + (24, 28, 32)

    def __init__(self, seed: int, frieze) -> None:
        self.F = frieze
        rng = random.Random(f"check:{seed}")
        self.items, self.labels = [], []
        for m in sorted(self.LADDER):
            for rational in (False, True):
                item = _CheckItem()
                item.m = m
                classic = gen.classic_frieze(m, gen.random_triangulation(rng, m))
                if rational:
                    w = gen.gauge_weights(rng, m)
                    item.clean = {(p, q): v * w[p] * w[q] for (p, q), v in classic.items()}
                else:
                    item.clean = {pair: Fraction(v) for pair, v in classic.items()}
                item.entries = dict(item.clean)
                item.corrupt = None
                if len(self.items) % 3 == 2:
                    long = [(p, q) for p, q in item.clean if 3 <= q - p <= m - 3]
                    item.corrupt = rng.choice(long)
                    item.entries[item.corrupt] += 1
                item.text = json.dumps(gen.frieze_doc(m, item.entries))
                item.samples = []
                for _ in range(m):
                    i = rng.randrange(m)
                    item.samples.append((i, i + rng.randrange(-1, m)))
                self.items.append(item)
                kind = "rational" if rational else "integer"
                tag = f" corrupted at {item.corrupt}" if item.corrupt else ""
                self.labels.append(f"check m={m} {kind}{tag}")

    def calls(self):
        return [functools.partial(self._run, item) for item in self.items]

    def _run(self, item):
        F = self.F
        f = F.frieze_from_json(json.loads(item.text))
        back = F.frieze_to_json(f)
        grid = F.grid_from_polygon(f)
        d, q = grid.boundary_sequence, grid.quiddity_cycle
        built = F.build_pattern(d, q)
        closure = F.closure_product(d, q)
        reports = (F.validate_local(grid), F.validate_tame(grid), F.verify_all_ptolemy(f))
        glide = F.check_glide(grid)
        values = [F.entry_via_product(d, q, i, j) for i, j in item.samples]
        art = F.render_ascii(f)
        return back, grid.rows, built.rows, closure, reports, glide, values, art

    def serialize(self, index, result) -> str:
        back, grid_rows, built_rows, closure, reports, glide, values, art = result
        rows = [[gen.scalar_str(x) for x in row] for row in grid_rows + built_rows]
        cells = [gen.scalar_str(x) for x in (closure.a11, closure.a12, closure.a21, closure.a22)]
        found = [[(v.rule, list(v.at), v.detail) for v in r.violations] for r in reports]
        return json.dumps([back, rows, cells, found, glide,
                           [gen.scalar_str(v) for v in values], art])

    def check(self, index, result):
        back, grid_rows, built_rows, closure, reports, glide, values, art = result
        item = self.items[index]
        m = item.m
        if back != json.loads(item.text):
            return "JSON round trip changed the document"
        if [list(r) for r in grid_rows] != gen.grid_rows(m, item.entries):
            return "grid_from_polygon differs from the unfolded map"
        if [list(r) for r in built_rows] != gen.grid_rows(m, item.clean):
            return "build_pattern differs from the expected frieze"
        if (closure.a11, closure.a12, closure.a21, closure.a22) != (-1, 0, 0, -1):
            return "closure product is not -Id"
        if not glide:
            return "glide check failed on an unfolded map"
        if values != [gen.grid_value(m, item.clean, i, j) for i, j in item.samples]:
            return "entry_via_product differs from the frieze"
        if art != gen.render_ascii(m, item.entries):
            return "render_ascii differs from the reference staircase"
        local, tame, ptolemy = (r.violations for r in reports)
        if item.corrupt is None:
            if local or tame or ptolemy:
                return "validators report a violation on a valid frieze"
            return None
        if not local or not ptolemy or grid_rows == built_rows:
            return "corruption went unreported"
        for v in local:
            i, j = v.at
            cells = [(i, j), (i + 1, j + 1), (i, j + 1), (i + 1, j), (i + 1, i + m), (j, j + 1)]
            if item.corrupt not in gen.window_pairs(m, cells):
                return f"local violation at {v.at} away from {item.corrupt}"
        for v in tame:
            i, j = v.at
            cells = [(i + a, j + b) for a in range(3) for b in range(3)]
            if item.corrupt not in gen.window_pairs(m, cells):
                return f"tame violation at {v.at} away from {item.corrupt}"
        for v in ptolemy:
            i, j, k, l = v.at
            if item.corrupt not in {(i, k), (j, l), (i, l), (j, k), (i, j), (k, l)}:
                return f"Ptolemy violation at {v.at} away from {item.corrupt}"
        return None


class Realize:
    """Classify, realize, unfold and decompose seeded realizable triples.

    Random triples with labels up to 1000, three for each polygon size in
    SIZES, so the seed changes the triples but not the amount of work; and
    a fixed long-accordion ladder (a,1,1), (a,a-1,1) of eleven larger
    polygons, m = 48 .. 80, which fills the tail.
    """

    SIZES = tuple(range(20, 40)) * 3
    TOP = 1000
    LADDER = ((44, 1, 1), (50, 1, 1), (56, 1, 1), (62, 1, 1), (68, 1, 1), (76, 1, 1),
              (48, 47, 1), (54, 53, 1), (60, 59, 1), (66, 65, 1), (72, 71, 1))

    def __init__(self, seed: int, frieze) -> None:
        self.F = frieze
        rng = random.Random(f"realize:{seed}")
        triples = [gen.random_realizable(rng, self.TOP, (m,)) for m in self.SIZES]
        triples += self.LADDER
        self.items = [(t, gen.random_unrealizable(rng, self.TOP)) for t in triples]
        rng.shuffle(self.items)
        self.labels = [f"realize {t}" for t, _ in self.items]

    def calls(self):
        return [functools.partial(self._run, t, twin) for t, twin in self.items]

    def _run(self, triple, twin):
        F = self.F
        verdicts = (F.classify_triangle(*triple), F.classify_triangle(*twin))
        tri, vertices = F.realize_triangle(*triple)
        f = F.frieze_from_triangulation(tri)
        tup = F.decompose_triangle(tri, *sorted(vertices))
        return verdicts, tri.m, sorted(tri.diagonals), vertices, f, tuple(tup)

    def serialize(self, index, result) -> str:
        verdicts, m, diagonals, vertices, f, tup = result
        return json.dumps([verdicts, m, diagonals, list(vertices), list(tup),
                           _pairs_text(f)])

    def check(self, index, result):
        verdicts, m, diagonals, vertices, f, tup = result
        triple, _ = self.items[index]
        if verdicts != (True, False):
            return f"classify_triangle gave {verdicts}, expected (True, False)"
        if not gen.noncrossing(m, diagonals):
            return "realized diagonals do not triangulate the polygon"
        entries = gen.classic_frieze(m, diagonals)
        if dict(f.pairs()) != entries:
            return "frieze_from_triangulation differs from the reference frieze"
        i, j, k = vertices
        if tuple(gen.pair_value(m, entries, p, q) for p, q in ((i, j), (j, k), (k, i))) != triple:
            return "realized vertices do not carry the requested labels"
        x, y, z = sorted(vertices)
        if min(tup) < 0 or any(math.gcd(tup[n], tup[n + 1]) != 1 for n in (0, 2, 4)):
            return "decomposition is not a nonnegative coprime-pair tuple"
        labels = tuple(gen.pair_value(m, entries, p, q) for p, q in ((x, y), (y, z), (z, x)))
        if gen.delta(tup) != labels:
            return "delta of the decomposition differs from the frieze labels"
        return None


class _Command:
    __slots__ = ("label", "argv", "stdin", "code", "expect")

    def __init__(self, label, argv, stdin="", code=0, expect=None) -> None:
        self.label, self.argv, self.stdin, self.code, self.expect = (
            label, [str(a) for a in argv], stdin, code, expect)


#: inputs that crash ``frieze from-triangulation`` with a traceback at the
#: time this benchmark was written; probed once per run, outside the timing
MALFORMED = ('{"m": 4, "diagonals": 5}', '{"m": 4, "diagonals": [[1, "3"]]}')


class Cli:
    """Every subcommand of the ``frieze`` CLI on small seeded inputs.

    Items call ``frieze.cli.main(argv)`` in process with the standard
    streams captured.  Interpreter start and ``import frieze.cli`` are
    timed by ``setup_s`` (and ``cli.startup_ms``) in fresh interpreters:
    timed one subprocess per item, those fixed costs drifted by 10-20%
    between runs on a shared machine and hid everything else.  The oracle
    runs every command once more as a real ``python -m frieze`` subprocess
    and requires the same exit code, stdout and stderr.
    """

    def __init__(self, seed: int, frieze) -> None:
        importlib.import_module("frieze.cli")  # the in-process runner calls its main
        self.F = frieze
        src = Path(frieze.__file__).resolve().parent.parent
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.root = src.parent
        rng = random.Random(f"cli:{seed}")
        cmds: list[_Command] = []
        for rational in (False, True):
            m = 7 if rational else 6  # sizes fixed so the seed changes values, not work
            entries = {pair: Fraction(v) for pair, v in
                       gen.classic_frieze(m, gen.random_triangulation(rng, m)).items()}
            if rational:
                w = gen.gauge_weights(rng, m)
                entries = {(p, q): v * w[p] * w[q] for (p, q), v in entries.items()}
            doc = gen.frieze_doc(m, entries)
            text = json.dumps(doc)
            d = [gen.grid_value(m, entries, i, i + 1) for i in range(m)]
            q = [gen.grid_value(m, entries, i, i + 2) for i in range(m)]
            m2 = m + 1
            tri = {"m": m2, "diagonals": [list(p) for p in gen.random_triangulation(rng, m2)]}
            tri_text = json.dumps(tri)
            verts = sorted(rng.sample(range(1, m + 1), 4))
            a = rng.randint(1, 30)
            b = rng.choice([x for x in range(1, 31) if math.gcd(a, x) == 1])
            triple = (gen.random_realizable(rng, 50, range(65)) if not rational
                      else gen.random_unrealizable(rng, 50))
            small = gen.random_realizable(rng, 30, (12,))
            boundary = (1, 1, 2, 2)
            mark = rng.sample(range(1, m2 + 1), 3)
            cmds += [
                _Command("build", ["build", "--boundary", _csv(d), "--quiddity", _csv(q)],
                         expect=functools.partial(self._expect_build, d, q)),
                _Command("validate", ["validate", "-"], text,
                         expect=functools.partial(self._expect_validate, m)),
                _Command("from-triangulation", ["from-triangulation", "-"], tri_text,
                         expect=functools.partial(self._expect_from_tri, tri)),
                _Command("cut", ["cut", "-", "--verts", _csv(verts)], text,
                         expect=functools.partial(self._expect_cut, doc, verts)),
                _Command("accordion", ["accordion", a, b],
                         expect=functools.partial(self._expect_accordion, a, b)),
                _Command("classify-triangle", ["classify-triangle", *triple],
                         expect=functools.partial(self._expect_classify, triple)),
                _Command("realize-triangle", ["realize-triangle", *small],
                         expect=functools.partial(self._expect_realize, small)),
                _Command("enumerate", ["enumerate", "--boundary", _csv(boundary),
                                       "--domain", "nat"],
                         expect=functools.partial(self._expect_enumerate, boundary)),
                _Command("render ascii", ["render", "-", "--format", "ascii"], text,
                         expect=functools.partial(self._expect_ascii, doc)),
                _Command("render svg", ["render", "-", "--format", "svg",
                                        "--mark", _csv(mark)], tri_text,
                         expect=functools.partial(self._expect_svg, tri, mark)),
            ]
        # exit-1 (validation) and exit-2 (usage) cases
        bad_q = list(q)
        bad_q[0] += 1
        long = [(p, r) for p, r in entries if 3 <= r - p <= m - 3] or list(entries)
        broken = dict(entries)
        broken[rng.choice(long)] += 1
        even = 2 * rng.randint(1, 15)
        cmds += [
            _Command("build inconsistent", ["build", "--boundary", _csv(d),
                                            "--quiddity", _csv(bad_q)], code=1),
            _Command("validate corrupted", ["validate", "-"],
                     json.dumps(gen.frieze_doc(m, broken)), code=1),
            _Command("accordion not coprime", ["accordion", even, 2 * rng.randint(1, 15)],
                     code=1),
            _Command("realize unrealizable", ["realize-triangle",
                                              *gen.random_unrealizable(rng, 50)], code=1),
            _Command("build bad scalar", ["build", "--boundary", "1,x,1",
                                          "--quiddity", "1,1,1"], code=2),
            _Command("enumerate bad domain", ["enumerate", "--boundary", "1,1,1,1",
                                              "--domain", "bogus"], code=2),
        ]
        rng.shuffle(cmds)
        self.commands = cmds
        self.labels = [f"cli {c.label}: {' '.join(c.argv)}" for c in cmds]

    # -- running ---------------------------------------------------------

    def calls(self):
        return [functools.partial(self._in_process, c.argv, c.stdin) for c in self.commands]

    def _spawn(self, argv, stdin):
        done = subprocess.run([sys.executable, "-m", "frieze", *argv], input=stdin,
                              capture_output=True, text=True, env=self.env,
                              cwd=self.root, timeout=60)
        return done.returncode, done.stdout, done.stderr

    def _in_process(self, argv, stdin):
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = sys.modules["frieze.cli"].main(argv)
        finally:
            sys.stdin = saved
        return code, out.getvalue(), err.getvalue()

    def probe_malformed(self) -> list[dict]:
        """Exit code and traceback status of each known-malformed input."""
        report = []
        for text in MALFORMED:
            code, _, err = self._spawn(["from-triangulation", "-"], text)
            report.append({"input": text, "exit": code, "traceback": "Traceback" in err})
        return report

    def serialize(self, index, result) -> str:
        return json.dumps(list(result))

    def check(self, index, result):
        code, out, err = result
        cmd = self.commands[index]
        if self._spawn(cmd.argv, cmd.stdin) != result:
            return "the frieze command differs from main() in process"
        if code != cmd.code:
            return f"exit {code}, expected {cmd.code}; stderr {err[-200:]!r}"
        if code == 0:
            if err:
                return "stderr is not empty"
            return None if out == cmd.expect() else "stdout differs from the library result"
        lines = err.splitlines()
        if out or len(lines) != 1:
            return "an error must print one stderr line and no stdout"
        record = json.loads(lines[0])
        if record.get("error") != {1: "validation", 2: "usage"}[code] or "message" not in record:
            return f"unexpected error record {record}"
        return None

    # -- library results the CLI must reproduce ----------------------------

    def _expect_build(self, d, q):
        F = self.F
        grid = F.build_pattern(d, q)
        return json.dumps(F.frieze_to_json(F.to_polygon(grid)), indent=2) + "\n"

    def _expect_validate(self, m):
        return json.dumps({"m": m, "valid": True}) + "\n"

    def _expect_from_tri(self, tri):
        F = self.F
        f = F.frieze_from_triangulation(F.Triangulation(tri["m"], tri["diagonals"]))
        return json.dumps(F.frieze_to_json(f), indent=2) + "\n"

    def _expect_cut(self, doc, verts):
        F = self.F
        sub = F.cut_subpolygon(F.frieze_from_json(doc), verts)
        return json.dumps(F.frieze_to_json(sub), indent=2) + "\n"

    def _expect_accordion(self, a, b):
        F = self.F
        tri, k = F.accordion(a, b)
        return json.dumps({"triangulation": F.triangulation_to_json(tri), "k": k},
                          indent=2) + "\n"

    def _expect_classify(self, triple):
        verdict = self.F.classify_triangle(*triple)
        if verdict != gen.realizable(*triple):
            raise AssertionError("classification disagrees with the reference predicate")
        return "true\n" if verdict else "false\n"

    def _expect_realize(self, triple):
        F = self.F
        tri, vertices = F.realize_triangle(*triple)
        return json.dumps({"triangulation": F.triangulation_to_json(tri),
                           "vertices": list(vertices)}, indent=2) + "\n"

    def _expect_enumerate(self, boundary):
        F = self.F
        domain = F.parse_domain("nat")
        results = F.enumerate_friezes(list(boundary), domain)
        summary = sys.modules["frieze.enumeration"].enumeration_summary(
            list(boundary), domain, results)
        return "".join(json.dumps(F.frieze_to_json(f)) + "\n" for f in results) + \
            json.dumps(summary) + "\n"

    def _expect_ascii(self, doc):
        return self.F.render_ascii(self.F.frieze_from_json(doc))

    def _expect_svg(self, tri, mark):
        return self.F.render_svg(self.F.triangulation_from_json(tri), mark=tuple(mark))


WORKLOADS = {"enumerate": Enumerate, "check": Check, "realize": Realize, "cli": Cli}
