import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import frieze
import validator_oracles as oracle
from frieze import (FriezeMap, Triangulation, build_pattern, check_glide, frieze_from_json,
                    frieze_from_triangulation, frieze_to_json, grid_from_polygon,
                    render_ascii, triangulation_from_json, validate_local, validate_tame,
                    verify_all_ptolemy)
from frieze.cli import main

HEX_TRI = {"m": 6, "diagonals": [[2, 4], [2, 5], [2, 6]]}
#: the square frieze built from boundary 3,7,5,3 and quiddity 4,9,4,9
SQUARE_ENTRIES = {"1,2": "7", "1,3": "9", "1,4": "3", "2,3": "5", "2,4": "4", "3,4": "3"}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_validate_roundtrip(tmp_path, capsys):
    out = tmp_path / "square.json"
    code, _, _ = run(capsys, "build", "--boundary", "3,7,5,3",
                     "--quiddity", "4,9,4,9", "-o", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["m"] == 4 and doc["entries"]["1,3"] == "9"
    code, stdout, _ = run(capsys, "validate", str(out))
    assert code == 0 and json.loads(stdout)["valid"] is True


def test_build_rejects_invalid_quiddity(capsys):
    code, _, err = run(capsys, "build", "--boundary", "3,7,5,3",
                       "--quiddity", "4,8,4,8")
    assert code == 1
    record = json.loads(err)
    assert record["error"] == "validation"
    assert any(v["rule"] == "local" for v in record["detail"])


def test_build_checks_the_glide_once(monkeypatch, capsys):
    calls = []
    check_glide = frieze.core.check_glide

    def counted(grid):
        calls.append(grid)
        return check_glide(grid)

    monkeypatch.setattr(frieze.core, "check_glide", counted)
    monkeypatch.setattr(frieze.cli, "check_glide", counted, raising=False)  # were it called
    square = ("build", "--boundary", "3,7,5,3", "--quiddity", "4,9,4,9")
    assert run(capsys, *square)[0] == 0 and len(calls) == 1
    monkeypatch.setattr(frieze.core, "check_glide", lambda grid: False)
    code, out, err = run(capsys, *square)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "validation", "message": "pattern is not glide-symmetric"}


def test_validate_never_clears_a_table(tmp_path, monkeypatch, capsys):
    """``validate`` reads the loaded map's int table: the grid unfolded from
    it, the Ptolemy check and the writers never clear a ``Fraction`` table.
    A map from the validating constructor is cleared once, on first use."""
    hexagon = frieze_to_json(frieze_from_triangulation(Triangulation(**HEX_TRI)))
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(hexagon))
    bad.write_text(json.dumps({**hexagon, "entries": {**hexagon["entries"], "1,4": "5/2"}}))
    tables = []
    cleared = frieze.core._cleared

    def counted(rows):
        tables.append(rows)
        return cleared(rows)

    monkeypatch.setattr(frieze.core, "_cleared", counted)
    for path, code in ((good, 0), (bad, 1)):
        assert run(capsys, "validate", str(path))[0] == code
    assert tables == []

    def read_all(f):
        grid = grid_from_polygon(f)
        assert validate_local(grid).ok and validate_tame(grid).ok and check_glide(grid)
        assert verify_all_ptolemy(f).ok and frieze_to_json(f) == hexagon
        assert render_ascii(f) == oracle.render_ascii(f)

    read_all(frieze_from_json(hexagon))
    built = build_pattern([3, 7, 5, 3], [4, 9, 4, 9])  # int rows walked on int cycles
    assert validate_local(built).ok and validate_tame(built).ok and check_glide(built)
    assert tables == []
    read_all(FriezeMap(6, {tuple(map(int, key.split(","))): text
                           for key, text in hexagon["entries"].items()}))
    assert len(tables) == 1


def test_build_usage_errors(capsys):
    code, _, err = run(capsys, "build", "--boundary", "3,x,5,3",
                       "--quiddity", "4,9,4,9")
    assert code == 2 and json.loads(err)["error"] == "usage"
    code, _, _ = run(capsys, "build", "--boundary", "3,0,5,3",
                     "--quiddity", "4,9,4,9")
    assert code == 2


def test_validate_detects_mutation(tmp_path, capsys):
    out = tmp_path / "square.json"
    run(capsys, "build", "--boundary", "3,7,5,3", "--quiddity", "4,9,4,9",
        "-o", str(out))
    doc = json.loads(out.read_text())
    doc["entries"]["1,3"] = "10"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1 and json.loads(err)["error"] == "validation"


def test_validate_large_fan(tmp_path, capsys):
    m = 60
    fan = frieze_from_triangulation(Triangulation(m, [(1, k) for k in range(3, m)]))
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(frieze_to_json(fan)))
    assert run(capsys, "validate", str(path)) == (0, '{"m": 60, "valid": true}\n', "")
    entries = dict(fan.pairs())
    entries[(20, 50)] += 1  # a long diagonal
    broken = FriezeMap(m, entries)
    path.write_text(json.dumps(frieze_to_json(broken)))
    code, _, err = run(capsys, "validate", str(path))
    grid = grid_from_polygon(broken)
    expected = (oracle.validate_local(grid).merged(oracle.validate_tame(grid))
                .merged(oracle.verify_all_ptolemy(broken)))
    assert code == 1 and expected.violations
    assert json.loads(err)["detail"] == [{"rule": v.rule, "at": list(v.at), "detail": v.detail}
                                         for v in expected.violations]


def test_from_triangulation_and_cut(tmp_path, capsys):
    tri = tmp_path / "hex.json"
    tri.write_text(json.dumps(HEX_TRI))
    fz = tmp_path / "hex_frieze.json"
    code, _, _ = run(capsys, "from-triangulation", str(tri), "-o", str(fz))
    assert code == 0
    f = frieze_from_json(json.loads(fz.read_text()))
    assert f.value(1, 3) == 4
    code, stdout, _ = run(capsys, "cut", str(fz), "--verts", "1,2,3,5")
    assert code == 0
    sub = frieze_from_json(json.loads(stdout))
    assert [int(x) for x in sub.edge_values] == [1, 1, 2, 2]


def test_accordion_command(capsys):
    code, stdout, _ = run(capsys, "accordion", "4", "3")
    assert code == 0
    doc = json.loads(stdout)
    tri = triangulation_from_json(doc["triangulation"])
    assert tri.m == 6 and doc["k"] == 3
    code, _, err = run(capsys, "accordion", "4", "6")
    assert code == 1 and json.loads(err)["error"] == "validation"


def test_classify_command(capsys):
    code, stdout, _ = run(capsys, "classify-triangle", "1", "2", "2")
    assert code == 0 and stdout.strip() == "false"
    code, stdout, _ = run(capsys, "classify-triangle", "2", "4", "6")
    assert code == 0 and stdout.strip() == "true"
    code, _, err = run(capsys, "classify-triangle", "0", "1", "1")
    assert code == 2 and json.loads(err)["error"] == "usage"


def test_realize_command(capsys):
    code, stdout, _ = run(capsys, "realize-triangle", "2", "3", "1")
    assert code == 0
    doc = json.loads(stdout)
    assert len(doc["vertices"]) == 3
    triangulation_from_json(doc["triangulation"])
    code, _, err = run(capsys, "realize-triangle", "1", "2", "2")
    assert code == 1 and json.loads(err)["error"] == "validation"


def test_enumerate_command(capsys):
    code, stdout, _ = run(capsys, "enumerate", "--boundary", "3,7,5,3",
                          "--domain", "nat")
    assert code == 0
    lines = [json.loads(line) for line in stdout.splitlines()]
    summary = lines[-1]
    assert summary["count"] == 9 and len(lines) == 10
    assert all("entries" in doc for doc in lines[:-1])
    code, _, err = run(capsys, "enumerate", "--boundary", "1,1,1,1",
                       "--domain", "galaxies")
    assert code == 2 and json.loads(err)["error"] == "usage"


#: ``frieze enumerate --boundary 3,7,5,3 --domain nat``: the friezes with
#: diagonals c(1,3) = x, c(2,4) = 36/x, then the summary with B = 392
ENUMERATE_3753 = "".join(
    json.dumps({"m": 4, "entries": {"1,2": "7", "1,3": str(x), "1,4": "3", "2,3": "5",
                                    "2,4": str(36 // x), "3,4": "3"}}) + "\n"
    for x in (1, 2, 3, 4, 6, 9, 12, 18, 36)) + json.dumps(
    {"boundary": ["3", "7", "5", "3"], "domain": "nat", "count": 9, "bound": "392"}) + "\n"


def test_enumerate_budget(capsys):
    argv = ["enumerate", "--boundary", "3,7,5,3", "--domain", "nat"]
    code, stdout, err = run(capsys, *argv, "--max-nodes", "10")
    assert code == 1 and stdout == ""
    lines = err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "validation"
    assert record["message"].startswith("enumeration stopped at its budget of 10 nodes")
    assert run(capsys, *argv) == (0, ENUMERATE_3753, "")
    code, stdout, err = run(capsys, *argv, "--max-nodes=-1")
    assert code == 2 and stdout == "" and json.loads(err)["error"] == "usage"


def test_enumerate_validation_failure(capsys):
    code, _, err = run(capsys, "enumerate", "--boundary", "1,1,1/2,1",
                       "--domain", "nat")
    assert code == 1 and json.loads(err)["error"] == "validation"


def test_render_commands(tmp_path, capsys):
    tri = tmp_path / "hex.json"
    tri.write_text(json.dumps(HEX_TRI))
    code, stdout, _ = run(capsys, "render", str(tri), "--format", "svg",
                          "--mark", "1,3,5")
    assert code == 0 and stdout.startswith("<svg") and 'stroke="red"' in stdout
    code, stdout, _ = run(capsys, "render", str(tri), "--format", "ascii")
    assert code == 0 and len(stdout.splitlines()) == 6
    fz = tmp_path / "f.json"
    run(capsys, "build", "--boundary", "3,7,5,3", "--quiddity", "4,9,4,9",
        "-o", str(fz))
    code, stdout, _ = run(capsys, "render", str(fz), "--format", "ascii")
    assert code == 0
    assert stdout.splitlines()[0].split() == ["0", "3", "4", "3", "0"]


def test_render_mark_with_ascii_is_usage_error(tmp_path, capsys):
    tri = tmp_path / "hex.json"
    tri.write_text(json.dumps(HEX_TRI))
    code, stdout, err = run(capsys, "render", str(tri), "--format", "ascii",
                            "--mark", "1,2")
    assert code == 2 and stdout == ""
    assert len(err.splitlines()) == 1 and json.loads(err)["error"] == "usage"


def test_render_mark_repeated_vertex_is_usage_error(tmp_path, capsys):
    tri = tmp_path / "hex.json"
    tri.write_text(json.dumps(HEX_TRI))
    code, stdout, err = run(capsys, "render", str(tri), "--format", "svg",
                            "--mark", "1,1,1")
    assert code == 2 and stdout == ""
    assert len(err.splitlines()) == 1 and json.loads(err)["error"] == "usage"


def test_from_triangulation_rejects_malformed_diagonals(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for text in ('{"m": 4, "diagonals": 5}', '{"m": 4, "diagonals": [[1, "3"]]}',
                 '{"m": 4, "diagonals": [[1.0, 3]]}',
                 '{"m": 4, "diagonals": [[true, 3]]}'):
        bad.write_text(text)
        code, stdout, err = run(capsys, "from-triangulation", str(bad))
        assert code == 2 and stdout == "", text
        assert len(err.splitlines()) == 1 and json.loads(err)["error"] == "usage", text


def test_malformed_json_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2 and json.loads(err)["error"] == "usage"
    code, _, _ = run(capsys, "validate", str(tmp_path / "missing.json"))
    assert code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    code, stdout, err = run(capsys, "frobnicate")
    assert code == 2 and stdout == ""
    assert len(err.splitlines()) == 1 and json.loads(err)["error"] == "usage"


def test_missing_flag_is_usage_error(capsys):
    code, stdout, err = run(capsys, "build", "--boundary", "3,7,5,3")
    assert code == 2 and stdout == ""
    assert len(err.splitlines()) == 1 and json.loads(err)["error"] == "usage"
    assert "--quiddity" in json.loads(err)["message"]


def test_help_goes_to_stdout(capsys):
    for argv in (["--help"], ["enumerate", "--help"]):
        code, stdout, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert stdout.startswith("usage: frieze")


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    tri = tmp_path / "hex.json"
    tri.write_text(json.dumps(HEX_TRI))
    commands = [
        ("build", "--boundary", "3,7,5,3", "--quiddity", "4,9,4,9"),
        ("from-triangulation", str(tri)),
        ("render", str(tri), "--format", "ascii"),
    ]
    for output in (tmp_path / "missing" / "x.json", tmp_path):
        for argv in commands:
            code, stdout, err = run(capsys, *argv, "-o", str(output))
            assert code == 2 and stdout == "", argv
            assert len(err.splitlines()) == 1 and json.loads(err)["error"] == "usage", argv


def test_deeply_nested_json_is_usage_error(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("[" * 100000))
    code, stdout, err = run(capsys, "validate", "-")
    assert code == 2 and stdout == ""
    assert len(err.splitlines()) == 1 and json.loads(err)["error"] == "usage"


def test_negative_boundary_parses_in_equals_form(capsys):
    code, stdout, _ = run(capsys, "build", "--boundary=-1,-1,-1,-1",
                          "--quiddity=-1,-2,-1,-2")
    assert code == 0
    assert [int(x) for x in frieze_from_json(json.loads(stdout)).edge_values] == [-1] * 4
    code, stdout, _ = run(capsys, "enumerate", "--boundary=-1,-1,-1,-1",
                          "--domain", "nonzero-int")
    assert code == 0
    assert json.loads(stdout.splitlines()[-1])["boundary"] == ["-1"] * 4
    # the separate form is read as two flags, as the help text warns
    code, stdout, err = run(capsys, "build", "--boundary", "-1,-1,-1,-1",
                            "--quiddity=-1,-2,-1,-2")
    assert code == 2 and stdout == ""
    assert len(err.splitlines()) == 1 and json.loads(err)["error"] == "usage"


def test_pair_key_given_twice_is_usage_error(monkeypatch, capsys):
    # "01,3" is the pair (1, 3) spelled differently; first or last, it is refused
    for entries in ({"01,3": "10", **SQUARE_ENTRIES}, {**SQUARE_ENTRIES, "01,3": "10"}):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"m": 4, "entries": entries})))
        code, stdout, err = run(capsys, "validate", "-")
        assert code == 2 and stdout == ""
        assert len(err.splitlines()) == 1 and json.loads(err)["error"] == "usage"
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"m": 4, "entries": SQUARE_ENTRIES})))
    assert run(capsys, "validate", "-")[0] == 0


def run_frieze(argv, **streams):
    env = dict(os.environ, PYTHONPATH=str(Path(frieze.__file__).resolve().parent.parent))
    streams.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([sys.executable, "-m", "frieze", *argv], text=True, env=env,
                          timeout=60, **streams)


def test_closed_stdout_is_usage_error():
    argv = ["enumerate", "--boundary=-1,-1,-1,-1", "--domain", "nonzero-int"]
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        piped = run_frieze(argv, stdout=write_end)
    finally:
        os.close(write_end)
    # descriptor 1 closed before the interpreter starts
    closed = run_frieze(argv, preexec_fn=lambda: os.close(1))
    for done in (piped, closed):
        assert done.returncode == 2 and "Traceback" not in done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "usage"


def test_closed_stderr_keeps_exit_code():
    for argv, code in ((["classify-triangle", "0", "2", "2"], 2),
                       (["accordion", "4", "6"], 1)):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        try:
            piped = run_frieze(argv, stdout=subprocess.PIPE, stderr=write_end)
        finally:
            os.close(write_end)
        # descriptor 2 closed before the interpreter starts
        closed = run_frieze(argv, stdout=subprocess.PIPE, preexec_fn=lambda: os.close(2))
        for done in (piped, closed):
            assert done.returncode == code and done.stdout == ""


def _address_space_1gib():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_polygon_budget_at_the_cap():
    """Just above MAX_VERTICES both builders exit 1 at once, without a traceback
    (under a 1 GiB address-space limit, so a lost budget fails with a
    MemoryError instead of swallowing the machine); at the cap they build."""
    for argv in (["accordion", "99999", "1"], ["realize-triangle", "99997", "1", "1"],
                 ["accordion", "100000000", "1"], ["realize-triangle", "100000000", "1", "1"]):
        done = run_frieze(argv, stdout=subprocess.PIPE, preexec_fn=_address_space_1gib)
        assert done.returncode == 1 and done.stdout == ""
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "validation"
        assert "MAX_VERTICES = 100000" in lines[0]
    for argv in (["accordion", "99998", "1"], ["realize-triangle", "99996", "1", "1"]):
        done = run_frieze(argv, stdout=subprocess.PIPE)
        assert done.returncode == 0 and done.stderr == ""
        assert json.loads(done.stdout)["triangulation"]["m"] == 100000


def test_realize_refuses_a_prime_gcd_near_1e18_at_once():
    """gcd 10**18 + 3 is prime: factoring it ends at once, and the size check refuses."""
    p = str(10**18 + 3)
    start = time.perf_counter()
    done = run_frieze(["realize-triangle", p, p, p], stdout=subprocess.PIPE)
    assert time.perf_counter() - start < 2
    assert done.returncode == 1 and done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "validation"
    assert "MAX_VERTICES = 100000" in lines[0]


def test_realize_refuses_a_gcd_of_two_large_primes_at_once():
    """gcd 1000000007 * 1000000009: Pollard-Brent splits it, and the size check refuses."""
    n = str(1000000007 * 1000000009)
    start = time.perf_counter()
    done = run_frieze(["realize-triangle", n, n, n], stdout=subprocess.PIPE)
    assert time.perf_counter() - start < 2
    assert done.returncode == 1 and done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "validation"
    assert "MAX_VERTICES = 100000" in lines[0]



def test_realize_refuses_17_digit_fibonacci_labels_at_once():
    """(F80, F81, F82): the descent jumps its runs, so the size check refuses at once."""
    start = time.perf_counter()
    done = run_frieze(["realize-triangle", "23416728348467685", "37889062373143906",
                       "61305790721611591"], stdout=subprocess.PIPE)
    assert time.perf_counter() - start < 1
    assert done.returncode == 1 and done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "validation"
    assert "MAX_VERTICES = 100000" in lines[0]


def test_enumerate_budget_before_a_huge_congruence_class():
    """A boundary entry of 60, 100 or 1000 bounds the quiddity by about 2.6e7,
    2.0e8 or 2.0e12, and level 0 steps through all of them: the search meets
    its budget after 10 values, under a 1 GiB address-space limit, instead of
    listing the level's candidates first."""
    for entry in ("60", "100", "1000"):
        argv = ["enumerate", "--boundary", f"1,{entry},1,1,1,1", "--domain", "nat",
                "--max-nodes", "10"]
        start = time.perf_counter()
        done = run_frieze(argv, stdout=subprocess.PIPE, preexec_fn=_address_space_1gib)
        assert time.perf_counter() - start < 1, argv
        assert done.returncode == 1 and done.stdout == "", argv
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "validation", argv
        assert "budget of 10 nodes" in lines[0]

def test_validate_fails_fast_on_a_huge_or_broken_map():
    """Each input exits 2 with its one JSON line, under a 1 GiB address-space
    limit: a map that built its m**2 table before its count check would die."""
    cases = [({"m": 10**9, "entries": {}}, "need all 499999999500000000 vertex pairs, got 0"),
             ({"m": 4, "entries": {**SQUARE_ENTRIES, "0,1": "1"}},
              "bad vertex pair (0, 1) for m=4"),
             ({"m": 4, "entries": {**SQUARE_ENTRIES, "1,4": "0"}},
              "boundary entry at edge (4, 1) is zero")]
    for doc, message in cases:
        start = time.perf_counter()
        done = run_frieze(["validate", "-"], input=json.dumps(doc), stdout=subprocess.PIPE,
                          preexec_fn=_address_space_1gib)
        assert time.perf_counter() - start < 1
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.splitlines() == [json.dumps({"error": "usage", "message": message})]


def test_help_names_the_polygon_budget(capsys):
    for command in ("accordion", "realize-triangle"):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0 and "at most 100000 vertices" in " ".join(out.split())


# -- the exit-code contract under random input ---------------------------------

def run_in_process(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def csv(elements, max_size=7):
    return st.lists(elements, max_size=max_size).map(",".join)


def flag(name, values):
    return values.map(f"--{name}={{}}".format)


scalars = st.sampled_from(["1", "-1", "1/2", "2", "3", "4", "9", "0", "-2/3", "x", "1/0", ""])
labels = st.integers(-1, 30).map(str)
# at most 0.1 s each; six entries take seconds (1^6 over scaled:1/2 is 2^6
# over nonzero-int)
enum_boundaries = csv(st.sampled_from(["1", "-1", "1/2"]), max_size=5)
domains = st.sampled_from(["nat", "nonzero-int", "scaled:1/2", "scaled-nat:1/2",
                           "set:1,2,3", "set:-1,1/2,2", "set:", "scaled:0", "galaxies"])
COMMANDS = {
    "build": st.tuples(flag("boundary", csv(scalars)), flag("quiddity", csv(scalars))),
    "validate": st.just(("-",)),
    "from-triangulation": st.just(("-",)),
    "cut": st.tuples(st.just("-"), flag("verts", csv(labels))),
    "accordion": st.tuples(labels, labels),
    "classify-triangle": st.tuples(labels, labels, labels),
    "realize-triangle": st.tuples(labels, labels, labels),
    "enumerate": st.tuples(flag("boundary", enum_boundaries), flag("domain", domains)),
    "render": st.tuples(st.just("-"), flag("format", st.sampled_from(["ascii", "svg", "png"])),
                        st.lists(flag("mark", csv(labels, max_size=4)), max_size=1))
              .map(lambda t: (t[0], t[1], *t[2])),
}
# "-o" only ever last or before "-", so no example writes a file
noise = st.tuples(st.lists(st.sampled_from(["-", "--help", "--bogus", "--format", "--mark",
                                            "--verts", "1,2", "-1,1", "x"]), max_size=3),
                  st.sampled_from([[], ["-o", "-"], ["-o"]])).map(lambda t: t[0] + t[1])


argvs = st.one_of(
    *(st.tuples(st.just(name), args, noise).map(lambda t: [t[0], *t[1], *t[2]])
      for name, args in COMMANDS.items()),
    noise)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8)
pair_keys = (st.tuples(st.integers(0, 8), st.integers(0, 8)).map("{0[0]},{0[1]}".format)
             | st.sampled_from(["01,3", "1", "a,b", ""]))
documents = st.one_of(
    st.just({"m": 4, "entries": SQUARE_ENTRIES}),
    st.just(HEX_TRI),
    st.fixed_dictionaries({"m": st.integers(-1, 7),
                           "entries": st.dictionaries(pair_keys, scalars, max_size=21)}),
    st.fixed_dictionaries({"m": st.integers(-1, 7),
                           "diagonals": st.lists(st.lists(st.integers(0, 8), max_size=3),
                                                 max_size=5)}),
    json_values)
stdins = documents.map(json.dumps) | st.text(max_size=10)


@settings(max_examples=300, deadline=None)
@given(argvs, stdins)
def test_every_input_ends_in_a_documented_exit(argv, stdin):
    code, stdout, err = run_in_process(argv, stdin)
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
        return
    assert stdout == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == ("validation" if code == 1 else "usage")


# -- one parser per process ----------------------------------------------------

@contextlib.contextmanager
def fresh_parser():
    """Run ``main`` on a newly built parser in place of the shared one.

    A plain context manager, not the ``monkeypatch`` fixture, so it also
    works inside a ``@given`` test."""
    shared = frieze.cli._PARSER
    frieze.cli._PARSER = frieze.cli._build_parser()
    try:
        yield
    finally:
        frieze.cli._PARSER = shared


def run_fresh(argv, stdin=""):
    with fresh_parser():
        return run_in_process(argv, stdin)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(argvs, stdins), min_size=1, max_size=3))
def test_the_shared_parser_answers_as_a_fresh_one(calls):
    """A few calls in a row on the shared parser, each against a fresh one."""
    shared = [run_in_process(list(argv), stdin) for argv, stdin in calls]
    assert shared == [run_fresh(list(argv), stdin) for argv, stdin in calls]


def test_help_is_wrapped_to_columns_when_printed(monkeypatch):
    texts = {}
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in (["--help"], ["enumerate", "--help"]):
            shared = run_in_process(argv, "")
            assert shared[0] == 0 and shared == run_fresh(argv)
            texts[columns, argv[0]] = shared[1]
    assert texts["40", "--help"] != texts["200", "--help"]
    assert texts["40", "enumerate"] != texts["200", "enumerate"]


def test_a_usage_error_leaves_nothing_for_the_next_call(tmp_path):
    calls = [["build", "-o", str(tmp_path / "missing" / "x.json"), "--boundary", "3,7,5,3"],
             ["build", "--boundary", "3,7,5,3", "--quiddity", "4,9,4,9"]]
    shared = [run_in_process(argv, "") for argv in calls]
    assert [code for code, _, _ in shared] == [2, 0]
    assert shared == [run_fresh(argv) for argv in calls]


# -- the vertex cap on a triangulation's frieze table --------------------------

def fan(m):
    return {"m": m, "diagonals": [[1, k] for k in range(3, m)]}


TABLE_COMMANDS = (["from-triangulation", "-"], ["render", "-", "--format", "ascii"])


def test_table_cap_refuses_a_20000_vertex_fan_at_once():
    """A 20,000-vertex fan is a small document with a 4e8-entry frieze: both
    commands exit 1 at once, under a 1 GiB address-space limit."""
    text = json.dumps(fan(20_000))
    for argv in TABLE_COMMANDS:
        start = time.perf_counter()
        done = run_frieze(argv, input=text, stdout=subprocess.PIPE,
                          preexec_fn=_address_space_1gib)
        assert time.perf_counter() - start < 1, argv
        assert done.returncode == 1 and done.stdout == "", argv
        assert done.stderr.splitlines() == [json.dumps({
            "error": "validation", "message": "the frieze of a 20000-gon is above the limit "
                                              "of MAX_TABLE_VERTICES = 2000 vertices"})]


def test_table_cap_is_read_at_call_time(monkeypatch):
    """At the cap the output is the uncapped one; one vertex above, exit 1.
    The library builds the frieze whatever the cap."""
    docs = {m: json.dumps(fan(m)) for m in (12, 13)}
    uncapped = {(m, argv[0]): run_in_process(argv, docs[m])
                for m in docs for argv in TABLE_COMMANDS}
    monkeypatch.setattr(frieze.triangulation, "MAX_TABLE_VERTICES", 12)
    for argv in TABLE_COMMANDS:
        assert run_in_process(argv, docs[12]) == uncapped[12, argv[0]]
        assert uncapped[12, argv[0]][0] == uncapped[13, argv[0]][0] == 0
        code, out, err = run_in_process(argv, docs[13])
        assert (code, out) == (1, "")
        assert json.loads(err)["message"] == ("the frieze of a 13-gon is above the limit "
                                              "of MAX_TABLE_VERTICES = 12 vertices")
    assert frieze_from_triangulation(Triangulation(13, fan(13)["diagonals"])).m == 13


def test_help_names_the_table_cap(capsys):
    for command in ("from-triangulation", "render"):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0 and "MAX_TABLE_VERTICES = 2000 vertices" in " ".join(out.split())


# -- the vertex cap on an SVG drawing ------------------------------------------

SVG_COMMAND = ["render", "-", "--format", "svg"]


def test_svg_cap_refuses_a_65_vertex_triangulation_and_frieze():
    """Above SVG_MAX_VERTICES both kinds of document exit 1 with one
    validation line, like the table cap; 64 vertices still draw."""
    refusal = [json.dumps({"error": "validation", "message": "the drawing of a 65-gon is "
                           "above the limit of SVG_MAX_VERTICES = 64 vertices"})]
    tri65 = fan(65)
    f65 = frieze_to_json(frieze_from_triangulation(Triangulation(65, tri65["diagonals"])))
    for doc in (tri65, f65):
        for argv in (SVG_COMMAND, [*SVG_COMMAND, "--mark", "1,2,3"]):
            code, out, err = run_in_process(argv, json.dumps(doc))
            assert (code, out, err.splitlines()) == (1, "", refusal), argv
    f64 = frieze_to_json(frieze_from_triangulation(Triangulation(64, fan(64)["diagonals"])))
    for doc in (fan(64), f64):
        code, out, err = run_in_process([*SVG_COMMAND, "--mark", "1,20,40"], json.dumps(doc))
        assert code == 0 and out.startswith("<svg") and out.count("<circle") == 64 and err == ""
        code, out, err = run_in_process([*SVG_COMMAND, "--mark", "1,20,65"], json.dumps(doc))
        assert code == 2 and out == "" and json.loads(err)["error"] == "usage"


def test_svg_cap_is_read_at_call_time(monkeypatch):
    monkeypatch.setattr(frieze.render, "SVG_MAX_VERTICES", 12)
    assert run_in_process(SVG_COMMAND, json.dumps(fan(12)))[0] == 0
    code, out, err = run_in_process(SVG_COMMAND, json.dumps(fan(13)))
    assert (code, out) == (1, "")
    assert json.loads(err)["message"] == ("the drawing of a 13-gon is above the limit "
                                          "of SVG_MAX_VERTICES = 12 vertices")


# -- the golden corpus ---------------------------------------------------------

GOLDEN = json.loads((Path(__file__).parent / "golden" / "manifest.json").read_text())


#: the manifest's argv placeholder for the file a case writes with ``-o``
GOLDEN_OUT = "OUT"


def sha256(data):
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def golden_record(code, out, err, written=None):
    record = {"exit": code, "stdout_sha256": sha256(out), "stderr_sha256": sha256(err)}
    if written is not None:
        record["output_sha256"] = sha256(written)
    return record


def golden_expected(case):
    expected = {key: case[key] for key in
                ("exit", "stdout_sha256", "stderr_sha256", "output_sha256") if key in case}
    if case["argv"][-1] == "--help" and GOLDEN["python"] != "%d.%d" % sys.version_info[:2]:
        del expected["stdout_sha256"]  # argparse lays out help differently across versions
    return expected


def golden_run(case, folder):
    """A case's record from ``main``, with ``OUT`` a fresh file in ``folder``."""
    path = folder / GOLDEN_OUT
    path.unlink(missing_ok=True)
    argv = [str(path) if arg == GOLDEN_OUT else arg for arg in case["argv"]]
    code, out, err = run_in_process(argv, case["stdin"])
    return golden_record(code, out, err, path.read_bytes() if path.exists() else None)


def test_golden_corpus_replays_in_one_process(monkeypatch, tmp_path):
    """Every case of ``golden/manifest.json`` through ``main``, forward and
    then reversed in one process, plus one ``python -m frieze`` subprocess."""
    monkeypatch.setenv("COLUMNS", GOLDEN["columns"])
    cases = GOLDEN["cases"]
    assert sum("output_sha256" in case for case in cases) >= 10
    for case in cases + cases[::-1]:
        record, expected = golden_run(case, tmp_path), golden_expected(case)
        assert {key: record[key] for key in expected} == expected, case["argv"]
        # a file is written only where the manifest records one
        assert record.keys() - expected.keys() <= {"stdout_sha256"}, case["argv"]
    case = next(c for c in cases if c["argv"] == ["from-triangulation", "-"])
    done = run_frieze(case["argv"], input=case["stdin"], stdout=subprocess.PIPE)
    assert golden_record(done.returncode, done.stdout, done.stderr) == golden_expected(case)
