import copy
import json
import os
import pickle
import random
import resource
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frieze
import validator_oracles as oracle
from table_checks import public_reads
from frieze import (ZERO_ENTRY, FriezeMap, PatternGrid, Triangulation, build_pattern,
                    check_glide, frieze_from_json, frieze_from_triangulation,
                    frieze_to_json, grid_from_polygon, normalize_index, render_ascii,
                    scalar_from_str, scale, to_polygon, validate_local, validate_tame,
                    verify_all_ptolemy)

nonzero = st.integers(min_value=-9, max_value=9).filter(lambda x: x != 0)


def bump_entry(grid, i, j):
    """A copy of ``grid`` with the stored entry c(i, j) raised by 1."""
    rows = [list(row) for row in grid.rows]
    rows[i % grid.m][j - i] += 1
    return PatternGrid(rows)


def _orbit_representative(m, i, j):
    """Brute-force oracle: close (i, j) under glide and period translation,
    then pick the unique orbit member inside the polygon fundamental domain."""
    seen = set()
    frontier = [(i, j)]
    while frontier:
        a, b = frontier.pop()
        if (a, b) in seen or abs(a) > 6 * m:
            continue
        seen.add((a, b))
        frontier.append((b, a + m))       # glide: c(i, j) = c(j, i + m)
        frontier.append((a + m, b + m))   # translation by one period
        frontier.append((a - m, b - m))
    inside = {(a, b) for a, b in seen if 1 <= a < b <= m}
    assert len(inside) == 1
    return next(iter(inside))


def test_normalize_index_examples():
    assert normalize_index(6, 1, 3) == (1, 3)
    assert normalize_index(6, 2, 7) == (1, 2)
    assert normalize_index(6, 4, 4) is ZERO_ENTRY
    assert normalize_index(6, 4, 10) is ZERO_ENTRY
    assert normalize_index(4, 0, 1) == (1, 4)
    assert normalize_index(4, -3, -1) == (1, 3)


def test_normalize_index_errors():
    with pytest.raises(ValueError):
        normalize_index(6, 3, 2)
    with pytest.raises(ValueError):
        normalize_index(6, 1, 8)
    with pytest.raises(ValueError):
        normalize_index(2, 0, 1)


@pytest.mark.parametrize("m", [3, 5, 6, 7])
def test_normalize_index_matches_orbit_oracle(m):
    for i in range(-m, 2 * m):
        for j in range(i, i + m + 1):
            got = normalize_index(m, i, j)
            if (j - i) % m == 0:
                assert got is ZERO_ENTRY
                assert j - i in (0, m)
            else:
                assert got == _orbit_representative(m, i, j)


def test_validate_local_square_3753():
    good = build_pattern([3, 7, 5, 3], [4, 9, 4, 9])
    assert validate_local(good).ok
    bad = build_pattern([3, 7, 5, 3], [4, 8, 4, 8])
    report = validate_local(bad)
    assert not report.ok
    assert all(v.rule == "local" for v in report.violations)


@given(nonzero, nonzero, nonzero)
def test_height_zero_patterns_are_valid(a, b, c):
    grid = build_pattern([a, b, c], [c, a, b])
    assert validate_local(grid).ok
    assert validate_tame(grid).ok
    assert check_glide(grid)


def test_tame_on_triangulation_friezes(hexagon_frieze):
    grid = grid_from_polygon(hexagon_frieze)
    assert validate_local(grid).ok
    assert validate_tame(grid).ok


def test_perturbed_interior_entry_is_reported(hexagon_frieze):
    grid = grid_from_polygon(hexagon_frieze)
    mutated = bump_entry(grid, 1, 4)
    report = validate_local(mutated).merged(validate_tame(mutated))
    assert not report.ok


def test_check_glide(hexagon_frieze):
    assert check_glide(build_pattern([3, 7, 5, 3], [4, 9, 4, 9]))
    assert check_glide(build_pattern([2, 5, 7], [7, 2, 5]))
    grid = grid_from_polygon(hexagon_frieze)
    broken = bump_entry(grid, 1, 4)
    assert not check_glide(broken)


@st.composite
def glide_candidates(draw):
    """An unfolded polygon map (glide-symmetric), then maybe one entry bumped."""
    m = draw(st.integers(3, 8))
    f = FriezeMap(m, {(p, q): draw(nonzero) for p in range(1, m) for q in range(p + 1, m + 1)})
    grid = grid_from_polygon(f)
    offset = draw(st.integers(0, m + 1))
    if 1 < offset < m - 1:
        i = draw(st.integers(0, m - 1))
        grid = bump_entry(grid, i, i + offset)
    return grid


@settings(deadline=None)
@given(glide_candidates() | st.integers(3, 8).flatmap(lambda m: st.builds(
    build_pattern, st.lists(nonzero, min_size=m, max_size=m),
    st.lists(st.integers(-9, 9), min_size=m, max_size=m))))
def test_check_glide_matches_the_entry_oracle(grid):
    assert check_glide(grid) == oracle.check_glide(grid)


def test_boundary_glide_identity():
    for boundary, quiddity in [
        ([3, 7, 5, 3], [4, 9, 4, 9]),
        ([1, 1, 1, 1, 1], [1, 2, 2, 1, 3]),
    ]:
        grid = build_pattern(boundary, quiddity)
        for i in range(grid.m):
            assert grid.entry(i, i + 1) == grid.entry(i + 1, i + grid.m)


def test_extended_entries():
    grid = build_pattern([3, 7, 5, 3], [4, 9, 4, 9])
    for i in range(4):
        assert grid.entry(i, i - 1) == -grid.entry(i - 1, i)
        assert grid.entry(i, i + 5) == -grid.entry(i, i + 1)
    with pytest.raises(ValueError):
        grid.entry(0, 6)


def test_to_polygon_hexagon(hexagon_fan, hexagon_frieze):
    grid = grid_from_polygon(hexagon_frieze)
    assert to_polygon(grid) == hexagon_frieze
    expected_diagonals = {
        (1, 3): 4, (1, 4): 3, (1, 5): 2,
        (2, 4): 1, (2, 5): 1, (2, 6): 1,
        (3, 5): 2, (3, 6): 3, (4, 6): 2,
    }
    values = dict(hexagon_frieze.pairs())
    for pair, expected in expected_diagonals.items():
        assert values[pair] == expected
    assert all(v == 1 for v in hexagon_frieze.edge_values)


def test_to_polygon_triangle_and_square():
    triangle = to_polygon(build_pattern([2, 3, 5], [5, 2, 3]))
    assert dict(triangle.pairs()) == {(1, 2): 3, (2, 3): 5, (1, 3): 2}
    square = to_polygon(build_pattern([3, 7, 5, 3], [4, 9, 4, 9]))
    diagonals = dict(square.diagonal_items())
    assert sorted(diagonals.values()) == [4, 9]


def test_to_polygon_requires_glide(hexagon_frieze):
    grid = grid_from_polygon(hexagon_frieze)
    broken = bump_entry(grid, 1, 4)
    with pytest.raises(ValueError):
        to_polygon(broken)


def test_roundtrip_boundary_quiddity(hexagon_frieze):
    for f in [hexagon_frieze, to_polygon(build_pattern([3, 7, 5, 3], [4, 9, 4, 9]))]:
        rebuilt = to_polygon(build_pattern(f.boundary_sequence, f.quiddity_cycle))
        assert rebuilt == f


def test_scale_examples(hexagon_frieze):
    f = hexagon_frieze
    assert scale(f, 1) == f
    assert scale(scale(f, 2), Fraction(1, 2)) == f
    half = scale(f, Fraction(1, 2))
    assert half.value(1, 3) == 2
    with pytest.raises(ValueError):
        scale(f, 0)


def test_scaling_preserves_validator_verdicts(hexagon_frieze):
    mutated_entries = dict(hexagon_frieze.pairs())
    mutated_entries[(1, 4)] += 1
    bad = FriezeMap(6, mutated_entries)
    for f, expected in [(hexagon_frieze, True), (bad, False)]:
        for z in (2, Fraction(1, 2), -3):
            grid = grid_from_polygon(scale(f, z))
            assert validate_local(grid).ok is expected
            assert validate_tame(grid).ok is expected
            assert check_glide(grid)


def test_frieze_map_validation():
    entries = {(1, 2): 1, (1, 3): 1, (2, 3): 1}
    FriezeMap(3, entries)
    with pytest.raises(ValueError):
        FriezeMap(3, {(1, 2): 1, (1, 3): 1})  # missing a pair
    with pytest.raises(ValueError):
        FriezeMap(3, {(1, 2): 0, (1, 3): 1, (2, 3): 1})  # zero edge
    with pytest.raises(ValueError):
        FriezeMap(3, {**entries, (1, 4): 1})  # vertex out of range


@st.composite
def shuffled_maps(draw):
    """(m, entries) with nonzero int and rational values in a random insertion order."""
    m = draw(st.integers(3, 7))
    pairs = draw(st.permutations([(p, q) for p in range(1, m + 1) for q in range(p + 1, m + 1)]))
    values = st.one_of(nonzero, st.fractions(-5, 5, max_denominator=4).filter(bool))
    return m, {pair: draw(values) for pair in pairs}


@given(shuffled_maps(), st.permutations(["==", "hash", "sort_key", "pairs"]), st.data())
def test_lazy_sort_key_matches_the_eager_key(problem, order, data):
    """Whichever method asks first, the map answers as if keyed at construction."""
    m, entries = problem
    key = (m, tuple(sorted((pair, Fraction(v)) for pair, v in entries.items())))
    f = FriezeMap(m, entries)
    twin = FriezeMap(m, dict(reversed(entries.items())))
    pair = data.draw(st.sampled_from(sorted(entries)))
    bumped = FriezeMap(m, {**entries, pair: entries[pair] * 2})
    for method in order:
        if method == "==":
            assert f == twin and twin == f
            assert f != bumped and bumped != f
        elif method == "hash":
            assert hash(f) == hash(twin) == hash(key)
        elif method == "sort_key":
            assert f.sort_key() == twin.sort_key() == key
        else:
            assert tuple(f.pairs()) == tuple(f.pairs()) == key[1]
            assert all(type(v) is Fraction for _, v in f.pairs())
    assert bumped.sort_key() != key


def test_json_roundtrip(hexagon_frieze):
    doc = json.loads(json.dumps(frieze_to_json(hexagon_frieze)))
    assert frieze_from_json(doc) == hexagon_frieze


def test_json_loader_rejections(hexagon_frieze):
    doc = frieze_to_json(hexagon_frieze)
    broken = json.loads(json.dumps(doc))
    del broken["entries"]["1,3"]
    with pytest.raises(ValueError):
        frieze_from_json(broken)
    broken = json.loads(json.dumps(doc))
    broken["entries"]["1,2"] = "0"
    with pytest.raises(ValueError):
        frieze_from_json(broken)
    broken = json.loads(json.dumps(doc))
    broken["entries"]["1,3"] = "4/0"
    with pytest.raises(ValueError):
        frieze_from_json(broken)
    broken = json.loads(json.dumps(doc))
    broken["entries"]["1,3"] = 4
    with pytest.raises(ValueError):
        frieze_from_json(broken)
    with pytest.raises(ValueError):
        frieze_from_json({"m": 6})


@given(shuffled_maps())
def test_table_matches_the_per_entry_unfold(problem):
    """The vertex table reads back as the pair dict it was built from."""
    m, entries = problem
    f = FriezeMap(m, entries)
    assert grid_from_polygon(f).rows == oracle.unfolded_rows(f)
    assert tuple(f.pairs()) == tuple(sorted((pair, Fraction(v)) for pair, v in entries.items()))
    for p in range(1, m + 1):
        assert f.value(p, p) == 0
        for q in range(1, m + 1):
            assert f.value(p, q) == f.value(q, p)
            assert type(f.value(p, q)) is Fraction
    assert all(type(v) is Fraction for _, v in f.pairs())


def test_constructor_errors_come_before_the_table():
    """A bad pair or value is reported before a wrong count, and the count
    before anything of size m**2 is built; a zero edge only then."""
    # in a child capped at 1 GiB of address space, so a table built first fails alone
    done = subprocess.run([sys.executable, "-c", "import frieze; frieze.FriezeMap(10**9, {})"],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(Path(frieze.__file__).parents[1])),
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30,) * 2))
    assert done.stderr.splitlines()[-1] == (
        "ValueError: need all 499999999500000000 vertex pairs, got 0")
    square = {(1, 2): 7, (1, 3): 9, (1, 4): 3, (2, 3): 5, (2, 4): 4, (3, 4): 3}
    for entries in ({**square, (0, 1): 1}, {(0, 1): 1}, {(0, 1): 1, **square, (1, 2): 0},
                    {(1, 2): 7, (0, 1): 1, (1, 3): 9, (1, 4): 0, (2, 3): 5, (2, 4): 4}):
        with pytest.raises(ValueError, match=r"^bad vertex pair \(0, 1\) for m=4$"):
            FriezeMap(4, entries)
    with pytest.raises(ValueError, match="malformed rational"):
        FriezeMap(4, {(1, 2): "x", (1, 3): 9})
    with pytest.raises(ValueError, match=r"^boundary entry at edge \(4, 1\) is zero$"):
        FriezeMap(4, {**square, (1, 4): 0})
    doc = {"m": 4, "entries": {f"{p},{q}": str(v) for (p, q), v in square.items()}}
    for key, text, message in (("0,1", "1", r"^bad vertex pair \(0, 1\) for m=4$"),
                               ("1,4", "0", r"^boundary entry at edge \(4, 1\) is zero$")):
        with pytest.raises(ValueError, match=message):
            frieze_from_json({**doc, "entries": {**doc["entries"], key: text}})


def test_json_loader_wants_an_int_m():
    for m in (True, 4.0, "4"):
        with pytest.raises(ValueError, match=r"^'m' must be an integer$"):
            frieze_from_json({"m": m, "entries": {}})


def test_pattern_grid_is_immutable(hexagon_frieze):
    for grid in (grid_from_polygon(hexagon_frieze), PatternGrid([[0, 1, 1, 0]] * 3),
                 build_pattern([3, 7, 5, 3], [4, 9, 4, 9])):
        validate_local(grid)  # fills any missing int table past the guard
        for name in ("_table", "_ints", "rows", "extra"):
            with pytest.raises(AttributeError):
                setattr(grid, name, None)
        assert validate_local(grid).ok and check_glide(grid)
        for twin in (copy.copy(grid), copy.deepcopy(grid), pickle.loads(pickle.dumps(grid))):
            assert twin == grid and twin.rows == grid.rows and validate_local(twin).ok


def test_maps_and_matrices_copy_and_pickle():
    # to_polygon builds its map through the trusted FriezeMap._of; a copy is
    # rebuilt through the validating constructor
    negative = frieze.parse_domain("scaled-nat:-1/2")  # folded with a rescale by -2
    maps = (to_polygon(build_pattern([3, 7, 5, 3], [4, 9, 4, 9])),
            frieze.enumerate_friezes([Fraction(-1, 2)] * 5, negative)[0])
    triangulations = (Triangulation(5, [(1, 3), (1, 4)]), frieze.accordion(21, 13)[0])
    for obj in (*maps, frieze.mu(1, 1, 1), *triangulations):
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert twin == obj and twin is not obj
            with pytest.raises(AttributeError):
                twin.extra = None
    for t in triangulations:
        twin = pickle.loads(pickle.dumps(t))
        assert twin.sort_key() == t.sort_key()
        assert frieze_from_triangulation(twin) == frieze_from_triangulation(t)
    for f in maps:
        twin = pickle.loads(pickle.dumps(f))
        assert frieze_to_json(twin) == frieze_to_json(f) and verify_all_ptolemy(twin).ok


def _shared_map_answers(f):
    return verify_all_ptolemy(f), json.dumps(frieze_to_json(f)), render_ascii(f)


def test_one_map_shared_by_threads():
    """Four threads read fresh maps at once and get a lone reader's answers."""
    rng = random.Random(12)
    m = 20
    fan = frieze_from_triangulation(Triangulation(m, [(1, k) for k in range(3, m)]))
    weights = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(m + 1)]
    entries = {(p, q): v * weights[p] * weights[q] for (p, q), v in fan.pairs()}
    broken = {**entries, (3, 9): entries[(3, 9)] + 1}
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for values in [entries, broken] * 10:
                expected = _shared_map_answers(FriezeMap(m, values))
                f, barrier = FriezeMap(m, values), threading.Barrier(4, timeout=30)

                def read():
                    barrier.wait()
                    return _shared_map_answers(f)

                futures = [pool.submit(read) for _ in range(4)]
                assert [future.result(timeout=60) for future in futures] == [expected] * 4
    finally:
        sys.setswitchinterval(switch)


def json_loader_oracle(obj):
    """The loader that parsed every key into a pair dict and handed it to ``FriezeMap(m, entries)``."""
    if not isinstance(obj, dict) or "m" not in obj or "entries" not in obj:
        raise ValueError("frieze JSON needs 'm' and 'entries'")
    m = obj["m"]
    if type(m) is not int:
        raise ValueError("'m' must be an integer")
    raw = obj["entries"]
    if not isinstance(raw, dict):
        raise ValueError("'entries' must be an object")
    entries = {}
    for key, text in raw.items():
        parts = key.split(",")
        if len(parts) != 2:
            raise ValueError(f"bad pair key {key!r}")
        try:
            p, q = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"bad pair key {key!r}") from None
        if (p, q) in entries:
            raise ValueError(f"pair ({p}, {q}) given twice, the second time as {key!r}")
        if not isinstance(text, str):
            raise ValueError(f"entry for {key!r} must be a string scalar")
        entries[(p, q)] = scalar_from_str(text)
    return FriezeMap(m, entries)


#: One fault each, as (name, edit of an (m, entries) document); an edit puts
#: its key first or last, so two faults meet in both orders.
LOADER_FAULTS = [
    ("bad key", lambda m, e: {"1": "1"}),
    ("bad key parts", lambda m, e: {"1,2,3": "1"}),
    ("bad key text", lambda m, e: {"a,b": "1"}),
    ("repeated pair", lambda m, e: {"01,3": "9"}),
    ("repeated spaced pair", lambda m, e: {" 1,3": "9"}),
    ("non-string value", lambda m, e: {"1,3": 9}),
    ("null value", lambda m, e: {"1,3": None}),
    ("list value", lambda m, e: {"1,3": ["9"]}),
    ("malformed scalar", lambda m, e: {"1,3": "4/0"}),
    ("empty scalar", lambda m, e: {"1,3": ""}),
    ("pair below range", lambda m, e: {"0,1": "1"}),
    ("repeated pair below range", lambda m, e: {"0,1": "1", "0,01": "1"}),
    ("reversed pair", lambda m, e: {"3,1": "1"}),
    ("diagonal pair", lambda m, e: {"2,2": "1"}),
    ("pair above range", lambda m, e: {f"1,{m + 1}": "1"}),
    ("zero boundary", lambda m, e: {"1,2": "0"}),
    ("zero closing edge", lambda m, e: {f"1,{m}": "0/3"}),
]


def _loader_outcome(load, doc):
    try:
        f = load(doc)
    except ValueError as exc:
        return "error", str(exc)
    reads = public_reads(f)
    return f.m, f._ints, reads, [type(v) for _, v in reads[1]]


def _loader_corpus():
    square = {"1,2": "7", "1,3": "9", "1,4": "3", "2,3": "5", "2,4": "4", "3,4": "3"}
    hexagon = frieze_to_json(frieze_from_triangulation(Triangulation(6, [(2, 4), (2, 5), (2, 6)])))
    docs = [{"m": 4, "entries": square}, hexagon, {"m": 4, "entries": {**square, "1,2": "7/2"}}]
    for m, base in ((4, square), (6, hexagon["entries"])):
        short = dict(list(base.items())[1:])  # "1,2" missing: the count is one short
        for start in (base, short):
            for name, edit in LOADER_FAULTS:
                change = edit(m, start)
                docs.append({"m": m, "entries": {**start, **change}})
                docs.append({"m": m, "entries": {**change, **start}})
                for _, other in LOADER_FAULTS:
                    docs.append({"m": m, "entries": {**change, **start, **other(m, start)}})
        for small_m in (2, 0, -1):
            docs.append({"m": small_m, "entries": base})
            docs.append({"m": small_m, "entries": {**base, "1,3": "x"}})
        docs.append({"m": m, "entries": {}})
    return docs


def test_json_loader_matches_the_pair_dict_oracle():
    """Valid and broken documents, up to two faults each, load to the same
    ints and public reads or fail with the same first message as the
    ``FriezeMap(m, entries)`` path."""
    docs = _loader_corpus()
    assert len(docs) > 500
    outcomes = [_loader_outcome(frieze_from_json, doc) for doc in docs]
    assert outcomes == [_loader_outcome(json_loader_oracle, doc) for doc in docs]
    messages = {outcome[1].split(" ")[0] for outcome in outcomes if outcome[0] == "error"}
    assert messages == {"bad", "pair", "entry", "malformed", "polygon", "need", "boundary"}
    assert sum(outcome[0] != "error" for outcome in outcomes) >= 3
