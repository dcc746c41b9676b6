"""The integer validators against the Fraction oracles, report for report.

Each test asserts that ``validate_local``, ``validate_tame`` and
``verify_all_ptolemy`` return the very report of the oracle in
``validator_oracles``: the same rules, positions, details and order.
The checks and writers that share a grid's or map's stored int table are
also run in shuffled orders, each twice, against the same oracles.  Each
builder's map or grid, and each validating constructor's, is checked
against an eager one that the validating constructor builds from an
oracle's ``Fraction``s: equal ints, equal hashes and equal public reads.
"""

import json
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import validator_oracles as oracle
import frieze.propagation
from frieze import (DomainSpec, FriezeMap, PatternGrid, Triangulation, build_pattern,
                    check_glide, cut_subpolygon, enumerate_friezes, frieze_from_json,
                    frieze_from_triangulation, frieze_to_json, grid_from_polygon,
                    ptolemy_holds, render_ascii, scalar_to_str, scale, to_polygon,
                    validate_local, validate_tame, verify_all_ptolemy)
from frieze.core import _cleared, _text
from frieze.triangulation import enumerate_triangulations
from table_checks import assert_canonical, assert_same_table, fraction_rows
from triangulation_oracles import walk_table_frieze

sizes = st.integers(3, 10)
rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
nonzero_rationals = rationals.filter(bool)
signed_ints = st.sampled_from([-3, -2, -1, 1, 2, 3])
#: boundaries whose nonzero-int friezes all carry negative entries, m = 4..6
NEGATIVE_BOUNDARIES = ((-1, -1, -1, -1), (1, -1, 1, -1), (-1, 2, -1, 2),
                       (-1, -1, -1, -1, -1), (1, 1, -1, 1, 1), (-1,) * 6)


@cache
def _triangulations(m):
    return enumerate_triangulations(m)


@cache
def _negative_friezes():
    return [f for b in NEGATIVE_BOUNDARIES
            for f in enumerate_friezes(b, DomainSpec.nonzero_integers())]


@st.composite
def gauged(draw, weights=nonzero_rationals):
    """c(p, q) t_p t_q for the frieze of a random triangulation and weights t."""
    m = draw(sizes)
    f = frieze_from_triangulation(draw(st.sampled_from(_triangulations(m))))
    t = draw(st.lists(weights, min_size=m + 1, max_size=m + 1))
    return FriezeMap(m, {(p, q): v * t[p] * t[q] for (p, q), v in f.pairs()})


@st.composite
def corrupted(draw):
    """A gauged frieze with one or two entries moved by a nonzero rational."""
    f = draw(gauged())
    entries = dict(f.pairs())
    for pair in draw(st.lists(st.sampled_from(sorted(entries)), min_size=1, max_size=2,
                              unique=True)):
        delta = draw(nonzero_rationals)
        entries[pair] = entries[pair] + delta or delta  # an edge must stay nonzero
    return FriezeMap(f.m, entries)


@st.composite
def corrupted_at_pivots(draw):
    """A gauged frieze with one to four entries moved, at least one on vertex 1 or 2."""
    f = draw(gauged())
    entries = dict(f.pairs())
    near = [pair for pair in sorted(entries) if pair[0] <= 2]
    pairs = {draw(st.sampled_from(near)),
             *draw(st.lists(st.sampled_from(sorted(entries)), max_size=3))}
    for pair in pairs:
        delta = draw(nonzero_rationals)
        entries[pair] = entries[pair] + delta or delta
    return FriezeMap(f.m, entries)


@st.composite
def symmetric_tables(draw):
    """Arbitrary rational labels on an m-gon, m = 3..8, with nonzero edges."""
    m = draw(st.integers(3, 8))
    return FriezeMap(m, {(p, q): draw(nonzero_rationals if q - p in (1, m - 1) else rationals)
                         for p in range(1, m) for q in range(p + 1, m + 1)})


@st.composite
def built(draw):
    """The pattern of a random rational boundary and quiddity; mostly invalid."""
    m = draw(sizes)
    boundary = draw(st.lists(nonzero_rationals, min_size=m, max_size=m))
    return build_pattern(boundary, draw(st.lists(rationals, min_size=m, max_size=m)))


negative_friezes = st.one_of(
    st.deferred(lambda: st.sampled_from(_negative_friezes())),
    gauged(signed_ints).filter(lambda f: any(v < 0 for _, v in f.pairs())))


def assert_grid_reports_match(grid):
    assert validate_local(grid) == oracle.validate_local(grid)
    assert validate_tame(grid) == oracle.validate_tame(grid)


def assert_reports_match(f):
    assert_grid_reports_match(grid_from_polygon(f))
    assert verify_all_ptolemy(f) == oracle.verify_all_ptolemy(f)
    assert ([quad for quad in combinations(range(1, f.m + 1), 4) if not ptolemy_holds(f, *quad)]
            == [v.at for v in oracle.verify_all_ptolemy(f).violations])


@settings(max_examples=100, deadline=None)
@given(gauged())
def test_gauged_friezes_match_oracles(f):
    assert_reports_match(f)
    assert verify_all_ptolemy(f).ok


@settings(max_examples=100, deadline=None)
@given(corrupted())
def test_corrupted_friezes_match_oracles(f):
    assert_reports_match(f)


@settings(max_examples=100, deadline=None)
@given(corrupted_at_pivots() | symmetric_tables())
def test_ptolemy_matches_the_full_scan(f):
    assert verify_all_ptolemy(f) == oracle.verify_all_ptolemy(f)


@settings(max_examples=100, deadline=None)
@given(built())
def test_built_patterns_match_oracles(grid):
    assert_grid_reports_match(grid)
    m = grid.m
    entries = {(p, q): grid.entry(p, q) for p in range(1, m) for q in range(p + 1, m + 1)}
    if entries[(1, m)] != 0:  # read as a polygon map, whatever the glide says
        f = FriezeMap(m, entries)
        assert verify_all_ptolemy(f) == oracle.verify_all_ptolemy(f)


@settings(max_examples=100, deadline=None)
@given(negative_friezes)
def test_negative_integer_friezes_match_oracles(f):
    assert any(v < 0 for _, v in f.pairs())
    assert_reports_match(f)
    assert validate_local(grid_from_polygon(f)).ok


integer_friezes = sizes.flatmap(
    lambda m: st.sampled_from(_triangulations(m))).map(frieze_from_triangulation)
maps = integer_friezes | gauged() | corrupted() | symmetric_tables()


@st.composite
def grids(draw):
    """A grid unfolded from a map, built by propagation, or given as rows."""
    source = draw(st.sampled_from(["unfold", "build", "rows"]))
    if source == "build":
        return draw(built())
    grid = grid_from_polygon(draw(maps))
    return grid if source == "unfold" else PatternGrid(grid.rows)


GRID_CHECKS = {"local": (validate_local, oracle.validate_local),
               "tame": (validate_tame, oracle.validate_tame),
               "glide": (check_glide, oracle.check_glide)}


@settings(max_examples=150, deadline=None)
@given(grids(), st.permutations(sorted(GRID_CHECKS)))
def test_grid_checks_in_any_order_match_oracles(grid, order):
    """Whichever check clears the grid first, each answers as its oracle, twice."""
    expected = {name: check(grid) for name, (_, check) in GRID_CHECKS.items()}
    for name in [*order, *reversed(order)]:
        assert GRID_CHECKS[name][0](grid) == expected[name]


MAP_STEPS = {
    "ptolemy": (verify_all_ptolemy, oracle.verify_all_ptolemy),
    "json": (lambda f: json.dumps(frieze_to_json(f)),
             lambda f: json.dumps(oracle.frieze_to_json(f))),
    "ascii": (render_ascii, oracle.render_ascii),
    "unfold": (lambda f: [check(grid_from_polygon(f)) for check, _ in GRID_CHECKS.values()],
               lambda f: [check(PatternGrid(oracle.unfolded_rows(f)))
                          for _, check in GRID_CHECKS.values()]),
}


@settings(max_examples=150, deadline=None)
@given(maps | negative_friezes, st.permutations(sorted(MAP_STEPS)))
def test_map_readers_in_any_order_match_oracles(f, order):
    """Ptolemy, the writers and the unfolded grid's checks share the map's int table."""
    expected = {name: check(f) for name, (_, check) in MAP_STEPS.items()}
    for name in [*order, *reversed(order)]:
        assert MAP_STEPS[name][0](f) == expected[name]


@st.composite
def scalar_documents(draw):
    """Frieze JSON with negative, non-reduced and large rationals, some repeated."""
    m = draw(st.integers(3, 7))
    small = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
    large = st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**25))
    value = (small | large).filter(bool)
    palette = draw(st.lists(value, min_size=1, max_size=4))
    entries = {}
    for p in range(1, m):
        for q in range(p + 1, m + 1):
            x = draw(value | st.sampled_from(palette))
            k = draw(st.sampled_from([1, 1, 2, 6, 10**12]))  # k > 1 leaves it unreduced
            n, e = x.numerator * k, x.denominator * k
            entries[f"{p},{q}"] = str(n) if e == 1 else f"{n}/{e}"
    return {"m": m, "entries": entries}


@settings(max_examples=150, deadline=None)
@given(scalar_documents())
def test_writers_match_the_scalar_to_str_path(doc):
    f = frieze_from_json(doc)
    assert json.dumps(frieze_to_json(f)) == json.dumps(oracle.frieze_to_json(f))
    assert render_ascii(f) == oracle.render_ascii(f)
    assert frieze_from_json(frieze_to_json(f)) == f


@given(st.integers(), st.integers(min_value=1))
def test_violation_text_matches_scalar_to_str(x, den):
    assert _text(x, den) == scalar_to_str(Fraction(x, den))


# -- the two forms of a table: made on first read --------------------------------


@st.composite
def triangulations(draw):
    """A triangulation of the m-gon, m = 3..40, by clipping random ears."""
    m = draw(st.integers(3, 40))
    ring, diagonals = list(range(1, m + 1)), []
    while len(ring) > 3:
        i = draw(st.integers(0, len(ring) - 1))
        diagonals.append((ring[i - 1], ring[(i + 1) % len(ring)]))
        del ring[i]
    return Triangulation(m, diagonals)


@settings(max_examples=60, deadline=None)
@given(triangulations())
def test_classic_friezes_make_their_table_on_read(t):
    assert_same_table(frieze_from_triangulation(t), walk_table_frieze(t))


@settings(max_examples=100, deadline=None)
@given(maps | negative_friezes)
def test_unfolded_grids_make_their_table_on_read(f):
    assert_same_table(grid_from_polygon(f), PatternGrid(oracle.unfolded_rows(f)))


@settings(max_examples=100, deadline=None)
@given(gauged() | integer_friezes)
def test_built_and_folded_tables_match_the_fraction_walk(f):
    """A built grid, whether its walked rows are whole or leave a remainder,
    holds the cleared rows of the ``Fraction`` walk, and so does its fold."""
    d, q = f.boundary_sequence, f.quiddity_cycle
    assert_same_table(build_pattern(d, q), PatternGrid(fraction_rows(d, q)))
    assert_same_table(to_polygon(build_pattern(d, q)), FriezeMap(f.m, dict(f.pairs())))


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 9).flatmap(lambda m: st.tuples(
    st.lists(st.sampled_from([-1, 1]), min_size=m, max_size=m),
    st.lists(st.integers(-4, 4), min_size=m, max_size=m))))
def test_unit_boundary_grids_make_their_table_on_read(problem):
    boundary, quiddity = problem
    assert_same_table(build_pattern(boundary, quiddity),
                      PatternGrid(fraction_rows(boundary, quiddity)))


@settings(max_examples=100, deadline=None)
@given(scalar_documents())
def test_loaded_maps_make_their_table_on_read(doc):
    eager = FriezeMap(doc["m"], {tuple(map(int, key.split(","))): Fraction(text)
                                 for key, text in doc["entries"].items()})
    assert_same_table(frieze_from_json(doc), eager)


@settings(max_examples=100, deadline=None)
@given(maps | negative_friezes, st.data())
def test_cut_maps_make_their_table_on_read(f, data):
    """A cut slices the cleared table into the ints the constructor makes of its entries."""
    verts = sorted(data.draw(st.sets(st.integers(1, f.m), min_size=3)))
    entries = {(a, b): f.value(verts[a - 1], verts[b - 1])
               for a in range(1, len(verts)) for b in range(a + 1, len(verts) + 1)}
    try:
        eager = FriezeMap(len(verts), entries)
    except ValueError as exc:  # a zero diagonal of f became an edge
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            cut_subpolygon(f, verts)
        return
    assert_same_table(cut_subpolygon(f, verts), eager)


@settings(max_examples=100, deadline=None)
@given(gauged() | corrupted() | symmetric_tables())
def test_validating_constructors_clear_their_input_once(f):
    """A validating constructor holds ``_cleared`` of its input table, and
    ``_of`` handed those ints alone makes an equal object."""
    m, entries = f.m, dict(f.pairs())
    vertex_table = [[entries.get((min(p, q), max(p, q)), 0) for q in range(m + 1)]
                    for p in range(m + 1)]
    rows = oracle.unfolded_rows(f)
    for obj, table in ((FriezeMap(m, entries), vertex_table), (PatternGrid(rows), rows)):
        assert obj._ints == _cleared(table)
        assert_same_table(type(obj)._of(m, obj._ints), obj)


#: the 8-gon fan's classic frieze gauged by weights with denominators 2, 3, 4 and 9:
#: L = 36, and its cut at 3, 5, 6 has L = 4
FAN8 = Triangulation(8, [(1, q) for q in range(3, 8)])
WEIGHTS8 = [None, *map(Fraction, ("1", "5/3", "1/2", "2", "3/4", "1", "6", "2/9"))]
#: the cycles of a gauged 6-gon fan, whose walked rows leave a remainder
W6_CYCLES = ([Fraction(x) for x in ("7/6", "3/2", "2", "5/6", "5/4", "7/3")],
             [Fraction(x) for x in ("28", "1/3", "15/2", "4/3", "35/6", "1/2")])


def _gauged_fan8():
    return FriezeMap(8, {(p, q): v * WEIGHTS8[p] * WEIGHTS8[q]
                         for (p, q), v in frieze_from_triangulation(FAN8).pairs()})


def test_every_builder_hands_over_canonical_ints_on_fixed_cases(monkeypatch):
    """Each builder's result holds the ints, hash and reads that the validating
    constructor makes of its public reads, on cases where a builder must bring
    L down (a cut and rescales that share a factor with L) and on both
    branches of ``build_pattern``."""
    f = _gauged_fan8()
    assert f._ints[0] == 36
    cut = cut_subpolygon(f, [3, 5, 6])
    assert cut._ints[0] == 4
    rescaled = scale(f, 6)
    assert rescaled._ints[0] == 6
    calls = []  # build_pattern clears its walked rows again only when they left a remainder
    monkeypatch.setattr(frieze.propagation, "_cleared",
                        lambda rows: calls.append(1) or _cleared(rows))
    whole = build_pattern(f.boundary_sequence, f.quiddity_cycle)
    assert not calls
    remainder = build_pattern(*W6_CYCLES)
    assert calls
    for obj in (f, cut, rescaled, scale(rescaled, Fraction(1, 6)), scale(f, Fraction(-9, 10)),
                whole, remainder, to_polygon(whole), to_polygon(remainder),
                grid_from_polygon(cut), frieze_from_json(frieze_to_json(cut)),
                frieze_from_triangulation(FAN8)):
        assert_canonical(obj)


@settings(max_examples=100, deadline=None)
@given(maps | negative_friezes, nonzero_rationals, st.data())
def test_every_builder_hands_over_canonical_ints(f, z, data):
    verts = sorted(data.draw(st.sets(st.integers(1, f.m), min_size=3)))
    d, q = f.boundary_sequence, f.quiddity_cycle
    results = [grid_from_polygon(f), build_pattern(d, q), frieze_from_json(frieze_to_json(f)),
               scale(f, z), scale(scale(f, z), 1 / z)]
    if check_glide(results[1]):
        results.append(to_polygon(results[1]))
    try:
        results.append(cut_subpolygon(f, verts))
    except ValueError:  # a zero diagonal of f became an edge
        pass
    for obj in results:
        assert_canonical(obj)


def test_threads_read_one_fresh_map_at_once():
    """Eight threads read ``pairs()`` of one map that holds its ints alone and
    all get a lone reader's answer."""
    m = 24
    fan = Triangulation(m, [(1, k) for k in range(3, m)])
    doc = frieze_to_json(FriezeMap(m, {(p, q): Fraction(v, 1 + p % 3) * (1 + q % 3)
                                      for (p, q), v in frieze_from_triangulation(fan).pairs()}))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            makers = [lambda: frieze_from_triangulation(fan), lambda: frieze_from_json(doc)]
            for fresh in makers * 10:
                expected = list(fresh().pairs())
                f, barrier = fresh(), threading.Barrier(8, timeout=30)

                def read():
                    barrier.wait()
                    return list(f.pairs())

                futures = [pool.submit(read) for _ in range(8)]
                assert [future.result(timeout=60) for future in futures] == [expected] * 8
    finally:
        sys.setswitchinterval(switch)
