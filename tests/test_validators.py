"""The integer validators against the Fraction oracles, report for report.

Each test asserts that ``validate_local``, ``validate_tame`` and
``verify_all_ptolemy`` return the very report of the oracle in
``validator_oracles``: the same rules, positions, details and order.
The checks and writers that share a grid's or map's stored int table are
also run in shuffled orders, each twice, against the same oracles.  Each
builder that hands over an int table alone, and each validating
constructor, is checked against a ``Fraction`` table made at once.
"""

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

import validator_oracles as oracle
from frieze import (DomainSpec, FriezeMap, PatternGrid, Triangulation, build_pattern,
                    check_glide, enumerate_friezes, frieze_from_json,
                    frieze_from_triangulation, frieze_to_json, grid_from_polygon,
                    render_ascii, scalar_to_str, to_polygon, validate_local, validate_tame,
                    verify_all_ptolemy)
from frieze.core import _text
from frieze.triangulation import enumerate_triangulations
from table_checks import (assert_ints_made_on_read, assert_table_made_on_read,
                          assert_tables, fraction_rows, slot_is_set)
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
    assert_table_made_on_read(frieze_from_triangulation(t), walk_table_frieze(t)._table)


@settings(max_examples=100, deadline=None)
@given(maps | negative_friezes)
def test_unfolded_grids_make_their_table_on_read(f):
    assert_table_made_on_read(grid_from_polygon(f), oracle.unfolded_rows(f))


@settings(max_examples=100, deadline=None)
@given(gauged() | integer_friezes)
def test_built_and_folded_tables_match_the_fraction_walk(f):
    """A built grid holds its int rows alone, or on a row with a remainder its
    ``Fraction`` rows alone; either way the fold back is handed ints."""
    d, q = f.boundary_sequence, f.quiddity_cycle
    grid = build_pattern(d, q)
    if slot_is_set(grid, "_table"):
        assert not slot_is_set(grid, "_ints")
        assert any(x.denominator > 1 for row in grid._table for x in row)
        assert_tables(grid, fraction_rows(d, q))
    else:
        assert_table_made_on_read(grid, fraction_rows(d, q))
    assert_table_made_on_read(to_polygon(build_pattern(d, q)), f._table)


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 9).flatmap(lambda m: st.tuples(
    st.lists(st.sampled_from([-1, 1]), min_size=m, max_size=m),
    st.lists(st.integers(-4, 4), min_size=m, max_size=m))))
def test_unit_boundary_grids_make_their_table_on_read(problem):
    boundary, quiddity = problem
    assert_table_made_on_read(build_pattern(boundary, quiddity), fraction_rows(boundary, quiddity))


@settings(max_examples=100, deadline=None)
@given(scalar_documents())
def test_loaded_maps_make_their_table_on_read(doc):
    eager = FriezeMap(doc["m"], {tuple(map(int, key.split(","))): Fraction(text)
                                 for key, text in doc["entries"].items()})
    assert_table_made_on_read(frieze_from_json(doc), eager._table)


@settings(max_examples=100, deadline=None)
@given(gauged() | corrupted() | symmetric_tables())
def test_validating_constructors_clear_on_read(f):
    assert_ints_made_on_read(f, lambda ints: FriezeMap._of(f.m, _ints=ints))
    rows = grid_from_polygon(f).rows
    assert_ints_made_on_read(PatternGrid(rows), lambda ints: PatternGrid._of(f.m, _ints=ints))


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
