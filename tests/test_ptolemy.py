import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

import validator_oracles as oracle
from frieze import (FriezeMap, Triangulation, build_pattern, frieze_from_triangulation,
                    grid_from_polygon, ptolemy_holds, scale, to_polygon,
                    validate_local, validate_tame, verify_all_ptolemy)
from frieze.ptolemy import _suspect_quadruples
from frieze.triangulation import enumerate_triangulations


def test_ptolemy_hexagon_quadruple(hexagon_frieze):
    # 4 * 1 = 2 * 1 + 1 * 2 on vertices (1, 2, 3, 5)
    assert ptolemy_holds(hexagon_frieze, 1, 2, 3, 5)


def test_ptolemy_degenerate_quadruples_hold(hexagon_frieze):
    f = hexagon_frieze
    for i, j, k in combinations(range(1, 7), 3):
        assert ptolemy_holds(f, i, i, j, k)
        assert ptolemy_holds(f, i, j, j, k)
        assert ptolemy_holds(f, i, j, k, k)
    with pytest.raises(ValueError):
        ptolemy_holds(f, 2, 1, 3, 5)


def _mutated(f):
    entries = dict(f.pairs())
    entries[(1, 4)] += 1
    return FriezeMap(f.m, entries)


def test_mutated_frieze_fails_somewhere(hexagon_frieze):
    report = verify_all_ptolemy(_mutated(hexagon_frieze))
    assert not report.ok
    assert report.violations == tuple(sorted(report.violations, key=lambda v: v.at))


def test_all_triangulation_friezes_satisfy_ptolemy():
    for m in range(3, 7):
        for tri in enumerate_triangulations(m):
            assert verify_all_ptolemy(frieze_from_triangulation(tri)).ok


def test_square_example_and_scaling():
    entries = {(1, 2): 1, (2, 3): 1, (3, 4): 2, (1, 4): 2, (1, 3): 1, (2, 4): 4}
    square = FriezeMap(4, entries)
    assert verify_all_ptolemy(square).ok
    for z in (2, "1/2", -1):
        assert verify_all_ptolemy(scale(square, z)).ok


def test_local_rule_equals_ptolemy_special_case(hexagon_frieze):
    """Each grid-level determinant condition is the Ptolemy relation of the
    quadruple (i, i+1, j, j+1) after folding onto the polygon."""
    rng = random.Random(7)
    maps = [hexagon_frieze, _mutated(hexagon_frieze)]
    for _ in range(6):
        entries = dict(hexagon_frieze.pairs())
        pair = rng.choice(list(entries))
        entries[pair] += rng.choice([-1, 1, 2])
        try:
            maps.append(FriezeMap(6, entries))
        except ValueError:
            continue  # mutation hit a boundary zero
    for f in maps:
        grid = grid_from_polygon(f)
        m = f.m
        for i in range(m):
            for j in range(i + 2, i + m - 1):
                lhs = (grid.entry(i, j) * grid.entry(i + 1, j + 1)
                       - grid.entry(i, j + 1) * grid.entry(i + 1, j))
                local_ok = lhs == grid.entry(i + 1, i + m) * grid.entry(j, j + 1)
                verts = sorted(((i - 1) % m + 1, i % m + 1,
                                (j - 1) % m + 1, j % m + 1))
                assert local_ok == ptolemy_holds(f, *verts)


def test_local_plus_tame_implies_ptolemy_random_m12():
    rng = random.Random(40)
    count = 0
    while count < 8:
        m = 12
        diagonals = _random_triangulation_diagonals(rng, m)
        tri_frieze = frieze_from_triangulation(
            Triangulation(m, diagonals))
        grid = build_pattern(tri_frieze.boundary_sequence,
                             tri_frieze.quiddity_cycle)
        assert validate_local(grid).ok and validate_tame(grid).ok
        assert verify_all_ptolemy(to_polygon(grid)).ok
        count += 1


def _random_triangulation_diagonals(rng, m):
    """Uniform-ish random triangulation by recursive splitting."""
    diagonals = []

    def split(vertices):
        if len(vertices) < 4:
            return
        first, last = vertices[0], vertices[-1]
        apex = rng.choice(vertices[1:-1])
        idx = vertices.index(apex)
        for chord in ((first, apex), (apex, last)):
            p, q = sorted(chord)
            if q - p != 1 and (p, q) != (1, m):
                diagonals.append((p, q))
        split(vertices[: idx + 1])
        split(vertices[idx:])

    split(list(range(1, m + 1)))
    return diagonals


def test_ptolemy_on_the_m400_fan():
    """The certificate at a size the C(m, 4) scan cannot reach (10**9 quadruples).

    One long diagonal moved by 1 breaks exactly the relations that hold it:
    the other side of each is a positive label.  It lies on a vertex of the
    pivot edges (1, 2) and (134, 135), which the third pivot misses.
    """
    m = 400
    fan = frieze_from_triangulation(Triangulation(m, [(1, k) for k in range(3, m)]))
    assert verify_all_ptolemy(fan).ok
    entries = dict(fan.pairs())
    entries[(2, 134)] += 1
    report = verify_all_ptolemy(FriezeMap(m, entries))
    rest = [v for v in range(1, m + 1) if v not in (2, 134)]
    assert [v.at for v in report.violations] == sorted(
        tuple(sorted((2, 134, x, y))) for x, y in combinations(rest, 2))


def _gauged_random_frieze(rng, m):
    """The entries of a random triangulation's frieze, rescaled by random weights."""
    tri = frieze_from_triangulation(Triangulation(m, _random_triangulation_diagonals(rng, m)))
    weights = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(m + 1)]
    return {(p, q): v * weights[p] * weights[q] for (p, q), v in tri.pairs()}


def test_drawn_quadruples_match_the_full_scan():
    """Every report equals the full C(m, 4) scan of the oracle.

    The pivot edges of a 12-gon are (1, 2), (5, 6) and (9, 10), those of a
    20-gon (1, 2), (7, 8) and (14, 15).  Each pair of a gauged random 12-gon
    frieze is moved in turn: a pair off all three edges, such as (3, 7), is
    the lone suspect pair of each, and a pair on a pivot vertex, such as
    (2, 7), is the lone one of the other two edges.  Random pairs of moved
    entries follow.  Moves on a vertex of every pivot edge give each
    suspect set about m pairs, and the quadruples are still drawn from one
    of them.  An all-ones table makes every pair suspect and takes the full
    scan.
    """
    rng = random.Random(24)
    entries = {12: _gauged_random_frieze(rng, 12)}
    moves = [[pair] for pair in entries[12]]
    moves += [rng.sample(sorted(entries[12]), 2) for _ in range(40)]
    entries[20] = _gauged_random_frieze(rng, 20)
    assert [(3, 7)] in moves and [(2, 7)] in moves
    on_every_pivot = [(12, [(1, 7), (5, 7), (7, 9)]), (20, [(1, 10), (7, 17), (4, 14)]),
                      (20, [(1, 11), (7, 11), (11, 14)])]
    for m, pairs in [(12, pairs) for pairs in moves] + on_every_pivot:
        moved = dict(entries[m])
        for pair in pairs:
            moved[pair] += 1
        f = FriezeMap(m, moved)
        report = verify_all_ptolemy(f)
        assert not report.ok and report == oracle.verify_all_ptolemy(f), pairs
        if (m, pairs) in on_every_pivot:
            assert type(_suspect_quadruples(f._ints[1], m)) is list, pairs
    ones = FriezeMap(12, {pair: 1 for pair in combinations(range(1, 13), 2)})
    assert type(_suspect_quadruples(ones._ints[1], 12)) is combinations
    report = verify_all_ptolemy(ones)
    assert len(report.violations) == comb(12, 4) and report == oracle.verify_all_ptolemy(ones)
