import random
from itertools import combinations

import pytest

from frieze import (FriezeMap, Triangulation, build_pattern, frieze_from_triangulation,
                    grid_from_polygon, ptolemy_holds, scale, to_polygon,
                    validate_local, validate_tame, verify_all_ptolemy)
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
