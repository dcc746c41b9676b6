import json
import random
import re
import time
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frieze.triangulation
from frieze import (FriezeMap, Triangulation, accordion, cc_labels_from, cut_subpolygon,
                    enumerate_triangulations, frieze_from_triangulation,
                    glue_three, realize_triangle, triangle_label_gcds_divide,
                    triangulation_from_json, triangulation_to_json,
                    verify_all_ptolemy)
from table_checks import assert_same_table
from triangulation_oracles import REALIZE_LADDER, walk_table_frieze


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def test_constructor_validation():
    Triangulation(6, [(2, 4), (2, 5), (2, 6)])
    with pytest.raises(ValueError):
        Triangulation(6, [(1, 3), (2, 4), (2, 6)])  # (1,3) crosses (2,4)... wrong count first
    with pytest.raises(ValueError):
        Triangulation(6, [(1, 4), (2, 6), (4, 6)])  # (1,4) crosses (2,6)
    with pytest.raises(ValueError):
        Triangulation(6, [(1, 2), (2, 5), (2, 6)])  # edge passed as diagonal
    with pytest.raises(ValueError):
        Triangulation(6, [(1, 6), (2, 5), (2, 6)])  # wrap edge passed as diagonal
    with pytest.raises(ValueError):
        Triangulation(6, [(2, 4)])  # wrong count


#: (m, diagonals, exception, message), the messages copied from the
#: constructor that sorted each pair and the chords by a key function
CONSTRUCTOR_ERRORS = [
    (5, [5], TypeError, "'int' object is not iterable"),
    (5, [None], TypeError, "'NoneType' object is not iterable"),
    (5, [(3,)], ValueError, "not enough values to unpack (expected 2, got 1)"),
    (5, [[]], ValueError, "not enough values to unpack (expected 2, got 0)"),
    (5, [(1, 3, 4)], ValueError, "too many values to unpack (expected 2)"),
    (5, [[1, 3, 4]], ValueError, "too many values to unpack (expected 2)"),
    (5, [(1, "a")], TypeError, "'<' not supported between instances of 'str' and 'int'"),
    (5, [("a", 1)], TypeError, "'<' not supported between instances of 'int' and 'str'"),
    (5, [(1, None)], TypeError, "'<' not supported between instances of 'NoneType' and 'int'"),
    (5, [(1, 3 + 1j)], TypeError, "'<' not supported between instances of 'complex' and 'int'"),
    (5, [(0, 3)], ValueError, "diagonal (0, 3) outside 1..5"),
    (5, [(3, 6)], ValueError, "diagonal (3, 6) outside 1..5"),
    (5, [(6, 3)], ValueError, "diagonal (3, 6) outside 1..5"),
    (5, [(1, 2)], ValueError, "(1, 2) is a polygon edge, not a diagonal"),
    (5, [(5, 1)], ValueError, "(1, 5) is a polygon edge, not a diagonal"),
    (5, [(3, 2)], ValueError, "(2, 3) is a polygon edge, not a diagonal"),
    (2, [], ValueError, "polygon needs at least 3 vertices"),
    (5, [(1, 3)], ValueError, "a triangulated 5-gon has 2 diagonals, got 1"),
    (5, [(1, 3), (3, 1)], ValueError, "a triangulated 5-gon has 2 diagonals, got 1"),
    (5, [(1, 3), (1, 4), (2, 5)], ValueError, "a triangulated 5-gon has 2 diagonals, got 3"),
    (6, [(1, 3), (2, 4), (4, 6)], ValueError, "diagonals (1, 3) and (2, 4) cross"),
    (6, [(2, 5), (1, 3), (3, 6)], ValueError, "diagonals (1, 3) and (2, 5) cross"),
    (6, [(4, 1), (5, 2), (2, 4)], ValueError, "diagonals (1, 4) and (2, 5) cross"),
    (7, [(1, 4), (2, 6), (1, 5), (5, 7)], ValueError, "diagonals (1, 4) and (2, 6) cross"),
]


@pytest.mark.parametrize("m, diagonals, error, message", CONSTRUCTOR_ERRORS)
def test_constructor_messages_are_pinned(m, diagonals, error, message):
    with pytest.raises(error) as info:
        Triangulation(m, diagonals)
    assert type(info.value) is error and str(info.value) == message


def crosses(d1, d2):
    """Strict interior crossing of two chords on the circular vertex order."""
    (a, b), (c, d) = sorted(d1), sorted(d2)
    return (a < c < b < d) or (c < a < d < b)


def test_noncrossing_walk_matches_all_pairs_oracle():
    """The constructor's nesting walk accepts exactly the chord sets with no
    crossing pair, and every rejection names a pair that really crosses."""
    rng = random.Random(5)
    cases = []
    for m in range(3, 11):
        diagonals = [(p, q) for p in range(1, m + 1) for q in range(p + 2, m + 1)
                     if (p, q) != (1, m)]
        if m <= 8:
            cases += [(m, set(chords)) for chords in combinations(diagonals, m - 3)]
            continue
        triangulations = enumerate_triangulations(m)
        for _ in range(1500):
            chords = set(rng.choice(triangulations).diagonals)
            for _ in range(rng.randint(0, 2)):  # swap chords for random diagonals
                chords.remove(rng.choice(sorted(chords)))
                chords.add(rng.choice([d for d in diagonals if d not in chords]))
            cases.append((m, chords))
    outcomes = {True: 0, False: 0}
    for m, chords in cases:
        given = [pair if rng.random() < 0.5 else pair[::-1] for pair in chords]
        rng.shuffle(given)
        oracle_accepts = not any(crosses(d1, d2) for d1, d2 in combinations(chords, 2))
        try:
            Triangulation(m, given)
        except ValueError as exc:
            assert not oracle_accepts, (m, given)
            named = re.fullmatch(r"diagonals \((\d+), (\d+)\) and \((\d+), (\d+)\) cross",
                                 str(exc))
            assert named, str(exc)
            a, b, c, d = map(int, named.groups())
            assert {(a, b), (c, d)} <= chords and crosses((a, b), (c, d)), str(exc)
        else:
            assert oracle_accepts, (m, given)
        outcomes[oracle_accepts] += 1
    assert min(outcomes.values()) > 1000


def test_triangle_faces(hexagon_fan):
    assert hexagon_fan.triangles() == ((1, 2, 6), (2, 3, 4), (2, 4, 5), (2, 5, 6))
    assert Triangulation(3, []).triangles() == ((1, 2, 3),)


def test_cc_labels_hexagon(hexagon_fan):
    assert cc_labels_from(hexagon_fan, 1)[1:] == [0, 1, 4, 3, 2, 1]
    labels3 = cc_labels_from(hexagon_fan, 3)
    assert labels3[5] == 2 and labels3[6] == 3
    assert cc_labels_from(Triangulation(3, []), 2)[1:] == [1, 0, 1]


def test_cc_labels_order_independence():
    """The triangle-sum rule, run in any triangle order, gives the kernel's labels."""
    rng = random.Random(11)
    for m in range(3, 10):
        for tri in enumerate_triangulations(m):
            for v in range(1, m + 1):
                expected = cc_labels_from(tri, v)
                assert all(type(x) is int for x in expected[1:])  # classify takes gcds
                triangles = list(tri.triangles())
                rng.shuffle(triangles)
                labels = [None] * (m + 1)
                labels[v] = 0
                labels[v % m + 1] = 1
                labels[(v - 2) % m + 1] = 1
                while any(x is None for x in labels[1:]):
                    for a, b, c in triangles:
                        known = [x for x in (a, b, c) if labels[x] is not None]
                        if len(known) == 2:
                            labels[a + b + c - sum(known)] = sum(labels[x] for x in known)
                assert labels == expected


def test_cc_labels_symmetry_small():
    for m in range(3, 8):
        for tri in enumerate_triangulations(m):
            tables = [cc_labels_from(tri, v) for v in range(1, m + 1)]
            for v in range(1, m + 1):
                for w in range(1, m + 1):
                    assert tables[v - 1][w] == tables[w - 1][v]


def test_frieze_from_triangulation_square_and_pentagon():
    square = frieze_from_triangulation(Triangulation(4, [(1, 3)]))
    assert dict(square.diagonal_items()) == {(1, 3): 1, (2, 4): 2}
    mirror = frieze_from_triangulation(Triangulation(4, [(2, 4)]))
    assert dict(mirror.diagonal_items()) == {(1, 3): 2, (2, 4): 1}
    quiddities = {
        tuple(int(x) for x in frieze_from_triangulation(t).quiddity_cycle)
        for t in enumerate_triangulations(5)
    }
    base = (1, 2, 2, 1, 3)
    rotations = {tuple(base[(i + s) % 5] for i in range(5)) for s in range(5)}
    assert quiddities == rotations


def test_diagonals_are_exactly_unit_nonedges(hexagon_fan, hexagon_frieze):
    unit_nonedges = {pair for pair, v in hexagon_frieze.diagonal_items() if v == 1}
    assert unit_nonedges == set(hexagon_fan.diagonals)


def random_triangulation(rng, m):
    """Clip random ears off the m-gon; each clip's chord is a diagonal."""
    ring, diagonals = list(range(1, m + 1)), []
    while len(ring) > 3:
        i = rng.randrange(len(ring))
        diagonals.append((ring[i - 1], ring[(i + 1) % len(ring)]))
        del ring[i]
    return Triangulation(m, diagonals)


@settings(deadline=None, max_examples=60)
@given(st.integers(3, 80), st.randoms(use_true_random=False))
def test_frieze_from_triangulation_matches_the_label_table(m, rng):
    t = random_triangulation(rng, m)
    tables = [cc_labels_from(t, v) for v in range(1, m + 1)]
    expected = FriezeMap(m, {(p, q): tables[p - 1][q]
                             for p in range(1, m + 1) for q in range(p + 1, m + 1)})
    f = frieze_from_triangulation(t)
    assert f == expected and f.sort_key() == expected.sort_key()
    assert all(type(v) is Fraction for _, v in f.pairs())


def assert_same_map(f, expected):
    """``f`` holds the cleared table (1, ints) of ``expected``, built by the
    validating constructor, and reads the same ``Fraction``s."""
    assert f._ints[0] == 1
    assert_same_table(f, expected)


def test_frieze_from_triangulation_matches_the_walk_table_up_to_9_vertices():
    for m in range(3, 10):
        for t in enumerate_triangulations(m):
            assert_same_map(frieze_from_triangulation(t), walk_table_frieze(t))


def test_frieze_from_triangulation_matches_the_walk_table_on_the_realize_ladder():
    for triple in REALIZE_LADDER:
        t, _ = realize_triangle(*triple)
        assert_same_map(frieze_from_triangulation(t), walk_table_frieze(t))
        assert_same_map(frieze_from_triangulation(t.reflected()), walk_table_frieze(t.reflected()))


def test_cut_subpolygon(hexagon_frieze):
    square = cut_subpolygon(hexagon_frieze, [1, 2, 3, 5])
    assert [int(x) for x in square.edge_values] == [1, 1, 2, 2]
    assert dict(square.diagonal_items()) == {(1, 3): 4, (2, 4): 1}
    assert verify_all_ptolemy(square).ok
    assert cut_subpolygon(hexagon_frieze, range(1, 7)) == hexagon_frieze
    tri = cut_subpolygon(hexagon_frieze, [1, 3, 4])
    assert dict(tri.pairs()) == {(1, 2): 4, (2, 3): 1, (1, 3): 3}
    with pytest.raises(ValueError):
        cut_subpolygon(hexagon_frieze, [1, 2])
    with pytest.raises(ValueError):
        cut_subpolygon(hexagon_frieze, [2, 1, 5])


def test_cut_always_satisfies_ptolemy(hexagon_frieze):
    from itertools import combinations

    for verts in combinations(range(1, 7), 4):
        assert verify_all_ptolemy(cut_subpolygon(hexagon_frieze, verts)).ok


def _euclid_quotient_sum(a, b):
    total = 0
    while b:
        q, r = divmod(a, b)
        total += q
        a, b = b, r
    return total


def test_accordion_examples():
    tri, k = accordion(0, 1)
    assert tri.m == 3 and k == 1
    tri, k = accordion(3, 2)
    assert tri.m == 5  # quotients 1 + 2 plus the starting edge
    labels = cc_labels_from(tri, 1)
    assert labels[k] == 3 and labels[k + 1] == 2
    tri, k = accordion(4, 3)
    assert tri.m == 6
    labels = cc_labels_from(tri, 1)
    assert labels[k] == 4 and labels[k + 1] == 3


def test_accordion_postcondition_coprime_pairs():
    for a in range(1, 16):
        for b in range(0, a):
            if gcd(a, b) != 1:
                continue
            tri, k = accordion(a, b)
            labels = cc_labels_from(tri, 1)
            kk = k % tri.m + 1
            assert (labels[k] if k != 1 else 0) == a
            assert (labels[kk] if kk != 1 else 0) == b
            if b >= 1:
                assert tri.m == 2 + _euclid_quotient_sum(a, b)


def test_accordion_refuses_past_the_vertex_budget():
    """2 + the Euclidean quotient sum is the accordion's size, exactly."""
    for a in range(0, 40):
        for b in range(0, 40):
            if gcd(a, b) != 1:
                continue
            m = accordion(a, b)[0].m
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(frieze.triangulation, "MAX_VERTICES", m)
                assert accordion(a, b)[0].m == m
                patch.setattr(frieze.triangulation, "MAX_VERTICES", m - 1)
                with pytest.raises(ValueError, match=rf"^accordion\({a}, {b}\) needs a {m}-gon"):
                    accordion(a, b)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="needs a 100000002-gon"):
        accordion(100000000, 1)
    assert time.perf_counter() - start < 1


def test_accordion_swapped_order():
    tri, k = accordion(2, 5)
    labels = cc_labels_from(tri, 1)
    assert labels[k] == 2 and labels[k % tri.m + 1] == 5


def test_accordion_builds_the_mirror_only_when_needed(monkeypatch):
    """(2, 5) sits in the wrong rotational order on the direct construction
    and needs its mirror image; (5, 2) does not."""
    reflected = Triangulation.reflected
    calls = []

    def counting(self):
        calls.append(self)
        return reflected(self)

    monkeypatch.setattr(Triangulation, "reflected", counting)
    for a, b, mirrors in ((2, 5, 1), (5, 2, 0), (3, 4, 1), (4, 3, 0)):
        calls.clear()
        tri, k = accordion(a, b)
        labels = cc_labels_from(tri, 1)
        assert labels[k] == a and labels[k % tri.m + 1] == b
        assert len(calls) == mirrors


def test_accordion_rejects_common_factor():
    with pytest.raises(ValueError):
        accordion(4, 6)
    with pytest.raises(ValueError):
        accordion(0, 0)
    with pytest.raises(ValueError):
        accordion(-1, 1)


def test_glue_three_triangles():
    t3 = Triangulation(3, [])
    glued, maps = glue_three(t3, (1, 2), t3, (1, 2), t3, (1, 2))
    assert glued.m == 6
    assert glued.diagonals == frozenset({(1, 3), (3, 5), (1, 5)})
    f = frieze_from_triangulation(glued)
    # central triangle carries 1s, long diagonals 2, apex-to-apex pairs 3
    for pair in [(1, 3), (3, 5), (1, 5)]:
        assert f.value(*pair) == 1
    apexes = [vmap[3] for vmap in maps]  # vertex 3 is each triangle's free corner
    assert sorted(apexes) == [2, 4, 6]
    for p, q in [(1, 4), (2, 5), (3, 6)]:
        assert f.value(p, q) == 2
    for p, q in [(2, 4), (4, 6), (2, 6)]:
        assert f.value(p, q) == 3


def test_glue_three_vertex_count_formula():
    t3 = Triangulation(3, [])
    t5 = Triangulation(5, [(1, 3), (1, 4)])
    t6 = Triangulation(6, [(2, 4), (2, 5), (2, 6)])
    glued, _ = glue_three(t3, (1, 2), t3, (2, 3), t5, (3, 4))
    assert glued.m == 3 + 3 + 5 - 3
    glued, _ = glue_three(t6, (4, 5), t5, (5, 1), t3, (3, 1))
    assert glued.m == 6 + 5 + 3 - 3
    assert len(glued.diagonals) == glued.m - 3


def test_glue_three_marked_edges_become_unit_central_triangle():
    t5 = Triangulation(5, [(2, 4), (2, 5)])
    t4 = Triangulation(4, [(1, 3)])
    t3 = Triangulation(3, [])
    glued, maps = glue_three(t5, (3, 4), t4, (2, 3), t3, (1, 2))
    f = frieze_from_triangulation(glued)
    centers = [maps[0][4], maps[1][3], maps[2][2]]  # each mark's endpoint
    a, b, c = sorted(centers)
    assert f.value(a, b) == f.value(b, c) == f.value(a, c) == 1


def test_glue_three_rejects_malformed_marks():
    t3 = Triangulation(3, [])
    with pytest.raises(ValueError):
        glue_three(t3, (1, 3), t3, (1, 2), t3, (1, 2))
    with pytest.raises(ValueError):
        glue_three(t3, (2, 1), t3, (1, 2), t3, (1, 2))


def test_enumerate_triangulations_counts():
    assert len(enumerate_triangulations(3)) == 1
    assert len(enumerate_triangulations(4)) == 2
    assert len(enumerate_triangulations(5)) == catalan(3)
    assert len(enumerate_triangulations(6)) == catalan(4)
    listed = enumerate_triangulations(6)
    assert listed == sorted(listed, key=Triangulation.sort_key)
    with pytest.raises(ValueError):
        enumerate_triangulations(2)
    with pytest.raises(ValueError):
        enumerate_triangulations(13)


def test_gcd_lemma_small():
    from itertools import combinations

    for m in range(3, 7):
        for tri in enumerate_triangulations(m):
            f = frieze_from_triangulation(tri)
            for i, j, k in combinations(range(1, m + 1), 3):
                assert triangle_label_gcds_divide(f, i, j, k)
                x, y, z = f.value(i, j), f.value(j, k), f.value(k, i)
                assert gcd(x.numerator, y.numerator) \
                    == gcd(y.numerator, z.numerator) \
                    == gcd(x.numerator, z.numerator)


def test_reflection_preserves_validity(hexagon_fan):
    # the reflection fixing vertex 1 swaps 2 <-> 6, so the fan moves to 6
    mirrored = hexagon_fan.reflected()
    assert mirrored.m == 6
    assert mirrored.diagonals == frozenset({(2, 6), (3, 6), (4, 6)})
    frieze_from_triangulation(mirrored)


def test_json_roundtrip_and_rejections(hexagon_fan):
    doc = json.loads(json.dumps(triangulation_to_json(hexagon_fan)))
    assert triangulation_from_json(doc) == hexagon_fan
    with pytest.raises(ValueError):
        triangulation_from_json({"m": 6, "diagonals": [[1, 4], [2, 6], [4, 6]]})
    with pytest.raises(ValueError):
        triangulation_from_json({"m": 6, "diagonals": [[2, 4]]})
    with pytest.raises(ValueError):
        triangulation_from_json({"m": 6})
