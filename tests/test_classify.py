import os
import random
import subprocess
import sys
import time
from itertools import combinations, product
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import frieze.triangulation
from frieze import (CoeffTuple, cc_labels_from, classify_triangle,
                    coefficient_witness, decompose_triangle, delta,
                    descent_steps, enumerate_triangulations,
                    frieze_from_triangulation, gamma_t, iceberg_descent,
                    in_coefficient_set, realize_triangle,
                    separating_unit_triangle)
from classify_oracles import (coefficient_witness_oracle, decompose_triangle_oracle,
                              descent_mismatches, descent_steps_oracle, extended_gcd)
from triangulation_oracles import REALIZE_LADDER, separating_by_segments

ints = st.integers(min_value=-40, max_value=40)


def coprime_pairs():
    return st.tuples(ints, ints).filter(lambda p: gcd(p[0], p[1]) == 1)


def tuples_in_s():
    return st.tuples(coprime_pairs(), coprime_pairs(), coprime_pairs()).map(
        lambda t: CoeffTuple(*t[0], *t[1], *t[2]))


def test_delta_examples():
    assert delta(CoeffTuple(0, 1, 7 - 3, 3, 0, 1)) == (7, 1, 3)
    assert delta(CoeffTuple(1, 1, 1, 0, 1, 1)) == (2, 3, 1)
    assert delta(CoeffTuple(2, 3, 3, -1, 0, 1)) == (2, 3, 1)
    with pytest.raises(ValueError):
        delta(CoeffTuple(2, 4, 1, 0, 0, 1))


def test_gamma_example():
    assert gamma_t(CoeffTuple(2, 3, 3, -1, 0, 1), 2) == CoeffTuple(1, 1, 1, 0, 1, 1)


@given(tuples_in_s(), st.integers(min_value=-20, max_value=20))
def test_gamma_preserves_delta_and_membership(t, param):
    image = gamma_t(t, param)
    assert in_coefficient_set(image)
    assert delta(image) == delta(t)


def test_classify_examples():
    assert not classify_triangle(1, 2, 2)
    assert classify_triangle(1, 1, 1)
    assert not classify_triangle(2, 2, 2)
    assert classify_triangle(2, 4, 6)
    assert classify_triangle(4, 2, 2)
    assert classify_triangle(3, 9, 21)
    assert not classify_triangle(2, 3, 4)  # gcds 1, 1, 2 differ
    with pytest.raises(ValueError):
        classify_triangle(0, 1, 1)


def _witness_exists_by_search(a, b, c, bound=10):
    for a1 in range(-bound, bound + 1):
        for b2 in range(-bound, bound + 1):
            if (a1 * a + b * b2 == c and gcd(a1, b) == 1
                    and gcd(a, b2) == 1):
                return True
    return False


@pytest.mark.parametrize("triple", [(2, 3, 1), (2, 4, 6), (1, 1, 1),
                                    (4, 2, 2), (6, 10, 4), (9, 3, 3)])
def test_coefficient_witness_postcondition(triple):
    a, b, c = triple
    assert _witness_exists_by_search(a, b, c)
    a1, b2 = coefficient_witness(a, b, c)
    assert a1 * a + b * b2 == c
    assert gcd(a1, b) == 1 and gcd(a, b2) == 1


def test_coefficient_witness_unit_b():
    # with b = 1 both coprimality conditions trivialize
    a1, b2 = coefficient_witness(7, 1, 3)
    assert a1 * 7 + b2 == 3 and gcd(7, b2) == 1


def test_coefficient_witness_rejects_unrealizable():
    with pytest.raises(ValueError):
        coefficient_witness(1, 2, 2)


def test_bezout_pair_from_pow_matches_the_euclid_loop():
    """For coprime a, b and c = 1, no prime divides d = 1, so the witness is the
    Bezout pair itself: every coprime pair in 1..300, and 2,000 seeded pairs
    up to 10**30, give the pair the extended Euclidean loop returns."""
    pairs = [(a, b) for a in range(1, 301) for b in range(1, 301) if gcd(a, b) == 1]
    rng, drawn = random.Random(33), 0
    while drawn < 2000:
        a, b = rng.randint(1, 10**30), rng.randint(1, 10**30)
        if gcd(a, b) == 1:
            pairs.append((a, b))
            drawn += 1
    for a, b in pairs:
        assert coefficient_witness(a, b, 1) == extended_gcd(a, b)[1:], (a, b)


def test_coefficient_witness_matches_the_euclid_oracle():
    """Every realizable triple with labels up to 40, and 500 seeded realizable
    triples d * (a', b', c') with d up to 10**6 or a product of small primes,
    so the residue search runs at many primes, and a', b', c' up to 10**30."""
    triples = [t for t in product(range(1, 41), repeat=3) if classify_triangle(*t)]
    rng, drawn = random.Random(34), 0
    while drawn < 500:
        d = (rng.randint(1, 10**6) if rng.random() < 0.5
             else 2 ** rng.randint(0, 3) * 3 * 5 * 7 * 11 * 13 * rng.choice((1, 17, 19 * 23)))
        triple = tuple(d * rng.randint(1, 10**30) for _ in range(3))
        if classify_triangle(*triple):
            triples.append(triple)
            drawn += 1
    for triple in triples:
        assert coefficient_witness(*triple) == coefficient_witness_oracle(*triple), triple


def test_descent_single_step_example():
    steps = list(descent_steps(CoeffTuple(2, 3, 3, -1, 0, 1)))
    assert steps == [CoeffTuple(2, 3, 3, -1, 0, 1), CoeffTuple(1, 1, 1, 0, 1, 1)]
    assert iceberg_descent(CoeffTuple(2, 3, 3, -1, 0, 1)) == CoeffTuple(1, 1, 1, 0, 1, 1)


def test_descent_nonnegative_fixed_point():
    t = CoeffTuple(1, 2, 1, 0, 0, 1)  # delta (1, 2, 1), already nonnegative
    assert iceberg_descent(t) == t


def test_descent_validates_input_shape():
    # delta (2, 3, 1): positive with third minimal, but a1 < 0
    with pytest.raises(ValueError):
        iceberg_descent(CoeffTuple(-1, 3, 1, 1, 0, 1))
    with pytest.raises(ValueError):
        iceberg_descent(CoeffTuple(2, 4, 1, 0, 0, 1))


#: passes every input check (delta (3, 2, 1)), but a1 = 0 completes only a
#: delta whose second component is 1
A1_ZERO_START = CoeffTuple(0, 1, 2, 1, 3, -1)


def test_descent_refuses_an_a1_zero_start_it_cannot_complete():
    assert delta(A1_ZERO_START) == (3, 2, 1)
    message = r"\(0, 1, 2, 1, 0, 1\), whose delta \(3, 1, 1\) is not \(3, 2, 1\)"
    with pytest.raises(ValueError, match=message):
        iceberg_descent(A1_ZERO_START)
    with pytest.raises(ValueError, match=message):
        list(descent_steps(A1_ZERO_START))


#: starts that pass every input check, each with the ``ValueError`` its descent raises:
#: the a1 = 0 start above, two that end on a1 = 0 outside the orthant, one that lowers b2
REFUSED_STARTS = {
    A1_ZERO_START: "an a1 = 0 start completes as (0, 1, a - c, c, 0, 1) = (0, 1, 2, 1, 0, 1), "
                   "whose delta (3, 1, 1) is not (3, 2, 1)",
    CoeffTuple(1, 0, -5, 6, 1, 6):
        "descent ended at (0, 1, -6, 1, -6, 7), outside the nonnegative orthant",
    CoeffTuple(2, -1, -2, 5, 4, 3): "descent must strictly raise b2",
    CoeffTuple(1, -5, -5, -4, -5, -4):
        "descent ended at (0, 1, 4, 11, 49, -9), outside the nonnegative orthant",
}


def _run_optimized(code):
    """(exit code, stdout, stderr) of ``code`` in a ``python -O`` child that imports ``frieze``
    from this checkout, and the test helpers from this directory."""
    path = os.pathsep.join([str(Path(frieze.__file__).resolve().parent.parent),
                            str(Path(__file__).resolve().parent)])
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    return done.returncode, done.stdout, done.stderr


def test_descent_refuses_an_a1_zero_start_under_optimize():
    """The refusals are checks, not asserts, so ``python -O`` keeps them."""
    for start, message in REFUSED_STARTS.items():
        for walk in (iceberg_descent, lambda t: list(descent_steps(t))):
            with pytest.raises(ValueError) as caught:
                walk(start)
            assert str(caught.value) == message
    code = ("from frieze import CoeffTuple, iceberg_descent\n"
            f"for start in {[tuple(start) for start in REFUSED_STARTS]}:\n"
            "    try:\n"
            "        print(iceberg_descent(CoeffTuple(*start)))\n"
            "    except ValueError as error:\n"
            "        print(error)\n")
    expected = "".join(message + "\n" for message in REFUSED_STARTS.values())
    assert _run_optimized(code) == (0, expected, "")


def test_descent_matches_the_step_oracle_on_a_box():
    """Both public descents agree with the step-by-step oracle, steps, end and
    ``ValueError`` message alike, on the 2,111 starts with coordinates in -3..4
    that pass the input checks; some of them reach a run with c1 < 0."""
    assert descent_mismatches() == (2111, [])


def test_descent_matches_the_step_oracle_on_a_box_under_optimize():
    code = "import classify_oracles\nprint(classify_oracles.descent_mismatches())\n"
    assert _run_optimized(code) == (0, "(2111, [])\n", "")


def _random_admissible_triple(rng, limit=50):
    while True:
        a, b, c = (rng.randint(1, limit) for _ in range(3))
        if classify_triangle(a, b, c):
            return a, b, c


def _normalized_witness_tuple(a, b, c):
    """Min-last permutation plus witness, as the realization pipeline builds it."""
    low, mid, high = sorted([a, b, c])
    pa, pb, pc = mid, high, low
    a1, b2 = coefficient_witness(pa, pb, pc)
    if a1 < 0:
        pa, pb = pb, pa
        a1, b2 = b2, a1
    if a1 == 0:
        return CoeffTuple(0, 1, pa - pc, pc, 0, 1), (pa, pb, pc)
    return CoeffTuple(a1, pb, pa - b2, b2, 0, 1), (pa, pb, pc)


def test_descent_on_random_admissible_triples():
    rng = random.Random(2024)
    for _ in range(500):
        a, b, c = _random_admissible_triple(rng)
        start, target = _normalized_witness_tuple(a, b, c)
        assert delta(start) == target
        trace = list(descent_steps(start))
        final = trace[-1]
        assert min(final) >= 0
        assert in_coefficient_set(final)
        assert delta(final) == target
        negatives = [t.b2 for t in trace if t.b2 < 0]
        assert negatives == sorted(negatives)  # strictly increasing toward 0
        assert len(set(negatives)) == len(negatives)


def _realization_start(a, b, c):
    """The witness tuple that ``realize_triangle`` descends from, built as it builds it."""
    triple = (a, b, c)
    order = min(((0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)),
                key=lambda p: (triple[p[2]], p))
    pa, pb, pc = (triple[index] for index in order)
    a1, b2 = coefficient_witness(pa, pb, pc)
    if a1 < 0:
        pa, pb = pb, pa
        a1, b2 = b2, a1
    return CoeffTuple(a1, pb, pa - b2, b2, 0, 1)


realizable_triples = st.tuples(*[st.integers(min_value=1, max_value=10**6)] * 3).filter(
    lambda t: classify_triangle(*t))


def _ladder_examples(test):
    for triple in REALIZE_LADDER:
        test = example(triple)(test)
    return test


@settings(deadline=None, max_examples=50)
@given(realizable_triples)
@_ladder_examples
@example((28657, 46368, 75025))  # consecutive Fibonacci labels: long runs of s = 1
@example((1000, 999, 1))
def test_jumped_descent_matches_the_step_oracle(triple):
    """The descent by runs visits and ends where the step-by-step descent does."""
    start = _realization_start(*triple)
    steps = list(descent_steps_oracle(start))
    assert list(descent_steps(start)) == steps and iceberg_descent(start) == steps[-1]


def test_jumped_descent_matches_the_step_oracle_on_small_starts():
    """The starts of ``test_descent_on_random_admissible_triples``, and a start
    with a1 = 0 and a negative coordinate, which both complete at once."""
    rng = random.Random(2024)
    starts = [_normalized_witness_tuple(*_random_admissible_triple(rng))[0] for _ in range(500)]
    for start in starts + [CoeffTuple(0, -1, 0, -1, 2, -3)]:
        steps = list(descent_steps_oracle(start))
        assert list(descent_steps(start)) == steps and iceberg_descent(start) == steps[-1]
    assert iceberg_descent(CoeffTuple(0, -1, 0, -1, 2, -3)) == CoeffTuple(0, 1, 2, 1, 0, 1)


def test_realize_triangle_examples():
    for triple in [(1, 1, 1), (2, 3, 1), (2, 4, 6), (4, 2, 2), (5, 8, 3)]:
        tri, (i, j, k) = realize_triangle(*triple)
        tables = {v: cc_labels_from(tri, v) for v in (i, j, k)}
        assert (tables[i][j], tables[j][k], tables[k][i]) == triple
    with pytest.raises(ValueError):
        realize_triangle(1, 2, 2)


def test_separating_unit_triangle_hexagon(hexagon_fan):
    assert separating_unit_triangle(hexagon_fan, 1, 3, 5) == (2, 4, 5)
    # a face of the triangulation separates itself
    assert separating_unit_triangle(hexagon_fan, 2, 4, 5) == (2, 4, 5)
    with pytest.raises(ValueError):
        separating_unit_triangle(hexagon_fan, 3, 1, 5)


def separating_by_labels(tables, m, i, j, k):
    """The label-table search: the first triple in arc order whose three
    connecting frieze labels are all 1."""

    def value(p, q):
        return 0 if p == q else tables[p][q]

    arc_ki = list(range(k, m + 1)) + list(range(1, i + 1))
    for ip in range(i, j + 1):
        for jp in range(j, k + 1):
            if value(ip, jp) != 1:
                continue
            for kp in arc_ki:
                if value(jp, kp) == 1 and value(kp, ip) == 1:
                    return ip, jp, kp
    raise AssertionError("no separating unit triangle found")


def test_separating_unit_triangle_matches_label_oracle():
    for m in range(3, 10):
        for tri in enumerate_triangulations(m):
            tables = {v: cc_labels_from(tri, v) for v in range(1, m + 1)}
            for i, j, k in combinations(range(1, m + 1), 3):
                assert (separating_unit_triangle(tri, i, j, k)
                        == separating_by_labels(tables, m, i, j, k)), (tri, i, j, k)


def test_separating_unit_triangle_matches_the_segment_scan_up_to_9_vertices():
    for m in range(3, 10):
        for tri in enumerate_triangulations(m):
            for i, j, k in combinations(range(1, m + 1), 3):
                assert (separating_unit_triangle(tri, i, j, k)
                        == separating_by_segments(tri, i, j, k)), (tri, i, j, k)


def test_separating_unit_triangle_matches_the_segment_scan_on_the_realize_ladder():
    """The realized triple and 300 seeded triples of each ladder polygon."""
    rng = random.Random(18)
    for triple in REALIZE_LADDER:
        tri, vertices = realize_triangle(*triple)
        triples = [tuple(sorted(vertices))]
        triples += [tuple(sorted(rng.sample(range(1, tri.m + 1), 3))) for _ in range(300)]
        for i, j, k in triples:
            assert (separating_unit_triangle(tri, i, j, k)
                    == separating_by_segments(tri, i, j, k)), (tri, i, j, k)


def test_decompose_hexagon(hexagon_fan):
    tup = decompose_triangle(hexagon_fan, 1, 3, 5)
    assert delta(tup) == (4, 2, 2)
    assert classify_triangle(4, 2, 2)
    face = decompose_triangle(hexagon_fan, 2, 4, 5)
    assert delta(face) == (1, 1, 1)
    assert face == CoeffTuple(0, 1, 0, 1, 0, 1)


def test_decompose_adjacent_pair_case(hexagon_fan):
    # j = i + 1 forces the unit triangle containing that edge
    tup = decompose_triangle(hexagon_fan, 1, 2, 4)
    assert delta(tup) == (1, 1, 3)


def test_decompose_exhaustive_m6():
    for tri in enumerate_triangulations(6):
        f = frieze_from_triangulation(tri)
        for i, j, k in combinations(range(1, 7), 3):
            tup = decompose_triangle(tri, i, j, k)
            assert min(tup) >= 0 and in_coefficient_set(tup)
            assert delta(tup) == (f.value(i, j), f.value(j, k), f.value(k, i))


def test_decompose_triangle_matches_the_six_row_oracle():
    """Three label rows give what six give, on every triangulation with
    m <= 8 and every triple of its vertices."""
    for m in range(3, 9):
        for tri in enumerate_triangulations(m):
            for i, j, k in combinations(range(1, m + 1), 3):
                assert (decompose_triangle(tri, i, j, k)
                        == decompose_triangle_oracle(tri, i, j, k)), (tri, i, j, k)


def test_decompose_of_realized_triangle_recovers_triple():
    for triple in [(2, 3, 1), (4, 2, 2), (3, 5, 4)]:
        tri, (i, j, k) = realize_triangle(*triple)
        ordered = tuple(sorted((i, j, k)))
        tables = {v: cc_labels_from(tri, v) for v in ordered}
        expected = (tables[ordered[0]][ordered[1]],
                    tables[ordered[1]][ordered[2]],
                    tables[ordered[2]][ordered[0]])
        assert delta(decompose_triangle(tri, *ordered)) == expected
        assert sorted(expected) == sorted(triple)


def test_realize_and_decompose_large_polygon():
    tri, (i, j, k) = realize_triangle(1000, 999, 1)
    assert tri.m == 1003
    tables = {v: cc_labels_from(tri, v) for v in (i, j, k)}
    assert (tables[i][j], tables[j][k], tables[k][i]) == (1000, 999, 1)
    a, b, c = sorted((i, j, k))
    expected = (tables[a][b], tables[b][c], tables[c][a])
    assert delta(decompose_triangle(tri, a, b, c)) == expected


def test_realize_triangle_refuses_past_the_vertex_budget():
    """The size read off the descended tuple is the glued polygon's, exactly:
    a cap at m builds the m-gon, a cap at m - 1 refuses it up front."""
    rng = random.Random(12)
    triples = [(1, 1, 1), (1000, 999, 1), (99, 1, 1)]
    while len(triples) < 40:
        triple = tuple(rng.randint(1, 300) for _ in range(3))
        if classify_triangle(*triple):
            triples.append(triple)
    for triple in triples:
        m = realize_triangle(*triple)[0].m
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(frieze.triangulation, "MAX_VERTICES", m)
            assert realize_triangle(*triple)[0].m == m
            patch.setattr(frieze.triangulation, "MAX_VERTICES", m - 1)
            with pytest.raises(ValueError, match=rf"^realizing \(.*\) needs a {m}-gon"):
                realize_triangle(*triple)


def test_realize_triangle_refuses_a_huge_polygon_at_once():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="needs a 100000004-gon, above the limit of "
                                         "MAX_VERTICES = 100000 vertices"):
        realize_triangle(100000000, 1, 1)
    assert time.perf_counter() - start < 1
