from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import frieze.enumeration
import frieze.propagation
import frieze.triangulation
from frieze import (TAU, Mat2, accordion, build_pattern, cc_labels_from,
                    closes_to_negative_identity, closure_product, entry_via_product,
                    enumerate_friezes, eta, frieze_from_triangulation, mu, parse_domain,
                    scalar_to_str, to_polygon)
from frieze.core import _cleared
from frieze.propagation import _cycles, _walk
from frieze.scalars import as_scalar
from frieze.triangulation import enumerate_triangulations

small = st.fractions(min_value=-30, max_value=30, max_denominator=10)
small_nonzero = small.filter(lambda x: x != 0)
not_whole = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(2, 9)).filter(
    lambda x: x.denominator > 1)


def mu_prefix_products(boundary, quiddity, i):
    """Oracle: the products mu_i, mu_i mu_{i+1}, ..., mu_i ... mu_{i+m-1}.

    Factor k is mu(q[k-1], d[k], d[k-1]) with both cycles read mod m, the
    explicit Mat2 spelling the propagation kernel replaced.
    """
    m = len(boundary)
    product = Mat2.identity()
    products = []
    for k in range(i, i + m):
        product = product * mu(quiddity[(k - 1) % m], boundary[k % m],
                               boundary[(k - 1) % m])
        products.append(product)
    return products


def walk_oracle(x, y, d, q, k, steps):
    """Oracle for ``_walk``: every cycle index is taken ``% m`` on each step.

    ``_walk`` keeps a running index that wraps at m instead.  An int
    numerator with a remainder becomes a ``Fraction``, as in the kernel.
    """
    m = len(d)
    out = []
    for k in range(k, k + steps):
        e = d[(k - 1) % m]
        z = q[(k - 1) % m] * y - d[k % m] * x
        if type(z) is int and e != 1:
            quotient, remainder = divmod(z, e)
            z = Fraction(z, e) if remainder else quotient
        elif e != 1:
            z = z / e
        x, y = y, z
        out.append(y)
    return out


def test_mu_eta_values():
    assert mu(4, 7, 3) == Mat2(0, Fraction(-7, 3), 1, Fraction(4, 3))
    assert eta(4, 7, 3) == Mat2(Fraction(4, 3), Fraction(-7, 3), 1, 0)
    assert mu(5, 1, 1) == Mat2(0, -1, 1, 5)
    with pytest.raises(ValueError):
        mu(1, 2, 0)
    with pytest.raises(ValueError):
        eta(1, 2, 0)


@given(small, small, small_nonzero)
def test_mu_is_conjugated_transposed_eta(c, d, e):
    assert mu(c, d, e) == TAU * eta(c, d, e).transpose() * TAU


@given(small, small_nonzero, small_nonzero)
def test_eta_inverse_identity(c, d, e):
    assert eta(c, d, e) * (TAU * eta(c, e, d) * TAU) == Mat2.identity()


@given(small, small, small_nonzero)
def test_mu_determinant(c, d, e):
    assert mu(c, d, e).det() == d / e


def test_build_pattern_triangle_rows():
    grid = build_pattern(["5", "2", "3"], ["3", "5", "2"])
    assert grid.rows == (
        (0, 5, 3, 0),
        (0, 2, 5, 0),
        (0, 3, 2, 0),
    )


def test_build_pattern_square_3753():
    grid = build_pattern([3, 7, 5, 3], [4, 9, 4, 9])
    assert grid.rows == (
        (0, 3, 4, 3, 0),
        (0, 7, 9, 3, 0),
        (0, 5, 4, 7, 0),
        (0, 3, 9, 5, 0),
    )


def test_build_pattern_hexagon_roundtrip(hexagon_frieze):
    # the quiddity is read off the triangulation frieze, then fed back in
    assert tuple(int(x) for x in hexagon_frieze.quiddity_cycle) \
        == (1, 4, 1, 2, 2, 2)
    grid = build_pattern(hexagon_frieze.boundary_sequence,
                         hexagon_frieze.quiddity_cycle)
    assert to_polygon(grid) == hexagon_frieze


def test_build_pattern_input_validation():
    with pytest.raises(ValueError):
        build_pattern([1, 0, 1], [1, 1, 1])
    with pytest.raises(ValueError):
        build_pattern([1, 1, 1], [1, 1])
    with pytest.raises(ValueError):
        build_pattern([1, 1], [1, 1])


@given(small_nonzero, small_nonzero, small_nonzero)
def test_closure_product_triangle_is_negative_identity(a, b, c):
    assert closure_product([a, b, c], [c, a, b]) == -Mat2.identity()


def test_closure_product_squares():
    assert closes_to_negative_identity([1, 1, 1, 1], [1, 2, 1, 2])
    assert not closes_to_negative_identity([1, 1, 1, 1], [1, 1, 1, 1])


def test_entry_via_product_examples(hexagon_frieze):
    b, q = [3, 7, 5, 3], [4, 9, 4, 9]
    assert entry_via_product(b, q, 0, 2) == 4
    hb = hexagon_frieze.boundary_sequence
    hq = hexagon_frieze.quiddity_cycle
    assert entry_via_product(hb, hq, 1, 3) == 4
    assert entry_via_product(hb, hq, 1, 0) == -hb[0]  # empty product
    with pytest.raises(ValueError):
        entry_via_product(b, q, 0, 4)


def test_entry_via_product_recovers_boundary():
    for tri in enumerate_triangulations(5):
        f = frieze_from_triangulation(tri)
        b, q = f.boundary_sequence, f.quiddity_cycle
        for i in range(5):
            assert entry_via_product(b, q, i, i + 1) == b[i % 5]


def test_entry_via_product_matches_build_everywhere():
    cases = [
        ([3, 7, 5, 3], [4, 9, 4, 9]),
        ([1, 1, 1, 1, 1], [1, 2, 2, 1, 3]),
        ([2, 3, 5], [5, 2, 3]),
    ]
    for b, q in cases:
        grid = build_pattern(b, q)
        m = grid.m
        for i in range(m):
            for j in range(i - 1, i + m):
                assert entry_via_product(b, q, i, j) == grid.entry(i, j)


@given(st.lists(small_nonzero, min_size=4, max_size=6))
def test_product_determinant_telescopes(boundary):
    m = len(boundary)
    quiddity = list(range(1, m + 1))
    product = Mat2.identity()
    i = 1
    for k in range(i, i + m - 1):
        product = product * mu(quiddity[(k - 1) % m], boundary[k % m],
                               boundary[(k - 1) % m])
        assert product.det() == Fraction(boundary[k % m]) / boundary[(i - 1) % m]


def test_column_propagation_on_built_grids(hexagon_frieze):
    grid = build_pattern(hexagon_frieze.boundary_sequence,
                         hexagon_frieze.quiddity_cycle)
    d, q, m = grid.boundary_sequence, grid.quiddity_cycle, grid.m
    for i in range(m):
        mat = mu(q[(i - 1) % m], d[i % m], d[(i - 1) % m]).transpose()
        for k in range(i, i + m + 1):
            top, mid = grid.entry(i - 1, k), grid.entry(i, k)
            out = (mat.a11 * top + mat.a12 * mid, mat.a21 * top + mat.a22 * mid)
            assert out == (mid, grid.entry(i + 1, k))


@settings(deadline=None)
@given(st.integers(min_value=3, max_value=8).flatmap(lambda m: st.tuples(
    st.lists(small_nonzero | st.integers(-9, 9).filter(bool) | not_whole,
             min_size=m, max_size=m),
    st.lists(small | st.integers(-30, 30), min_size=m, max_size=m))))
@example(([Fraction(1, 2), 3, Fraction(-2, 3), Fraction(5, 4)], [1, Fraction(7, 6), -2, 5]))
@example(([Fraction(3, 2)] * 5, [Fraction(3, 2)] * 5))
@example(([1, 1, 1, 1, 2], [1, 1, 1, 1, 2]))  # an int row step with a remainder
def test_kernel_matches_mu_product_oracle(cycles):
    """Rational cycles are cleared to ints; a row may leave the ints on the way."""
    boundary, quiddity = cycles
    m = len(boundary)
    product = closure_product(boundary, quiddity)
    assert product == mu_prefix_products(boundary, quiddity, 1)[-1]
    assert {type(x) for x in (product.a11, product.a12, product.a21, product.a22)} \
        == {Fraction}
    grid = build_pattern(boundary, quiddity)
    assert {type(x) for row in grid.rows for x in row} == {Fraction}
    for i in range(m):
        seed = -boundary[(i - 1) % m]
        assert entry_via_product(boundary, quiddity, i, i - 1) == seed
        assert type(entry_via_product(boundary, quiddity, i, i - 1)) is Fraction
        assert grid.entry(i, i - 1) == seed
        for j, product in enumerate(mu_prefix_products(boundary, quiddity, i), i):
            expected = seed * product.a11
            entry = entry_via_product(boundary, quiddity, i, j)
            assert entry == expected and type(entry) is Fraction
            assert grid.entry(i, j) == expected


def _spelled(values, kinds):
    """``values`` as ``Fraction``s, ints (when whole) or scalar strings, one kind each."""
    spell = {"str": scalar_to_str, "fraction": lambda x: x,
             "int": lambda x: int(x) if x.denominator == 1 else x}
    return [spell[kind](x) for x, kind in zip(values, kinds)]


@settings(deadline=None)
@given(st.integers(min_value=3, max_value=7).flatmap(lambda m: st.tuples(
    st.lists(small_nonzero, min_size=m, max_size=m), st.lists(small, min_size=m, max_size=m),
    st.lists(st.sampled_from(("fraction", "int", "str")), min_size=2 * m, max_size=2 * m))))
@example(([Fraction(1, 2), Fraction(3), Fraction(-2, 3)],
          [Fraction(5, 4), Fraction(-7), Fraction(0)], ["str", "int", "fraction"] * 2))
def test_scalar_strings_and_mixed_cycles_match_fraction_cycles(case):
    """Strings, ints and ``Fraction``s in one cycle give the all-``Fraction`` results."""
    boundary, quiddity, kinds = case
    m = len(boundary)
    expected = closure_product(boundary, quiddity)
    entries = {(i, j): entry_via_product(boundary, quiddity, i, j)
               for i in range(m) for j in range(i - 1, i + m)}
    for b, q in ((_spelled(boundary, kinds), _spelled(quiddity, kinds[m:])),
                 (_spelled(boundary, ["str"] * m), _spelled(quiddity, ["str"] * m))):
        product = closure_product(b, q)
        assert product == expected
        assert [type(x) for x in (product.a11, product.a12, product.a21, product.a22)] \
            == [type(x) for x in (expected.a11, expected.a12, expected.a21, expected.a22)]
        for (i, j), value in entries.items():
            entry = entry_via_product(b, q, i, j)
            assert entry == value and type(entry) is type(value) is Fraction


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=7).flatmap(lambda m: st.tuples(
    st.lists(st.integers(-9, 9).filter(bool), min_size=m, max_size=m),
    st.lists(st.integers(-30, 30), min_size=m, max_size=m),
    st.tuples(st.integers(-3 * m, 3 * m), st.integers(0, 3 * m)),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)))))
@example(([1, 1, 1, 1, 2], [1, 1, 1, 1, 2], (-7, 12), (-1, 0)))  # int steps with remainders
@example(([2, 3, 1], [1, 5, 2], (9, 10), (0, 1)))  # k past m, more steps than m
# _cycles([1/2, 3, -2/3], [1, 7/6, -2]): rational cycles as the entry points clear them
@example(([3, 18, -4], [6, 7, -12], (0, 7), (1, 0)))
@example(([-2, 3, -5, 7], [1, 1, 1, 2], (3, 3), (5, 0)))  # a remainder at a negative divisor
def test_walk_running_index_matches_modular_oracle(case):
    """Started at any k (k <= 0, k > m) for any number of steps, on int
    cycles, the wrapping index reads the same factors."""
    d, q, (k, steps), (x, y) = case
    walked = list(_walk(x, y, d, q, k, steps))
    expected = walk_oracle(x, y, d, q, k, steps)
    assert walked == expected
    assert [type(v) for v in walked] == [type(v) for v in expected]


#: Int boundary cycles, with the entry types their walks give: a cycle of
#: 1s takes the inlined loop, any other (divisors -1 included) the loop over
#: a running denominator, which gives ints until the first remainder.
UNIT_WALKS = [
    ((1, 1, 1, 1, 1), [1, 3, 1, 2, 2], (-1, 0), {int}),
    ([1, 1, 1, 1, 1], [1, 3, 1, 2, 2], (0, 1), {int}),
    ([1, 1, 1, 1, 1], [0, 3, -1, 2, 2], (-1, 0), {int}),
    ([1, -1, 1, -1], [2, 3, 1, 2], (-1, 0), {int}),
    ((1, 1, 2, 1, 1), [1, 3, 2, 2, 2], (-1, 0), {int, Fraction}),
    ([2, 2, 2], [4, 2, 6], (2, 4), {int}),
]


@pytest.mark.parametrize("d, q, seed, types", UNIT_WALKS)
def test_unit_walk_types_match_the_oracle(d, q, seed, types):
    for k, steps in ((1, len(d) - 1), (0, 3 * len(d)), (-2, 1)):
        walked = _walk(*seed, d, q, k, steps)
        expected = walk_oracle(*seed, d, q, k, steps)
        assert type(walked) is list and walked == expected
        assert [type(v) for v in walked] == [type(v) for v in expected]
    assert {type(v) for v in _walk(*seed, d, q, 0, 3 * len(d))} == types


def test_every_caller_hands_the_kernel_ints(monkeypatch):
    """The kernel's contract: each window value and cycle entry that ``_walk``
    receives is an int, from every entry point and every namespace that holds
    it, on rational and string cycles and every kind of domain."""
    seen = []

    def spy(kernel):
        def recorded(*args):
            seen.append(args)
            return kernel(*args)
        return recorded

    for module in (frieze.propagation, frieze.enumeration, frieze.triangulation):
        if hasattr(module, "_walk"):
            monkeypatch.setattr(module, "_walk", spy(module._walk))
    rational = ([Fraction(1, 2), 3, Fraction(-2, 3), Fraction(5, 4)], [1, Fraction(7, 6), -2, 5])
    for boundary, quiddity in (rational, [list(map(scalar_to_str, c)) for c in rational]):
        build_pattern(boundary, quiddity)
        closure_product(boundary, quiddity)
        entry_via_product(boundary, quiddity, 2, 4)
    t = accordion(7, 5)[0]
    cc_labels_from(t, 2)
    frieze_from_triangulation(t)
    for spec, boundary in (("scaled:1/2", "1/2,1/2,1,1"), ("nonzero-int", "1,1,-1,-1,1"),
                           ("set:-1,1/2,2", "2,2,2,2")):
        enumerate_friezes([Fraction(x) for x in boundary.split(",")], parse_domain(spec))
    assert seen
    for args in seen:
        assert all(type(v) is int for v in (*args[:2], *args[2], *args[3])), args


def cycles_oracle(boundary, quiddity):
    """The two-pass ``_cycles``: each cycle coerced and cleared on its own, then rescaled to one L."""
    big_d, (d,) = _cleared(([as_scalar(v) for v in boundary],))
    if len(d) < 3:
        raise ValueError("boundary sequence needs at least 3 values")
    if 0 in d:
        raise ValueError("boundary entries must be nonzero")
    big_q, (q,) = _cleared(([as_scalar(v) for v in quiddity],))
    if len(q) < 3:
        raise ValueError("quiddity cycle needs at least 3 values")
    if len(q) != len(d):
        raise ValueError("boundary and quiddity must have the same length")
    big = lcm(big_d, big_q)
    return big, [x * (big // big_d) for x in d], [x * (big // big_q) for x in q]


def _cycles_outcome(clear, boundary, quiddity):
    try:
        return clear(boundary, quiddity)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


#: Inputs with two faults at once, each pair reported in the order of the oracle.
DOUBLE_FAULTS = [
    ([1, 1], ["x", 1, 1]),                      # short boundary, bad quiddity scalar
    ([1, 0, 1], [1, 1, 1, 1]),                  # zero boundary, length mismatch
    (["1/0", 0, 1], [1, 1, 1]),                 # malformed boundary scalar, zero boundary
    ([1.5, 1, 1], [1, 1]),                      # float boundary value, short quiddity
    ([1, 1, 1], ["1", "y"]),                    # malformed quiddity scalar, short quiddity
    ([1, 1, 1, 1], [1, 1]),                     # short quiddity, length mismatch
    ([1, 1, 1], [None, 1, 1, 1]),               # quiddity value of no scalar type, mismatch
    (["0/5", 2, 3], [1]),                       # zero boundary as text, short quiddity
    ([], ["", 1, 1]),                           # empty boundary, malformed quiddity scalar
    ([Fraction(0), Fraction(1, 2)], [1, 1, 1]),  # zero boundary in a short boundary
    ([0, 0, 0], ["1/0", 1, 1]),                 # zero boundary, malformed quiddity scalar
]

scalar_or_junk = st.one_of(st.integers(-3, 3), small, st.sampled_from(
    ["2/3", "-1", "0", "0/4", "1/0", "x", "", " 5 ", 1.0, None, True]))


@settings(deadline=None)
@given(st.lists(scalar_or_junk, max_size=5), st.lists(scalar_or_junk, max_size=5))
@example([True, 2, Fraction(3, 4)], [1, "2/3", 0])  # a bool reads as 1
def test_cycles_match_the_two_pass_oracle(boundary, quiddity):
    """Cleared cycles, or the error type and message with the oracle's precedence."""
    assert _cycles_outcome(_cycles, boundary, quiddity) \
        == _cycles_outcome(cycles_oracle, boundary, quiddity)


@pytest.mark.parametrize("boundary, quiddity", DOUBLE_FAULTS)
def test_cycles_report_the_first_of_two_faults(boundary, quiddity):
    expected = _cycles_outcome(cycles_oracle, boundary, quiddity)
    assert expected[0] in (TypeError, ValueError)
    for clear in (_cycles, build_pattern, closure_product,
                  lambda b, q: entry_via_product(b, q, 0, 1)):
        assert _cycles_outcome(clear, boundary, quiddity) == expected


#: Rows that leave the ints with several remainders and come back to whole
#: entries on the way: (boundary, quiddity, row i).
RETURNING_ROWS = [
    ([3, 2, 3, 2, -2, 1], [1, 4, 3, 3, 5, 2], 1),
    ([1, Fraction(2, 3), 1, 2, Fraction(1, 2), 1],
     [3, Fraction(1, 3), 1, Fraction(1, 3), Fraction(1, 3), 3], 3),
    ([4, 3, 4, 3, 2, 1], [4, 3, 1, 2, 1, 1], 1),
]


def test_rows_that_return_to_whole_entries_stay_fractions():
    """After a remainder the row is ``Fraction``s, a whole entry included."""
    for boundary, quiddity, i in RETURNING_ROWS:
        big, d, q = _cycles(boundary, quiddity)
        row = list(_walk(-d[i - 1], 0, d, q, i, len(d) - 1))
        assert row == walk_oracle(-d[i - 1], 0, d, q, i, len(d) - 1)
        first = next(n for n, v in enumerate(row) if type(v) is not int)
        later = row[first:]
        assert all(type(v) is Fraction for v in later)
        assert sum(v.denominator > 1 for v in later) >= 2
        assert any(v.denominator == 1 for v in later)


non_unit_int = st.integers(-6, 6).filter(lambda x: x not in (-1, 0, 1))
rational = st.fractions(min_value=-6, max_value=6, max_denominator=5).filter(bool)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=3, max_value=40).flatmap(lambda m: st.tuples(
    st.lists(non_unit_int | st.just(1) | rational, min_size=m, max_size=m),
    st.lists(st.integers(-9, 9) | rational, min_size=m, max_size=m))))
@example(tuple(RETURNING_ROWS[0][:2]))
@example(tuple(RETURNING_ROWS[1][:2]))
@example(([2] * 40, [1, 3] * 20))
@example(([Fraction(3, 2), 5, -4, Fraction(2, 5)] * 10, [Fraction(1, 3), 7, -2, 3, 1] * 8))
def test_long_non_unit_walks_match_the_mu_product_oracle(cycles):
    """Long rows on non-unit int and rational cycles, with many remainders a row:
    every entry point gives the mu-product values, all as ``Fraction``s, and
    each cleared row walks as the one-step oracle does, types included."""
    boundary, quiddity = cycles
    m = len(boundary)
    products = {i: mu_prefix_products(boundary, quiddity, i) for i in range(m)}
    closure = closure_product(boundary, quiddity)
    assert closure == products[1][-1]
    assert {type(x) for x in (closure.a11, closure.a12, closure.a21, closure.a22)} == {Fraction}
    grid = build_pattern(boundary, quiddity)
    assert {type(x) for row in grid.rows for x in row} == {Fraction}
    big, d, q = _cycles(boundary, quiddity)
    for i in range(m):
        seed = -boundary[(i - 1) % m]
        walked = list(_walk(-d[i - 1], 0, d, q, i, m - 1))
        expected = walk_oracle(-d[i - 1], 0, d, q, i, m - 1)
        assert walked == expected
        assert [type(v) for v in walked] == [type(v) for v in expected]
        for j, product in enumerate(products[i], i):
            value = seed * product.a11
            assert grid.entry(i, j) == value
            if (i + j) % 3 == 0 or m <= 12:  # entry_via_product walks from scratch each call
                entry = entry_via_product(boundary, quiddity, i, j)
                assert entry == value and type(entry) is Fraction
