from fractions import Fraction
from math import floor, lcm

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import enumeration_oracle as oracle
from frieze import (DomainSpec, EnumerationBudgetExceeded, FriezeMap, Mat2, build_pattern,
                    closure_product, enumerate_friezes, enumerate_triangulations,
                    frieze_from_triangulation, grid_from_polygon, parse_domain,
                    quiddity_bound, scale, validate_local, validate_tame,
                    verify_all_ptolemy)
from frieze.enumeration import (MAX_NODES, _cap, _integer_problem, _window,
                                enumeration_summary)
from table_checks import assert_same_table

NAT = DomainSpec.positive_integers()
#: lattices with positive and negative factors, and sets with 0, a
#: denominator and negative members
ORACLE_DOMAINS = ("nat", "nonzero-int", "scaled:1/2", "scaled:-2/3", "scaled-nat:-1/2",
                  "scaled-nat:2", "set:0,1,2", "set:-1,1/2,2", "set:-2,-1,1,2,3")


def divisor_count(n):
    return sum(1 for x in range(1, n + 1) if n % x == 0)


def test_quiddity_bound_values():
    for n in range(1, 5):
        data = quiddity_bound([1] * (n + 3), 1)
        assert data.B == n + 1
    data = quiddity_bound([3, 7, 5, 3], 1)
    assert (data.P, data.M, data.n, data.B) == (7, 1, 1, 392)


def test_quiddity_bound_rejects_small_boundary():
    with pytest.raises(ValueError, match="rescale"):
        quiddity_bound([Fraction(1, 2)] * 4, Fraction(1, 2))
    with pytest.raises(ValueError):
        quiddity_bound([1, 1, 1, 1], 0)
    with pytest.raises(ValueError):
        quiddity_bound([1, 0, 1, 1], 1)
    with pytest.raises(ValueError, match="height n >= 1"):
        quiddity_bound([2, 3, 5], 1)  # height 0, where B would read -475


def test_enumerate_divisor_counts():
    # height-1 friezes for boundary (a, b, c, d) pair off with divisors of ac + bd
    assert len(enumerate_friezes([3, 7, 5, 3], NAT)) == divisor_count(36)
    assert len(enumerate_friezes([1, 1, 2, 2], NAT)) == divisor_count(4)
    assert len(enumerate_friezes([1, 1, 1, 1], NAT)) == divisor_count(2)


def test_enumerate_square_structure():
    results = enumerate_friezes([3, 7, 5, 3], NAT)
    diagonal_pairs = set()
    for f in results:
        x, y = (f.value(1, 3), f.value(2, 4))
        assert x * y == 36
        diagonal_pairs.add((int(x), int(y)))
    assert len(diagonal_pairs) == 9


def test_enumerate_matches_triangulations():
    for n in (1, 2, 3):
        found = enumerate_friezes([1] * (n + 3), NAT)
        from_tri = {frieze_from_triangulation(t)
                    for t in enumerate_triangulations(n + 3)}
        assert set(found) == from_tri
        assert len(found) == len(from_tri)


def test_enumerated_friezes_are_valid():
    for f in enumerate_friezes([1, 1, 2, 2], NAT):
        grid = grid_from_polygon(f)
        assert validate_local(grid).ok
        assert validate_tame(grid).ok
        assert verify_all_ptolemy(f).ok


def test_height_zero_is_forced():
    results = enumerate_friezes([2, 3, 5], NAT)
    assert len(results) == 1
    assert dict(results[0].pairs()) == {(1, 2): 3, (2, 3): 5, (1, 3): 2}


def test_enumerate_over_signed_integers():
    # over all nonzero integers the boundary (1,1,1,1) gains the two
    # sign-flipped diagonal fillings
    results = enumerate_friezes([1, 1, 1, 1], DomainSpec.nonzero_integers())
    diagonals = sorted((int(f.value(1, 3)), int(f.value(2, 4))) for f in results)
    assert diagonals == [(-2, -1), (-1, -2), (1, 2), (2, 1)]


def test_zero_in_domain_never_appears_inside():
    domain = DomainSpec.finite_set([0, 1, 2])
    results = enumerate_friezes([1, 1, 1, 1], domain)
    assert len(results) == 2
    for f in results:
        assert all(v != 0 for _, v in f.pairs())


def test_scaling_equivariance():
    base = enumerate_friezes([1, 1, 2, 2], NAT)
    for z in (Fraction(2), Fraction(1, 2)):
        scaled_domain = NAT.scaled(z)
        scaled_boundary = [z, z, 2 * z, 2 * z]
        scaled = enumerate_friezes(scaled_boundary, scaled_domain)
        assert set(scaled) == {scale(f, z) for f in base}


def test_internal_rescaling_path():
    half = Fraction(1, 2)
    domain = NAT.scaled(half)
    found = enumerate_friezes([half] * 4, domain)
    classic = enumerate_friezes([1] * 4, NAT)
    assert set(found) == {scale(f, half) for f in classic}
    assert len(found) == 2


def test_enumeration_is_deterministic():
    first = enumerate_friezes([1, 1, 2, 2], NAT)
    second = enumerate_friezes([1, 1, 2, 2], NAT)
    assert first == second
    assert first == sorted(first, key=lambda f: f.sort_key())


def test_boundary_must_come_from_domain():
    with pytest.raises(ValueError):
        enumerate_friezes([1, 1, Fraction(1, 2), 1], NAT)
    with pytest.raises(ValueError):
        enumerate_friezes([1, 0, 1, 1], NAT)


def test_bound_soundness_for_results():
    bound = quiddity_bound([1, 1, 2, 2], NAT.min_modulus).B
    for f in enumerate_friezes([1, 1, 2, 2], NAT):
        assert all(abs(q) <= bound for q in f.quiddity_cycle)


def test_summary_record():
    results = enumerate_friezes([3, 7, 5, 3], NAT)
    summary = enumeration_summary([3, 7, 5, 3], NAT, results)
    assert summary == {"boundary": ["3", "7", "5", "3"], "domain": "nat",
                       "count": 9, "bound": "392"}


def test_finite_set_domain_prunes_missing_divisors():
    full = DomainSpec.finite_set([1, 2, 3, 4, 5, 6, 7, 9, 12, 18, 36])
    assert len(enumerate_friezes([3, 7, 5, 3], full)) == 9
    no_36 = DomainSpec.finite_set([1, 2, 3, 4, 5, 6, 7, 9, 12, 18])
    # the (1, 36) and (36, 1) diagonal fillings need 36 in the domain
    assert len(enumerate_friezes([3, 7, 5, 3], no_36)) == 7


def boundary_values(domain, modulus):
    """Members of ``domain`` that the search scales to ints of modulus <= ``modulus``."""
    if domain.values is None:
        unit = domain.min_modulus
    else:
        unit = Fraction(1, lcm(*(v.denominator for v in domain.values)))
    return domain.enumerate_bounded(modulus * unit)


@st.composite
def small_problems(draw):
    """A boundary of 3..6 entries over one of ``ORACLE_DOMAINS``.

    Scaled to ints, entries have modulus <= 2 up to m = 4 and modulus 1
    beyond: the Fraction oracle takes seconds to minutes on m = 5 with an
    entry of modulus 2, and up to 0.4 s on m = 6 at modulus 1.
    """
    domain = parse_domain(draw(st.sampled_from(ORACLE_DOMAINS)))
    m = draw(st.integers(3, 6))
    values = boundary_values(domain, 2 if m <= 4 else 1)
    return draw(st.lists(st.sampled_from(values), min_size=m, max_size=m)), domain


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_int_setup_matches_the_fraction_rules(data):
    """The search's int cap and boundary membership against ``quiddity_bound`` and ``in``."""
    domain = parse_domain(data.draw(st.sampled_from(ORACLE_DOMAINS)))
    z, members, member = _integer_problem(domain)
    scaled = domain.scaled(z)
    if members is None:
        big_m = 1
    else:
        assert members == tuple(sorted(int(v) for v in scaled.values if v))
        big_m = min(map(abs, members))
    assert big_m == scaled.min_modulus
    nonzero = st.integers(-60, 60).filter(bool)
    dz = data.draw(st.lists(nonzero, min_size=4, max_size=10))
    for modulus in (big_m, data.draw(st.integers(1, 7))):
        assert _cap(dz, modulus) == floor(quiddity_bound(dz, modulus).B)
    x = data.draw(st.sampled_from(boundary_values(domain, 4))
                  | st.fractions(-8, 8, max_denominator=6).filter(bool))
    y = x * z
    assert (y.denominator == 1 and member(y.numerator)) == (x in domain)
    if x in domain:  # height 0: the boundary is the whole frieze
        assert enumerate_friezes([x] * 3, domain)[0].boundary_sequence == (x,) * 3
    else:
        with pytest.raises(ValueError, match=f"boundary entry {x} lies outside the domain"):
            enumerate_friezes([x] * 3, domain)


@given(st.integers(-40, 40).filter(bool), st.integers(-400, 400), st.integers(0, 300))
def test_window_ends_are_exact(a, t, width):
    low, high = _window(a, t, width)
    assert [q for q in range(-800, 801) if abs(q * a - t) <= width] == list(range(low, high + 1))


@st.composite
def window_problems(draw):
    """A boundary of 5..7 entries over one of ``ORACLE_DOMAINS``, scaled modulus <= 2."""
    domain = parse_domain(draw(st.sampled_from(ORACLE_DOMAINS)))
    m = draw(st.integers(5, 7))
    values = boundary_values(domain, 2)
    return draw(st.lists(st.sampled_from(values), min_size=m, max_size=m)), domain


@settings(deadline=None, max_examples=60)
@given(window_problems())
def test_found_friezes_lie_in_the_window(problem):
    """Each step of the level m - 5 window argument (module docstring) holds on every result."""
    boundary, domain = problem
    try:
        found = enumerate_friezes(boundary, domain, max_nodes=20_000)
    except EnumerationBudgetExceeded:
        reject()
    z, members, _ = _integer_problem(domain)
    m, d = len(boundary), [int(x * z) for x in boundary]
    top = _cap(d, 1 if members is None else min(map(abs, members)))
    width = abs(d[m - 5]) * ((top * top + abs(d[m - 3] * d[m - 1])) // abs(d[m - 2]))
    for f in found:
        c = [x * z for x in grid_from_polygon(f).rows[0]]  # c(0, 0..m)
        q = [x * z for x in f.quiddity_cycle]
        assert all(abs(x) <= top for x in q)
        assert c[m - 2] == q[m - 2]
        assert q[m - 3] * c[m - 2] == d[m - 3] * d[m - 1] + d[m - 2] * c[m - 3]
        assert c[m - 3] * d[m - 5] == q[m - 5] * c[m - 4] - d[m - 4] * c[m - 5]
        assert abs(q[m - 5] * c[m - 4] - d[m - 4] * c[m - 5]) <= width


@settings(deadline=None, max_examples=60)
@given(small_problems())
def test_search_matches_fraction_oracle(problem):
    boundary, domain = problem
    found = enumerate_friezes(boundary, domain)
    expected = oracle.enumerate_friezes(boundary, domain)
    assert [f.sort_key() for f in found] == [f.sort_key() for f in expected]
    assert all(type(v) is Fraction for f in found for _, v in f.pairs())


@pytest.mark.parametrize("spec, boundary", [
    ("scaled:-2/3", "-2/3,-2/3,-2/3,-2/3,-2/3"), ("scaled:-2/3", "2/3,2/3,2/3,2/3"),
    ("scaled:-2/3", "-2/3,2/3,-2/3,2/3,-2/3"),
    ("scaled-nat:-1/2", "-1/2,-1/2,-1/2,-1/2,-1/2,-1/2"), ("scaled-nat:-1/2", "-1,-1/2,-1/2,-1/2")])
def test_negative_scale_sorts_like_the_oracle(spec, boundary):
    # the search scales these domains by z < 0, and x / z runs in the reverse order of x
    domain, boundary = parse_domain(spec), [Fraction(x) for x in boundary.split(",")]
    found = enumerate_friezes(boundary, domain)
    assert len(found) >= 2
    assert [f.sort_key() for f in found] == \
        [f.sort_key() for f in oracle.enumerate_friezes(boundary, domain)]


@pytest.mark.parametrize("spec, boundary", [
    ("nat", "3,7,5,3"), ("nonzero-int", "1,1,-1,-1,1"), ("scaled:1/2", "1/2,1/2,1,1"),
    ("scaled:-2/3", "-2/3,-2/3,-2/3,-2/3,-2/3"), ("scaled-nat:2", "2,2,2,2"), ("nat", "2,3,5"),
    ("scaled:3/2", "3/2,3/2,3/2,3/2"), ("set:1,2,3", "1,1,1,1,1"), ("set:-1,1,2,3", "1,1,1,1"),
    ("set:2,4,6", "2,2,2,2,2"),
    # entries that share a factor with the search's scale z, which the fold divides out
    ("scaled:1/2", "1,1,1,1"), ("scaled:-2/3", "2,2,2,2"), ("set:1/2,1,2", "1,1,1,1")])
def test_results_carry_their_cleared_table(spec, boundary):
    """Each result holds the cleared table and reads of the oracle's map, as
    the validating constructor builds it."""
    d, domain = [Fraction(x) for x in boundary.split(",")], parse_domain(spec)
    found, expected = enumerate_friezes(d, domain), oracle.enumerate_friezes(d, domain)
    assert found and len(found) == len(expected)
    for f, g in zip(found, expected):
        assert_same_table(f, FriezeMap(g.m, dict(g.pairs())))


#: the quiddity values the search tries on each boundary over N, a node each
LARGE_NODES = {(6, 1, 8, 6, 3): 4_918, (2, 3, 5, 7, 11): 16_181}


@pytest.mark.parametrize("boundary, count", [((6, 1, 8, 6, 3), 31), ((2, 3, 5, 7, 11), 16)])
def test_large_boundaries_finish_within_the_default_budget(boundary, count):
    # B is 4,672 and 16,093: trying every candidate at each looped level overruns the budget
    nodes = LARGE_NODES[boundary]
    assert nodes <= MAX_NODES
    found = enumerate_friezes(boundary, NAT, max_nodes=nodes)
    assert len(found) == count
    assert all(f.boundary_sequence == boundary for f in found)
    # the last node finds nothing, so one node fewer stops with every frieze found
    with pytest.raises(EnumerationBudgetExceeded, match=f"^enumeration stopped at its budget "
                       f"of {nodes - 1} nodes: {nodes - 1} quiddity values tried, "
                       f"{count} friezes found so far$"):
        enumerate_friezes(boundary, NAT, max_nodes=nodes - 1)


@pytest.mark.parametrize("m, catalan", [(8, 132), (9, 429), (10, 1430),
                                         pytest.param(11, 4862, marks=pytest.mark.slow)])
def test_unit_boundaries_give_the_triangulation_friezes(m, catalan):
    found = enumerate_friezes([1] * m, NAT, max_nodes=MAX_NODES)
    assert len(found) == catalan
    assert set(found) == {frieze_from_triangulation(t) for t in enumerate_triangulations(m)}


def test_signed_unit_boundary_gives_the_triangulation_friezes():
    # over Z minus 0 too, nine unit entries give only the classic friezes
    found = enumerate_friezes([1] * 9, parse_domain("nonzero-int"), max_nodes=MAX_NODES)
    assert len(found) == 429
    assert set(found) == {frieze_from_triangulation(t) for t in enumerate_triangulations(9)}


def test_pins_alone_rule_out_the_sign_flipped_pentagon():
    # the search folds every leaf without a glide or closure check, so the
    # solved levels must reject the negated Conway-Coxeter quiddities: their
    # entries are nonzero ints, and only c(i, i+m-1) = -1 != d_{i-1} gives
    # them away, which level m - 3 rules out by solving for c(0, m-1) = d_{m-1}
    flipped = (-3, -1, -2, -2, -1)
    assert closure_product([1] * 5, flipped) == Mat2.identity()
    assert all(v != 0 for row in build_pattern([1] * 5, flipped).rows for v in row[1:-1])
    found = enumerate_friezes([1] * 5, parse_domain("nonzero-int"))
    assert set(found) == {frieze_from_triangulation(t) for t in enumerate_triangulations(5)}
    assert len(found) == 5
    assert flipped not in {f.quiddity_cycle for f in found}


def test_congruence_classes_that_never_meet_leave_no_candidate():
    # twice a row's class of q mod d[l] misses the class the earlier rows
    # merged into, so the Chinese remainder theorem leaves that level empty
    boundary, domain = (1, 4, 4, 1, 1, 1, 4), parse_domain("set:1,2,4,6,8")
    assert enumerate_friezes(boundary, domain) == [] == oracle.enumerate_friezes(boundary, domain)


def test_non_integral_entries_are_pruned():
    # from height 3 on, c(i, i+3) is neither a quiddity nor a boundary entry
    # up to glide, so it can leave the lattice while the quiddity stays in
    # it: here a branch reaches 3/2 with every quiddity entry a positive int
    found = enumerate_friezes([2, 2, 2, 1, 2, 2], NAT)
    assert len(found) == 68  # as the Fraction oracle finds, in about 100 s
    for f in found:
        assert all(v in NAT for _, v in f.pairs())
        grid = grid_from_polygon(f)
        assert validate_local(grid).ok and validate_tame(grid).ok


def test_budget_stops_the_search():
    with pytest.raises(EnumerationBudgetExceeded,
                       match="budget of 10 nodes: 10 quiddity values tried"):
        enumerate_friezes([3, 7, 5, 3], NAT, max_nodes=10)
    assert issubclass(EnumerationBudgetExceeded, ValueError)
    full = enumerate_friezes([3, 7, 5, 3], NAT)
    assert enumerate_friezes([3, 7, 5, 3], NAT, max_nodes=10 ** 6) == full
    # height 0 has nothing to search
    assert len(enumerate_friezes([2, 3, 5], NAT, max_nodes=0)) == 1
