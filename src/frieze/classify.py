"""Which label triples sit on a triangle inside a classic integer frieze.

The answer runs through a six-coordinate calculus: a triangle (a, b, c)
cut out of a classic frieze factors through a separating unit triangle
into three coprime pairs, and conversely any nonnegative coprime-pair
tuple can be realized by gluing three accordion triangulations.  The
arithmetic fingerprint of realizability is a gcd condition plus a
condition on 2-valuations; the constructive direction finds a witness
tuple by Bezout + per-prime residue selection, then drives it into the
nonnegative orthant with a determinant-one transform.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from itertools import permutations
from math import gcd

from .scalars import p_valuation, prime_factors
from .triangulation import (Triangulation, _accordion_size, _check_size, accordion,
                            cc_labels_from, glue_three)


CoeffTuple = namedtuple("CoeffTuple", "a1 a2 b1 b2 c1 c2", module=__name__)
CoeffTuple.__doc__ = "Element (a1, a2, b1, b2, c1, c2) of the coprime-pair set: six ints."


def in_coefficient_set(t: CoeffTuple) -> bool:
    """Membership test: the three coordinate pairs must each be coprime."""
    return (gcd(t.a1, t.a2) == 1 and gcd(t.b1, t.b2) == 1
            and gcd(t.c1, t.c2) == 1)


def delta(t: CoeffTuple) -> tuple[int, int, int]:
    """The triangle triple carried by a coefficient tuple."""
    if not in_coefficient_set(t):
        raise ValueError(f"{t} has a non-coprime coordinate pair")
    a1, a2, b1, b2, c1, c2 = t
    return (
        b1 * c1 + b1 * c2 + b2 * c2,
        a1 * c1 + a2 * c1 + a2 * c2,
        a1 * b1 + a1 * b2 + a2 * b2,
    )


def gamma_t(t: CoeffTuple, param: int) -> CoeffTuple:
    """The delta-preserving transform; blockwise determinant-one, so it
    maps coprime-pair tuples to coprime-pair tuples."""
    a1, a2, b1, b2, c1, c2 = t
    s = param
    return CoeffTuple(
        a1 * s - a2,
        a1 * (1 - s) + a2,
        -b2,
        b1 + b2 * (s + 1),
        c1 * s + c2 * (s - 1),
        c1 + c2,
    )


def classify_triangle(a: int, b: int, c: int) -> bool:
    """Can (a, b, c) appear as the labels of a triangle in a classic frieze?

    True iff gcd(a, b) = gcd(b, c) = gcd(a, c) and the 2-valuations of
    a, b, c are either all zero or take at least two distinct values.
    """
    if min(a, b, c) < 1:
        raise ValueError("triangle labels must be positive integers")
    if not gcd(a, b) == gcd(b, c) == gcd(a, c):
        return False
    v2 = {p_valuation(2, a), p_valuation(2, b), p_valuation(2, c)}
    return v2 == {0} or len(v2) > 1


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    return old_r, old_u, old_v


def coefficient_witness(a: int, b: int, c: int) -> tuple[int, int]:
    """Integers (a1, b2) with a1*a + b*b2 = c, gcd(a1, b) = gcd(a, b2) = 1.

    Bezout on a/d and b/d gives a one-parameter family of solutions; a
    residue for the parameter is picked separately at each prime dividing
    d = gcd(a, b) (at p = 2 the choice is forced by the parity pattern of
    a/d, b/d, c/d, which the classification condition makes favourable).
    Each residue is merged into k by the Chinese Remainder Theorem as soon
    as it is found, so k is the least nonnegative parameter with them all.
    """
    if not classify_triangle(a, b, c):
        raise ValueError(f"({a}, {b}, {c}) admits no coefficient witness")
    d = gcd(a, b)
    ap, bp, cp = a // d, b // d, c // d
    g, u, v = _extended_gcd(ap, bp)
    assert g == 1
    k, modulus = 0, 1
    for p in prime_factors(d):
        for r in range(p):
            if (u * cp + r * bp) % p and (v * cp - r * ap) % p:
                k += modulus * ((r - k) * pow(modulus, -1, p) % p)
                modulus *= p
                break
        else:  # pragma: no cover - ruled out by the classification condition
            raise AssertionError(f"no usable residue mod {p}")
    a1 = u * cp + k * bp
    b2 = v * cp - k * ap
    assert a1 * a + b * b2 == c and gcd(a1, b) == 1 and gcd(a, b2) == 1
    return a1, b2


def _descent_target(t: CoeffTuple) -> tuple[int, int, int]:
    """delta(t), once t is checked to have the shape the descent expects."""
    if not in_coefficient_set(t):
        raise ValueError(f"{t} has a non-coprime coordinate pair")
    target = delta(t)
    if min(target) <= 0:
        raise ValueError("descent expects a componentwise positive delta")
    if target[2] > target[0] or target[2] > target[1]:
        raise ValueError("descent expects the third delta component minimal")
    if t.a1 < 0:
        raise ValueError("descent expects a1 >= 0")
    return target


def _completed(target: tuple[int, int, int]) -> CoeffTuple:
    """The nonnegative tuple with a1 = 0 and the given delta.

    A start with a1 = 0 completes as (0, 1, a - c, c, 0, 1), whose delta is
    (a, 1, c); a target whose second component is not 1 raises ``ValueError``.
    """
    a, _, c = target
    final = CoeffTuple(0, 1, a - c, c, 0, 1)
    if delta(final) != target:
        raise ValueError(f"an a1 = 0 start completes as (0, 1, a - c, c, 0, 1) = "
                         f"{tuple(final)}, whose delta {delta(final)} is not {target}")
    return final


def descent_steps(t: CoeffTuple) -> Iterator[CoeffTuple]:
    """Yield the tuples visited by the iceberg descent, start and end included.

    Expects a coprime-pair tuple with componentwise positive delta whose
    third component is minimal and with a1 >= 0 (the shape produced by the
    witness construction).  Each step applies gamma with parameter
    ceil(a2/a1); while b2 stays negative it must strictly increase, which
    is asserted and bounds the number of steps by |b2|.  This is the step
    by step descent that ``iceberg_descent`` jumps through by runs.
    """
    target = _descent_target(t)
    yield t
    if min(t) >= 0:
        return
    if t.a1 == 0:
        yield _completed(target)
        return
    current = t
    while True:
        s = -(-current.a2 // current.a1)  # ceil(a2 / a1)
        nxt = gamma_t(current, s)
        assert delta(nxt) == target
        yield nxt
        if nxt.a1 == 0:
            # forces a2 = 1 and b2 = c >= 0, so the tuple is complete
            assert min(nxt) >= 0
            return
        if min(nxt) >= 0:
            return
        assert 0 > nxt.b2 > current.b2, "descent must strictly raise b2"
        current = nxt


def _first_nonnegative(lines, last: int) -> int | None:
    """The least k in 1..last with u + k v >= 0 for every (u, v), or None."""
    first = 1
    for u, v in lines:
        if v > 0:
            first = max(first, -(u // v))  # ceil(-u / v)
        elif v < 0:
            last = min(last, u // -v)
        elif u < 0:
            return None
    return first if first <= last else None


def iceberg_descent(t: CoeffTuple) -> CoeffTuple:
    """Drive a witness tuple into the nonnegative orthant, delta unchanged.

    Ends where ``descent_steps`` ends, but jumps each run of steps with
    parameter s = 1.  The parameter ceil(a2/a1) is 1 exactly while
    0 < a2 <= a1.  There gamma is blockwise I + N with N^2 = 0, so k steps
    are I + kN:

        (a1, a2) -> (a1 - k a2, a2),
        (b1, b2) -> (b1 - k S, b2 + k S) with S = b1 + b2,
        (c1, c2) -> (c1, c2 + k c1).

    The run lasts K = floor(a1/a2) steps; after them a1 < a2, and a1 = 0
    when a2 divides a1.  It ends earlier at the first k whose tuple is
    nonnegative, found per coordinate by one floor division since each
    coordinate is linear in k.  The other steps are taken one at a time.

    Checking the two ends of a run checks every step of it.  The k^2 terms
    of delta cancel along a run, so each component of delta is affine in
    k, and equal at k = 0 and at the run's end it is the same at every k.
    Every step before the last one of the descent must leave b2 negative
    and larger: b2 + kS is linear, so S > 0 and b2 < 0 at the run's last
    such step cover all of them.
    """
    target = _descent_target(t)
    final = _completed(target) if t.a1 == 0 and min(t) < 0 else t
    done = min(final) >= 0
    while not done:
        a1, a2, b1, b2, c1, c2 = final
        if 0 < a2 <= a1:  # a run of s = 1
            total, steps = b1 + b2, a1 // a2
            k = _first_nonnegative(((b1, -total), (b2, total), (c1, 0), (c2, c1)), steps)
            done = k is not None or a1 % a2 == 0
            k = k or steps
            final = CoeffTuple(a1 - k * a2, a2, b1 - k * total, b2 + k * total, c1, c2 + k * c1)
            raised = k - 1 if done else k  # the steps that must leave b2 negative and larger
            if raised:
                assert 0 > b2 + raised * total > b2 + (raised - 1) * total, \
                    "descent must strictly raise b2"
        else:
            final = gamma_t(final, -(-a2 // a1))  # s = ceil(a2 / a1)
            done = final.a1 == 0 or min(final) >= 0
            if not done:
                assert 0 > final.b2 > b2, "descent must strictly raise b2"
        assert delta(final) == target
    # a1 = 0 forces a2 = 1 and b2 = c >= 0, so the tuple is complete
    assert min(final) >= 0 and in_coefficient_set(final)
    return final


def realize_triangle(a: int, b: int, c: int) -> tuple[Triangulation, tuple[int, int, int]]:
    """A triangulation whose classic frieze shows labels (a, b, c) on a triangle.

    Pipeline: permute the triple so its minimum sits last, take a
    coefficient witness (swapping the two roles if its first component is
    negative), descend to a nonnegative tuple, realize each coordinate
    pair with an accordion, glue the three pieces around a central unit
    triangle, and read the three apexes off the vertex maps.  The returned
    vertices (i, j, k) are ordered so that (c(i,j), c(j,k), c(k,i)) equals
    (a, b, c) exactly, which is verified before returning.  The glued
    polygon has m_a + m_b + m_c - 3 vertices, known from the tuple before
    any piece is built; above ``MAX_VERTICES`` this raises ``ValueError``.
    """
    if not classify_triangle(a, b, c):
        raise ValueError(f"({a}, {b}, {c}) is not realizable")
    triple = (a, b, c)
    order = min(permutations(range(3)), key=lambda p: (triple[p[2]], p))
    pa, pb, pc = (triple[index] for index in order)
    a1, b2 = coefficient_witness(pa, pb, pc)
    if a1 < 0:
        pa, pb = pb, pa
        a1, b2 = b2, a1
    tup = iceberg_descent(CoeffTuple(a1, pb, pa - b2, b2, 0, 1))
    assert delta(tup) == (pa, pb, pc)
    _check_size(_accordion_size(tup.a1, tup.a2) + _accordion_size(tup.b1, tup.b2)
                + _accordion_size(tup.c1, tup.c2) - 3, f"realizing ({a}, {b}, {c})")

    piece_a, k_a = accordion(tup.a1, tup.a2)
    piece_b, k_b = accordion(tup.b1, tup.b2)
    piece_c, k_c = accordion(tup.c1, tup.c2)
    glued, (map_a, map_c, map_b) = glue_three(
        piece_a, (k_a, k_a % piece_a.m + 1),
        piece_c, (k_c, k_c % piece_c.m + 1),
        piece_b, (k_b, k_b % piece_b.m + 1),
    )
    vertex_k = map_a[1]
    vertex_j = map_c[1]
    vertex_i = map_b[1]
    label = {v: cc_labels_from(glued, v) for v in {vertex_i, vertex_j, vertex_k}}
    assert (label[vertex_i][vertex_j], label[vertex_j][vertex_k],
            label[vertex_k][vertex_i]) == (pa, pb, pc)
    for i, j, k in permutations((vertex_i, vertex_j, vertex_k)):
        if (label[i][j], label[j][k], label[k][i]) == (a, b, c):
            return glued, (i, j, k)
    raise AssertionError("realized triangle does not match the request")


def separating_unit_triangle(
    t: Triangulation, i: int, j: int, k: int
) -> tuple[int, int, int]:
    """A triangle of segments (i', j', k') interleaving the arcs of (i, j, k).

    Searches the closed arcs [i..j], [j..k], [k..i] in cyclic order for the
    first triple whose three sides are segments (edges or diagonals), the
    pairs the classic frieze labels 1; one always exists.  When (i, j, k)
    is itself a face -- in particular when j = i + 1 and the edge (i, j)
    lies in some triangle of the triangulation -- the face itself qualifies.
    Each vertex's segment neighbours are collected once, in O(m).  A segment
    (i', j') bounds a face on each side at most, and the vertices strictly
    between i' and j' lie off [k..i]: k' is their one common neighbour there.
    """
    m = t.m
    if not (1 <= i < j < k <= m):
        raise ValueError("need 1 <= i < j < k <= m")
    near = [set()] + [{v % m + 1, v - 1 or m} for v in range(1, m + 1)]  # segment neighbours
    for p, q in t.diagonals:
        near[p].add(q)
        near[q].add(p)
    for ip in range(i, j + 1):
        for jp in sorted(w for w in near[ip] if j <= w <= k):
            for kp in near[ip] & near[jp]:  # the apexes of the faces on (i', j')
                if kp >= k or kp <= i:  # on [k..i]
                    return ip, jp, kp
    raise AssertionError("no separating unit triangle found")  # pragma: no cover


def decompose_triangle(t: Triangulation, i: int, j: int, k: int) -> CoeffTuple:
    """Factor a triangle of a classic frieze through a separating unit triangle.

    Returns the nonnegative coprime-pair tuple
    (c(k,k'), c(j',k), c(i,i'), c(k',i), c(j,j'), c(i',j)) whose delta is
    exactly (c(i,j), c(j,k), c(k,i)).
    """
    ip, jp, kp = separating_unit_triangle(t, i, j, k)
    c = {v: cc_labels_from(t, v) for v in {i, j, k, ip, jp, kp}}  # c[v][v] is 0
    tup = CoeffTuple(c[k][kp], c[jp][k], c[i][ip], c[kp][i], c[j][jp], c[ip][j])
    assert min(tup) >= 0 and in_coefficient_set(tup)
    assert delta(tup) == (c[i][j], c[j][k], c[k][i])
    return tup
