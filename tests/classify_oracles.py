"""Step-by-step and walk-every-row forms of ``frieze.classify``, kept as its oracles.

``descent_steps_oracle`` takes one gamma step at a time with parameter
ceil(a2/a1) and checks each step as it is taken: the oracle for
``descent_steps`` and ``iceberg_descent``, which both read the runs that
``frieze.classify._runs`` jumps in closed form.  Its checks raise the same
``ValueError`` messages, so they hold under ``python -O`` too.

``descent_mismatches`` compares both public functions with the oracle on
every tuple of a box that passes the descent's input checks.  Run as a
script it prints the number of tuples compared and of mismatches, so a
``python -O`` child can repeat the comparison.

``extended_gcd`` is the extended Euclidean loop that ``coefficient_witness``
once ran, kept inside ``coefficient_witness_oracle``, a copy of that body;
the function now reads the same Bezout pair off ``pow(a, -1, b)``.
``decompose_triangle_oracle`` walks the label rows of all six vertices,
where ``decompose_triangle`` walks three and reads the rest by symmetry.

``realize_triangle_oracle`` builds and validates each of the three
accordion pieces with ``accordion_oracle`` and glues them with
``glue_three``: the oracle for ``realize_triangle``, which validates only
the glued triangulation.
"""

from itertools import permutations, product
from math import gcd

from frieze import (CoeffTuple, ValidationFailure, cc_labels_from, classify_triangle,
                    coefficient_witness, delta, descent_steps, gamma_t, glue_three,
                    iceberg_descent, in_coefficient_set, separating_unit_triangle)
from frieze.classify import _completed, _descent_target
from frieze.scalars import prime_factors
from frieze.triangulation import _check_size
from triangulation_oracles import accordion_oracle, accordion_size, outcome


def descent_steps_oracle(t):
    """Yield the tuples the descent visits, one gamma step at a time."""
    target = _descent_target(t)
    yield t
    if min(t) >= 0:
        return
    if t.a1 == 0:
        yield _completed(target)
        return
    while True:
        nxt = gamma_t(t, -(-t.a2 // t.a1))  # ceil(a2 / a1)
        assert delta(nxt) == target
        yield nxt
        if nxt.a1 == 0 or min(nxt) >= 0:
            if min(nxt) < 0:
                raise ValueError(f"descent ended at {tuple(nxt)}, outside the nonnegative orthant")
            return
        if not 0 > nxt.b2 > t.b2:
            raise ValueError("descent must strictly raise b2")
        t = nxt


def descent_mismatches(low=-3, high=4):
    """(tuples compared, those on which a public function and the oracle differ).

    Every tuple with coordinates in low..high that passes ``_descent_target``
    is compared: ``list(descent_steps(t))`` against the oracle's list, and
    ``iceberg_descent(t)`` against its last element, or both against the
    oracle's ``ValueError`` message.
    """
    compared, mismatches = 0, []
    for coordinates in product(range(max(low, 0), high + 1), *[range(low, high + 1)] * 5):
        t = CoeffTuple(*coordinates)
        try:
            _descent_target(t)
        except ValueError:
            continue
        compared += 1
        expected = outcome(lambda start: list(descent_steps_oracle(start)), t)
        steps = outcome(lambda start: list(descent_steps(start)), t)
        end = outcome(iceberg_descent, t)
        if (steps, end) != ((expected, expected[-1]) if isinstance(expected, list)
                            else (expected, expected)):
            mismatches.append(t)
    return compared, mismatches


def extended_gcd(a, b):
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


def coefficient_witness_oracle(a, b, c):
    """``coefficient_witness`` with its Bezout pair from ``extended_gcd``."""
    if not classify_triangle(a, b, c):
        raise ValidationFailure(f"({a}, {b}, {c}) admits no coefficient witness")
    d = gcd(a, b)
    ap, bp, cp = a // d, b // d, c // d
    g, u, v = extended_gcd(ap, bp)
    assert g == 1
    k, modulus = 0, 1
    for p in prime_factors(d):
        for r in range(p):
            if (u * cp + r * bp) % p and (v * cp - r * ap) % p:
                k += modulus * ((r - k) * pow(modulus, -1, p) % p)
                modulus *= p
                break
        else:
            raise AssertionError(f"no usable residue mod {p}")
    a1 = u * cp + k * bp
    b2 = v * cp - k * ap
    assert a1 * a + b * b2 == c and gcd(a1, b) == 1 and gcd(a, b2) == 1
    return a1, b2


def decompose_triangle_oracle(t, i, j, k):
    """``decompose_triangle`` reading each label off the row of its first vertex."""
    ip, jp, kp = separating_unit_triangle(t, i, j, k)
    c = {v: cc_labels_from(t, v) for v in {i, j, k, ip, jp, kp}}  # c[v][v] is 0
    tup = CoeffTuple(c[k][kp], c[jp][k], c[i][ip], c[kp][i], c[j][jp], c[ip][j])
    assert min(tup) >= 0 and in_coefficient_set(tup)
    assert delta(tup) == (c[i][j], c[j][k], c[k][i])
    return tup


def realize_triangle_oracle(a, b, c):
    """``realize_triangle`` from three validated accordion pieces and ``glue_three``."""
    if not classify_triangle(a, b, c):
        raise ValidationFailure(f"({a}, {b}, {c}) is not realizable")
    triple = (a, b, c)
    order = min(permutations(range(3)), key=lambda p: (triple[p[2]], p))
    pa, pb, pc = (triple[index] for index in order)
    a1, b2 = coefficient_witness(pa, pb, pc)
    if a1 < 0:
        pa, pb = pb, pa
        a1, b2 = b2, a1
    tup = iceberg_descent(CoeffTuple(a1, pb, pa - b2, b2, 0, 1))
    assert delta(tup) == (pa, pb, pc)
    _check_size(accordion_size(tup.a1, tup.a2) + accordion_size(tup.b1, tup.b2)
                + accordion_size(tup.c1, tup.c2) - 3, f"realizing ({a}, {b}, {c})")
    piece_a, k_a = accordion_oracle(tup.a1, tup.a2)
    piece_b, k_b = accordion_oracle(tup.b1, tup.b2)
    piece_c, k_c = accordion_oracle(tup.c1, tup.c2)
    glued, (map_a, map_c, map_b) = glue_three(
        piece_a, (k_a, k_a % piece_a.m + 1),
        piece_c, (k_c, k_c % piece_c.m + 1),
        piece_b, (k_b, k_b % piece_b.m + 1),
    )
    vertex_k, vertex_j, vertex_i = map_a[1], map_c[1], map_b[1]
    label = {v: cc_labels_from(glued, v) for v in {vertex_i, vertex_j, vertex_k}}
    assert (label[vertex_i][vertex_j], label[vertex_j][vertex_k],
            label[vertex_k][vertex_i]) == (pa, pb, pc)
    for i, j, k in permutations((vertex_i, vertex_j, vertex_k)):
        if (label[i][j], label[j][k], label[k][i]) == (a, b, c):
            return glued, (i, j, k)
    raise AssertionError("realized triangle does not match the request")


if __name__ == "__main__":
    compared, mismatches = descent_mismatches()
    print(compared, len(mismatches))
