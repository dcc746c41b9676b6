"""Slow paths kept as oracles for the classic-frieze code in ``frieze``.

``walk_table_frieze`` builds the classic frieze of a triangulation by
walking the row of every vertex with ``cc_labels_from``, the oracle for
``frieze_from_triangulation``, which walks two rows and steps the others;
the oracle builds its map through the validating constructor.
``separating_by_segments`` scans the three arcs with ``is_segment`` for
every candidate triple, the oracle for ``separating_unit_triangle``,
which reads neighbour sets.  ``REALIZE_LADDER`` is the accordion ladder of
the benchmark's ``realize`` workload, whose polygons (m = 48 .. 80) are
the largest that workload builds.

``glue_three_by_walks`` numbers the glued polygon by walking each piece's
boundary vertex by vertex, the oracle for ``glue_three``, which numbers it
in closed form.  ``reflected_by_mirror`` and ``gcds_divide_by_divides`` are
the branching forms of ``Triangulation.reflected`` and
``triangle_label_gcds_divide``.

``accordion_oracle`` builds and validates the direct number-line
triangulation, then its mirror image through ``reflected`` when the labels
sit in the wrong order, and walks row 1 of each: the oracle for
``accordion``, which builds one triangulation and reads the mirror's
labels off the direct row.  ``accordion_size`` counts its polygon.
``outcome`` is what a call returns, or the type and message it raises.
"""

from math import gcd

from frieze import FriezeMap, Triangulation, ValidationFailure, cc_labels_from
from frieze.triangulation import _check_size

#: the accordion ladder of the bench ``realize`` workload
REALIZE_LADDER = [(44, 1, 1), (50, 1, 1), (56, 1, 1), (62, 1, 1), (68, 1, 1), (76, 1, 1),
                  (48, 47, 1), (54, 53, 1), (60, 59, 1), (66, 65, 1), (72, 71, 1)]


def walk_table_frieze(t) -> FriezeMap:
    """The classic frieze of ``t`` from one walk per vertex, checked the same way."""
    m = t.m
    table = [cc_labels_from(t, v)[1:] for v in range(1, m + 1)]  # table[p-1][q-1] = c(p, q)
    assert table == list(map(list, zip(*table))), "labelling must be symmetric"
    assert all(table[p - 1][p % m] == 1 for p in range(1, m + 1)), "edges must carry 1"
    assert (all(table[p - 1][q - 1] == 1 for p, q in t.diagonals)
            and sum(row.count(1) for row in table) == 2 * (2 * m - 3)), \
        "unit non-edges must be the diagonals"
    return FriezeMap(m, {(p, q): table[p - 1][q - 1]
                         for p in range(1, m + 1) for q in range(p + 1, m + 1)})


def separating_by_segments(t, i, j, k):
    """The first triple in arc order whose three sides are segments of ``t``."""
    m = t.m
    arc_ki = list(range(k, m + 1)) + list(range(1, i + 1))
    for ip in range(i, j + 1):
        for jp in range(j, k + 1):
            if not t.is_segment(ip, jp):
                continue
            for kp in arc_ki:
                if t.is_segment(jp, kp) and t.is_segment(kp, ip):
                    return ip, jp, kp
    raise AssertionError("no separating unit triangle found")


def glue_three_by_walks(t1, edge1, t2, edge2, t3, edge3):
    """``glue_three`` by walking piece r from s_r the long way round to t_r.

    The walks laid end to end, sharing their end vertices, trace the glued
    polygon; the pieces' vertices are numbered in that order.
    """
    pieces = [(t1, edge1), (t2, edge2), (t3, edge3)]
    paths = []
    for t, (s, e) in pieces:
        if not (1 <= s <= t.m and e == s % t.m + 1):
            raise ValueError(f"mark ({s}, {e}) is not an oriented edge of an "
                             f"{t.m}-gon")
        path = [s]
        v = s
        while v != e:
            v = v - 1 if v > 1 else t.m
            path.append(v)
        paths.append(path)
    m1, m2, m3 = (t.m for t, _ in pieces)
    total = m1 + m2 + m3 - 3
    shared = (1, m1, m1 + m2 - 1)  # glued numbers of s1=t3, t1=s2, t2=s3
    maps = []
    offsets = (0, m1 - 1, m1 + m2 - 2)
    for index, path in enumerate(paths):
        vmap = {}
        for pos, vertex in enumerate(path):
            number = offsets[index] + pos + 1
            vmap[vertex] = 1 if number == total + 1 else number
        maps.append(vmap)
    diagonals = []
    for (t, _), vmap in zip(pieces, maps):
        diagonals.extend((vmap[p], vmap[q]) for p, q in t.diagonals)
    diagonals.extend([(shared[0], shared[1]), (shared[1], shared[2]), (shared[0], shared[2])])
    return Triangulation(total, diagonals), (maps[0], maps[1], maps[2])


def reflected_by_mirror(t):
    """``t.reflected()`` with vertex 1 fixed by a branch and v -> m + 2 - v elsewhere."""
    m = t.m

    def mirror(v):
        return 1 if v == 1 else m + 2 - v

    return Triangulation(m, [(mirror(p), mirror(q)) for p, q in t.diagonals])


def gcds_divide_by_divides(f, i, j, k):
    """``triangle_label_gcds_divide`` as three divisibility tests; d | n is n == 0 at d = 0."""
    x, y, z = f.value(i, j), f.value(j, k), f.value(i, k)
    if any(v.denominator != 1 for v in (x, y, z)):
        raise ValueError("gcd divisibility is about integer friezes")
    x, y, z = x.numerator, y.numerator, z.numerator

    def divides(d, n):
        return n % d == 0 if d != 0 else n == 0

    return divides(gcd(x, y), z) and divides(gcd(y, z), x) and divides(gcd(x, z), y)


def outcome(function, *args):
    """``function(*args)``, or the type and message of the ``ValueError`` it raises."""
    try:
        return function(*args)
    except ValueError as error:
        return type(error), str(error)


def euclid_quotients(a, b):
    """Quotients of the Euclidean algorithm on a >= b >= 1, ending at remainder 0."""
    quotients = []
    while b:
        q, r = divmod(a, b)
        quotients.append(q)
        a, b = b, r
    return quotients


def accordion_size(a, b):
    """Vertex count of ``accordion(a, b)`` for coprime a, b >= 0."""
    if a == 0 or b == 0:
        return 3
    return 2 + sum(euclid_quotients(max(a, b), min(a, b)))


def accordion_triangulation(a, b):
    """The number-line triangulation for a >= b >= 1 with gcd(a, b) = 1."""
    arcs = []
    left_end, right_end = 1, 2
    anchor = 2
    for index, q in enumerate(reversed(euclid_quotients(a, b))):
        if index % 2 == 0:
            for target in range(left_end - 1, left_end - 1 - q, -1):
                arcs.append((anchor, target))
            left_end -= q
            anchor = left_end
        else:
            for target in range(right_end + 1, right_end + 1 + q):
                arcs.append((anchor, target))
            right_end += q
            anchor = right_end
    m = right_end - left_end + 1
    return Triangulation(m, [((x - 1) % m + 1, (y - 1) % m + 1) for x, y in arcs[:-1]])


def accordion_oracle(a, b):
    """``accordion`` by the direct triangulation, then its validated mirror image."""
    if a < 0 or b < 0:
        raise ValueError("accordion labels must be nonnegative")
    if gcd(a, b) != 1:
        raise ValidationFailure(f"accordion needs coprime labels, got gcd({a}, {b}) = "
                                f"{gcd(a, b)}")
    _check_size(accordion_size(a, b), f"accordion({a}, {b})")
    if a == 0:
        return Triangulation(3, []), 1
    if b == 0:
        return Triangulation(3, []), 3
    t = accordion_triangulation(max(a, b), min(a, b))
    for mirrored in (False, True):
        if mirrored:
            t = t.reflected()
        labels = cc_labels_from(t, 1)
        for k in range(1, t.m + 1):
            if labels[k] == a and labels[k % t.m + 1] == b:
                return t, k
    raise AssertionError(f"accordion construction failed for ({a}, {b})")
