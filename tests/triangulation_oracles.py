"""Slow paths kept as oracles for the classic-frieze code in ``frieze``.

``walk_table_frieze`` builds the classic frieze of a triangulation by
walking the row of every vertex with ``cc_labels_from``, the oracle for
``frieze_from_triangulation``, which walks two rows and steps the others;
the oracle makes its ``Fraction`` table at once, one per distinct label.
``separating_by_segments`` scans the three arcs with ``is_segment`` for
every candidate triple, the oracle for ``separating_unit_triangle``,
which reads neighbour sets.  ``REALIZE_LADDER`` is the accordion ladder of
the benchmark's ``realize`` workload, whose polygons (m = 48 .. 80) are
the largest that workload builds.
"""

from fractions import Fraction
from operator import itemgetter

from frieze import FriezeMap, cc_labels_from

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
    scalars = {value: Fraction(value) for value in set().union(*table)}
    zero = scalars[0]
    f = object.__new__(FriezeMap)  # the Fraction table made at once, not on first read
    object.__setattr__(f, "m", m)
    object.__setattr__(f, "_table", [(zero,) * (m + 1),
                                     *((zero, *itemgetter(*row)(scalars)) for row in table)])
    return f


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
