"""Ptolemy relations on a frieze with coefficients.

For vertices i <= j <= k <= l of the polygon, the relation asks that the
products of the labels on the two crossing diagonals equal the sum of the
products on opposite sides: c(i,k)c(j,l) = c(i,l)c(j,k) + c(i,j)c(k,l).
Quadruples with repeated vertices hold automatically because c(v, v) = 0.
Each relation is homogeneous of degree 2, so it holds exactly when it holds
for the labels times their common denominator L: the checks run on ints.

``verify_all_ptolemy`` does not scan all C(m, 4) quadruples.  The relation
of a quadruple is the same read from any of its vertices around the
polygon, so number the vertices from the pivot edge (r, r+1) as 1, 2, ...,
m.  Read the table as the antisymmetric C(a, b) = c(a, b) = -C(b, a) for
a < b, take the pivot p = C(1, 2), nonzero as a boundary entry, and set
u_v = (C(1, v), C(2, v)).  Call a pair 3 <= a < b *suspect* when
p C(a, b) != det(u_a, u_b), which is the relation of (1, 2, a, b) failing.

- *Sufficiency.*  For pairs that touch vertex 1 or 2, p C(a, b) =
  det(u_a, u_b) holds identically (u_1 = (0, -p), u_2 = (p, 0)).  With no
  suspect pair it holds for all a, b, so C(a, b) = det(u_a, u_b) / p.  For
  any four vectors of the plane the Plücker identity
  [ik][jl] = [il][jk] + [ij][kl] holds for 2x2 determinants; divided by
  p**2 it is the relation of i < j < k < l.  So every relation holds, for
  any table at all: no frieze theory is needed.
- *Completeness.*  Write p C(a, b) = det(u_a, u_b) + R(a, b), R zero off
  the suspect pairs and antisymmetric.  Times p**2, a relation of i < j <
  k < l expands into the Plücker identity, which vanishes, plus terms that
  each hold a factor R on a pair of {i, j, k, l}.  So a failing quadruple
  contains a suspect pair of every pivot edge: the quadruples through
  the suspect pairs of any one pivot edge hold every failure.

The cost is O(m**2) on a valid table: the suspect pairs of the edge (1, 2)
alone.  Otherwise only the failures are kept from the quadruples drawn
through the smallest of three suspect sets, and the report is the very one
a full scan gives: the same quadruples, in lexicographic order, with the
same details.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .core import FriezeMap, ValidationReport, Violation
from .scalars import _text


def ptolemy_holds(f: FriezeMap, i: int, j: int, k: int, l: int) -> bool:
    """Exact check of one Ptolemy relation for 1 <= i <= j <= k <= l <= m."""
    if not (1 <= i <= j <= k <= l <= f.m):
        raise ValueError("vertices must be weakly increasing within 1..m")
    c = f._ints[1]  # the relation is homogeneous of degree 2: compare L * c(.) as ints
    return c[i][k] * c[j][l] == c[i][l] * c[j][k] + c[i][j] * c[k][l]


def _suspect_pairs(c: list[list[int]], m: int, r: int) -> set[tuple[int, int]]:
    """The suspect pairs of the pivot edge (r, s = r+1), as sorted tuples.

    Numbered from r, a pair off the edge is a' before b', and it is suspect
    when c(r,s) c(a',b') != c(r,a') c(s,b') - c(s,a') c(r,b').
    """
    s = r % m + 1
    pivot, cr, cs = c[r][s], c[r], c[s]
    after = [*range(s + 1, m + 1), *range(1, r)]
    return {(min(a, b), max(a, b)) for n, a in enumerate(after) for b in after[n + 1:]
            if pivot * c[a][b] != cr[a] * cs[b] - cs[a] * cr[b]}


def _suspect_quadruples(c: list[list[int]], m: int):
    """The quadruples to compare, in order: every failing one is among them.

    The pivots (r, r+1) start at r = 1, 1 + m//3 and 1 + 2m//3, pairwise
    disjoint for m >= 6.  Each quadruple through a pair of the smallest
    suspect set is compared as it is drawn and kept only if it fails, so
    one corrupted entry, which misses at least one pivot edge, costs
    O(m**2).  When drawing would cost more than the full scan, every
    quadruple is scanned instead, streamed in order.
    """
    first = _suspect_pairs(c, m, 1)
    if not first:
        return ()
    few = min(first, *(_suspect_pairs(c, m, 1 + n * m // 3) for n in (1, 2)), key=len)
    if len(few) * comb(m - 2, 2) >= comb(m, 4):
        return combinations(range(1, m + 1), 4)
    bad = set()
    for a, b in few:
        for x, y in combinations([v for v in range(1, m + 1) if v != a and v != b], 2):
            i, j, k, l = sorted((a, b, x, y))
            ci, cj = c[i], c[j]
            if ci[k] * cj[l] != ci[l] * cj[k] + ci[j] * c[k][l]:
                bad.add((i, j, k, l))
    return sorted(bad)


def verify_all_ptolemy(f: FriezeMap) -> ValidationReport:
    """Check every strictly increasing quadruple; degenerate ones hold trivially.

    The checks read the map's cleared symmetric vertex table, zero on the
    diagonal, as ints; a failure's detail divides both sides back by L**2.
    Only the quadruples through suspect pairs are compared (see the module
    docstring).  The report lists all failures in lexicographic order,
    which keeps mutation-style tests deterministic.
    """
    (big, c), m = f._ints, f.m
    bad = []
    for i, j, k, l in _suspect_quadruples(c, m):
        ci, cj, ck = c[i], c[j], c[k]
        lhs, rhs = ci[k] * cj[l], ci[l] * cj[k] + ci[j] * ck[l]
        if lhs != rhs:
            bad.append(Violation(
                "ptolemy", (i, j, k, l), f"{_text(lhs, big * big)} != {_text(rhs, big * big)}"))
    return ValidationReport(tuple(bad))
