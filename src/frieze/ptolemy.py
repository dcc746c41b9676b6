"""Ptolemy relations on a frieze with coefficients.

For vertices i <= j <= k <= l of the polygon, the relation asks that the
products of the labels on the two crossing diagonals equal the sum of the
products on opposite sides: c(i,k)c(j,l) = c(i,l)c(j,k) + c(i,j)c(k,l).
Quadruples with repeated vertices hold automatically because c(v, v) = 0.
Each relation is homogeneous of degree 2, so it holds exactly when it holds
for the labels times their common denominator L: the checks run on ints.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .core import FriezeMap, ValidationReport, Violation, _cleared
from .scalars import scalar_to_str


def ptolemy_holds(f: FriezeMap, i: int, j: int, k: int, l: int) -> bool:
    """Exact check of one Ptolemy relation for 1 <= i <= j <= k <= l <= m."""
    if not (1 <= i <= j <= k <= l <= f.m):
        raise ValueError("vertices must be weakly increasing within 1..m")
    return (f.value(i, k) * f.value(j, l)
            == f.value(i, l) * f.value(j, k) + f.value(i, j) * f.value(k, l))


def verify_all_ptolemy(f: FriezeMap) -> ValidationReport:
    """Check every strictly increasing quadruple; degenerate ones hold trivially.

    The labels are cleared once into a symmetric int table, zero on the
    diagonal; a failure's detail divides both sides back by L**2.  The report
    lists all failures in lexicographic order, which keeps mutation-style
    tests deterministic.
    """
    m = f.m
    table = [[0] * (m + 1) for _ in range(m + 1)]
    for (p, q), value in f.pairs():
        table[p][q] = table[q][p] = value
    big, c = _cleared(table)
    bad = []
    for i, j in combinations(range(1, m + 1), 2):
        ci, cj, cij = c[i], c[j], c[i][j]
        for k in range(j + 1, m):
            ck, cik, cjk = c[k], ci[k], cj[k]
            for l, (cjl, cil, ckl) in enumerate(zip(cj[k + 1:], ci[k + 1:], ck[k + 1:]), k + 1):
                lhs, rhs = cik * cjl, cil * cjk + cij * ckl
                if lhs != rhs:
                    lhs, rhs = Fraction(lhs, big * big), Fraction(rhs, big * big)
                    bad.append(Violation(
                        "ptolemy", (i, j, k, l),
                        f"{scalar_to_str(lhs)} != {scalar_to_str(rhs)}"))
    return ValidationReport(tuple(bad))
