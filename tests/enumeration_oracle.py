"""The Fraction search, kept as the oracle for ``frieze.enumerate_friezes``.

It tries every domain value up to the bound B at each free level, copies
every row for each trial, checks the glide only at the leaves, and
rescales boundaries with P < 1 by recursing on the scaled problem.  It
carries its own ``Fraction`` row step, so changes to the package's kernel
cannot move the oracle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from frieze import (DomainSpec, FriezeMap, PatternGrid, check_glide,
                    closes_to_negative_identity, quiddity_bound, scale, to_polygon)
from frieze.scalars import as_scalar


def _step(x, y, d: Sequence, q: Sequence, k: int) -> Fraction:
    """c(i, k+1) from (c(i, k-1), c(i, k)): (q[k-1] y - d[k] x) / d[k-1], cycles mod m."""
    m = len(d)
    return (q[(k - 1) % m] * y - d[k % m] * x) / d[(k - 1) % m]


def _forced_height_zero(d: tuple[Fraction, ...]) -> list[FriezeMap]:
    """Height 0: the boundary forces the single possible frieze."""
    m = len(d)
    rows = [[Fraction(0), d[i], d[(i - 1) % m], Fraction(0)] for i in range(m)]
    return [to_polygon(PatternGrid(rows))]


def enumerate_friezes(boundary: Sequence, domain: DomainSpec) -> list[FriezeMap]:
    """All friezes over ``domain`` minus zero with the given boundary sequence.

    The list is complete, duplicate-free and canonically sorted.  Interior
    zeros are excluded even when the domain contains 0: allowing them is
    exactly what makes the count infinite.
    """
    d = tuple(as_scalar(x) for x in boundary)
    if len(d) < 3:
        raise ValueError("boundary needs at least 3 entries")
    if any(x == 0 for x in d):
        raise ValueError("boundary entries must be nonzero")
    for x in d:
        if x not in domain:
            raise ValueError(f"boundary entry {x} lies outside the domain")

    big_p = max(abs(x) for x in d)
    if big_p < 1:
        z = 1 / big_p
        rescaled = enumerate_friezes([x * z for x in d], domain.scaled(z))
        results = [scale(f, big_p) for f in rescaled]
        results.sort(key=FriezeMap.sort_key)
        return results

    m = len(d)
    if m == 3:
        return _forced_height_zero(d)

    bound = quiddity_bound(d, domain.min_modulus).B
    candidates = domain.enumerate_bounded(bound)
    zero = Fraction(0)

    # rows[i] holds c(i, i..i+last); extension to column j+1 consumes the
    # quiddity entry q[(j-1) mod m], so progress is gated on how much of
    # the quiddity is fixed.
    results: list[FriezeMap] = []
    quiddity: list[Fraction] = [zero] * m

    def extend_rows(rows: list[list[Fraction]], level: int) -> bool:
        """Grow every row as far as the fixed quiddity allows; False = prune."""
        for i in range(m):
            row = rows[i]
            while len(row) <= m:
                j = i + len(row) - 1  # last filled column
                if (j - 1) % m > level:
                    break
                nxt = _step(row[-2], row[-1], d, quiddity, j)
                if len(row) == m:
                    if nxt != 0:
                        return False
                elif nxt == 0 or nxt not in domain:
                    return False
                row.append(nxt)
        return True

    def search(level: int, rows: list[list[Fraction]]) -> None:
        if level == m:
            grid = PatternGrid(rows)
            if check_glide(grid) and closes_to_negative_identity(d, quiddity):
                results.append(to_polygon(grid))
            return
        closing_row = level + 2 - m
        if closing_row >= 0:
            # the closure c(r, r+m) = 0 of row r pins this quiddity entry
            row = rows[closing_row]
            assert len(row) == m
            options = [d[(closing_row - 1) % m] * row[m - 2] / row[m - 1]]
            if options[0] not in domain:
                return
        else:
            options = candidates
        for q in options:
            quiddity[level] = q
            trial = [row[:] for row in rows]
            if extend_rows(trial, level):
                search(level + 1, trial)

    seed_rows = [[zero, d[i]] for i in range(m)]
    search(0, seed_rows)
    results.sort(key=FriezeMap.sort_key)
    assert len(set(results)) == len(results)
    return results
