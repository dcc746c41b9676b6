"""Complete enumeration of friezes with a fixed boundary over a discrete domain.

For height n >= 1 and a boundary of maximum modulus P >= 1 over a domain
whose nonzero elements stay at least M away from zero, every quiddity
entry is bounded by B = P^2 (PM + (n-1)P^2 + M) / M^2.  With the quiddity
drawn from the finitely many domain elements inside that disc, and with
each partially fixed quiddity already determining whole chunks of the
pattern, a depth-first search with membership pruning visits every frieze
and nothing else.

Boundaries with P < 1 are handled by rescaling: enumerate the scaled
problem over the scaled domain, then scale the results back.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .core import FriezeMap, PatternGrid, check_glide, scale, to_polygon
from .propagation import _step, closes_to_negative_identity
from .scalars import DomainSpec, as_scalar, scalar_to_str


class BoundData(NamedTuple):
    """Inputs and result of the quiddity bound."""

    P: Fraction
    M: Fraction
    n: int
    B: Fraction


def quiddity_bound(boundary: Sequence, min_modulus) -> BoundData:
    """The cap B on |quiddity entry| for the given boundary sequence.

    Requires P = max |d_i| >= 1; for smaller boundaries rescale the frieze
    first (multiply through by 1/P) and enumerate the scaled problem.
    """
    d = [as_scalar(x) for x in boundary]
    if len(d) < 3 or any(x == 0 for x in d):
        raise ValueError("boundary must have >= 3 nonzero entries")
    big_m = as_scalar(min_modulus)
    if big_m <= 0:
        raise ValueError("the domain's minimal modulus must be positive")
    big_p = max(abs(x) for x in d)
    n = len(d) - 3
    if big_p < 1:
        raise ValueError(
            f"quiddity bound needs max boundary modulus >= 1, got {big_p}; "
            f"rescale the frieze by {1 / big_p} and enumerate the scaled problem")
    bound = big_p ** 2 * (big_p * big_m + (n - 1) * big_p ** 2 + big_m) / big_m ** 2
    return BoundData(P=big_p, M=big_m, n=n, B=bound)


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


def enumeration_summary(boundary: Sequence, domain: DomainSpec,
                        results: list[FriezeMap]) -> dict:
    """The summary record emitted next to the per-frieze documents."""
    d = [as_scalar(x) for x in boundary]
    big_p = max(abs(x) for x in d)
    if len(d) > 3 and big_p >= 1:
        bound = scalar_to_str(quiddity_bound(d, domain.min_modulus).B)
    else:
        bound = None
    return {
        "boundary": [scalar_to_str(x) for x in d],
        "domain": domain.spec_string(),
        "count": len(results),
        "bound": bound,
    }
