"""Complete enumeration of friezes with a fixed boundary over a discrete domain.

For height n >= 1 and a boundary of maximum modulus P >= 1 over a domain
whose nonzero elements stay at least M away from zero, every quiddity
entry is bounded by B = P^2 (PM + (n-1)P^2 + M) / M^2.  With the quiddity
drawn from the finitely many domain elements inside that disc, and with
each partially fixed quiddity already determining whole chunks of the
pattern, a depth-first search with membership pruning visits every frieze
and nothing else.

The search runs on plain ints.  The local rule is homogeneous, so scaling
the boundary and the domain by z scales the friezes by z: a lattice
{k f} becomes the positive or the nonzero integers under z = 1/f, and a
finite set becomes a set of ints under the lcm of its denominators.  The
scaled boundary has P >= 1, so B is taken for the scaled problem.  Every
row step divides exactly or its branch is pruned, and each result is
divided by z as it is folded into its polygon map.

Two facts pin most of the quiddity instead of trying every candidate:

* Glide pins.  Every frieze has c(i, j) = c(j, i + m), so an entry whose
  mirror is already filled must equal it.  The closing zero
  c(i, i + m) = c(i, i) is the simplest such pin.
* Solved levels.  Fixing q[level] appends c(i, level + 2) to the rows
  that reached column level + 1.  When one of these entries has a filled
  mirror t, the row step (q y - d x) / e = t gives q = (e t + d x) / y by
  one exact division.  Only the levels without such a target loop over
  the candidates; with this fill order those are the first m - 3.

The pins also make every completed table a frieze, so a leaf is folded
into its polygon map with no further check:

* Glide.  c(a, b) -> c(b, a + m) is an involution (apply it twice and
  periodicity gives c(a, b) back) without fixed points, so the entries
  fall into mirror pairs.  Each pair is compared when the later of its
  two entries is filled; the seeds c(i, i) and c(i, i + 1) are mirrored
  by the pinned c(i, i + m) and c(i + 1, i + m).
* Closure.  Let T_i be the product of the m row-step factors
  k = i .. i + m - 1.  Row i walks the window (c(i, i - 1), c(i, i)) =
  -d_{i-1} e1 through T_i to (c(i, i + m - 1), c(i, i + m)), which the pins
  fix at (d_{i-1}, 0) = d_{i-1} e1.  So the row vector e1 is a -1
  eigenvector of every T_i.  T_{i+1} is T_i conjugated by its first factor
  mu(q_{i-1}, d_i, d_{i-1}), which turns the eigenvector e1 of T_{i+1} into
  a second one of T_i, (q_{i-1} / d_i, 1), independent of e1.  A 2x2
  matrix with two independent -1 eigenvectors is -Id.

``max_nodes`` caps the quiddity values tried; past it the search raises
:class:`EnumerationBudgetExceeded`, a ``ValueError``.  The CLI passes
:data:`MAX_NODES` unless told otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, NamedTuple, Sequence

from .core import FriezeMap, _fold
from .propagation import _step
from .scalars import DomainSpec, as_scalar, scalar_to_str


class BoundData(NamedTuple):
    """Inputs and result of the quiddity bound."""

    P: Fraction
    M: Fraction
    n: int
    B: Fraction


def quiddity_bound(boundary: Sequence, min_modulus) -> BoundData:
    """The cap B on |quiddity entry| for the given boundary sequence.

    Requires height n >= 1, that is at least 4 boundary entries, and
    P = max |d_i| >= 1; for smaller boundaries rescale the frieze first
    (multiply through by 1/P) and enumerate the scaled problem.
    """
    d = [as_scalar(x) for x in boundary]
    if len(d) < 4 or any(x == 0 for x in d):
        raise ValueError("quiddity bound needs >= 4 nonzero boundary entries (height n >= 1)")
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


#: Default node budget of ``frieze enumerate``: quiddity values tried.
MAX_NODES = 1_000_000


class EnumerationBudgetExceeded(ValueError):
    """The search would try more quiddity values than its ``max_nodes`` budget."""


def _integer_problem(domain: DomainSpec) -> tuple[Fraction, DomainSpec, Callable[[int], bool]]:
    """The scale z that makes ``domain`` integral, z * domain, and a test for its nonzero ints."""
    if domain.values is None:
        z = 1 / domain.factor
    else:
        z = Fraction(lcm(*(v.denominator for v in domain.values)))
    scaled = domain.scaled(z)
    if scaled.values is not None:
        return z, scaled, frozenset(int(v) for v in scaled.values if v != 0).__contains__
    return z, scaled, (lambda x: x != 0) if scaled.signed else (lambda x: x >= 1)


def enumerate_friezes(boundary: Sequence, domain: DomainSpec,
                      max_nodes: int | None = None) -> list[FriezeMap]:
    """All friezes over ``domain`` minus zero with the given boundary sequence.

    The list is complete, duplicate-free and canonically sorted.  Interior
    zeros are excluded even when the domain contains 0: allowing them is
    exactly what makes the count infinite.  With ``max_nodes`` set, the
    search raises :class:`EnumerationBudgetExceeded` instead of trying more
    than that many quiddity values.
    """
    d = tuple(as_scalar(x) for x in boundary)
    if len(d) < 3:
        raise ValueError("boundary needs at least 3 entries")
    if any(x == 0 for x in d):
        raise ValueError("boundary entries must be nonzero")
    for x in d:
        if x not in domain:
            raise ValueError(f"boundary entry {x} lies outside the domain")

    m = len(d)
    if m == 3:  # height 0: the boundary is the whole frieze
        return [_fold([[0, d[i], d[i - 1]] for i in range(m)])]

    z, scaled, member = _integer_problem(domain)
    dz = tuple(int(x * z) for x in d)
    bound = quiddity_bound(dz, scaled.min_modulus).B
    candidates = [int(v) for v in scaled.enumerate_bounded(bound)]

    # rows[i] holds c(i, i..i+last); extension to column j+1 consumes the
    # quiddity entry q[(j-1) mod m], starting with q[i], so progress is
    # gated on how much of the quiddity is fixed and rows i > level wait.
    # The glide mirror c(j+1, i+m) of that entry is rows[(j+1) mod m][i+m-j-1]
    # once that row is long enough.
    rows = [[0, x] for x in dz]
    quiddity = [0] * m
    found: list[FriezeMap] = []
    nodes = 0

    def extend_rows(level: int) -> bool:
        """Grow every row as far as the fixed quiddity allows; False = prune."""
        for i in range(level + 1):
            row = rows[i]
            j = i + len(row) - 1  # last filled column
            while j < i + m and (j - 1) % m <= level:
                nxt = _step(row[-2], row[-1], dz, quiddity, j)
                mirror, offset = rows[(j + 1) % m], i + m - j - 1
                if offset < len(mirror):  # offset 0 is the closing zero c(i, i+m)
                    if nxt != mirror[offset]:
                        return False
                elif not (isinstance(nxt, int) and member(nxt)):
                    return False
                row.append(nxt)
                j += 1
        return True

    def options(level: int) -> list[int]:
        """q[level] solved from an entry it yields whose mirror is known, else every candidate."""
        for i in range(level + 1):
            row = rows[i]
            j = i + len(row) - 1
            if j == i + m or (j - 1) % m != level:
                continue
            mirror, offset = rows[(j + 1) % m], i + m - j - 1
            if offset < len(mirror):
                # the row step (q y - d[j] x) / d[j-1] = t, solved for q
                q, rest = divmod(dz[(j - 1) % m] * mirror[offset] + dz[j % m] * row[-2],
                                 row[-1])
                return [q] if rest == 0 and member(q) else []
        return candidates

    def search(level: int) -> None:
        nonlocal nodes
        if level == m:  # a frieze by the pins: see the module docstring
            found.append(_fold(rows, z))
            return
        lengths = [len(rows[i]) for i in range(level + 1)]
        for q in options(level):
            if nodes == max_nodes:
                raise EnumerationBudgetExceeded(
                    f"enumeration stopped at its budget of {max_nodes} nodes: "
                    f"{nodes} quiddity values tried, {len(found)} friezes found so far")
            nodes += 1
            quiddity[level] = q
            if extend_rows(level):
                search(level + 1)
            for row, n in zip(rows, lengths):  # undo this trial
                del row[n:]

    search(0)
    keyed = sorted(((f.sort_key(), f) for f in found), key=lambda item: item[0])
    assert all(a[0] != b[0] for a, b in zip(keyed, keyed[1:]))  # equal friezes sort together
    return [f for _, f in keyed]


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
