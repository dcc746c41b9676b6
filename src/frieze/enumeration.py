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
scaled boundary has P >= 1, so B is taken for the scaled problem.  The
setup runs on ints too: a boundary entry n / e lies in the domain exactly
when n z / e is an int member of the scaled domain, one ``divmod`` each,
and the cap top = floor(B) = P^2 (PM + (n-1)P^2 + M) // M^2 takes the
scaled minimal modulus M, an int.  Every row step divides exactly or its
branch is pruned.  A leaf stays an int table.  The leaves are sorted on
those ints, negated when z < 0 since dividing by a negative z reverses the
order, and only then folded into their polygon maps.

Four facts pin or thin the quiddity instead of trying every candidate:

* Solved levels.  Fixing q[level] appends c(i, level + 2) to the rows
  that reached column level + 1.  Every frieze closes its rows:
  c(i, i + m - 1) = d[i-1] and c(i, i + m) = 0.  When the new entry of a
  row is one of these closing values t, the row step (q y - d x) / e = t
  gives q = (e t + d x) / y by one exact division.  With this fill order
  that happens at the last three levels: m - 3 gives c(0, m-1) = d[m-1],
  m - 2 gives c(0, m) = 0 and m - 1 gives c(1, m+1) = 0.
* Divisors at level L = m - 4.  Let a = c(0, L+1) and b = c(0, L).  The
  value q = q[L] appends y = c(0, L+2) = (q a - d[L+1] b) / d[L], and
  level L + 1 then solves q[L+1] y = N with N = d[L+1] d[m-1] + d[L+2] a
  from c(0, m-1) = d[m-1], and N does not depend on q.  So y runs over
  the divisors of N with y and N / y in the domain, and
  q = (y d[L] + d[L+1] b) / a is kept when it is an int inside the
  candidate range.  N = 0 leaves no q.  The divisors come from the prime
  factors of N, and |N| is bounded by entries already built.
* A window at level m - 5.  By the glide y = c(0, m-2) = c(m-2, m) is the
  quiddity entry q[m-2], and N / y = q[m-3], so both have modulus at most
  top and |N| <= top^2.  With a = c(0, m-3) that gives
  |d[m-2] a| <= top^2 + |d[m-3] d[m-1]|, and a is an int, so
  |a| <= K = floor((top^2 + |d[m-3] d[m-1]|) / |d[m-2]|).  At level m - 5
  the value q = q[m-5] appends a = (q c(0, m-4) - d[m-4] c(0, m-5)) / d[m-5],
  so every frieze has |q c(0, m-4) - d[m-4] c(0, m-5)| <= |d[m-5]| K.
  Since c(0, m-4) != 0 that is one interval of q, which cuts the runs the
  congruences below step through.  K depends on the boundary alone and is
  taken once.  On ten unit entries over N the window takes the search from
  280,264 nodes to 52,742: before it, over 99% of the values tried at
  level m - 5 left no divisor at level m - 4.
* Congruences below L.  At a level l < L every row i <= l gains
  c(i, l+2) = (q a_i - d[l+1] b_i) / d[l], with a_i = c(i, l+1) and
  b_i = c(i, l), and that entry must be an int:
  q a_i = d[l+1] b_i (mod d[l]).  Each row leaves one residue class or
  none, the classes merge into one by the Chinese remainder theorem, and
  the level steps through the candidates of that class.  In a positive
  domain the entry must also be >= 1, so q >= (d[l] + d[l+1] b_i) / a_i.

A node is still one quiddity value tried; the levels just try fewer.

Row i grows through c(i, i + m - 1), an int member at each step.  The
solved values alone make every such table a frieze, so a leaf is folded
into its polygon map with no further check:

* Closure.  Let T_i be the product of the m row-step factors
  k = i .. i + m - 1.  Row i walks the window (c(i, i - 1), c(i, i)) =
  -d_{i-1} e1 through T_i to (c(i, i + m - 1), c(i, i + m)).  The solved
  levels fix row 0's end window at (d_{m-1}, 0) = d_{m-1} e1, so e1 is a
  -1 eigenvector of T_0, and c(1, m + 1) = 0 makes e1 an eigenvector of
  T_1.  T_1 is T_0 conjugated by its first factor mu(q_{m-1}, d_0, d_{m-1}),
  which turns the eigenvector e1 of T_1 into a second one of T_0,
  (q_{m-1} / d_0, 1), independent of e1.  The factor k has determinant
  d_k / d_{k-1}, and these telescope over a period, so det T_0 = 1 and the
  second eigenvalue is -1 too.  A 2x2 matrix with two independent -1
  eigenvectors is -Id.  Every T_i is a conjugate of T_0, so every
  T_i = -Id and every row closes: its end window is d_{i-1} e1.
* Glide.  Split T_i = -Id at column j into A, the factors that take row i
  to its window at column j, and the rest, which are then -A^-1.  Row i
  reads (c(i, j-1), c(i, j)) = -d_{i-1} e1 A, and row j walks -d_{j-1} e1
  through -A^-1 = -adj(A) d_{i-1} / d_{j-1} to (c(j, i+m-1), c(j, i+m)).
  The adjugate swaps the diagonal of A and negates the rest, so
  c(j, i + m) = c(i, j), the glide that ``_fold`` turns the rows by.

``max_nodes`` caps the quiddity values tried; past it the search raises
:class:`EnumerationBudgetExceeded`, a ``ValidationFailure``.  The CLI passes
:data:`MAX_NODES` unless told otherwise.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .core import FriezeMap, _fold
from .scalars import DomainSpec, ValidationFailure, as_scalar, prime_factors, scalar_to_str


BoundData = namedtuple("BoundData", "P M n B", module=__name__)
BoundData.__doc__ = "Inputs and result of the quiddity bound: ``Fraction`` P, M and B, int n."


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


class EnumerationBudgetExceeded(ValidationFailure):
    """The search would try more quiddity values than its ``max_nodes`` budget."""


def _integer_problem(domain: DomainSpec) -> tuple[Fraction, tuple[int, ...] | None,
                                                   Callable[[int], bool]]:
    """The scale z that makes ``domain`` integral, the nonzero ints of z * domain in
    increasing order (None for a lattice, which scales to N or Z minus 0), and a test
    for those ints."""
    if domain.values is None:
        member = (lambda x: x != 0) if domain.signed else (lambda x: x >= 1)
        return 1 / domain.factor, None, member
    big = lcm(*(v.denominator for v in domain.values))
    members = tuple(sorted(v.numerator * (big // v.denominator) for v in domain.values if v))
    return Fraction(big), members, frozenset(members).__contains__


def _cap(dz: Sequence[int], big_m: int) -> int:
    """floor(B) for an int boundary and an int minimal modulus: ``quiddity_bound`` in ints."""
    big_p, n = max(map(abs, dz)), len(dz) - 3
    return big_p ** 2 * (big_p * big_m + (n - 1) * big_p ** 2 + big_m) // big_m ** 2


def _window(a: int, t: int, width: int) -> tuple[int, int]:
    """The least and the greatest int q with |q a - t| <= width, for a != 0."""
    if a < 0:
        a, t = -a, -t
    return -((width - t) // a), (t + width) // a


def _divisors(n: int) -> list[int]:
    """The positive divisors of n != 0, from its primes found by trial division."""
    n, divisors = abs(n), [1]
    for p in prime_factors(n):
        powers = [1]
        while n % p == 0:
            n //= p
            powers.append(powers[-1] * p)
        divisors = [x * y for x in divisors for y in powers]
    return divisors


def enumerate_friezes(boundary: Sequence, domain: DomainSpec,
                      max_nodes: int | None = None) -> list[FriezeMap]:
    """All friezes over ``domain`` minus zero with the given boundary sequence.

    The list is complete, duplicate-free and canonically sorted.  Interior
    zeros are excluded even when the domain contains 0: allowing them is
    exactly what makes the count infinite.  With ``max_nodes`` set, the
    search raises :class:`EnumerationBudgetExceeded` instead of trying more
    than that many quiddity values.  It and an entry outside the domain are
    ``ValidationFailure``s; fewer than 3 entries or a zero one, ``ValueError``s.
    """
    d = [as_scalar(x) for x in boundary]
    if len(d) < 3:
        raise ValueError("boundary needs at least 3 entries")
    if any(x == 0 for x in d):
        raise ValueError("boundary entries must be nonzero")
    z, members, member = _integer_problem(domain)
    (zn, ze), dz = z.as_integer_ratio(), []
    for x in d:  # x lies in the domain exactly when x z is an int member of z * domain
        n, e = x.as_integer_ratio()
        y, rest = divmod(n * zn, e * ze)
        if rest or not member(y):
            raise ValidationFailure(f"boundary entry {x} lies outside the domain")
        dz.append(y)
    m = len(dz)
    if m == 3:  # height 0: the boundary is the whole frieze
        return [_fold([[0, dz[i], dz[i - 1]] for i in range(m)], z)]

    # the candidates are the members q with |q| <= top, in runs of ints
    if members is None:  # N or Z minus 0
        top = _cap(dz, 1)
        positive = not domain.signed
        runs = ((1, top),) if positive else ((-top, -1), (1, top))
    else:
        top = _cap(dz, min(map(abs, members)))
        positive = members[0] > 0
        runs = [(v, v) for v in members if -top <= v <= top]
    # the window at level m - 5 (module docstring): |q c(0, m-4) - d[m-4] c(0, m-5)| <= width
    width = abs(dz[m - 5]) * ((top * top + abs(dz[m - 3] * dz[m - 1])) // abs(dz[m - 2]))

    # rows[i] holds c(i, i..i+last), up to c(i, i+m-1); extension to column
    # j+1 consumes the quiddity entry q[(j-1) mod m], starting with q[i], so
    # progress is gated on how much of the quiddity is fixed and rows
    # i > level wait.
    rows = [[0, x] for x in dz]
    quiddity = [0] * m
    leaves: list[list[list[int]]] = []
    divisors: dict[int, list[int]] = {}  # N repeats: 65 values in 12,052 calls on 1^10
    nodes = 0

    def extend_rows(level: int) -> bool:
        """Grow every row as far as the fixed quiddity allows; False = prune."""
        for i in range(level + 1):
            row = rows[i]
            j = i + len(row) - 1  # last filled column
            while j < i + m - 1 and (h := (j - 1) % m) <= level:
                nxt, rest = divmod(quiddity[h] * row[-1] - dz[j % m] * row[-2], dz[h])
                if rest or not member(nxt):
                    return False
                row.append(nxt)
                j += 1
        return True

    def solved(level: int) -> list[int]:
        """q[level] for level > m - 4, solved from the closing value t it yields.

        Level m - 3 gives t = c(0, m-1) = d[m-1], level m - 2 the closing
        zero t = c(0, m) and level m - 1 the closing zero t = c(1, m+1).
        """
        x, y = rows[0 if level < m - 1 else 1][-2:]  # c(i, level), c(i, level + 1)
        t = dz[m - 1] if level == m - 3 else 0
        # the row step (q y - d[level+1] x) / d[level] = t, solved for q
        q, rest = divmod(dz[level] * t + dz[(level + 1) % m] * x, y)
        return [q] if rest == 0 and member(q) else []

    def divided() -> list[int]:
        """q[m-4] from the divisors y = c(0, m-2) of N (module docstring)."""
        b, a = rows[0][-2:]  # c(0, m-4), c(0, m-3)
        e, f, g = dz[m - 4], dz[m - 3], dz[m - 2]
        n = f * dz[m - 1] + g * a
        if n == 0:
            return []
        options = []
        if n not in divisors:
            divisors[n] = _divisors(n)
        for root in divisors[n]:
            for y in (root,) if positive else (root, -root):
                q, rest = divmod(y * e + f * b, a)
                if rest == 0 and -top <= q <= top and member(q) and member(y) \
                        and member(n // y):
                    options.append(q)
        return sorted(options)

    def congruent(level: int) -> Iterable[int]:
        """The candidates for q[level], level < m - 4, that step every row to an int
        and, at level m - 5, lie in the window."""
        e, f = abs(dz[level]), dz[level + 1]
        step, start, low, high = 1, 0, 1 if positive else -top, top
        if level == m - 5:  # the window on c(0, m-5), c(0, m-4)
            b, a = rows[0][-2:]
            first, high = _window(a, f * b, width)
            low = max(low, first)
        for i in range(level + 1):
            b, a = rows[i][-2:]  # c(i, level), c(i, level + 1)
            if positive:  # (q a - f b) / d[level] >= 1
                low = max(low, -((-e - f * b) // a))
            if e == 1:
                continue
            # q a = f b (mod e) holds on one class mod e / gcd(a, e), or nowhere
            h = gcd(a, e)
            if f * b % h:
                return []
            modulus = e // h
            residue = f * b // h * pow(a // h, -1, modulus) % modulus
            # merged into q = start (mod step) by the Chinese remainder theorem
            k = gcd(step, modulus)
            if (residue - start) % k:
                return []
            t = (residue - start) // k * pow(step // k, -1, modulus // k) % (modulus // k)
            start, step = start + step * t, step * modulus // k
        # chained, not listed: one run may hold far more values than the node budget
        ranges = []
        for first, stop in runs:
            first = max(first, low)
            ranges.append(range(first + (start - first) % step, min(stop, high) + 1, step))
        return chain(*ranges)

    def options(level: int) -> Iterable[int]:
        if level > m - 4:
            return solved(level)
        return divided() if level == m - 4 else congruent(level)

    def search(level: int) -> None:
        nonlocal nodes
        if level == m:  # a frieze by closure: see the module docstring
            leaves.append([row[:] for row in rows])
            return
        lengths = [len(rows[i]) for i in range(level + 1)]
        for q in options(level):
            if nodes == max_nodes:
                raise EnumerationBudgetExceeded(
                    f"enumeration stopped at its budget of {max_nodes} nodes: "
                    f"{nodes} quiddity values tried, {len(leaves)} friezes found so far")
            nodes += 1
            quiddity[level] = q
            if extend_rows(level):
                search(level + 1)
            for row, n in zip(rows, lengths):  # undo this trial
                del row[n:]

    search(0)
    # FriezeMap.sort_key compares c(p, q) = rows[p][q - p] / z in pair order
    sign = 1 if z > 0 else -1
    keyed = sorted((([sign * x for p in range(1, m) for x in leaf[p][1:m - p + 1]], leaf)
                    for leaf in leaves), key=lambda item: item[0])
    assert all(a[0] != b[0] for a, b in zip(keyed, keyed[1:]))  # equal friezes sort together
    return [_fold(leaf, z) for _, leaf in keyed]


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
