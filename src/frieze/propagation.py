"""Propagation calculus: the 2x2 matrices that walk a frieze pattern.

Two consecutive entries (x, y) of a row times ``mu(c, d, e)``, built from
a quiddity value c and boundary values d, e, give the next two entries
(y, (c y - d x) / e).  That row step is written once, in the kernel
``_step(x, y, c, d, e)``; ``_walk`` feeds it mu(q[k-1], d[k], d[k-1]) for
k = i, i+1, ...  Row building, the closure product, entry recovery, the
enumeration search and the triangulation labels all run through it.  From
the extended seed (-d_{i-1}, 0) it generates whole rows; one full period of
the product collapses to -Id exactly when the data closes up into a frieze.
At unit boundary it is Conway-Coxeter's c(v, w+1) = q_w c(v, w) - c(v, w-1).
The tests keep the explicit ``mu`` product as the kernel's oracle.

The kernel takes int cycles and int windows only, and every caller hands
it ints.  ``_cycles`` clears the rational cycles of the three entry points
to ints over one common denominator L in a single pass.  The step is
homogeneous of degree 1 in its window, so a walk on the cleared cycles
from L times the seed gives L times the entries.  A row step that leaves
a remainder does not switch the row to ``Fraction`` arithmetic: the walk
carries its window as ints (x, y) over a running int denominator D and
builds one ``Fraction(y, D)`` per entry.  A walk whose divisors are all 1
cannot leave a remainder, so it runs ``_step`` at d = e = 1 written
inline, c y - x; the choice is made once per walk, from its boundary
cycle.  A walk returns its entries as a list.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm

from .core import PatternGrid, _cleared
from .scalars import as_scalar


class Mat2:
    """Immutable exact 2x2 matrix."""

    __slots__ = ("a11", "a12", "a21", "a22")

    def __init__(self, a11, a12, a21, a22) -> None:
        object.__setattr__(self, "a11", as_scalar(a11))
        object.__setattr__(self, "a12", as_scalar(a12))
        object.__setattr__(self, "a21", as_scalar(a21))
        object.__setattr__(self, "a22", as_scalar(a22))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Mat2 is immutable")

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return Mat2, (self.a11, self.a12, self.a21, self.a22)

    def __mul__(self, other: Mat2) -> Mat2:
        return Mat2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def __neg__(self) -> Mat2:
        return Mat2(-self.a11, -self.a12, -self.a21, -self.a22)

    def transpose(self) -> Mat2:
        return Mat2(self.a11, self.a21, self.a12, self.a22)

    def det(self) -> Fraction:
        return self.a11 * self.a22 - self.a12 * self.a21

    @classmethod
    def identity(cls) -> Mat2:
        return cls(1, 0, 0, 1)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Mat2)
                and (self.a11, self.a12, self.a21, self.a22)
                == (other.a11, other.a12, other.a21, other.a22))

    def __hash__(self) -> int:
        return hash((self.a11, self.a12, self.a21, self.a22))

    def __repr__(self) -> str:
        return f"Mat2({self.a11}, {self.a12}, {self.a21}, {self.a22})"


#: The swap matrix [[0, 1], [1, 0]] conjugating mu- and eta-matrices.
TAU = Mat2(0, 1, 1, 0)

_NEG_IDENTITY = Mat2(-1, 0, 0, -1)


def mu(c, d, e) -> Mat2:
    """[[0, -d/e], [1, c/e]]; determinant d/e.  Requires e != 0."""
    c, d, e = as_scalar(c), as_scalar(d), as_scalar(e)
    if e == 0:
        raise ValueError("mu requires a nonzero third argument")
    return Mat2(0, -d / e, 1, c / e)


def eta(c, d, e) -> Mat2:
    """[[c/e, -d/e], [1, 0]]; the classic propagation matrix is eta(c, 1, 1)."""
    c, d, e = as_scalar(c), as_scalar(d), as_scalar(e)
    if e == 0:
        raise ValueError("eta requires a nonzero third argument")
    return Mat2(c / e, -d / e, 1, 0)


def _step(x, y, c, d, e):
    """The one row recurrence: (x, y) * mu(c, d, e) = (y, (c y - d x) / e).

    Takes ints and returns the new entry (c y - d x) / e, exactly: an int
    when e divides, a ``Fraction`` when it leaves a remainder (``int / int``
    would be a float).
    """
    z = c * y - d * x
    if e == 1:
        return z
    quotient, remainder = divmod(z, e)
    return Fraction(z, e) if remainder else quotient


def _walk(x, y, d: Sequence, q: Sequence, k: int, steps: int) -> list:
    """The list c(i, k+1), ..., c(i, k+steps), by row steps from (x, y) = (c(i, k-1), c(i, k)).

    Step k applies mu(q[h], d[h+1], d[h]) for an index h = k - 1 that wraps at m.
    The cycles and the window are ints.  The entries are those of ``_step``
    one step at a time, types included, with ``Fraction`` arithmetic along
    the row from the first remainder on.

    When every divisor is 1 no step can divide, and the loop computes
    ``_step(x, y, c, 1, 1)`` inline as c y - x, with no call per step.
    Otherwise the loop carries the window as ints (x, y) over a running
    denominator D, their least common one, that starts at 1.  The step is
    homogeneous of degree 1 in its window, so ``_step`` on (x, y) returns
    D times the true entry.  When that is a ``Fraction`` num/den, the window
    becomes (y den, num) over D den, and dividing out r = gcd(y den, num,
    D den) makes D least again.  As num is prime to den, r divides
    gcd(num, D), so the new D is at least den > 1, and D never returns to
    1.  The loop appends y while D = 1, ints until the first remainder, and
    ``Fraction(y, D)`` after it, whole entries included, as ``Fraction``
    arithmetic along the row would give them.
    """
    m = len(d)
    h = (k - 1) % m
    out = []
    if d.count(1) == m:
        for _ in range(steps):
            x, y = y, q[h] * y - x
            h = h + 1 if h + 1 < m else 0
            out.append(y)
        return out
    big = 1
    for _ in range(steps):
        g = h + 1 if h + 1 < m else 0
        z = _step(x, y, q[h], d[g], d[h])
        h = g
        if type(z) is int:
            x, y = y, z
        else:
            num, den = z.as_integer_ratio()
            x, y, big = y * den, num, big * den
            r = gcd(x, y, big)
            if r != 1:
                x, y, big = x // r, y // r, big // r
        out.append(y if big == 1 else Fraction(y, big))
    return out


def _cycles(boundary: Sequence, quiddity: Sequence) -> tuple[int, list[int], list[int]]:
    """The lcm L of both cycles' denominators and both cycles times L, as ints.

    The boundary must be nonzero and the quiddity of equal length >= 3.  The
    row step reads the cycles only through ratios, so the cleared cycles
    walk the same windows as the given ones.  Each value is coerced and
    read as (numerator, denominator) once, and rescaled by one multiply.
    """
    d = [as_scalar(v).as_integer_ratio() for v in boundary]
    if len(d) < 3:
        raise ValueError("boundary sequence needs at least 3 values")
    if (0, 1) in d:
        raise ValueError("boundary entries must be nonzero")
    q = [as_scalar(v).as_integer_ratio() for v in quiddity]
    if len(q) < 3:
        raise ValueError("quiddity cycle needs at least 3 values")
    if len(q) != len(d):
        raise ValueError("boundary and quiddity must have the same length")
    big = lcm(*{e for _, e in d}, *{e for _, e in q})
    return big, [n * (big // e) for n, e in d], [n * (big // e) for n, e in q]


def build_pattern(boundary: Sequence, quiddity: Sequence) -> PatternGrid:
    """Generate one period of the pattern determined by boundary + quiddity.

    Row i grows from the extended seed (c(i, i-1), c(i, i)) = (-d_{i-1}, 0)
    by repeated row propagation; indices into both cycles are taken mod m.
    The trailing entry c(i, i+m) is the definitional zero of the array, so
    building never fails on mathematically inconsistent input: a quiddity
    whose propagation does not close back to zero simply leaves local-rule
    violations for the validators to report.  Division only ever happens
    by boundary entries.  The rows are walked on the cleared cycles of
    ``_cycles`` from the seed -L d_{i-1}; the step is homogeneous of
    degree 1 in its window, so the entries come out as L c(i, j): ints, or
    ``Fraction``s on a row that left a remainder.  Those are cleared in
    turn, by the lcm D of their denominators, into the ints L D c(i, j).
    Either table is the grid's as it stands: every cycle value is an entry,
    so L, or L D, is the lcm of the reduced denominators.
    """
    big, d, q = _cycles(boundary, quiddity)
    m = len(d)
    walked = [[0, *_walk(-d[i - 1], 0, d, q, i, m - 1), 0] for i in range(m)]
    # a walk that left a remainder ends on a Fraction: its denominator never returns to 1
    if all(type(row[-2]) is int for row in walked):
        return PatternGrid._of(m, (big, walked))
    den, table = _cleared(walked)
    return PatternGrid._of(m, (big * den, table))


def closure_product(boundary: Sequence, quiddity: Sequence) -> Mat2:
    """The ordered product of mu-matrices over one full period, k = 1..m.

    Index convention pinned down once and for all: factor k is
    ``mu(q[k-1], d[k], d[k-1])`` with both cycles read mod m.  The product
    equals -Id exactly when the data extends to a tame frieze with
    coefficients; an off-by-one here would silently break everything
    downstream, hence the explicit spelling.  Row r of the product is the
    window reached by walking the unit row vector e_r over k = 1..m.
    """
    _, d, q = _cycles(boundary, quiddity)
    m = len(d)
    *_, a11, a12 = _walk(1, 0, d, q, 1, m)
    *_, a21, a22 = _walk(0, 1, d, q, 1, m)
    return Mat2(a11, a12, a21, a22)


def closes_to_negative_identity(boundary: Sequence, quiddity: Sequence) -> bool:
    return closure_product(boundary, quiddity) == _NEG_IDENTITY


def entry_via_product(boundary: Sequence, quiddity: Sequence, i: int, j: int) -> Fraction:
    """Recover c(i, j) as -d_{i-1} times the (1,1) entry of a mu-product.

    Valid for i - 1 <= j <= i + m - 1; the empty product at j = i - 1
    correctly returns the extended entry -d_{i-1}.  The row vector
    (-d_{i-1}, 0) times the factors k = i..j is the window
    (c(i, j), c(i, j+1)), so this walks the row and reads its first
    component.  The walk runs on the cleared cycles of ``_cycles`` from
    -L d_{i-1}, so it reads L c(i, j) and divides back by L.
    """
    big, d, q = _cycles(boundary, quiddity)
    m = len(d)
    if not i - 1 <= j <= i + m - 1:
        raise ValueError(f"entry ({i}, {j}) is not reachable by the product formula")
    seed = -d[(i - 1) % m]
    return Fraction([seed, 0, *_walk(seed, 0, d, q, i, j - i + 1)][-2], big)
