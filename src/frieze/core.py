"""The two faces of a frieze with coefficients.

A :class:`PatternGrid` is the raw doubly-indexed array one gets by
propagating a boundary sequence and quiddity cycle: rows 0..m-1, each
holding the entries c(i, i) .. c(i, i+m), plus the two extended diagonals
c(i, i-1) = -c(i-1, i) and c(i, i+m+1) = -c(i, i+1).  Nothing about a grid
is assumed valid; the validators below certify the local determinant rule,
tameness, and the glide symmetry.

A :class:`FriezeMap` is the glide-quotiented view: one value for every
edge and diagonal of an m-gon with vertices 1..m, kept in a symmetric
table indexed by vertex.  ``normalize_index`` maps a grid index to its
polygon pair; ``grid_from_polygon`` unfolds whole table rows at once.

Each holds one table, cleared of denominators: ``_ints`` is (L, L * c)
with L the lcm of the reduced denominators, so two equal objects hold
equal ints.  The validating constructors clear their input once; a
builder whose ints can share a factor with L (a fold, a cut, a rescale)
divides it out with ``_lowest``.  The readers make the ``Fraction``s they
return on each call, one per distinct int.  The homogeneous checks (local rule, tameness, glide,
Ptolemy) run on the ints; the writers format each distinct int once.
The boundary and quiddity readers return a tuple that also carries its
cleared ints in lowest terms, which propagation takes as they stand; its
copies and pickles are plain tuples.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import itemgetter

from .scalars import ValidationFailure, _Record, _ratio, _text, as_scalar


class _ZeroEntry:
    """Lookup result for the structurally forced zeros c(i, i) and c(i, i+m)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "ZeroEntry"


#: Singleton returned by :func:`normalize_index` for forced-zero positions.
ZERO_ENTRY = _ZeroEntry()


def normalize_index(m: int, i: int, j: int):
    """Map a grid index (i, j) to its polygon pair under the glide symmetry.

    Requires i <= j <= i + m.  Returns :data:`ZERO_ENTRY` when j is i or
    i + m (the forced zeros); otherwise translates by multiples of m so
    that 1 <= i <= m and returns the pair (i, j) if j <= m, else the
    glide-reflected pair (j - m, i).  Output pairs are sorted.
    """
    if m < 3:
        raise ValueError("polygon needs at least 3 vertices")
    if j < i or j > i + m:
        raise ValueError(f"index ({i}, {j}) outside the fundamental strip")
    if j == i or j == i + m:
        return ZERO_ENTRY
    r = (i - 1) % m + 1
    j += r - i
    if j <= m:
        return (r, j)
    return (j - m, r)


class Violation(_Record):
    """A single failed check; ``at`` holds the indices it failed at."""

    __match_args__ = ("rule", "at", "detail")

    def __init__(self, rule: str, at: tuple[int, ...], detail: str) -> None:
        fields = self.__dict__
        fields["rule"] = rule
        fields["at"] = at
        fields["detail"] = detail


class ValidationReport(_Record):
    """The violations one or more checks found, in the order they were found."""

    __match_args__ = ("violations",)

    def __init__(self, violations: tuple[Violation, ...] = ()) -> None:
        self.__dict__["violations"] = violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def merged(self, other: ValidationReport) -> ValidationReport:
        return ValidationReport(self.violations + other.violations)


class _Tables:
    """Base of the two immutable table classes: m and the cleared table
    ``_ints`` = (L, rows), rows a list of int lists and L > 0 sharing no
    factor with all of them.  Equality compares m and the ints."""

    __slots__ = ()

    @classmethod
    def _of(cls, m: int, ints: tuple[int, list[list[int]]]):
        """The object valid by construction of m and its lowest-terms cleared table (L, rows)."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "m", m)
        object.__setattr__(obj, "_ints", ints)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self.m == other.m and self._ints == other._ints

    @property
    def boundary_sequence(self) -> tuple[Fraction, ...]:
        """d_i = c(i, i+1) for i = 0..m-1, aligned with grid row indexing.
        The tuple carries its cleared ints; its copies are plain tuples."""
        return self._cycle(1)

    @property
    def quiddity_cycle(self) -> tuple[Fraction, ...]:
        """q_i = c(i, i+2) for i = 0..m-1.
        The tuple carries its cleared ints; its copies are plain tuples."""
        return self._cycle(2)


class PatternGrid(_Tables):
    """Raw frieze pattern: m rows of m+1 entries, row i covering c(i, i..i+m).

    Immutable after construction, hence safe to share between threads.
    Row indices are read modulo m, matching the periodicity of any pattern
    generated from an m-periodic boundary and quiddity.  Structural
    invariants (stored zeros at both ends of each row, nonzero boundary
    entries) are enforced here; mathematical validity is a separate concern
    for the validators.
    """

    __slots__ = ("m", "_ints")

    def __init__(self, rows) -> None:
        table = tuple(tuple(as_scalar(x) for x in row) for row in rows)
        m = len(table)
        if m < 3:
            raise ValueError("pattern needs at least 3 rows")
        for i, row in enumerate(table):
            if len(row) != m + 1:
                raise ValueError(f"row {i} must hold {m + 1} entries")
            if row[0] != 0 or row[m] != 0:
                raise ValueError(f"row {i} must start and end with 0")
            if row[1] == 0:
                raise ValueError(f"boundary entry c({i}, {i + 1}) is zero")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_ints", _cleared(table))

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return PatternGrid, (self.rows,)

    @property
    def n(self) -> int:
        """Height of the pattern (m - 3)."""
        return self.m - 3

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(_fractions(*self._ints))

    def entry(self, i: int, j: int) -> Fraction:
        """c(i, j) for any integer row i and i - 1 <= j <= i + m + 1.

        The two extra offsets are the extended diagonals of the pattern.
        """
        (big, table), m = self._ints, self.m
        r = i % m
        offset = j - i
        if offset == -1:
            return Fraction(-table[(r - 1) % m][1], big)
        if offset == m + 1:
            return Fraction(-table[r][1], big)
        if 0 <= offset <= m:
            return Fraction(table[r][offset], big)
        raise ValueError(f"entry ({i}, {j}) outside the extended strip")

    def _cycle(self, k: int) -> _Cycle:
        """c(i, i+k) for i = 0..m-1: column k of the rows."""
        big, table = self._ints
        return _carried(big, [row[k] for row in table])

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"PatternGrid(m={self.m}, n={self.n})"


def _cleared(rows) -> tuple[int, list[list[int]]]:
    """The lcm L of a table's denominators, and the table times L as ints."""
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]  # each denominator read once
    big = lcm(*{e for row in ratios for _, e in row})
    return big, [[n * (big // e) for n, e in row] for row in ratios]


def _lowest(big: int, rows: list[list[int]]) -> tuple[int, list[list[int]]]:
    """(L, rows) divided by gcd(L, every entry): L becomes the reduced denominators' lcm."""
    if big == 1:  # gcd(1, anything) is 1: no entry need be read
        return big, rows
    g = gcd(big, *set().union(*rows))
    if g == 1:
        return big, rows
    return big // g, [[x // g for x in row] for row in rows]


def _fractions(big: int, rows) -> Iterator[tuple[Fraction, ...]]:
    """The rows of x / L for a cleared table (L, rows) of rows of two or more
    entries, one shared ``Fraction`` per distinct x."""
    values = set().union(*rows)
    scalars = ({x: Fraction(x) for x in values} if big == 1  # Fraction(x) takes no gcd
               else {x: Fraction(x, big) for x in values})
    return (itemgetter(*row)(scalars) for row in rows)


class _Cycle(tuple):
    """A cycle of ``Fraction``s that carries its cleared ints ``_ints`` = (L, L * c), L the
    lcm of its own reduced denominators; copies and pickles are plain tuples."""

    def __reduce__(self):
        return tuple, (tuple(self),)


def _carried(big: int, column: list[int]) -> _Cycle:
    """The cycle x / L of a table column, L any common denominator of it."""
    g = gcd(big, *column)
    big, column = big // g, tuple(x // g for x in column)
    cycle = _Cycle(next(_fractions(big, [column])))
    cycle._ints = big, column
    return cycle


def _extended_rows(grid: PatternGrid) -> tuple[int, list[list[int]]]:
    """L and, per row i, L * c(i, i-1), ..., L * c(i, i+m+1) as ints."""
    big, table = grid._ints
    return big, [[-table[i - 1][1], *row, -row[1]] for i, row in enumerate(table)]


def _texts(big: int, table) -> dict[int, str]:
    """``scalar_to_str(x / L)`` for each distinct int x of a cleared table, made once."""
    return {x: _text(x, big) for x in set().union(*table)}


def validate_local(grid: PatternGrid) -> ValidationReport:
    """Check every 2x2 determinant condition, extended diagonals included.

    The condition at (i, j) asks that the adjacent 2x2 determinant equal
    the product of the two boundary entries c(i+1, i+m) and c(j, j+1); a
    row that fails to glide back onto the boundary therefore shows up here.
    Both sides are homogeneous of degree 2 in the entries, so the check runs
    exactly on the integers L * c(i, j), L the common denominator; a
    failure's detail divides back by L**2.
    """
    m = grid.m
    big, ext = _extended_rows(grid)
    d = [row[2] for row in ext] * 2  # c(j, j+1), read for j up to 2m - 1
    bad = []
    for i in range(m):
        a, b = ext[i], ext[(i + 1) % m]
        edge = b[m]  # c(i+1, i+m)
        # c(i, j), c(i+1, j+1), c(i, j+1), c(i+1, j), c(j, j+1)
        for j, (aj, bj1, aj1, bj, dj) in enumerate(
                zip(a[1:], b[1:], a[2:], b, d[i:i + m + 1]), i):
            lhs, rhs = aj * bj1 - aj1 * bj, edge * dj
            if lhs != rhs:
                bad.append(Violation(
                    "local", (i, j),
                    f"determinant {_text(lhs, big * big)} != {_text(rhs, big * big)}"))
    return ValidationReport(tuple(bad))


def validate_tame(grid: PatternGrid) -> ValidationReport:
    """Report every complete adjacent 3x3 submatrix with nonzero determinant.

    Runs over the extended pattern, so the window top-left corner (i, j)
    ranges over j = i+1 .. i+m-1.  The determinant is homogeneous of degree
    3 in the entries, so it is computed exactly on the integers L * c(i, j),
    L the common denominator; a failure's detail divides back by L**3.
    """
    m = grid.m
    big, ext = _extended_rows(grid)
    bad = []
    for i in range(m):
        a, b, c = ext[i], ext[(i + 1) % m], ext[(i + 2) % m]
        for j, (a0, a1, a2, b0, b1, b2, c0, c1, c2) in enumerate(
                zip(a[2:], a[3:], a[4:], b[1:], b[2:], b[3:], c, c[1:], c[2:]), i + 1):
            det = a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)
            if det:
                bad.append(Violation(
                    "tame", (i, j),
                    f"3x3 determinant {_text(det, big ** 3)} != 0"))
    return ValidationReport(tuple(bad))


def check_glide(grid: PatternGrid) -> bool:
    """True iff c(i, j) = c(j, i + m) for every stored entry."""
    (_, rows), m = grid._ints, grid.m
    # c(i, i+o) is rows[i][o] and its mirror c(i+o, i+m) is rows[(i+o) % m][m-o]:
    # offsets o and m-o trade places, and 0 and m hold the stored zeros.
    return all(row[o] == rows[(i + o) % m][m - o]
               for i, row in enumerate(rows) for o in range(1, m // 2 + 1))


class FriezeMap(_Tables):
    """A frieze with coefficients: values on all edges and diagonals of an m-gon.

    The values sit in one symmetric (m+1) x (m+1) table indexed by vertex:
    c(p, q) = c(q, p) for vertices 1..m, zero on the diagonal, and a zero
    row and column 0 that no vertex reads.  The map is immutable, hence
    safe to share between threads.
    """

    __slots__ = ("m", "_ints")

    def __init__(self, m: int, entries: Mapping[tuple[int, int], object]) -> None:
        if m < 3:
            raise ValueError("polygon needs at least 3 vertices")
        expected = m * (m - 1) // 2
        full = len(entries) == expected  # else no table: the loop only looks for a bad pair
        zero = Fraction(0)
        table = [[zero] * (m + 1) for _ in range(m + 1)] if full else None
        for (p, q), value in entries.items():
            if not (1 <= p < q <= m):
                raise ValueError(f"bad vertex pair ({p}, {q}) for m={m}")
            value = as_scalar(value)
            if full:  # distinct valid pairs, as many as there are pairs: each one once
                table[p][q] = table[q][p] = value
        if not full:
            raise ValueError(f"need all {expected} vertex pairs, got {len(entries)}")
        for p in range(1, m + 1):
            if table[p][p % m + 1] == 0:
                raise ValueError(f"boundary entry at edge ({p}, {p % m + 1}) is zero")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_ints", _cleared(table))

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return FriezeMap, (self.m, dict(self.pairs()))

    def value(self, p: int, q: int) -> Fraction:
        """Symmetric lookup for vertices 1..m; equal vertices read as 0."""
        if not (1 <= p <= self.m and 1 <= q <= self.m):
            raise ValueError(f"vertices must lie in 1..{self.m}")
        big, table = self._ints
        return Fraction(table[p][q], big)

    def value_indexed(self, i: int, j: int) -> Fraction:
        """Grid-style lookup via :func:`normalize_index` (i <= j <= i + m)."""
        pair = normalize_index(self.m, i, j)
        if pair is ZERO_ENTRY:
            return Fraction(0)
        return self.value(*pair)

    def pairs(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        """Items ((p, q), c(p, q)) for 1 <= p < q <= m, in pair order."""
        (big, table), m = self._ints, self.m
        values = next(_fractions(big, [[x for p in range(1, m) for x in table[p][p + 1:]]]))
        return zip(combinations(range(1, m + 1), 2), values)

    def _cycle(self, k: int) -> _Cycle:
        """c(i, i+k) for i = 0..m-1 as c(v, w): v = i (m for i = 0), w = v + k folded into 1..m."""
        (big, table), m = self._ints, self.m
        return _carried(big, [table[v][(v + k - 1) % m + 1] for v in (m, *range(1, m))])

    @property
    def edge_values(self) -> tuple[Fraction, ...]:
        """Edge labels read around the polygon: (1,2), (2,3), ..., (m,1)."""
        b = self._cycle(1)  # c(m, 1), c(1, 2), ..., c(m-1, m)
        return b[1:] + b[:1]

    def diagonal_items(self) -> list[tuple[tuple[int, int], Fraction]]:
        m = self.m
        return [((p, q), v) for (p, q), v in self.pairs() if q - p not in (1, m - 1)]

    def __hash__(self) -> int:
        return hash(self.sort_key())

    def sort_key(self):
        """``(m, tuple(pairs()))``: the items in pair order, built on each call."""
        return (self.m, tuple(self.pairs()))

    def __repr__(self) -> str:
        return f"FriezeMap(m={self.m})"


def _fold(rows, z=1) -> FriezeMap:
    """The polygon map of a glide-symmetric int table, every entry divided by z.

    ``rows[i]`` holds ints x with c(i, i), c(i, i+1), ... = x / z up to at
    least c(i, i+m-1), and z is a nonzero int or ``Fraction``.  Vertex row
    p of the map is row p mod m turned by the glide, c(p, q) = c(q - m, p)
    for q > m, into c(p, 1), ..., c(p, m).  The caller vouches for the glide
    symmetry that makes the turned rows agree with each other.  The turned
    rows, rescaled if need be, are all the map is given: its (L, L * c).
    """
    m = len(rows)
    turned = [[0] * (m + 1)]
    for p in range(1, m + 1):
        row = rows[p % m]
        turned.append([0, *row[m - p + 1:m], *row[:m - p + 1]])
    num, den = z.as_integer_ratio()
    big, turned = _lowest(abs(num), turned)  # c = x / z = x * den / num: L c = x * den * sign
    factor = den if num > 0 else -den  # shares no factor with num, so L stays in lowest terms
    if factor != 1:
        turned = [[x * factor for x in row] for row in turned]
    return FriezeMap._of(m, (big, turned))


def to_polygon(grid: PatternGrid) -> FriezeMap:
    """Quotient a glide-symmetric grid to its polygon map.

    Raises ``ValidationFailure`` ("pattern is not glide-symmetric") if the
    grid fails the glide symmetry, since the quotient would then be ill-defined.
    """
    if not check_glide(grid):
        raise ValidationFailure("pattern is not glide-symmetric")
    big, rows = grid._ints
    return _fold(rows, big)


def grid_from_polygon(f: FriezeMap) -> PatternGrid:
    """Unfold a polygon map to one glide period of the raw pattern.

    Row i holds c(v, v), ..., c(v, v+m) for the vertex v = i, or v = m
    for i = 0 (one period on).  Up to column m that is table row v from
    c(v, v); past it the glide c(v, j) = c(j - m, v) wraps the row around
    to c(v, 1), ..., c(v, v).  The slices are taken from the map's int
    table, and the grid is handed those alone.
    """
    m, (big, ints) = f.m, f._ints
    return PatternGrid._of(m, (big, [ints[v][v:] + ints[v][1:v + 1] for v in (m, *range(1, m))]))


def scale(f: FriezeMap, z) -> FriezeMap:
    """Multiply every entry by a nonzero rational (Remark-style rescaling): x / L times n / e."""
    num, den = as_scalar(z).as_integer_ratio()
    if num == 0:
        raise ValueError("scaling factor must be nonzero")
    big, ints = f._ints
    return FriezeMap._of(f.m, _lowest(big * den, [[x * num for x in row] for row in ints]))


# -- JSON wire format ------------------------------------------------------


def frieze_to_json(f: FriezeMap) -> dict:
    """``{"m": 6, "entries": {"1,3": "4", ...}}`` with every pair present."""
    (big, ints), m = f._ints, f.m
    texts = _texts(big, ints)
    return {
        "m": m,
        "entries": {f"{p},{q}": texts[row[q]] for p, row in enumerate(ints[1:m], 1)
                    for q in range(p + 1, m + 1)},
    }


def frieze_from_json(obj) -> FriezeMap:
    """Strict loader for the frieze JSON format.

    Rejects missing, extraneous or repeated pairs (``"01,3"`` repeats
    ``"1,3"``), malformed scalars, and zero boundary entries, with the
    messages and in the order of the ``FriezeMap`` constructor: every key
    and scalar is read first, then m, the vertex pairs, their count and the
    boundary are checked.  Each distinct text is parsed once, first, to
    (n, e) in lowest terms, and the map is handed its vertex table of
    L * c, L the lcm of the denominators, with no ``Fraction``.
    """
    if not isinstance(obj, dict) or "m" not in obj or "entries" not in obj:
        raise ValueError("frieze JSON needs 'm' and 'entries'")
    m = obj["m"]
    if type(m) is not int:
        raise ValueError("'m' must be an integer")
    raw = obj["entries"]
    if not isinstance(raw, dict):
        raise ValueError("'entries' must be an object")
    expected = m * (m - 1) // 2
    full = m >= 3 and len(raw) == expected  # else no table: the count check fails
    table = [[None] * (m + 1) for _ in range(m + 1)] if full else None
    others: set[tuple[int, int]] = set()  # the pairs read that have no table cell
    outside = None  # the first pair read that is not a vertex pair
    ratios = {}  # each distinct scalar text that parses, as (n, e) in lowest terms
    for text in {text for text in raw.values() if isinstance(text, str)}:
        try:
            ratios[text] = _ratio(text)
        except ValueError:  # the loop reports it in its turn
            pass
    big = lcm(*{e for _, e in ratios.values()})
    values = {text: n * (big // e) for text, (n, e) in ratios.items()}  # L c for each text
    for key, text in raw.items():
        first, _, second = key.partition(",")  # a second comma is left to int() to refuse
        try:
            p, q = int(first), int(second)
        except ValueError:
            raise ValueError(f"bad pair key {key!r}") from None
        cell = full and 1 <= p < q <= m
        if (table[p][q] is not None) if cell else (p, q) in others:
            raise ValueError(f"pair ({p}, {q}) given twice, the second time as {key!r}")
        try:
            value = values[text]
        except (KeyError, TypeError):  # every text that parses has a value: say what is wrong
            if not isinstance(text, str):
                raise ValueError(f"entry for {key!r} must be a string scalar") from None
            _ratio(text)  # raises
        if cell:
            table[p][q] = table[q][p] = value
        else:
            others.add((p, q))
            if outside is None and not 1 <= p < q <= m:
                outside = (p, q)
    if m < 3:
        raise ValueError("polygon needs at least 3 vertices")
    if outside is not None:
        raise ValueError(f"bad vertex pair {outside} for m={m}")
    if not full:
        raise ValueError(f"need all {expected} vertex pairs, got {len(raw)}")
    table[0] = [0] * (m + 1)
    for p in range(1, m + 1):
        row = table[p]
        row[0] = row[p] = 0
        if row[p % m + 1] == 0:
            raise ValueError(f"boundary entry at edge ({p}, {p % m + 1}) is zero")
    return FriezeMap._of(m, (big, table))
