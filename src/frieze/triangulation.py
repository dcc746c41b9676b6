"""Polygon triangulations and the classic integer friezes they generate.

A triangulation is read as its quiddity: vertex w carries q(w), the number
of triangles at w (1 + the diagonals at w).  One walk of the package's
row recurrence at unit boundary, c(v, w+1) = q(w) c(v, w) - c(v, w-1),
computes a whole row of the classic frieze at once; by symmetry it also
steps whole rows, which fill in the polygon map.  The triangle-sum
labelling (every triangle labels its third corner with the sum of the
other two) gives the same rows and is kept in the tests as the oracle.
The accordion construction runs the Euclidean algorithm backwards along a
number line to plant two prescribed coprime labels across a unit edge, and
three-way gluing welds marked edges onto a central unit triangle.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from math import gcd
from operator import itemgetter

from .core import FriezeMap, _lowest
from .propagation import _walk

#: Largest polygon :func:`accordion` and ``realize_triangle`` will build.  A
#: request above it raises ``ValueError`` before anything is allocated.
MAX_VERTICES = 100_000

#: Largest triangulation whose classic frieze the ``from-triangulation``
#: command and the ASCII ``render`` of a triangulation build.  The frieze is
#: an m x m table, so an O(m) document asks for O(m^2) time and memory; the
#: commands refuse a larger one before building it.  The library functions
#: take no cap.
MAX_TABLE_VERTICES = 2_000


class Triangulation:
    """A triangulation of a convex m-gon: m - 3 pairwise noncrossing diagonals.

    Its segments (edges and diagonals) are exactly the pairs its classic
    frieze labels 1.  Sorted by left end, longest first, noncrossing chords
    nest like brackets, so one walk with a stack of open chords checks them.
    The quiddity is counted once here, for every labelling walk to read.
    """

    __slots__ = ("m", "diagonals", "_quiddity")

    def __init__(self, m: int, diagonals: Iterable[Sequence[int]]) -> None:
        if m < 3:
            raise ValueError("polygon needs at least 3 vertices")
        diags = set()
        for p, q in map(tuple, diagonals):  # tuple() reports a non-iterable pair as "not iterable"
            if q < p:
                p, q = q, p
            if not (1 <= p < q <= m):
                raise ValueError(f"diagonal ({p}, {q}) outside 1..{m}")
            if q - p == 1 or (p, q) == (1, m):
                raise ValueError(f"({p}, {q}) is a polygon edge, not a diagonal")
            diags.add((p, q))
        if len(diags) != m - 3:
            raise ValueError(f"a triangulated {m}-gon has {m - 3} diagonals, "
                             f"got {len(diags)}")
        open_chords: list[tuple[int, int]] = []
        for p, q in sorted(sorted(diags, key=itemgetter(1), reverse=True), key=itemgetter(0)):
            while open_chords and open_chords[-1][1] <= p:
                open_chords.pop()
            if open_chords and open_chords[-1][1] < q:
                raise ValueError(f"diagonals {open_chords[-1]} and {(p, q)} cross")
            open_chords.append((p, q))
        # quiddity[w - 1] = q(w) = 1 + the number of diagonals at vertex w
        quiddity = [1] * m
        for p, q in diags:
            quiddity[p - 1] += 1
            quiddity[q - 1] += 1
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "diagonals", frozenset(diags))
        object.__setattr__(self, "_quiddity", tuple(quiddity))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Triangulation is immutable")

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return Triangulation, (self.m, sorted(self.diagonals))

    def is_segment(self, p: int, q: int) -> bool:
        """True if {p, q} is a polygon edge or a diagonal of this triangulation."""
        p, q = min(p, q), max(p, q)
        if q - p == 1 or (p, q) == (1, self.m):
            return True
        return (p, q) in self.diagonals

    def triangles(self) -> tuple[tuple[int, int, int], ...]:
        """The m - 2 triangular faces.

        In a noncrossing family any three pairwise connected vertices bound
        a face (a segment entering the triangle would cross a side), so a
        cubic scan over segment-connected triples is exact.
        """
        faces = []
        for a in range(1, self.m + 1):
            for b in range(a + 1, self.m + 1):
                if not self.is_segment(a, b):
                    continue
                for c in range(b + 1, self.m + 1):
                    if self.is_segment(b, c) and self.is_segment(a, c):
                        faces.append((a, b, c))
        assert len(faces) == self.m - 2
        return tuple(faces)

    def reflected(self) -> Triangulation:
        """Mirror image under the reflection fixing vertex 1 (v -> m + 2 - v)."""
        m = self.m

        def mirror(v: int) -> int:
            return 1 if v == 1 else m + 2 - v

        return Triangulation(m, [(mirror(p), mirror(q)) for p, q in self.diagonals])

    def sort_key(self):
        return (self.m, tuple(sorted(self.diagonals)))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Triangulation)
                and self.m == other.m and self.diagonals == other.diagonals)

    def __hash__(self) -> int:
        return hash((self.m, self.diagonals))

    def __repr__(self) -> str:
        return f"Triangulation(m={self.m}, diagonals={sorted(self.diagonals)})"


def triangulation_to_json(t: Triangulation) -> dict:
    return {"m": t.m, "diagonals": [list(pair) for pair in sorted(t.diagonals)]}


def triangulation_from_json(obj) -> Triangulation:
    if not isinstance(obj, dict) or "m" not in obj or "diagonals" not in obj:
        raise ValueError("triangulation JSON needs 'm' and 'diagonals'")
    m, diagonals = obj["m"], obj["diagonals"]
    if type(m) is not int:
        raise ValueError("'m' must be an integer")
    if not isinstance(diagonals, list) or not all(
            isinstance(pair, list) and len(pair) == 2
            and all(type(v) is int for v in pair) for pair in diagonals):
        raise ValueError("'diagonals' must be a list of [p, q] integer pairs")
    return Triangulation(m, diagonals)


def cc_labels_from(t: Triangulation, v: int) -> list:
    """Labels of all vertices seen from v; label(w) = c(v, w) in the classic frieze.

    Reads the triangulation as its quiddity, q(w) = 1 + the number of
    diagonals at w (the number of triangles at w), and walks the row of v
    once with the package's row step, the window times mu(q(w), 1, 1):
    c(v, w+1) = q(w) c(v, w) - c(v, w-1), from c(v, v-1) = -1, c(v, v) = 0.
    Every label is an ``int``.  The triangle-sum rule (a triangle with two
    labelled corners labels the third with their sum) gives the same
    labels; it lives in the tests as the oracle.

    Returns a list of length m + 1 indexed by vertex; index 0 is unused.
    """
    m = t.m
    if not 1 <= v <= m:
        raise ValueError(f"vertex {v} outside 1..{m}")
    # row[k] = c(v, v + k); the kernel reads the quiddity mod m
    row = [0, *_walk(-1, 0, (1,) * m, t._quiddity, v, m - 1)]
    # rotate so that vertex w sits at index w: c(v, w) is row[(w - v) % m]
    return [None, *row[m + 1 - v:], *row[:m + 1 - v]]


def frieze_from_triangulation(t: Triangulation) -> FriezeMap:
    """The classic Conway-Coxeter frieze of a triangulation, as a polygon map.

    Walks rows m and 1, then steps whole rows by the recurrence in the first
    index, row v+1 = q(v) row v - row v-1 (as c(v, w) = c(w, v)), and sets
    the one cell where it gives the walk's start -1: the edge c(v+1, v) = 1.

    Asserts the characteristic facts along the way: the labelling is
    symmetric (the walked rows against the stepped ones), every edge carries
    1, and the non-edge pairs carrying 1 are exactly the diagonals of the
    triangulation.  The checked int table, with its zero row and column 0,
    is the map's cleared table (1, c) as it stands.
    """
    m = t.m
    rows = [[0, *cc_labels_from(t, m)[1:]], [0, *cc_labels_from(t, 1)[1:]]]  # rows m, 1, 2, ...
    for v, qv in enumerate(t._quiddity[:m - 2], 1):  # row v+1 = q(v) row v - row v-1
        rows.append([qv * y - x for x, y in zip(rows[-2], rows[-1])])
        rows[-1][v] = 1  # c(v+1, v): the edge
    table = [[0] * (m + 1), *rows[1:], rows[0]]  # table[p][q] = c(p, q)
    assert table == list(map(list, zip(*table))), "labelling must be symmetric"
    assert all(table[p][p % m + 1] == 1 for p in range(1, m + 1)), "edges must carry 1"
    # the edges and diagonals carry 1, so by symmetry they are all the unit
    # pairs exactly when the table holds 1 twice for each of them
    assert (all(table[p][q] == 1 for p, q in t.diagonals)
            and sum(row.count(1) for row in table) == 2 * (2 * m - 3)), \
        "unit non-edges must be the diagonals"
    return FriezeMap._of(m, (1, table))


def cut_subpolygon(f: FriezeMap, verts: Sequence[int]) -> FriezeMap:
    """Restrict a frieze to the subpolygon spanned by the given vertices.

    The Ptolemy relations restrict, so the result is again a frieze with
    coefficients on a len(verts)-gon.  Its table is sliced from the map's
    cleared table (L, L * c) and brought to lowest terms, so L becomes the
    lcm of the slice's reduced denominators.
    """
    verts = list(verts)
    if len(verts) < 3:
        raise ValueError("a subpolygon needs at least 3 vertices")
    if any(not 1 <= v <= f.m for v in verts):
        raise ValueError(f"vertices must lie in 1..{f.m}")
    if any(a >= b for a, b in zip(verts, verts[1:])):
        raise ValueError("vertices must be strictly increasing")
    k, (big, ints) = len(verts), f._ints
    table = [[0] * (k + 1), *([0, *itemgetter(*verts)(ints[v])] for v in verts)]
    for p in range(1, k + 1):
        if table[p][p % k + 1] == 0:
            raise ValueError(f"boundary entry at edge ({p}, {p % k + 1}) is zero")
    return FriezeMap._of(k, _lowest(big, table))


def _euclid_quotients(a: int, b: int) -> list[int]:
    """Quotients of the Euclidean algorithm on a >= b >= 1, ending at remainder 0."""
    quotients = []
    r0, r1 = a, b
    while r1:
        q, r = divmod(r0, r1)
        quotients.append(q)
        r0, r1 = r1, r
    return quotients


def _accordion_size(a: int, b: int) -> int:
    """Vertex count of the polygon ``accordion(a, b)`` builds, for coprime a, b >= 0.

    The number line starts as the edge (1, 2) and grows by each quotient.
    """
    if a == 0 or b == 0:
        return 3
    return 2 + sum(_euclid_quotients(max(a, b), min(a, b)))


def _check_size(m: int, what: str) -> None:
    if m > MAX_VERTICES:
        raise ValueError(f"{what} needs a {m}-gon, above the limit of "
                         f"MAX_VERTICES = {MAX_VERTICES} vertices")


def _accordion_triangulation(a: int, b: int) -> Triangulation:
    """Number-line construction for a >= b >= 1 with gcd(a, b) = 1.

    Working through the Euclidean quotients in reverse, fan arcs
    alternately to the left and to the right of the starting edge (1, 2);
    the integers touched become the polygon's vertices, renumbered
    consecutively with vertex 1 kept in place.  The final arc joins the two
    extremes and is the closing edge of the polygon; every other arc is a
    diagonal.
    """
    arcs = []
    left_end, right_end = 1, 2
    anchor = 2
    for index, q in enumerate(reversed(_euclid_quotients(a, b))):
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

    def renumber(v: int) -> int:
        return (v - 1) % m + 1

    diagonals = [(renumber(x), renumber(y)) for x, y in arcs[:-1]]
    return Triangulation(m, diagonals)


def accordion(a: int, b: int) -> tuple[Triangulation, int]:
    """A triangulation whose frieze shows a and b across a unit edge.

    Returns (T, k) such that the classic frieze of T has c(1, k) = a,
    c(k, k+1) = 1 and c(1, k+1) = b, with k + 1 read cyclically.  Needs
    gcd(a, b) = 1; the degenerate pairs (0, 1) and (1, 0) sit on a bare
    triangle.  When the direct construction places the two labels in the
    wrong rotational order, its mirror image does the job.  Refuses a
    polygon above :data:`MAX_VERTICES` vertices.
    """
    if a < 0 or b < 0:
        raise ValueError("accordion labels must be nonnegative")
    if gcd(a, b) != 1:
        raise ValueError(f"accordion needs coprime labels, got gcd({a}, {b}) = "
                         f"{gcd(a, b)}")
    _check_size(_accordion_size(a, b), f"accordion({a}, {b})")
    triangle = Triangulation(3, [])
    if a == 0:
        return triangle, 1
    if b == 0:
        return triangle, 3
    t = _accordion_triangulation(max(a, b), min(a, b))
    for mirrored in (False, True):
        if mirrored:  # built only when the direct construction misplaces the labels
            t = t.reflected()
        labels = cc_labels_from(t, 1)
        for k in range(1, t.m + 1):
            if labels[k] == a and labels[k % t.m + 1] == b:
                return t, k
    raise AssertionError(f"accordion construction failed for ({a}, {b})")


def glue_three(
    t1: Triangulation, edge1: tuple[int, int],
    t2: Triangulation, edge2: tuple[int, int],
    t3: Triangulation, edge3: tuple[int, int],
) -> tuple[Triangulation, tuple[dict, dict, dict]]:
    """Glue three triangulations so the marked edges frame a central triangle.

    Each mark is an ordered boundary edge (s, t) with t = s + 1 cyclically;
    walking piece 1 from s1 the long way to t1, then piece 2 from s2 = t1,
    then piece 3 from s3 = t2 (with t3 = s1) traces the boundary of the
    glued (m1 + m2 + m3 - 3)-gon.  The three marked edges become diagonals
    bounding a central triangle whose sides all carry frieze value 1.

    Returns the glued triangulation together with one vertex map per piece,
    so callers can locate specific vertices afterwards.
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
    maps: list[dict[int, int]] = []
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
    diagonals.extend([
        (shared[0], shared[1]),
        (shared[1], shared[2]),
        (shared[0], shared[2]),
    ])
    return Triangulation(total, diagonals), (maps[0], maps[1], maps[2])


def enumerate_triangulations(m: int) -> list[Triangulation]:
    """All triangulations of the m-gon, canonically sorted; 3 <= m <= 12.

    Counted by the Catalan number C(m - 2).  The guardrail exists because
    the list explodes quickly and nothing here needs more than desk scale.
    """
    if not 3 <= m <= 12:
        raise ValueError("enumerate_triangulations supports 3 <= m <= 12")

    def fillings(vertices: tuple[int, ...]):
        if len(vertices) < 3:
            yield []
            return
        first, last = vertices[0], vertices[-1]
        for mid in range(1, len(vertices) - 1):
            apex = vertices[mid]
            for left in fillings(vertices[: mid + 1]):
                for right in fillings(vertices[mid:]):
                    yield [(first, apex), (apex, last)] + left + right

    results = []
    for chords in fillings(tuple(range(1, m + 1))):
        diagonals = {
            (p, q) for p, q in (sorted(chord) for chord in chords)
            if q - p != 1 and (p, q) != (1, m)
        }
        results.append(Triangulation(m, diagonals))
    results.sort(key=Triangulation.sort_key)
    assert len(results) == len(set(results))
    return results


def triangle_label_gcds_divide(f: FriezeMap, i: int, j: int, k: int) -> bool:
    """gcd of any two of c(i,j), c(j,k), c(i,k) divides the third.

    Holds in every classic Conway-Coxeter frieze; exposed as a helper so
    tests can sweep it over vertex triples.
    """
    x, y, z = f.value(i, j), f.value(j, k), f.value(i, k)
    if any(v.denominator != 1 for v in (x, y, z)):
        raise ValueError("gcd divisibility is about integer friezes")
    x, y, z = x.numerator, y.numerator, z.numerator

    def divides(d: int, n: int) -> bool:
        return n % d == 0 if d != 0 else n == 0

    return (divides(gcd(x, y), z) and divides(gcd(y, z), x)
            and divides(gcd(x, z), y))
