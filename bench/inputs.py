"""Seeded input generators and the benchmark's own exact reference math.

Nothing here imports ``frieze``: inputs are plain Python data, and the
reference functions (classic friezes from diagonals, the realizability
predicate, the polygon-size predictor, ASCII rendering) are written
independently of the package so the oracles do not lean on the code they
check.  Every generator takes a ``random.Random`` built from the seed.
"""

from __future__ import annotations

import math
from fractions import Fraction

# -- classic friezes of triangulations ------------------------------------


def random_triangulation(rng, m: int) -> list[tuple[int, int]]:
    """Diagonals of a random triangulated m-gon, by recursive ear splitting.

    The chord (first, last) of the current sub-polygon gets a random apex;
    the two new sides become diagonals (unless they are polygon edges) and
    the two sides' sub-polygons are split in turn.
    """
    diagonals = []
    stack = [list(range(1, m + 1))]
    while stack:
        verts = stack.pop()
        if len(verts) < 3:
            continue
        k = rng.randrange(1, len(verts) - 1)
        for p, q in ((verts[0], verts[k]), (verts[k], verts[-1])):
            if q - p != 1 and (p, q) != (1, m):
                diagonals.append((p, q))
        stack.append(verts[:k + 1])
        stack.append(verts[k:])
    return sorted(diagonals)


def classic_frieze(m: int, diagonals) -> dict[tuple[int, int], int]:
    """Conway-Coxeter entries c(p, q), p < q, of a triangulated m-gon.

    The quiddity of v is 1 + the number of diagonals at v, and each row
    follows c(v, w+1) = q_w c(v, w) - c(v, w-1) from c(v, v) = 0,
    c(v, v+1) = 1.
    """
    quiddity = [1] * (m + 1)
    for p, q in diagonals:
        quiddity[p] += 1
        quiddity[q] += 1
    table = {}
    for v in range(1, m + 1):
        prev, cur, w = 0, 1, v % m + 1
        table[(v, w)] = 1
        for _ in range(m - 2):
            prev, cur = cur, quiddity[w] * cur - prev
            w = w % m + 1
            table[(v, w)] = cur
    entries = {}
    for p in range(1, m + 1):
        for q in range(p + 1, m + 1):
            if table[(p, q)] != table[(q, p)]:
                raise AssertionError("classic frieze rows disagree")
            entries[(p, q)] = table[(p, q)]
    return entries


def noncrossing(m: int, diagonals) -> bool:
    """True iff the chords are m - 3 distinct, pairwise noncrossing diagonals."""
    chords = sorted({tuple(sorted(d)) for d in diagonals})
    if len(chords) != m - 3 or len(chords) != len(diagonals):
        return False
    if any(q - p < 2 or (p, q) == (1, m) or p < 1 or q > m for p, q in chords):
        return False
    # sorted by left end; a chord may only nest inside the chords on the stack
    stack: list[int] = []
    for p, q in sorted(chords, key=lambda c: (c[0], -c[1])):
        while stack and stack[-1] <= p:
            stack.pop()
        if stack and q > stack[-1]:
            return False
        stack.append(q)
    return True


def gauge_weights(rng, m: int) -> dict[int, Fraction]:
    """Nonzero rational vertex weights t_v; c(p,q) t_p t_q is again a frieze."""
    return {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in range(1, m + 1)}


def scalar_str(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def frieze_doc(m: int, entries) -> dict:
    """The package's frieze JSON layout, pairs in sorted order."""
    return {"m": m, "entries": {f"{p},{q}": scalar_str(v)
                                for (p, q), v in sorted(entries.items())}}


def pair_value(m: int, entries, p: int, q: int) -> Fraction:
    if p == q:
        return Fraction(0)
    return Fraction(entries[(min(p, q), max(p, q))])


def grid_pair(m: int, i: int, j: int):
    """Polygon pair of grid index (i, j), i <= j <= i + m; None for the forced zeros."""
    if j == i or j == i + m:
        return None
    r = (i - 1) % m + 1
    j += r - i
    return (r, j) if j <= m else (j - m, r)


def grid_value(m: int, entries, i: int, j: int) -> Fraction:
    """c(i, j) of the unfolded pattern for i - 1 <= j <= i + m + 1."""
    if j == i - 1:
        return -grid_value(m, entries, i - 1, i)
    if j == i + m + 1:
        return -grid_value(m, entries, i, i + 1)
    pair = grid_pair(m, i, j)
    return Fraction(0) if pair is None else Fraction(entries[pair])


def grid_rows(m: int, entries) -> list[list[Fraction]]:
    return [[grid_value(m, entries, i, i + k) for k in range(m + 1)] for i in range(m)]


def window_pairs(m: int, cells) -> set:
    """Polygon pairs touched by a set of grid cells (extended cells are edges)."""
    pairs = set()
    for i, j in cells:
        if j == i - 1:
            pairs.add(grid_pair(m, i - 1, i))
        elif j == i + m + 1:
            pairs.add(grid_pair(m, i, i + 1))
        else:
            pairs.add(grid_pair(m, i, j))
    pairs.discard(None)
    return pairs


def render_ascii(m: int, entries) -> str:
    """Reference staircase: row i shows c(i, i) .. c(i, i+m), fixed width."""
    rows = [[scalar_str(x) for x in row] for row in grid_rows(m, entries)]
    width = max(len(s) for row in rows for s in row)
    return "".join(" " * (i * (width + 1)) + " ".join(s.rjust(width) for s in row) + "\n"
                   for i, row in enumerate(rows))


# -- triangle realization --------------------------------------------------


def _v2(n: int) -> int:
    e = 0
    while n % 2 == 0:
        n //= 2
        e += 1
    return e


def realizable(a: int, b: int, c: int) -> bool:
    """Equal pairwise gcds, and 2-valuations all zero or not all equal."""
    g = math.gcd
    if not g(a, b) == g(b, c) == g(a, c):
        return False
    vals = {_v2(a), _v2(b), _v2(c)}
    return vals == {0} or len(vals) > 1


def delta(t) -> tuple[int, int, int]:
    a1, a2, b1, b2, c1, c2 = t
    return (b1 * c1 + b1 * c2 + b2 * c2, a1 * c1 + a2 * c1 + a2 * c2,
            a1 * b1 + a1 * b2 + a2 * b2)


def _euclid_sum(a: int, b: int) -> int:
    total = 0
    while b:
        q, r = divmod(a, b)
        total += q
        a, b = b, r
    return total


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r, old_u, u, old_v, v = a, b, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    return old_r, old_u, old_v


def _primes(n: int) -> list[int]:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + ([n] if n > 1 else [])


def predicted_polygon_size(a: int, b: int, c: int) -> int:
    """Vertex count of the polygon the published realization builds for (a, b, c).

    Follows the construction in the source paper: the smallest label goes
    last, a Bezout witness with per-prime residues fixes a coefficient
    tuple, the descent makes it nonnegative, and each coprime pair (x, y)
    becomes an accordion with 2 + (sum of Euclid quotients) vertices
    (a bare triangle when x or y is 0); three pieces glue to
    m1 + m2 + m3 - 3 vertices.  Used only to keep generated inputs small.
    """
    triple = (a, b, c)
    order = min(((0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)),
                key=lambda p: (triple[p[2]], p))
    pa, pb, pc = (triple[i] for i in order)
    d = math.gcd(pa, pb)
    ap, bp, cp = pa // d, pb // d, pc // d
    _, u, v = _ext_gcd(ap, bp)
    k, modulus = 0, 1
    for p in _primes(d) if d > 1 else []:
        r = next(r for r in range(p) if (u * cp + r * bp) % p and (v * cp - r * ap) % p)
        _, inv, _ = _ext_gcd(modulus % p, p)
        k += modulus * (((r - k) * inv) % p)
        modulus *= p
    k %= modulus
    a1, b2 = u * cp + k * bp, v * cp - k * ap
    if a1 < 0:
        pa, pb, a1, b2 = pb, pa, b2, a1
    t = (0, 1, pa - pc, pc, 0, 1) if a1 == 0 else (a1, pb, pa - b2, b2, 0, 1)
    while min(t) < 0:
        if t[0] == 0:
            t = (0, 1, pa - pc, pc, 0, 1)
            break
        s = -(-t[1] // t[0])
        a1, a2, b1, b2, c1, c2 = t
        t = (a1 * s - a2, a1 * (1 - s) + a2, -b2, b1 + b2 * (s + 1),
             c1 * s + c2 * (s - 1), c1 + c2)
        if t[0] == 0:
            break
    sizes = [3 if x == 0 or y == 0 else 2 + _euclid_sum(max(x, y), min(x, y))
             for x, y in (t[0:2], t[2:4], t[4:6])]
    return sum(sizes) - 3


def random_realizable(rng, top: int, sizes) -> tuple[int, int, int]:
    """A uniform triple in [1, top]^3, realizable on a polygon whose size is in ``sizes``."""
    while True:
        a, b, c = (rng.randint(1, top) for _ in range(3))
        if realizable(a, b, c) and predicted_polygon_size(a, b, c) in sizes:
            return a, b, c


def random_unrealizable(rng, top: int) -> tuple[int, int, int]:
    while True:
        a, b, c = (rng.randint(1, top) for _ in range(3))
        if not realizable(a, b, c):
            return a, b, c


def dihedral_images(values: tuple) -> list[tuple]:
    """Every distinct rotation and reflection of a cyclic sequence, sorted."""
    rotations = [values[r:] + values[:r] for r in range(len(values))]
    return sorted(set(rotations) | {r[::-1] for r in rotations})


# -- domains ---------------------------------------------------------------


def domain_member(spec: str, x: Fraction) -> bool:
    """Membership in the CLI domain grammar, independent of the package."""
    if spec == "nat":
        return x.denominator == 1 and x >= 1
    if spec == "nonzero-int":
        return x.denominator == 1 and x != 0
    if spec.startswith("scaled:"):
        k = x / Fraction(spec[7:])
        return k.denominator == 1 and k != 0
    if spec.startswith("set:"):
        return x in {Fraction(s) for s in spec[4:].split(",")}
    raise ValueError(spec)
