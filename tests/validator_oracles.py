"""The Fraction validators, kept as oracles for the integer ones in ``frieze``.

Each one reads every entry through ``PatternGrid.entry`` or
``FriezeMap.value`` and compares exact rationals, one relation at a time;
``verify_all_ptolemy`` scans all C(m, 4) quadruples, and ``check_glide``
compares every stored entry with its mirror.  ``unfolded_rows`` is the
per-entry unfold of a polygon map, the oracle for ``grid_from_polygon``.
``frieze_to_json`` and ``render_ascii`` format every entry with
``scalar_to_str``, the oracles for the writers that format cleared ints.
"""

from fractions import Fraction
from itertools import combinations

from frieze import ZERO_ENTRY, ValidationReport, Violation, normalize_index, scalar_to_str


def validate_local(grid) -> ValidationReport:
    m = grid.m
    bad = []
    for i in range(m):
        for j in range(i, i + m + 1):
            lhs = (grid.entry(i, j) * grid.entry(i + 1, j + 1)
                   - grid.entry(i, j + 1) * grid.entry(i + 1, j))
            rhs = grid.entry(i + 1, i + m) * grid.entry(j, j + 1)
            if lhs != rhs:
                bad.append(Violation(
                    "local", (i, j),
                    f"determinant {scalar_to_str(lhs)} != {scalar_to_str(rhs)}"))
    return ValidationReport(tuple(bad))


def _det3(rows) -> Fraction:
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def validate_tame(grid) -> ValidationReport:
    m = grid.m
    bad = []
    for i in range(m):
        for j in range(i + 1, i + m):
            det = _det3([
                [grid.entry(i + di, j + dj) for dj in range(3)]
                for di in range(3)
            ])
            if det != 0:
                bad.append(Violation(
                    "tame", (i, j), f"3x3 determinant {scalar_to_str(det)} != 0"))
    return ValidationReport(tuple(bad))


def verify_all_ptolemy(f) -> ValidationReport:
    bad = []
    for i, j, k, l in combinations(range(1, f.m + 1), 4):
        lhs = f.value(i, k) * f.value(j, l)
        rhs = f.value(i, l) * f.value(j, k) + f.value(i, j) * f.value(k, l)
        if lhs != rhs:
            bad.append(Violation(
                "ptolemy", (i, j, k, l),
                f"{scalar_to_str(lhs)} != {scalar_to_str(rhs)}"))
    return ValidationReport(tuple(bad))


def check_glide(grid) -> bool:
    m = grid.m
    return all(
        grid.entry(i, j) == grid.entry(j, i + m)
        for i in range(m)
        for j in range(i, i + m + 1)
    )


def unfolded_rows(f) -> tuple[tuple[Fraction, ...], ...]:
    """Row i holds c(i, i..i+m), each entry looked up through ``normalize_index``."""
    entries, m = dict(f.pairs()), f.m
    return tuple(
        tuple(0 if pair is ZERO_ENTRY else entries[pair]
              for pair in (normalize_index(m, i, j) for j in range(i, i + m + 1)))
        for i in range(m))


def frieze_to_json(f) -> dict:
    return {"m": f.m, "entries": {f"{p},{q}": scalar_to_str(v) for (p, q), v in f.pairs()}}


def render_ascii(f) -> str:
    rows = [[scalar_to_str(x) for x in row] for row in unfolded_rows(f)]
    width = max(len(text) for row in rows for text in row)
    return "".join(" " * (i * (width + 1)) + " ".join(text.rjust(width) for text in row)
                   + "\n" for i, row in enumerate(rows))
