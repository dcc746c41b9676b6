"""Checks on a map's or grid's one table, and a row oracle.

``FriezeMap`` and ``PatternGrid`` hold their entries as the cleared ints
(L, L * c) alone (``_ints``), L the lcm of the reduced denominators, and
make the ``Fraction``s they return on each read.  ``assert_same_table``
checks an object against an eager one from a validating constructor;
``assert_canonical`` checks it against its own rebuild from its public
readers.  ``fraction_rows`` walks the rows of ``build_pattern`` in plain
``Fraction`` arithmetic.
"""

import copy
import pickle
from fractions import Fraction

from frieze import FriezeMap, PatternGrid


def public_reads(obj):
    """Everything the public readers of a map or a grid return, in one tuple."""
    m = obj.m
    if isinstance(obj, PatternGrid):
        return (m, obj.rows, obj.boundary_sequence, obj.quiddity_cycle,
                [obj.entry(i, j) for i in range(-1, m + 1) for j in range(i - 1, i + m + 2)])
    return (m, list(obj.pairs()), obj.boundary_sequence, obj.quiddity_cycle, obj.edge_values,
            [obj.value(p, q) for p in range(1, m + 1) for q in range(1, m + 1)],
            [obj.value_indexed(i, j) for i in range(m) for j in range(i, i + m + 1)])


def eager_twin(obj):
    """``obj`` rebuilt by its validating constructor from its public readers."""
    if isinstance(obj, PatternGrid):
        return PatternGrid(obj.rows)
    return FriezeMap(obj.m, dict(obj.pairs()))


def assert_same_table(obj, eager):
    """``obj`` and ``eager``, from a validating constructor, hold equal ints with
    list rows in both, compare and hash equal and read the same; ``obj``'s reads
    are ``Fraction``s, one per distinct value in its rows or pairs, and leave
    its ints as they were; copies and pickles of it compare equal."""
    ints = obj._ints
    for table in (ints, eager._ints):
        big, rows = table
        assert type(big) is int and big > 0 and type(rows) is list
        assert {type(row) for row in rows} == {list}
        assert {type(x) for row in rows for x in row} == {int}
    assert obj._ints == eager._ints and obj == eager and hash(obj) == hash(eager)
    reads = public_reads(obj)
    assert reads == public_reads(eager)
    if isinstance(obj, PatternGrid):
        assert type(reads[1]) is tuple and {type(row) for row in reads[1]} == {tuple}
        shared = [x for row in reads[1] for x in row]
    else:
        shared = [x for _, x in reads[1]]
        assert reads[4] == tuple(obj.value(p, p % obj.m + 1) for p in range(1, obj.m + 1))
    assert len({id(x) for x in shared}) == len(set(shared))
    assert {type(x) for x in [*shared, *(x for read in reads[2:] for x in read)]} == {Fraction}
    assert obj._ints is ints and obj == eager
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert twin == obj and twin._ints == ints and hash(twin) == hash(obj)
    cycle = obj.boundary_sequence  # carries its ints; its copies are plain tuples
    for twin in (copy.copy(cycle), copy.deepcopy(cycle), pickle.loads(pickle.dumps(cycle))):
        assert type(twin) is tuple and twin == cycle


def assert_canonical(obj):
    """A builder handed ``obj`` the ints its validating constructor makes of its reads."""
    assert_same_table(obj, eager_twin(obj))


def fraction_rows(boundary, quiddity):
    """The rows of ``build_pattern``, each walked in ``Fraction`` arithmetic from (-d[i-1], 0)."""
    d, q, m = [Fraction(x) for x in boundary], [Fraction(x) for x in quiddity], len(boundary)
    rows = []
    for i in range(m):
        row, x, y = [Fraction(0)], -d[i - 1], Fraction(0)
        for k in range(i, i + m - 1):  # c(i, k+1) from c(i, k-1) and c(i, k)
            x, y = y, (q[(k - 1) % m] * y - d[k % m] * x) / d[(k - 1) % m]
            row.append(y)
        rows.append((*row, Fraction(0)))
    return tuple(rows)
