"""Checks on the two forms of a map's or grid's table, and a row oracle.

``FriezeMap`` and ``PatternGrid`` hold their entries as ``Fraction``s
(``_table``), as the cleared ints (L, L * c) (``_ints``), or both; the
missing form is made on first read.  ``assert_table_made_on_read`` checks
an object that a builder handed its ints alone, and
``assert_ints_made_on_read`` one from a validating constructor.
``fraction_rows`` walks the rows of ``build_pattern`` in plain ``Fraction``
arithmetic.
"""

import copy
import pickle
from fractions import Fraction

from frieze.core import _cleared


def slot_is_set(obj, name):
    """Whether the slot ``name`` holds a value, read past the fill on first use."""
    try:
        getattr(type(obj), name).__get__(obj)
    except AttributeError:
        return False
    return True


def assert_tables(obj, eager):
    """``obj`` reads ``eager`` as its ``Fraction`` table, in the same containers,
    one object per distinct value, with its cleared form; copies compare equal."""
    table = obj._table
    assert table == eager and type(table) is type(eager)
    assert [type(row) for row in table] == [type(row) for row in eager]
    values = [x for row in table for x in row]
    assert {type(x) for x in values} == {Fraction}
    assert len({id(x) for x in values}) == len(set(values))
    assert obj._table is table and obj._ints == _cleared(table)
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert twin == obj and twin._table == table and hash(twin) == hash(obj)


def assert_table_made_on_read(obj, eager):
    """``obj`` was handed its cleared table alone, and its first read makes ``eager``."""
    assert slot_is_set(obj, "_ints") and not slot_is_set(obj, "_table")
    ints = obj._ints
    assert_tables(obj, eager)
    assert obj._ints is ints


def assert_ints_made_on_read(obj, of_ints):
    """``obj`` keeps the ``Fraction`` table it was built with and clears it on
    first read; ``of_ints(ints)``, an object handed those ints alone, reads
    back an equal table."""
    assert slot_is_set(obj, "_table") and not slot_is_set(obj, "_ints")
    table = obj._table
    ints = obj._ints
    assert ints == _cleared(table) and obj._ints is ints
    twin = of_ints(ints)
    assert_table_made_on_read(twin, table)
    assert twin == obj


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
