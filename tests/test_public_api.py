import copy
import inspect
import pickle
import weakref
from fractions import Fraction

import pytest

import frieze


def test_all_lists_exactly_the_public_names():
    names = frieze.__all__
    assert len(set(names)) == len(names)
    assert names == sorted(names)
    missing = [name for name in names if not hasattr(frieze, name)]
    assert missing == []
    public = {name for name, value in vars(frieze).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(names)


def _records():
    """Fixed instances of the three frozen records, with their field tuples and reprs."""
    at = frieze.Violation("local", (0, 1), "x")
    return [
        (at, ("local", (0, 1), "x"), "Violation(rule='local', at=(0, 1), detail='x')"),
        (frieze.ValidationReport((at,)), ((at,),),
         "ValidationReport(violations=(Violation(rule='local', at=(0, 1), detail='x'),))"),
        (frieze.ValidationReport(), ((),), "ValidationReport(violations=())"),
        (frieze.DomainSpec(Fraction(1, 2), True), (Fraction(1, 2), True, None),
         "DomainSpec(factor=Fraction(1, 2), signed=True, values=None)"),
        (frieze.DomainSpec(values=frozenset({Fraction(3, 2)})),
         (None, False, frozenset({Fraction(3, 2)})),
         "DomainSpec(factor=None, signed=False, values=frozenset({Fraction(3, 2)}))"),
    ]


def test_frozen_records_behave_as_value_types():
    """``Violation``, ``ValidationReport`` and ``DomainSpec`` are frozen value
    records: repr, equality, hash, immutability, ``match``, ``vars()``,
    weakrefs, copy and pickle all read their fields in declaration order."""
    for record, fields, text in _records():
        kind = type(record)
        assert repr(record) == text
        assert kind.__match_args__ == tuple(vars(record))
        assert tuple(vars(record).values()) == fields
        assert record == kind(*fields) and not record != kind(*fields)
        assert record == kind(**vars(record))
        assert hash(record) == hash(fields) == hash(kind(*fields))
        assert record != fields and not record == fields
        assert record.__eq__(fields) is NotImplemented
        assert weakref.ref(record)() is record
        name = kind.__match_args__[0]
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
        with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
            record.extra = None
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert type(twin) is kind and twin is not record
            assert twin == record and hash(twin) == hash(record)
            assert vars(twin) == vars(record)
            with pytest.raises(AttributeError):
                setattr(twin, name, None)
    violation, report, empty, lattice, finite = (record for record, _, _ in _records())
    assert report != violation and violation != report and empty != lattice
    assert empty == frieze.ValidationReport(()) and not empty.violations
    assert lattice != frieze.DomainSpec(Fraction(1, 2)) and finite.min_modulus == Fraction(3, 2)
    match violation:
        case frieze.Violation(rule, at, detail):
            assert (rule, at, detail) == ("local", (0, 1), "x")
    match report:
        case frieze.ValidationReport((frieze.Violation("local", (i, j), _),)):
            assert (i, j) == (0, 1)
    match lattice:
        case frieze.DomainSpec(factor, signed, None):
            assert (factor, signed) == (Fraction(1, 2), True)
    with pytest.raises(TypeError):
        frieze.Violation("local", (0, 1))
    with pytest.raises(TypeError):
        frieze.ValidationReport((), ())
    assert frieze.DomainSpec(factor=Fraction(1)) == frieze.DomainSpec.positive_integers()


@pytest.mark.parametrize("kwargs, message", [
    ({}, "DomainSpec needs exactly one of factor/values"),
    ({"factor": Fraction(0), "values": frozenset({Fraction(1)})},
     "DomainSpec needs exactly one of factor/values"),
    ({"factor": Fraction(0)}, "lattice factor must be nonzero"),
    ({"values": frozenset({Fraction(0)})}, "explicit domain needs at least one nonzero value"),
    ({"values": frozenset()}, "explicit domain needs at least one nonzero value"),
])
def test_domain_spec_constructor_errors(kwargs, message):
    with pytest.raises(ValueError) as caught:
        frieze.DomainSpec(**kwargs)
    assert str(caught.value) == message


SPLIT_SQUARE = frieze.Triangulation(4, [(1, 3)])
SQUARE = frieze.frieze_from_triangulation(SPLIT_SQUARE)
#: unit edges, c(2, 4) = 1 and c(1, 3) = 0: the cut [1, 3, 4] has the zero edge (1, 3)
ZERO_DIAGONAL = frieze.FriezeMap(4, {(1, 2): 1, (2, 3): 1, (3, 4): 1, (1, 4): 1,
                                     (1, 3): 0, (2, 4): 1})


def test_reprs_and_hashes_of_the_table_types():
    grid = frieze.build_pattern([1] * 5, [1, 3, 1, 2, 2])
    assert (repr(grid), grid.n) == ("PatternGrid(m=5, n=2)", 2)
    assert repr(SQUARE) == "FriezeMap(m=4)"
    assert repr(SPLIT_SQUARE) == "Triangulation(m=4, diagonals=[(1, 3)])"
    assert repr(frieze.ZERO_ENTRY) == "ZeroEntry"
    mat = frieze.Mat2(1, 2, 3, Fraction(8, 2))
    assert repr(mat) == "Mat2(1, 2, 3, 4)"
    assert hash(mat) == hash(frieze.Mat2("1", 2, 3, 4)) == hash((1, 2, 3, 4))


@pytest.mark.parametrize("call, kind, message", [
    (lambda: frieze.PatternGrid([[0, 1, 0]] * 2), ValueError, "pattern needs at least 3 rows"),
    (lambda: frieze.PatternGrid([[0, 1, 0]] * 3), ValueError, "row 0 must hold 4 entries"),
    (lambda: frieze.PatternGrid([[0, 1, 1, 0]] * 2 + [[1, 1, 1, 0]]), ValueError,
     "row 2 must start and end with 0"),
    (lambda: frieze.PatternGrid([[0, 1, 1, 0], [0, 0, 1, 0], [0, 1, 1, 0]]), ValueError,
     "boundary entry c(1, 2) is zero"),
    (lambda: SQUARE.value(1, 5), ValueError, "vertices must lie in 1..4"),
    (lambda: frieze.frieze_from_json({"m": 4, "entries": [["1,2", "1"]]}), ValueError,
     "'entries' must be an object"),
    (lambda: frieze.triangulation_from_json({"m": "4", "diagonals": []}), ValueError,
     "'m' must be an integer"),
    (lambda: frieze.cc_labels_from(SPLIT_SQUARE, 5), ValueError,
     "vertex 5 outside 1..4"),
    (lambda: frieze.cut_subpolygon(SQUARE, [0, 1, 2]), ValueError, "vertices must lie in 1..4"),
    (lambda: frieze.cut_subpolygon(ZERO_DIAGONAL, [1, 3, 4]), ValueError,
     "boundary entry at edge (1, 2) is zero"),
    (lambda: frieze.build_pattern([1] * 4, [1] * 3), ValueError,
     "boundary and quiddity must have the same length"),
    (lambda: frieze.triangle_label_gcds_divide(frieze.scale(SQUARE, Fraction(1, 2)), 1, 2, 3),
     ValueError, "gcd divisibility is about integer friezes"),
    (lambda: frieze.triangle_label_gcds_divide(SQUARE, 1, 2, 5), ValueError,
     "vertices must lie in 1..4"),
    (lambda: frieze.render_svg(SQUARE.pairs()), TypeError,
     "render_svg draws FriezeMap or Triangulation objects"),
    (lambda: frieze.scalars.prime_factors(0), ValueError,
     "prime_factors expects a positive integer"),
    (lambda: frieze.p_valuation(2, -4), ValueError, "p_valuation expects a positive integer"),
    # delta (-1, -1, 1), then delta (2, 1, 3)
    (lambda: list(frieze.descent_steps(frieze.CoeffTuple(1, 0, 1, 0, -1, 0))), ValueError,
     "descent expects a componentwise positive delta"),
    (lambda: list(frieze.descent_steps(frieze.CoeffTuple(1, 1, 1, 1, 0, 1))), ValueError,
     "descent expects the third delta component minimal"),
])
def test_public_input_checks(call, kind, message):
    with pytest.raises(kind) as caught:
        call()
    assert type(caught.value) is kind and str(caught.value) == message
