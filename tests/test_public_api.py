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
