"""Exact scalar arithmetic and discrete value domains.

Every quantity in this package is an exact rational (`fractions.Fraction`);
nothing ever touches floating point.  A :class:`DomainSpec` describes the
discrete subset of the rationals a frieze may take its entries from, knows
its smallest nonzero modulus, and can enumerate all nonzero members inside
a bounded disc -- which is what turns the finiteness theory into an
effective search.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd

#: Exact rational scalar used for all frieze entries.
Scalar = Fraction


class ValidationFailure(ValueError):
    """Well-formed input that fails a mathematical condition or a documented cap.

    Any other ``ValueError`` that ``frieze`` raises means the input is malformed.
    ``detail``, when given, is a JSON-ready account of the failure.
    """

    def __init__(self, message: str, detail=None) -> None:
        super().__init__(message)
        self.detail = detail


def as_scalar(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction, or ``"p/q"`` string to an exact rational."""
    kind = type(value)  # exact types first: isinstance on Fraction goes through ABCMeta
    if kind is Fraction:
        return value
    if kind is int:
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return scalar_from_str(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _ratio(text: str) -> tuple[int, int]:
    """Parse ``"p"`` or ``"p/q"``, stripped of whitespace around it, into (n, e) in
    lowest terms with e > 0; only p is signed, digits are ``str.isdecimal``, q = 0 is refused."""
    numerator, slash, denominator = text.strip().partition("/")
    digits = numerator[1:] if numerator[:1] in ("+", "-") else numerator
    if not digits.isdecimal() or slash and not denominator.isdecimal():
        raise ValueError(f"malformed rational {text!r}: expected 'p' or 'p/q'")
    e = int(denominator or 1)
    if e == 0:
        raise ValueError(f"malformed rational {text!r}: zero denominator")
    n = int(numerator)
    g = gcd(n, e)
    return n // g, e // g


def scalar_from_str(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` into a rational, rejecting q = 0."""
    return Fraction(*_ratio(text))


def _text(x: int, den: int) -> str:
    """x / den as ``"p"`` or ``"p/q"`` in lowest terms, for ints x and den > 0."""
    g = gcd(x, den)  # x / den in lowest terms is (x / g) / (den / g)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


def scalar_to_str(value: int | str | Fraction) -> str:
    """Format a rational as ``"p"`` (integers) or ``"p/q"`` (lowest terms)."""
    return _text(*as_scalar(value).as_integer_ratio())


#: Miller-Rabin with the first 13 primes as bases is exact below this bound.
_MR_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: Trial division hands the cofactor left to ``_split_prime_factors`` past this divisor.
_TRIAL_LIMIT = 10**4

#: Pollard-Brent's budget: polynomial steps x -> x*x + c mod n over one
#: ``prime_factors`` call.  A smallest prime factor of d digits takes about
#: 10**(d/2) steps, so the budget splits those up to about 10**11; spending
#: it all takes about 0.9 s in CPython 3.11 on a 2-core Xeon.  Past it
#: ``prime_factors`` raises :class:`ValidationFailure`.
RHO_BUDGET = 1 << 21

#: Pollard-Brent multiplies this many differences together per gcd.
_RHO_BATCH = 128


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for 1 <= n < ``_MR_BOUND``."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_divisor(n: int, budget: int) -> tuple[int, int]:
    """A divisor 1 < g < n of a composite n by Pollard-Brent, and the budget left.

    The walks x -> x*x + c mod n start at x = 2 with c = 1, 2, ... in turn,
    a fixed sequence, so the result does not vary between runs.  A round
    that would take the steps spent past ``budget`` raises ``ValidationFailure``.
    """
    for c in count(1):
        y, r, product, g = 2, 1, 1, 1
        while g == 1:
            budget -= 2 * r  # r steps to move x on, at most r more in the batches
            if budget < 0:
                raise ValidationFailure(f"cannot factor {n} within Pollard-Brent's "
                                        f"budget of RHO_BUDGET = {RHO_BUDGET} steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                saved = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    product = product * (x - y) % n
                g = gcd(product, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:  # the batch overshot: step from its start one difference at a time
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = gcd(x - saved, n)
        if g != n:
            return g, budget


def _split_prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n > 1, by Miller-Rabin and Pollard-Brent.

    A part below ``_MR_BOUND`` that Miller-Rabin proves prime is kept;
    Pollard-Brent splits every other part, all within one ``RHO_BUDGET``.
    """
    budget, parts, primes = RHO_BUDGET, [n], set()
    while parts:
        k = parts.pop()
        if k < _MR_BOUND and _is_prime(k):
            primes.add(k)
        else:
            g, budget = _brent_divisor(k, budget)
            parts += (g, k // g)
    return sorted(primes)


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, in increasing order.

    Two stages.  Trial division runs up to ``_TRIAL_LIMIT``, and a divisor
    whose square passes the cofactor left leaves that cofactor 1 or prime.
    A cofactor still left past the limit (so only one above its square,
    10**8) goes to ``_split_prime_factors``: Miller-Rabin keeps its prime
    parts and Pollard-Brent splits the others, within ``RHO_BUDGET``, or
    raises :class:`ValidationFailure`.  An n < 1 raises ``ValueError``.
    """
    if n < 1:
        raise ValueError("prime_factors expects a positive integer")
    factors = []
    f = 2
    while f * f <= n:
        if f > _TRIAL_LIMIT:
            return factors + _split_prime_factors(n)
        if n % f == 0:
            factors.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        factors.append(n)
    return factors


def p_valuation(p: int, n: int) -> int:
    """Largest e such that p**e divides n, for a prime p and n >= 1."""
    if p < 2 or prime_factors(p) != [p]:
        raise ValueError(f"{p} is not prime")
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    if n < 0:
        raise ValueError("p_valuation expects a positive integer")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


class _Record:
    """Base of the package's frozen value records.

    ``__match_args__`` lists the fields in order, and each subclass's
    ``__init__`` stores every field once, straight into the instance
    ``__dict__``: a dict store costs less than ``object.__setattr__``, and
    the validators build one violation per failed relation.  Equality
    holds only between two instances of one class; hash, repr and
    ``match`` read the fields in that order.  With no ``__slots__``, copy
    and pickle take the default path, which restores the ``__dict__``
    without calling ``__setattr__``.
    """

    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class DomainSpec(_Record):
    """A discrete set of rationals that frieze entries may be drawn from.

    Two shapes are supported: a scaled integer lattice ``{k*factor}`` with
    multipliers k ranging over the positive integers (``signed=False``) or
    all nonzero integers (``signed=True``), and an explicit finite set.
    The four public constructors cover the kinds used throughout; scaling
    by a nonzero rational stays inside the representation.
    """

    __match_args__ = ("factor", "signed", "values")

    def __init__(self, factor: Fraction | None = None, signed: bool = False,
                 values: frozenset[Fraction] | None = None) -> None:
        if (factor is None) == (values is None):
            raise ValueError("DomainSpec needs exactly one of factor/values")
        if factor is not None and factor == 0:
            raise ValueError("lattice factor must be nonzero")
        if values is not None and not any(v != 0 for v in values):
            raise ValueError("explicit domain needs at least one nonzero value")
        fields = self.__dict__
        fields["factor"] = factor
        fields["signed"] = signed
        fields["values"] = values

    # -- constructors ------------------------------------------------------

    @classmethod
    def positive_integers(cls) -> DomainSpec:
        return cls(factor=Fraction(1), signed=False)

    @classmethod
    def nonzero_integers(cls) -> DomainSpec:
        return cls(factor=Fraction(1), signed=True)

    @classmethod
    def scaled_integers(cls, factor: int | str | Fraction) -> DomainSpec:
        """All nonzero integer multiples of ``factor``."""
        return cls(factor=as_scalar(factor), signed=True)

    @classmethod
    def finite_set(cls, values) -> DomainSpec:
        return cls(values=frozenset(as_scalar(v) for v in values))

    # -- queries -----------------------------------------------------------

    @property
    def min_modulus(self) -> Fraction:
        """inf{|x| : x in the domain, x != 0}; strictly positive."""
        if self.values is not None:
            return min(abs(v) for v in self.values if v != 0)
        return abs(self.factor)

    def __contains__(self, value) -> bool:
        x = as_scalar(value)
        if self.values is not None:
            return x in self.values
        k = x / self.factor
        if k.denominator != 1:
            return False
        return k != 0 if self.signed else k >= 1

    def enumerate_bounded(self, bound: int | str | Fraction) -> list[Fraction]:
        """All nonzero members x with |x| <= bound, sorted ascending."""
        b = as_scalar(bound)
        if b < 0:
            raise ValueError("bound must be nonnegative")
        if self.values is not None:
            return sorted(v for v in self.values if v != 0 and abs(v) <= b)
        step = abs(self.factor)
        kmax = int(b / step)
        if self.signed:
            members = [k * step for k in range(-kmax, 0)]
            members += [k * step for k in range(1, kmax + 1)]
            return members
        sign = 1 if self.factor > 0 else -1
        return sorted(k * sign * step for k in range(1, kmax + 1))

    def scaled(self, z: int | str | Fraction) -> DomainSpec:
        """The domain ``z * R`` for a nonzero rational z."""
        factor = as_scalar(z)
        if factor == 0:
            raise ValueError("scaling factor must be nonzero")
        if self.values is not None:
            return DomainSpec(values=frozenset(v * factor for v in self.values))
        return DomainSpec(factor=self.factor * factor, signed=self.signed)

    # -- CLI grammar -------------------------------------------------------

    def spec_string(self) -> str:
        """Render in the CLI flag grammar (``nat``, ``scaled:p/q``, ...)."""
        if self.values is not None:
            return "set:" + ",".join(scalar_to_str(v) for v in sorted(self.values))
        if self.factor == 1:
            return "nonzero-int" if self.signed else "nat"
        tag = "scaled" if self.signed else "scaled-nat"
        return f"{tag}:{scalar_to_str(self.factor)}"


def parse_domain(text: str) -> DomainSpec:
    """Parse the CLI domain grammar.

    nat | nonzero-int | scaled:p/q | scaled-nat:p/q | set:v1,v2,...; the
    multiples k p/q are taken over k != 0 for ``scaled`` and k >= 1 for
    ``scaled-nat``.
    """
    text = text.strip()
    if text == "nat":
        return DomainSpec.positive_integers()
    if text == "nonzero-int":
        return DomainSpec.nonzero_integers()
    if text.startswith("scaled-nat:"):
        return DomainSpec(factor=scalar_from_str(text[11:]), signed=False)
    if text.startswith("scaled:"):
        return DomainSpec.scaled_integers(scalar_from_str(text[7:]))
    if text.startswith("set:"):
        items = [s for s in text[4:].split(",") if s.strip()]
        if not items:
            raise ValueError("empty domain set")
        return DomainSpec.finite_set(items)
    raise ValueError(f"unknown domain {text!r}")
