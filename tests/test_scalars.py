import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frieze import (DomainSpec, as_scalar, p_valuation, parse_domain,
                    scalar_from_str, scalar_to_str)
from frieze import scalars
from frieze.scalars import _is_prime, prime_factors

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)

_ORACLE_RE = re.compile(r"[+-]?\d+(?:/(\d+))?")


def scalar_from_str_oracle(text):
    """The parser that matched, then handed the whole text to ``Fraction(str)``."""
    stripped = text.strip()
    match = _ORACLE_RE.fullmatch(stripped)
    if match is None:
        raise ValueError(f"malformed rational {text!r}: expected 'p' or 'p/q'")
    if match.group(1) is not None and int(match.group(1)) == 0:
        raise ValueError(f"malformed rational {text!r}: zero denominator")
    return Fraction(stripped)


def _outcome(parse, text):
    try:
        value = parse(text)
    except ValueError as exc:
        return "error", str(exc)
    return type(value), value


#: whitespace (ASCII and Unicode), signs, separators and decimal digits of
#: several scripts (Arabic-Indic, Devanagari, mathematical double-struck)
SCALAR_ALPHABET = " \t\n\u00a0\u2003+-_/.0123456789\u0660\u0663\u096b\U0001d7d8\U0001d7e1"
scalar_texts = st.one_of(
    st.text(st.sampled_from(SCALAR_ALPHABET), max_size=10),
    st.builds("{}{}{}/{}{}".format, st.sampled_from(["", " ", "\u2003"]),
              st.sampled_from(["", "+", "-", "--", "_"]),
              st.text(st.sampled_from("0123456789_\u0663"), min_size=1, max_size=5),
              st.sampled_from(["0", "00", "\u0660", "0_0", "7", "07", "-3"]),
              st.sampled_from(["", " ", "\n", "x"])))


_RATIO_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?")


def ratio_by_regex(text):
    """``scalars._ratio`` as it was with two paths: the sign and ``isdecimal``
    test on the text as given, and a regex on the stripped text for the rest."""
    numerator, slash, denominator = text.partition("/")
    digits = numerator[1:] if numerator[:1] in ("+", "-") else numerator
    if not digits.isdecimal() or slash and not denominator.isdecimal():
        match = _RATIO_RE.fullmatch(text.strip())
        if match is None:
            raise ValueError(f"malformed rational {text!r}: expected 'p' or 'p/q'")
        numerator, denominator = match.groups()
    e = int(denominator or 1)
    if e == 0:
        raise ValueError(f"malformed rational {text!r}: zero denominator")
    n = int(numerator)
    g = gcd(n, e)
    return n // g, e // g


#: ASCII and Arabic-Indic digits, a superscript, signs, the slash,
#: whitespace, separators and letters
RATIO_ALPHABET = " \t\n+-/_.0123456789\u0660\u0663\u0669\u00b2ax"


@given(st.one_of(
    st.text(st.sampled_from(RATIO_ALPHABET), max_size=8),
    st.builds("{}{}{}{}{}".format, st.text(st.sampled_from(" \t\n"), max_size=2),
              st.sampled_from(["", "+", "-", "+-"]),
              st.text(st.sampled_from("0127\u0660\u0663\u00b2_"), min_size=1, max_size=4),
              st.sampled_from(["", "/0", "/4", "/\u0663", "/06", "/", "/-2", "/x"]),
              st.text(st.sampled_from(" \t\n"), max_size=2))))
@example(" 12 ")
@example("\t-6/4\n")
@example(" 3/0 ")
@example("\u0663/\u0660")
@example("\u00b2")
@example(" ")
def test_ratio_matches_the_regex_form(text):
    assert _outcome(scalars._ratio, text) == _outcome(ratio_by_regex, text)


def prime_factors_oracle(n):
    """Distinct prime factors of n >= 1 by plain trial division up to the square root."""
    factors = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            factors.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        factors.append(n)
    return factors


#: Primes from 10**6 up to 2**61 - 1.
LARGE_PRIMES = (1000003, 10**12 + 39, 10**18 + 3, 10**18 + 9, 2**61 - 1)
#: Strong pseudoprimes to every prime base up to 7, up to 31 and up to 37.
STRONG_PSEUDOPRIMES = (3215031751, 3825123056546413051, 318665857834031151167461)


def test_prime_factors_matches_trial_division_up_to_2e5():
    assert all(prime_factors(n) == prime_factors_oracle(n) for n in range(1, 200_001))


def test_miller_rabin_matches_trial_division():
    assert [n for n in range(20_000) if _is_prime(n)] == \
        [n for n in range(20_000) if prime_factors_oracle(n) == [n] and n > 1]
    assert all(_is_prime(p) for p in LARGE_PRIMES)
    assert not any(_is_prime(n) for n in STRONG_PSEUDOPRIMES)
    assert not any(_is_prime(p * q) for p in LARGE_PRIMES[:2] for q in LARGE_PRIMES[:3])


@settings(deadline=None)
@given(st.integers(min_value=10**6, max_value=10**10))
@example(3215031751)
@example(3825123056546413051)
@example(1000003 * 999983)  # both factors near 10**6
@example(1000003**2)
def test_prime_factors_above_the_floor_matches_trial_division(n):
    assert prime_factors(n) == prime_factors_oracle(n)


@settings(deadline=None)
@given(st.lists(st.tuples(st.sampled_from((2, 3, 5, 7, 11, 101, 9973, 999983)),
                          st.integers(1, 3)), max_size=4),
       st.sampled_from(LARGE_PRIMES))
def test_prime_factors_of_small_primes_times_one_large_prime(small, large):
    n = large
    for p, e in small:
        n *= p**e
    assert prime_factors(n) == sorted({p for p, _ in small} | {large})


def _prime_at_least(n):
    while prime_factors_oracle(n) != [n]:
        n += 1
    return n


#: primes just past the trial-division limit, where Pollard-Brent takes over
rho_primes = st.integers(10**4, 2 * 10**6).map(_prime_at_least)


@settings(deadline=None, max_examples=60)
@given(st.lists(rho_primes, min_size=2, max_size=3), st.integers(1, 3),
       st.lists(st.sampled_from((2, 3, 7, 9973)), max_size=3))
@example([10007, 10007], 1, [])  # a prime square just past the limit
@example([10009, 1000003], 2, [2])
def test_pollard_brent_matches_trial_division(large, power, small):
    """Cofactors with two or three prime factors above 10**4, one of them
    maybe squared or cubed, times small primes: the trial-division oracle's factors."""
    n = large[0] ** power
    for p in large[1:] + small:
        n *= p
    assert prime_factors(n) == prime_factors_oracle(n)


def test_pollard_brent_splits_two_ten_digit_primes():
    n = 1000000007 * 1000000009
    assert prime_factors(n) == [1000000007, 1000000009]
    assert prime_factors(6 * n * 1000000007) == [2, 3, 1000000007, 1000000009]
    assert prime_factors(1000000007 * (2**61 - 1)) == [1000000007, 2**61 - 1]  # above _MR_BOUND


def test_pollard_brent_stops_at_its_budget(monkeypatch):
    monkeypatch.setattr(scalars, "RHO_BUDGET", 1000)
    with pytest.raises(ValueError, match=r"^cannot factor 1000000016000000063 within "
                                         r"Pollard-Brent's budget of RHO_BUDGET = 1000 steps$"):
        prime_factors(1000000007 * 1000000009)
    assert prime_factors(10007 * 10009) == [10007, 10009]  # found inside the budget
    assert prime_factors(99999989) == [99999989]  # below 10**8 trial division ends it


def test_p_valuation_examples():
    assert p_valuation(2, 12) == 2
    assert p_valuation(2, 7) == 0
    assert p_valuation(2, 8) == 3
    assert p_valuation(3, 18) == 2
    with pytest.raises(ValueError):
        p_valuation(2, 0)
    with pytest.raises(ValueError):
        p_valuation(4, 12)
    with pytest.raises(ValueError):
        p_valuation(1, 12)


@given(rationals, rationals)
def test_scalar_arithmetic_is_exact(x, y):
    assert (x + y) - y == x
    if y != 0:
        assert (x * y) / y == x


def scalar_to_str_oracle(value):
    """``scalar_to_str`` as it was before it read ``_text``: two branches on the denominator."""
    x = as_scalar(value)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


@given(st.one_of(rationals, st.integers(), rationals.map(str)))
@example(0)
@example(Fraction(-3, 6))
def test_scalar_string_roundtrip(x):
    assert scalar_to_str(x) == scalar_to_str_oracle(x)
    assert scalar_from_str(scalar_to_str(x)) == as_scalar(x)


@given(scalar_texts)
@example("3/0")
@example("-3/00")
@example(" +0012/0040 ")
@example("\u0663/\u0660")
@example("1_000")
@example("9" * 4301)
@example("5/" + "7" * 4301)
@example("9" * 4301 + "/0")
def test_scalar_from_str_matches_the_fraction_parser(text):
    assert _outcome(scalar_from_str, text) == _outcome(scalar_from_str_oracle, text)


@pytest.mark.parametrize("text", ["12", "007", "\u0663\u0660", "\uff11\uff12", "\u00b2",
                                  "1_000", " 12", "12\n", "+12", "-0", "", "9" * 4301])
def test_scalar_from_str_fast_path_takes_only_unsigned_decimals(text):
    assert _outcome(scalar_from_str, text) == _outcome(scalar_from_str_oracle, text)


def as_scalar_oracle(value):
    """``as_scalar`` as it was before its exact-type fast paths: the isinstance chain."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return scalar_from_str(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class _Int(int):
    pass


class _Fraction(Fraction):
    pass


def _coerced(coerce, value):
    try:
        x = coerce(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return type(x), x


@given(st.one_of(st.integers(), st.booleans(), st.integers().map(_Int), rationals,
                 rationals.map(_Fraction), scalar_texts, st.floats(), st.none()))
@example(True)
@example(_Int(7))
@example(_Fraction(3, 4))
@example(" -12/8 ")
@example("1_000")
@example("3/0")
@example(1.5)
@example(None)
def test_as_scalar_matches_the_isinstance_chain(value):
    assert _coerced(as_scalar, value) == _coerced(as_scalar_oracle, value)
    if isinstance(value, Fraction):
        assert as_scalar(value) is value


def test_scalar_parsing_rejects_junk():
    assert scalar_from_str("3/4") == Fraction(3, 4)
    assert scalar_from_str("-12") == -12
    for bad in ("3/0", "1.5", "a/b", "", "3//4", "1e3"):
        with pytest.raises(ValueError):
            scalar_from_str(bad)


def test_domain_enumerate_examples():
    nat = DomainSpec.positive_integers()
    assert nat.enumerate_bounded(3) == [1, 2, 3]
    half = DomainSpec.scaled_integers(Fraction(1, 2))
    assert half.enumerate_bounded(1) == [
        Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1)]
    fset = DomainSpec.finite_set([3, 7, 5])
    assert fset.enumerate_bounded(6) == [3, 5]
    half_nat = nat.scaled(Fraction(1, 2))
    assert half_nat.enumerate_bounded(1) == [Fraction(1, 2), Fraction(1)]


def test_min_modulus():
    assert DomainSpec.positive_integers().min_modulus == 1
    assert DomainSpec.scaled_integers(Fraction(-3, 7)).min_modulus == Fraction(3, 7)
    assert DomainSpec.finite_set([0, -4, 6]).min_modulus == 4


@given(st.fractions(min_value=-100, max_value=100, max_denominator=20).filter(lambda z: z != 0))
def test_min_modulus_of_scaled_lattice_is_abs_factor(z):
    assert DomainSpec.scaled_integers(z).min_modulus == abs(z)


@pytest.mark.parametrize("domain", [
    DomainSpec.positive_integers(),
    DomainSpec.nonzero_integers(),
    DomainSpec.scaled_integers(Fraction(2, 3)),
    DomainSpec.positive_integers().scaled(Fraction(1, 2)),
    DomainSpec.finite_set([Fraction(1, 3), -2, 5, 0]),
])
def test_enumerate_matches_membership_on_a_grid(domain):
    bound = Fraction(4)
    listed = domain.enumerate_bounded(bound)
    assert listed == sorted(listed)
    assert len(set(listed)) == len(listed)
    grid = {Fraction(n, d) for n in range(-24, 25) for d in (1, 2, 3, 4, 6)}
    expected = sorted(x for x in grid if x != 0 and abs(x) <= bound and x in domain)
    assert [x for x in listed if x in grid] == expected
    assert all(x in domain and x != 0 and abs(x) <= bound for x in listed)


def test_domain_scaling():
    nat = DomainSpec.positive_integers()
    assert Fraction(3, 2) in nat.scaled(Fraction(1, 2))
    assert Fraction(1, 3) not in nat.scaled(Fraction(1, 2))
    fset = DomainSpec.finite_set([3, 5]).scaled(2)
    assert Fraction(6) in fset and Fraction(3) not in fset
    with pytest.raises(ValueError):
        nat.scaled(0)


def test_domain_spec_validation():
    with pytest.raises(ValueError):
        DomainSpec.finite_set([0])
    with pytest.raises(ValueError):
        DomainSpec.scaled_integers(0)
    with pytest.raises(ValueError):
        DomainSpec.positive_integers().enumerate_bounded(-1)


def test_parse_domain_grammar():
    assert parse_domain("nat") == DomainSpec.positive_integers()
    assert parse_domain("nonzero-int") == DomainSpec.nonzero_integers()
    assert parse_domain("scaled:1/2") == DomainSpec.scaled_integers(Fraction(1, 2))
    assert parse_domain("set:3,5,7") == DomainSpec.finite_set([3, 5, 7])
    assert parse_domain("nat").spec_string() == "nat"
    assert parse_domain("scaled:1/2").spec_string() == "scaled:1/2"
    for bad in ("rationals", "set:", "scaled:1/0"):
        with pytest.raises(ValueError):
            parse_domain(bad)
