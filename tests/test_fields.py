import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hochschild.errors import ScalarError
from hochschild.fields import GF, QQ, field_from_name

HUGE = "9" * 400


def test_mersenne_61_is_accepted_quickly():
    start = time.perf_counter()
    field = GF(2**61 - 1)
    assert time.perf_counter() - start < 1.0
    assert field.mul(field.inv(3), 3) == 1


def test_largest_prime_below_the_limit_is_accepted():
    assert GF(2**64 - 59).p == 2**64 - 59


@pytest.mark.parametrize("modulus", [0, 1, 4, 561, 1007, 1009 * 1013, 2**61 + 1])
def test_non_primes_are_rejected(modulus):
    with pytest.raises(ScalarError):
        GF(modulus)


@pytest.mark.parametrize("modulus", [2**64, 2**89 - 1, int(HUGE)])
def test_moduli_from_2_to_the_64_are_rejected(modulus):
    with pytest.raises(ScalarError):
        GF(modulus)


@pytest.mark.parametrize("name", [f"Fp:{HUGE}", "Fp:x", "F:7", 7, None])
def test_bad_field_names_are_scalar_errors(name):
    with pytest.raises(ScalarError):
        field_from_name(name)


F1009 = GF(1009)


def _image_mod_p(fr, p):
    """The image of a rational in GF(p), computed independently of the engine."""
    if fr.denominator % p == 0:
        return None
    return fr.numerator * pow(fr.denominator, -1, p) % p


@given(
    st.integers(-(10**6), 10**6) | st.sampled_from([0, 1009, -2018, 1009**2]),
    st.integers(1, 5000) | st.sampled_from([1009, 2018, 3 * 1009**2]),
    st.sampled_from(["", "+", "/"]),
)
@settings(max_examples=400, deadline=None)
def test_literals_parse_to_the_rational_they_name(num, den, style):
    """Over Q an integral value parses to an int and only a proper fraction
    to a Fraction; over GF(p) a literal parses to num * den^-1 of its
    reduced pair, or fails when p divides the reduced denominator."""
    fr = Fraction(num, den)
    text = f"{num}/{den}"
    if den == 1 and style != "/":  # a literal without a denominator
        text = f"+{num}" if style == "+" and num >= 0 else str(num)
    q = QQ.parse(text)
    assert q == fr
    assert type(q) is (int if fr.denominator == 1 else Fraction)
    expected = _image_mod_p(fr, 1009)
    if expected is None:
        message = re.escape(f"{fr} has no image in GF(1009)")
        with pytest.raises(ScalarError, match=message):
            F1009.parse(text)
    else:
        assert F1009.parse(text) == expected


@pytest.mark.parametrize(
    "text, q, image",
    [
        ("1009/1009", 1, 1),
        ("2018/1009", 2, 2),
        ("4/2", 2, 2),
        ("-0/7", 0, 0),
        ("2/3", Fraction(2, 3), 2 * pow(3, -1, 1009) % 1009),
        ("1/1009", Fraction(1, 1009), "1/1009 has no image in GF(1009)"),
        ("-6/4036", Fraction(-3, 2018), "-3/2018 has no image in GF(1009)"),
    ],
)
def test_literals_reduce_before_their_image_is_taken(text, q, image):
    assert QQ.parse(text) == q and type(QQ.parse(text)) is type(q)
    if isinstance(image, str):
        with pytest.raises(ScalarError, match=f"^{re.escape(image)}$"):
            F1009.parse(text)
    else:
        assert F1009.parse(text) == image


@given(
    st.fractions(max_denominator=12) | st.integers(-50, 50),
    st.fractions(max_denominator=12) | st.integers(-50, 50),
)
@settings(max_examples=300, deadline=None)
def test_q_arithmetic_is_exact_and_int_where_integral(a, b):
    a, b = QQ.from_rational(a), QQ.from_rational(b)
    results = [
        (QQ.add(a, b), Fraction(a) + b),
        (QQ.sub(a, b), Fraction(a) - b),
        (QQ.mul(a, b), Fraction(a) * b),
        (QQ.neg(a), -Fraction(a)),
    ]
    if b != 0:
        results.append((QQ.inv(b), 1 / Fraction(b)))
    for got, want in results:
        assert got == want
        assert type(got) is (int if want.denominator == 1 else Fraction)


def test_q_unit_and_zero_are_ints():
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(2)) is Fraction
    assert QQ.inv(Fraction(1, 3)) == 3 and type(QQ.inv(Fraction(1, 3))) is int
