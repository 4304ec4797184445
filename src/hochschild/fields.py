"""Exact scalar arithmetic: the rationals and prime fields.

Scalars are plain Python values.  Over the rationals a scalar whose
value is an integer is an `int`, and only a proper fraction is a
`fractions.Fraction`: `int` arithmetic is several times cheaper, and
the two forms compare and hash alike, so a vector or matrix built from
either is `==` to one built from the other.  Over GF(p) scalars are ints
in [0, p).  All arithmetic is routed through a Field object so every
algorithm in the package runs unchanged over either field.  Scalar
literals follow the grammar ``[+-] integer [/ positive-integer]``; they
are read as a reduced integer pair, with no `Fraction` built for an
integer literal.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .errors import ScalarError

_SCALAR_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def _parse_pair(text):
    """The literal as a coprime pair (num, den), den > 0."""
    text = text.strip()
    if not _SCALAR_RE.match(text):
        raise ScalarError(f"bad scalar literal {text!r}")
    num, _, den = text.partition("/")
    try:  # int() refuses literals above sys.get_int_max_str_digits()
        num, den = int(num), int(den or 1)
    except ValueError:
        raise ScalarError(f"scalar literal too long: {len(text)} characters") from None
    if den == 0:
        raise ScalarError(f"zero denominator in {text!r}")
    g = gcd(num, den)
    return num // g, den // g


def _integral(x):
    """A rational scalar in its one form: an int when its value is one."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


class Field:
    """Arithmetic interface shared by `Rationals` and `PrimeField`."""

    zero = None
    one = None

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def _from_pair(self, num, den):
        """Image of num/den, a coprime pair with den > 0, in this field."""
        raise NotImplementedError

    def from_rational(self, fr):
        """Image of an exact rational (an int or a Fraction) in this field."""
        return self._from_pair(fr.numerator, fr.denominator)

    def parse(self, text):
        return self._from_pair(*_parse_pair(text))

    def format(self, a):
        return str(a)


class Rationals(Field):
    zero = 0
    one = 1

    def add(self, a, b):
        return _integral(a + b)

    def sub(self, a, b):
        return _integral(a - b)

    def mul(self, a, b):
        return _integral(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _integral(Fraction(1, a))

    def _from_pair(self, num, den):
        return num if den == 1 else Fraction(num, den)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash(Rationals)


# deterministic Miller-Rabin bases: exact below 3.3e24 (Sorenson-Webster 2015)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MODULUS_LIMIT = 1 << 64


def _is_prime(n):
    if n < 2:
        return False
    for w in _WITNESSES:
        if n % w == 0:
            return n == w
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for w in _WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField(Field):
    """GF(p) with residues stored as plain ints in [0, p), for primes
    p < 2^64."""

    def __init__(self, p):
        if p >= _MODULUS_LIMIT:
            raise ScalarError(f"modulus of {p.bit_length()} bits is not below 2^64")
        if not _is_prime(p):
            raise ScalarError(f"modulus {p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def _from_pair(self, num, den):
        if den % self.p == 0:
            raise ScalarError(f"{num}/{den} has no image in GF({self.p})")
        return num * pow(den, -1, self.p) % self.p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash((PrimeField, self.p))


QQ = Rationals()


def GF(p):
    return PrimeField(p)


def field_from_name(name):
    """Field named by an instance file: "Q" or "Fp:<prime below 2^64>"."""
    if not isinstance(name, str):
        raise ScalarError(f"bad field name {name!r}")
    if name == "Q":
        return QQ
    if name.startswith("Fp:"):
        try:
            p = int(name[3:])
        except ValueError:
            raise ScalarError(f"bad field name {name!r}") from None
        return PrimeField(p)
    raise ScalarError(f"bad field name {name!r}")


def field_name(field):
    if isinstance(field, Rationals):
        return "Q"
    return f"Fp:{field.p}"
