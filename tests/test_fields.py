import time

import pytest

from hochschild.errors import ScalarError
from hochschild.fields import GF, field_from_name

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
