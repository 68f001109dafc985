import pytest

from skewsimple.gf import MAX_FIELD_ORDER, field, prime_power

from naive import naive_field_modulus


def test_prime_power_splits():
    assert prime_power(2) == (2, 1)
    assert prime_power(9) == (3, 2)
    assert prime_power(8) == (2, 3)
    with pytest.raises(ValueError):
        prime_power(6)
    with pytest.raises(ValueError):
        prime_power(1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_field_axioms_exhaustive(q):
    gf = field(q)
    elems = range(q)
    for a in elems:
        assert gf.add(a, 0) == a
        assert gf.mul(a, 1) == a
        assert gf.mul(a, 0) == 0
        assert gf.add(a, gf.neg(a)) == 0
    for a in elems:
        for b in elems:
            assert gf.add(a, b) == gf.add(b, a)
            assert gf.mul(a, b) == gf.mul(b, a)
            for c in elems:
                assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
                assert gf.add(gf.add(a, b), c) == gf.add(a, gf.add(b, c))
                assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_inverses(q):
    gf = field(q)
    for a in range(1, q):
        assert gf.mul(a, gf.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        gf.inv(0)


def test_digit_roundtrip():
    gf = field(9)
    for a in range(9):
        assert gf.from_digits(gf.to_digits(a)) == a
    # addition is digitwise mod p
    for a in range(9):
        for b in range(9):
            expect = tuple((x + y) % 3 for x, y in zip(gf.to_digits(a), gf.to_digits(b)))
            assert gf.to_digits(gf.add(a, b)) == expect


def test_gf4_is_not_z4():
    gf = field(4)
    assert gf.add(1, 1) == 0  # characteristic 2
    orders = set()
    for a in range(1, 4):
        x, n = a, 1
        while x != 1:
            x = gf.mul(x, a)
            n += 1
        orders.add(n)
    assert orders == {1, 3}  # multiplicative group is cyclic of order 3


def test_every_field_takes_the_least_irreducible_modulus():
    # the modulus fixes every element code of F_q, and with them the report
    # bytes; it is the least monic polynomial with no factorization
    orders = []
    for q in range(2, MAX_FIELD_ORDER + 1):
        try:
            p, m = prime_power(q)
        except ValueError:
            continue
        orders.append(q)
        assert field(q).modulus == naive_field_modulus(p, m), q
    assert len(orders) == 70
