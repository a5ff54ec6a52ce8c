import pytest
from hypothesis import given, strategies as st

from sdskit import zmod


def _sieve_primes(limit):
    flags = [True] * limit
    flags[0] = flags[1] = False
    for i in range(2, limit):
        if flags[i]:
            for j in range(i * i, limit, i):
                flags[j] = False
    return flags


def test_is_prime_against_sieve():
    flags = _sieve_primes(5000)
    for n in range(5000):
        assert zmod.is_prime(n) == flags[n], n


def test_is_prime_spot_values():
    assert zmod.is_prime(239)
    assert zmod.is_prime(331)
    assert not zmod.is_prime(1)
    assert not zmod.is_prime(0)
    assert zmod.is_prime(2**31 - 1)  # Mersenne prime
    assert not zmod.is_prime(2**32 + 1)


def test_element_of_order_239():
    h = zmod.element_of_order(239, 7)
    subgroup = sorted(pow(h, e, 239) for e in range(7))
    assert subgroup == [1, 10, 24, 44, 98, 100, 201]


def test_element_of_order_331():
    h = zmod.element_of_order(331, 11)
    subgroup = sorted(pow(h, e, 331) for e in range(11))
    assert subgroup == [1, 74, 80, 85, 111, 120, 167, 180, 270, 274, 293]


def test_element_of_order_rejects_bad_q():
    with pytest.raises(ValueError):
        zmod.element_of_order(7, 5)  # 5 does not divide 6


def test_element_of_order_deterministic():
    assert zmod.element_of_order(239, 7) == zmod.element_of_order(239, 7)
    assert zmod.element_of_order(131, 5) == zmod.element_of_order(131, 5)


def test_prime_divisors():
    assert zmod.prime_divisors(1) == ()
    assert zmod.prime_divisors(238) == (2, 7, 17)
    assert zmod.prime_divisors(330) == (2, 3, 5, 11)
    assert zmod.prime_divisors(2**5 * 3**4) == (2, 3)
    assert zmod.prime_divisors(331) == (331,)


def test_primitive_root_generates_every_unit():
    flags = _sieve_primes(1000)
    for v in range(1000):
        if flags[v]:
            g = zmod.primitive_root(v)
            assert zmod.multiplicative_order(v, g) == v - 1, v
            assert zmod.primitive_root(v) == g
    # the least generators
    assert (zmod.primitive_root(239), zmod.primitive_root(331)) == (7, 3)


def test_primitive_root_rejects_composite():
    for v in (0, 1, 4, 9, 956, 1324):
        with pytest.raises(ValueError):
            zmod.primitive_root(v)


def test_orbit_system_v7():
    osys = zmod.orbit_system(7, 2)
    assert osys.q == 3
    assert osys.orbits == ((0,), (1, 2, 4), (3, 5, 6))
    assert osys.reps == (0, 1, 3)


def test_orbit_system_counts():
    osys = zmod.orbit_system(239, zmod.element_of_order(239, 7))
    assert len(osys.orbits) == 1 + 238 // 7 == 35
    osys = zmod.orbit_system(331, zmod.element_of_order(331, 11))
    assert len(osys.orbits) == 31


def test_orbit_system_rejects_composite_order():
    # 3 has order 6 in Z_7^*
    with pytest.raises(ValueError):
        zmod.orbit_system(7, 3)


@given(st.sampled_from([(7, 3), (19, 3), (31, 5), (43, 7), (67, 11), (131, 13)]))
def test_orbit_partition_property(vq):
    v, q = vq
    osys = zmod.orbit_system(v, zmod.element_of_order(v, q))
    everything = [x for orb in osys.orbits for x in orb]
    assert sorted(everything) == list(range(v))
    assert osys.orbits[0] == (0,)
    for orb in osys.orbits[1:]:
        assert len(orb) == q
    assert len(set(osys.reps)) == len(osys.orbits)


def test_quadratic_residues_small():
    assert zmod.quadratic_residues(7).members() == (1, 2, 4)
    assert zmod.quadratic_residues(11).members() == (1, 3, 4, 5, 9)


def test_quadratic_residues_239():
    qr = zmod.quadratic_residues(239)
    assert qr.size == 119
    # exactly one of {c, v-c} for every nonzero c
    for c in range(1, 239):
        assert (c in qr) != ((239 - c) in qr)


def test_quadratic_residues_rejects_1_mod_4():
    with pytest.raises(ValueError):
        zmod.quadratic_residues(13)
