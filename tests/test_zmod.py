import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from sdskit import catalog, sds, zmod


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


ORBIT_CASES = [(31, 3), (43, 7), (239, 7), (331, 11)]


def _osys(v, q):
    return zmod.orbit_system(v, zmod.element_of_order(v, q))


@pytest.mark.parametrize("v,q", [(7, 3)] + ORBIT_CASES)
def test_orbit_masks_are_block_masks(v, q):
    osys = _osys(v, q)
    assert len(osys.masks) == len(osys.orbits)
    for orbit, mask in zip(osys.orbits, osys.masks):
        assert mask == sds.Block.from_iterable(v, orbit).mask


def test_orbit_masks_not_in_repr():
    assert "masks" not in repr(zmod.orbit_system(7, 2))


class TestExpand:
    def test_v7_single_orbit(self):
        osys = zmod.orbit_system(7, 2)
        f = osys.family(((1,),))
        assert f.member_lists() == ((1, 2, 4),)

    def test_arbitrary_representative(self):
        osys = zmod.orbit_system(7, 2)
        # 4 names the same orbit as 1
        assert osys.family(((4,),)).member_lists() == ((1, 2, 4),)

    def test_duplicate_orbit_rejected(self):
        osys = zmod.orbit_system(7, 2)
        with pytest.raises(ValueError):
            osys.family(((1, 2),))

    def test_catalog_family_sizes_and_lambda(self, entries):
        e = catalog.entry_by_id(entries, "gs956-family1")
        assert e.family.sizes == (119, 112, 106)
        assert sds.verify_sds(e.family, 158).ok

    @pytest.mark.parametrize("v,q", ORBIT_CASES)
    def test_family_is_union_of_orbits(self, v, q):
        # reps are random orbit members, not only the least ones
        rng = random.Random(v * q)
        osys = _osys(v, q)
        for trial in range(20):
            nontrivial = range(1, len(osys.orbits))
            picked = rng.sample(nontrivial, rng.randint(0, min(8, len(nontrivial))))
            if trial % 2:
                picked.append(0)
            reps_per_block = []
            unions = []
            for _ in range(rng.randint(1, 4)):
                chosen = rng.sample(picked, rng.randint(0, len(picked)))
                reps_per_block.append(
                    tuple(rng.choice(osys.orbits[i]) for i in chosen)
                )
                unions.append(set().union(*(osys.orbits[i] for i in chosen)))
            fam = osys.family(reps_per_block)
            assert fam.v == v
            assert [set(m) for m in fam.member_lists()] == unions

    @pytest.mark.parametrize("v,q", ORBIT_CASES)
    def test_repeated_orbit_rejected(self, v, q):
        # two distinct members of one orbit, in a block after a valid one
        rng = random.Random(v + q)
        osys = _osys(v, q)
        for _ in range(10):
            i, j = rng.sample(range(1, len(osys.orbits)), 2)
            a, b = rng.sample(osys.orbits[i], 2)
            block = (a, rng.choice(osys.orbits[j]), b)
            with pytest.raises(ValueError, match="repeat an orbit"):
                osys.family(((0,), block))


class TestNegationPairs:
    def test_structural_filter_v7(self):
        osys = zmod.orbit_system(7, 2)
        pairs = osys.negation_pairs()
        assert len(pairs) == 1
        reps = {osys.orbits[i][0] for i in pairs[0]} | {
            osys.orbits[j][0] for j in pairs[0]
        }
        assert reps == {1, 3}

    @pytest.mark.parametrize("v,q", [(7, 3), (19, 3)] + ORBIT_CASES)
    def test_against_brute_force(self, v, q):
        osys = _osys(v, q)
        pairs = osys.negation_pairs()
        for i, j in pairs:
            assert {-x % v for x in osys.orbits[i]} == set(osys.orbits[j])
        assert [i for i, _ in pairs] == sorted(i for i, _ in pairs)
        named = [k for pair in pairs for k in pair]
        assert sorted(named) == list(range(1, len(osys.orbits)))

    @pytest.mark.parametrize("v", [7, 17, 19])
    def test_q2_rejected(self, v):
        osys = _osys(v, 2)
        assert osys.q == 2
        with pytest.raises(ValueError):
            osys.negation_pairs()


def test_catalog_does_not_import_search():
    # the child imports the same sdskit as this process
    src = os.path.dirname(os.path.dirname(zmod.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import sdskit.catalog; "
        "sdskit.catalog.load_default(); print('sdskit.search' in sys.modules)"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert run.stdout == "False\n"


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
