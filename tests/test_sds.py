import random

import pytest
from hypothesis import given, settings, strategies as st

from sdskit import sds, zmod
from sdskit.sds import Block, DifferenceFamily, ParameterSet

from conftest import brute_difference_counts


def fam(v, *sets):
    return DifferenceFamily.from_sets(v, sets)


class TestBlock:
    def test_members_roundtrip(self):
        b = Block.from_iterable(11, [3, 1, 4, 1, 5])
        assert b.members() == (1, 3, 4, 5)
        assert b.size == 4
        assert 4 in b and 2 not in b

    def test_complement(self):
        b = Block.from_iterable(7, [0, 1, 3])
        assert b.complement().members() == (2, 4, 5, 6)
        assert b.complement().complement() == b

    def test_translate_scale(self):
        b = Block.from_iterable(7, [0, 1, 3])
        assert b.translate(2).members() == (2, 3, 5)
        assert b.scale(2).members() == (0, 2, 6)
        assert b.negate().members() == (0, 4, 6)
        # translate and difference_counts reduce their arguments mod v
        rng = random.Random(3)
        for v in range(1, 11):
            for _ in range(20):
                members = {x for x in range(v) if rng.random() < 0.5}
                b = Block.from_iterable(v, members)
                for t in range(-2 * v, 2 * v + 1):
                    assert set(b.translate(t).members()) == {(x + t) % v for x in members}
                residues = [-2 * v - 1, -v, -1, v, 2 * v + 3]
                assert b.difference_counts(residues) == [
                    sum((a - c) % v == r % v for a in members for c in members)
                    for r in residues
                ]

    def test_negate_matches_definition(self):
        for v in range(1, 11):
            for mask in range(1 << v):
                b = Block(v, mask)
                want = Block.from_iterable(v, ((-x) % v for x in b.members()))
                assert b.negate() == want

    def test_least_translate_key_matches_definition(self):
        for v in range(1, 11):
            for mask in range(1 << v):
                members = Block(v, mask).members()
                key = sds.least_translate_key(v, members)
                want = min(tuple(sorted((x + t) % v for x in members)) for t in range(v))
                assert sds.key_members(v, key) == want


def _transpose(rows, n):
    """Column i has bit j = bit i of rows[j], entry by entry."""
    return [sum(((rows[j] >> i) & 1) << j for j in range(n)) for i in range(n)]


class TestBitColumns:
    def test_matches_transpose(self):
        # n below 8, on multiples of 8 and one past them; comparing lists
        # also checks that exactly n columns come out
        rng = random.Random(11)
        for n in range(1, 71):
            full = (1 << n) - 1
            for rows in (
                [rng.getrandbits(n) for _ in range(n)],
                [0] * n,
                [full] * n,
                [rng.getrandbits(n) | 1 << (n - 1) for _ in range(n)],
            ):
                assert list(sds.bit_columns(rows, n)) == _transpose(rows, n), n

    def test_paper_orders(self):
        rng = random.Random(12)
        for n in (956, 1324):
            rows = [rng.getrandbits(n) | (k & 1) << (n - 1) for k in range(n)]
            assert list(sds.bit_columns(rows, n)) == _transpose(rows, n), n
            full = (1 << n) - 1
            assert list(sds.bit_columns([full] * n, n)) == [full] * n
            assert list(sds.bit_columns([0] * n, n)) == [0] * n
            # the identity is its own transpose
            identity = [1 << k for k in range(n)]
            assert list(sds.bit_columns(identity, n)) == identity


class TestDifferenceCounts:
    def test_flat_family_v7(self):
        # three 2-element blocks, every residue hit once
        f = fam(7, {0, 1}, {0, 2}, {0, 3})
        counts = sds.difference_counts(f)
        assert counts[1:] == [1] * 6

    def test_lambda2_family_v7(self):
        f = fam(7, {0, 1, 3}, {0, 1, 3}, {0})
        counts = sds.difference_counts(f)
        assert counts[1:] == [2] * 6

    def test_empty_family(self):
        f = fam(5)
        assert sds.difference_counts(f) == [0] * 5

    def test_matches_brute_oracle_random(self):
        rng = random.Random(42)
        for _ in range(50):
            v = rng.choice([5, 7, 11, 13, 19])
            sets = [
                set(rng.sample(range(v), rng.randint(0, v)))
                for _ in range(rng.randint(0, 4))
            ]
            f = fam(v, *sets)
            assert sds.difference_counts(f) == brute_difference_counts(v, sets)


class TestVerify:
    def test_appendix_11_4_4_3(self):
        f = fam(11, {0, 1, 3, 5}, {0, 1, 4, 5}, {0, 2, 5})
        assert sds.verify_sds(f, 3).ok
        assert not sds.verify_sds(f, 4).ok

    def test_report_carries_histogram(self):
        f = fam(11, {0, 1, 3, 5}, {0, 1, 4, 5}, {0, 2, 5})
        report = sds.verify_sds(f, 4)
        assert report.histogram[1:] == (3,) * 10
        assert report.worst_deviation == 1


class TestDeriveLambda:
    def test_239(self):
        assert sds.derive_lambda(239, [119, 112, 106]) == 158

    def test_7(self):
        assert sds.derive_lambda(7, [2, 2, 2]) == 1

    def test_non_integral(self):
        assert sds.derive_lambda(7, [2, 2, 1]) is None

    def test_v_below_2(self):
        # lambda * (v - 1) is 0 for every lambda: none is derived
        assert sds.derive_lambda(1, [0]) is None
        assert sds.derive_lambda(0, [1, 1]) is None


class TestParameterSet:
    def test_n_and_in_P(self):
        p = ParameterSet(239, (119, 112, 106), 158)
        assert p.n == 179
        assert p.in_P

    def test_counting_identity_enforced(self):
        with pytest.raises(ValueError):
            ParameterSet(7, (2, 2, 2), 2)

    def test_not_in_P_when_unordered(self):
        p = ParameterSet(7, (1, 3, 3), 2)
        assert not p.in_P


class TestEnumerateP:
    def test_v7(self):
        got = [(p.sizes, p.lam) for p in sds.enumerate_P(7)]
        assert got == [((3, 3, 1), 2), ((2, 2, 2), 1)]

    def test_v3(self):
        got = [(p.sizes, p.lam) for p in sds.enumerate_P(3)]
        assert got == [((1, 1, 0), 0)]

    def test_v131(self):
        got = [(p.sizes, p.lam) for p in sds.enumerate_P(131)]
        assert got == [
            ((65, 61, 55), 83),
            ((64, 58, 57), 81),
            ((61, 61, 56), 80),
        ]

    def test_rejects_bad_v(self):
        with pytest.raises(ValueError):
            sds.enumerate_P(13)
        with pytest.raises(ValueError):
            sds.enumerate_P(15)

    def test_three_squares_inverse_identity(self):
        # (v-2k1)^2 + (v-2k2)^2 + (v-2k3)^2 = 4v - 1 for every output
        for v in range(3, 1000, 4):
            if not zmod.is_prime(v):
                continue
            psets = sds.enumerate_P(v)
            assert psets, f"no parameter set for v={v}"
            for p in psets:
                assert sum((v - 2 * k) ** 2 for k in p.sizes) == 4 * v - 1
                assert p.in_P


class TestSkewSymmetric:
    def test_qr_is_skew(self):
        assert sds.is_skew(zmod.quadratic_residues(7))
        assert sds.is_skew(zmod.quadratic_residues(239))

    def test_not_skew_with_pair(self):
        assert not sds.is_skew(Block.from_iterable(7, [1, 6]))

    def test_not_skew_with_zero(self):
        assert not sds.is_skew(Block.from_iterable(7, [0, 1, 2]))

    def test_skew_implies_half_size(self):
        rng = random.Random(0)
        for v in (7, 11, 19, 23):
            for _ in range(20):
                members = set()
                for i in range(1, (v + 1) // 2):
                    members.add(i if rng.random() < 0.5 else v - i)
                b = Block.from_iterable(v, members)
                assert sds.is_skew(b)
                assert b.size == (v - 1) // 2

    def test_symmetric(self):
        assert sds.is_symmetric(Block.from_iterable(7, [1, 6]))
        assert not sds.is_symmetric(Block.from_iterable(7, [1, 2, 4]))
        assert sds.is_symmetric(Block.from_iterable(7, []))


class TestComplement:
    def test_7_3_3_1(self):
        f = fam(7, {0, 1, 3}, {0, 1, 3}, {0})
        g, lam = sds.complement_block(f, 2)
        assert g.sizes == (3, 3, 6)
        assert lam == 7
        assert sum(g.sizes) - lam == 5  # order preserved
        assert sds.verify_sds(g, lam).ok

    def test_involution(self):
        f = fam(7, {0, 1, 3}, {0, 1, 3}, {0})
        g, _ = sds.complement_block(f, 1)
        h, lam = sds.complement_block(g, 1)
        assert h == f and lam == 2

    def test_3_1_1_0(self):
        f = fam(3, {0}, {0}, set())
        g, lam = sds.complement_block(f, 2)
        assert g.sizes == (1, 1, 3)
        # lam' = lam + (v - 2k) = 0 + 3; order n = 2 is preserved
        assert lam == 3
        assert sum(g.sizes) - lam == 2
        assert sds.verify_sds(g, lam).ok

    def test_bad_index(self):
        with pytest.raises(IndexError):
            sds.complement_block(fam(7, {0}), 1)


class TestPaleyToddComposition:
    def test_empty_family_v7(self):
        f = sds.compose_with_paley_todd(fam(7))
        assert f.member_lists() == ((1, 2, 4),)
        assert sds.verify_sds(f, 1).ok

    def test_lambda_shift_property(self):
        # verified input at lam -> composed verifies at lam + (v-3)/4
        f = fam(11, {0, 1, 3, 5}, {0, 1, 4, 5}, {0, 2, 5})
        g = sds.compose_with_paley_todd(f)
        assert sds.verify_sds(g, 3 + (11 - 3) // 4).ok

    def test_order_shift(self):
        f = fam(11, {0, 1, 3, 5}, {0, 1, 4, 5}, {0, 2, 5})
        g = sds.compose_with_paley_todd(f)
        n_in = sum(f.sizes) - 3
        n_out = sum(g.sizes) - (3 + (11 - 3) // 4)
        assert n_out == n_in + (11 + 1) // 4


@settings(max_examples=60)
@given(
    st.integers(min_value=0, max_value=3).flatmap(
        lambda t: st.tuples(
            st.sampled_from([5, 7, 11, 13]),
            st.lists(
                st.sets(st.integers(min_value=0, max_value=12)),
                min_size=t,
                max_size=t,
            ),
        )
    )
)
def test_difference_count_sum_identity(case):
    v, rawsets = case
    sets = [{x % v for x in s} for s in rawsets]
    f = fam(v, *sets)
    counts = sds.difference_counts(f)
    assert sum(counts[1:]) == sum(k * (k - 1) for k in f.sizes)


@given(st.sampled_from([7, 11, 19, 23, 31]), st.data())
def test_count_negation_symmetry_under_block_negation(v, data):
    members = data.draw(st.sets(st.integers(min_value=0, max_value=v - 1)))
    f = fam(v, members)
    g = DifferenceFamily(v, tuple(b.negate() for b in f.blocks))
    cf, cg = sds.difference_counts(f), sds.difference_counts(g)
    assert all(cf[c] == cg[v - c] for c in range(1, v))
