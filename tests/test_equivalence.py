import hashlib
import math
import random

import pytest

from sdskit import equivalence, sds, zmod
from sdskit.catalog import entry_by_id


def _random_family(rng, v, sizes):
    blocks = tuple(
        sds.Block.from_iterable(v, rng.sample(range(v), k)) for k in sizes
    )
    return sds.DifferenceFamily(v, blocks)


def _transformed(rng, f):
    """Apply a random multiplier, per-block translations, and an
    equal-size block permutation."""
    v = f.v
    while True:
        m = rng.randrange(1, v)
        if math.gcd(m, v) == 1:
            break
    blocks = [b.scale(m).translate(rng.randrange(v)) for b in f.blocks]
    order = sorted(range(len(blocks)), key=lambda i: blocks[i].size)
    groups = {}
    for i in order:
        groups.setdefault(blocks[i].size, []).append(i)
    perm = list(range(len(blocks)))
    for idxs in groups.values():
        shuffled = idxs[:]
        rng.shuffle(shuffled)
        for a, b in zip(idxs, shuffled):
            perm[a] = b
    return sds.DifferenceFamily(v, tuple(blocks[i] for i in perm))


def _oracle_blocks(f):
    """The canonical blocks straight from the definition: the least, over
    units m, of the blocks scaled by m, each block at its least translate,
    ordered by (size descending, list)."""
    v = f.v
    forms = []
    for m in range(1, v + 1):
        if math.gcd(m, v) != 1:
            continue
        forms.append(sorted(
            (-len(s), min(tuple(sorted((m * x + t) % v for x in s)) for t in range(v)))
            for s in f.member_lists()
        ))
    return [b for _, b in min(forms)]


class TestCanonicalForm:
    def test_translation_invariance(self):
        f = sds.DifferenceFamily.from_sets(13, [{0, 1, 3, 9}])
        g = sds.DifferenceFamily.from_sets(13, [{(x + 5) % 13 for x in (0, 1, 3, 9)}])
        assert equivalence.canonical_form(f) == equivalence.canonical_form(g)

    def test_multiplier_invariance(self):
        f = sds.DifferenceFamily.from_sets(7, [{0, 1, 3}])
        g = sds.DifferenceFamily.from_sets(7, [{0, 2, 6}])
        assert equivalence.canonical_form(f) == equivalence.canonical_form(g)

    def test_idempotent(self):
        rng = random.Random(3)
        for _ in range(20):
            f = _random_family(rng, 23, (7, 6, 4))
            form = equivalence.canonical_form(f)
            g = sds.DifferenceFamily.from_sets(
                form.v, [set(b) for b in form.blocks]
            )
            assert equivalence.canonical_form(g).blocks == form.blocks

    def test_group_action_invariance(self):
        rng = random.Random(7)
        for _ in range(30):
            f = _random_family(rng, 19, (6, 6, 5))
            g = _transformed(rng, f)
            assert equivalence.canonical_form(f) == equivalence.canonical_form(g)

    def test_blocks_sorted_size_desc_then_lex(self):
        rng = random.Random(1)
        f = _random_family(rng, 31, (4, 9, 9, 2))
        form = equivalence.canonical_form(f)
        keys = [(-len(b), b) for b in form.blocks]
        assert keys == sorted(keys)

    def test_matches_brute_force_oracle(self):
        rng = random.Random(13)
        for v in range(1, 14):
            # an empty and a full block first, then 1-3 blocks of any size
            families = [(0, v // 2, v)]
            families += [
                [rng.randint(0, v) for _ in range(rng.randint(1, 3))]
                for _ in range(40)
            ]
            for sizes in families:
                f = _random_family(rng, v, sizes)
                assert list(equivalence.canonical_form(f).blocks) == _oracle_blocks(f)

    def test_orbit_unions_match_brute_force_oracle(self):
        # unions of orbits of an order-q subgroup have a stabilizer of order
        # at least q, so these take the coset path that random sets miss
        rng = random.Random(17)
        for v in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43):
            for q in zmod.prime_divisors(v - 1):
                orbits = zmod.orbit_system(v, zmod.element_of_order(v, q)).orbits
                for _ in range(5):
                    f = sds.DifferenceFamily.from_sets(v, [
                        {x for o in rng.sample(orbits, rng.randint(1, len(orbits) - 1))
                         for x in o}
                        for _ in range(rng.randint(1, 3))
                    ])
                    m = rng.randrange(1, v)
                    g = sds.DifferenceFamily(v, tuple(
                        b.scale(m).translate(rng.randrange(v)) for b in f.blocks
                    ))
                    form = equivalence.canonical_form(g)
                    assert list(form.blocks) == _oracle_blocks(g), (v, q)
                    assert form == equivalence.canonical_form(f), (v, q)

    def test_evaluates_one_multiplier_per_stabilizer_coset(self, entries, monkeypatch):
        # gs1324-family1 is a union of orbits of an order-11 subgroup of
        # Z_331^*, so 330/11 = 30 coset representatives plus the order tests
        # suffice; the loop over all 330 units would make 4*330 key calls
        real = sds.least_translate_key
        calls = []

        def counting(v, members):
            calls.append(1)
            return real(v, members)

        monkeypatch.setattr(sds, "least_translate_key", counting)
        f = entry_by_id(entries, "gs1324-family1").family
        equivalence.canonical_form(f)
        assert 0 < len(calls) <= 4 * 40

    def test_corpus_forms_pinned(self, entries):
        # the forms of every verified corpus family, as first recorded; any
        # drift would change `equiv` verdicts and search dedup order
        forms = tuple(
            (e.id, equivalence.canonical_form(e.family).blocks)
            for e in entries
            if e.family is not None
        )
        assert len(forms) == 34
        digest = hashlib.sha256(repr(forms).encode()).hexdigest()
        assert digest == (
            "d04cdb6743655081656e7a430a57fac6c7dbb2b96a5d83dd1d10c219fa212ff2"
        )

    def test_complement_not_identified(self):
        # complementation is a separate operation, not part of equivalence
        b = sds.Block.from_iterable(11, [1, 3, 4, 5, 9])
        f = sds.DifferenceFamily(11, (b,))
        g = sds.DifferenceFamily(11, (b.complement(),))
        assert not equivalence.are_equivalent(f, g)


class TestAreEquivalent:
    def test_basic(self):
        f = sds.DifferenceFamily.from_sets(7, [{0, 1, 3}])
        g = sds.DifferenceFamily.from_sets(7, [{0, 2, 6}])
        assert equivalence.are_equivalent(f, g)

    def test_v_mismatch_raises(self):
        f = sds.DifferenceFamily.from_sets(7, [{0, 1, 3}])
        g = sds.DifferenceFamily.from_sets(11, [{0, 1, 3}])
        with pytest.raises(ValueError):
            equivalence.are_equivalent(f, g)

    def test_size_multiset_mismatch(self):
        f = sds.DifferenceFamily.from_sets(7, [{0, 1, 3}])
        g = sds.DifferenceFamily.from_sets(7, [{0, 1}])
        assert not equivalence.are_equivalent(f, g)

    def test_transformed_copies_equivalent(self):
        rng = random.Random(42)
        for _ in range(20):
            f = _random_family(rng, 23, (8, 8, 5))
            assert equivalence.are_equivalent(f, _transformed(rng, f))

    def test_catalog_families_pairwise_distinct(self, entries):
        ids = ["gs956-family1", "gs956-family2", "gs956-family3"]
        fams = [entry_by_id(entries, i).family for i in ids]
        for i in range(len(fams)):
            for j in range(i + 1, len(fams)):
                assert not equivalence.are_equivalent(fams[i], fams[j])
