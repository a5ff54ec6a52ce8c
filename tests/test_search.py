import random

import pytest

from sdskit import equivalence, sds, search, zmod

from conftest import brute_difference_counts


class TestFeasibility:
    def test_239_q7(self):
        plans = search.feasibility(239, (119, 112, 106), 7)
        assert [(p.orbit_count, p.include_zero) for p in plans] == [
            (17, False),
            (16, False),
            (15, True),
        ]

    def test_107_infeasible(self):
        with pytest.raises(search.InfeasibleError) as exc:
            search.feasibility(107, (49, 48, 46), 53)
        assert len(exc.value.reasons) == 3

    def test_331_q11(self):
        plans = search.feasibility(331, (165, 155, 155, 155), 11)
        assert [(p.orbit_count, p.include_zero) for p in plans] == [
            (15, False),
            (14, True),
            (14, True),
            (14, True),
        ]

    def test_q_must_divide_v_minus_1(self):
        with pytest.raises(ValueError):
            search.feasibility(107, (49, 48, 46), 3)


def _rep_counts(osys, members):
    return sds.Block.from_iterable(osys.v, members).difference_counts(
        osys.reps[1:]
    )


def _random_union(rng, osys, with_zero):
    picked = rng.sample(range(1, len(osys.orbits)), rng.randint(0, 6))
    members = set().union(*(osys.orbits[i] for i in picked))
    return members | {0} if with_zero else members


class TestOrbitCounts:
    """An orbit union is H-invariant, so its difference counts are constant
    on each orbit and one count per nonzero orbit representative says it
    all.  The search keeps only those counts."""

    def test_v7_brute(self):
        osys = zmod.orbit_system(7, 2)
        for oi in osys.orbits:
            for oj in osys.orbits:
                members = set(oi) | set(oj)
                brute = brute_difference_counts(7, [members])
                assert _rep_counts(osys, members) == [
                    brute[r] for r in osys.reps[1:]
                ]

    @pytest.mark.parametrize("v,q", [(31, 3), (43, 7)])
    def test_rep_counts_match_brute(self, v, q):
        rng = random.Random(11)
        osys = zmod.orbit_system(v, zmod.element_of_order(v, q))
        for trial in range(40):
            members = _random_union(rng, osys, with_zero=trial % 2 == 1)
            counts = _rep_counts(osys, members)
            brute = brute_difference_counts(v, [members])
            for c in range(1, v):
                assert brute[c] == counts[osys.orbit_index_of(c) - 1]

    def test_weighted_sum_is_all_ordered_pairs(self):
        rng = random.Random(3)
        osys = zmod.orbit_system(19, zmod.element_of_order(19, 3))
        for trial in range(20):
            members = _random_union(rng, osys, with_zero=trial % 2 == 1)
            k = len(members)
            assert osys.q * sum(_rep_counts(osys, members)) == k * (k - 1)

    def test_whole_group(self):
        osys = zmod.orbit_system(239, zmod.element_of_order(239, 7))
        counts = _rep_counts(osys, range(239))
        assert counts == [239] * len(counts)
        assert osys.q * sum(counts) == 239 * 239 - 239

    def test_negation_symmetry(self):
        rng = random.Random(5)
        osys = zmod.orbit_system(19, zmod.element_of_order(19, 3))
        for trial in range(20):
            members = _random_union(rng, osys, with_zero=trial % 2 == 1)
            counts = _rep_counts(osys, members)
            for r in osys.reps[1:]:
                i = osys.orbit_index_of(r) - 1
                j = osys.orbit_index_of(19 - r) - 1
                assert counts[i] == counts[j]


class TestSearchSds:
    def test_19_9_7_6(self):
        p = sds.ParameterSet(19, (9, 7, 6), 8)
        sels = search.search_sds(p, 3, budget=200_000, seed=1)
        assert sels
        for sel in sels:
            assert sds.verify_sds(sel.orbsys.family(sel.reps_per_block), 8).ok

    def test_unverified_result_raises(self, monkeypatch):
        # the result check is a raise, not an assert, so it survives -O
        failing = sds.VerifyReport(ok=False, lam=8, histogram=(), worst_deviation=1)
        monkeypatch.setattr(sds, "verify_sds", lambda f, lam: failing)
        p = sds.ParameterSet(19, (9, 7, 6), 8)
        with pytest.raises(RuntimeError):
            search.search_sds(p, 3, budget=200_000, seed=1)

    def test_infeasible_reported(self):
        p = sds.ParameterSet(107, (49, 48, 46), 63)
        with pytest.raises(search.InfeasibleError):
            search.search_sds(p, 53)

    def test_seed_reproducible(self):
        p = sds.ParameterSet(19, (9, 7, 6), 8)
        a = search.search_sds(p, 3, budget=50_000, seed=9)
        b = search.search_sds(p, 3, budget=50_000, seed=9)
        assert a == b

    def test_results_deduplicated_by_canonical_form(self):
        p = sds.ParameterSet(19, (7, 7, 7), 7)
        sels = search.search_sds(p, 3, budget=2_000_000, seed=2, want=50)
        forms = [
            equivalence.canonical_form(s.orbsys.family(s.reps_per_block)).blocks
            for s in sels
        ]
        assert len(forms) == len(set(forms))

    def test_local_search_path(self, monkeypatch):
        monkeypatch.setattr(search, "EXHAUSTIVE_ORBIT_LIMIT", 0)
        p = sds.ParameterSet(31, (15, 15, 10), 17)
        sels = search.search_sds(p, 3, budget=500_000, seed=7)
        # pinned: the local engine's moves, costs and RNG draws are fixed
        assert [s.reps_per_block for s in sels] == [
            ((1, 6, 11, 12, 17), (1, 6, 8, 12, 17), (0, 2, 11, 12))
        ]
        for sel in sels:
            assert sds.verify_sds(sel.orbsys.family(sel.reps_per_block), 17).ok

    def test_workers_merge_deterministically(self, monkeypatch):
        monkeypatch.setattr(search, "EXHAUSTIVE_ORBIT_LIMIT", 0)
        p = sds.ParameterSet(19, (9, 7, 6), 8)
        a = search.search_sds(p, 3, budget=100_000, seed=5, workers=3)
        b = search.search_sds(p, 3, budget=100_000, seed=5, workers=3)
        assert a == b and a

    def test_streams_capped_by_budget(self, monkeypatch):
        # more workers than budget units must not spend more than the budget
        monkeypatch.setattr(search, "EXHAUSTIVE_ORBIT_LIMIT", 0)
        real = sds.Block.difference_counts
        calls = []

        def counting(block, residues):
            calls.append(1)
            return real(block, residues)

        monkeypatch.setattr(sds.Block, "difference_counts", counting)
        p = sds.ParameterSet(103, (49, 49, 42), 63)
        made = []
        for workers in (100, 1000):
            calls.clear()
            search.search_sds(p, 3, budget=100, seed=0, workers=workers)
            made.append(len(calls))
        assert made[0] == made[1]

    def test_exhaustive_spends_whole_budget(self, monkeypatch):
        # one budget unit is one block choice evaluated
        real = sds.Block.difference_counts
        calls = []

        def counting(block, residues):
            calls.append(1)
            return real(block, residues)

        monkeypatch.setattr(sds.Block, "difference_counts", counting)
        p = sds.ParameterSet(43, (21, 21, 15), 25)
        with pytest.raises(ValueError, match="budget"):
            search.search_sds(p, 3, budget=0)
        made = [len(calls)]
        for budget in (1, 2, 10):
            calls.clear()
            assert search.search_sds(p, 3, budget=budget) == []
            made.append(len(calls))
        assert made == [0, 1, 2, 10]


class TestSearchSkewGs:
    def test_v19_skew_search(self):
        sels = search.search_skew_gs(19, (9, 9, 7, 6), 3, budget=500_000, seed=1)
        assert sels
        for sel in sels:
            fam = sel.orbsys.family(sel.reps_per_block)
            assert sds.verify_sds(fam, 31 - 19).ok
            assert sds.is_skew(fam.blocks[0])

    def test_v19_exhaustive_pinned(self):
        (sel,) = search.search_skew_gs(19, (9, 9, 7, 6), 3, seed=1)
        assert sel.orbsys.h == 7
        assert sel.reps_per_block == ((1, 2, 4), (1, 2, 5), (0, 1, 2), (1, 2))

    def test_v19_local_path_pinned(self, monkeypatch):
        # at limit 0 the skew search takes the local engine, like any other
        monkeypatch.setattr(search, "EXHAUSTIVE_ORBIT_LIMIT", 0)
        sels = search.search_skew_gs(19, (9, 9, 7, 6), 3, budget=200_000, seed=1)
        assert [s.reps_per_block for s in sels] == [
            ((5, 8, 10), (2, 5, 10), (0, 1, 5), (2, 8))
        ]
        fam = sels[0].orbsys.family(sels[0].reps_per_block)
        assert sds.verify_sds(fam, 12).ok and sds.is_skew(fam.blocks[0])

    def test_v43_exhaustive_pinned(self):
        (sel,) = search.search_skew_gs(43, (21, 21, 21, 15), 7, seed=1)
        assert sel.reps_per_block == ((1, 3, 7), (1, 2, 7), (1, 3, 9), (0, 1, 6))

    def test_v43_local_streams_pinned(self, monkeypatch):
        # several seeded streams, each finding up to `want`, merged by
        # canonical form
        monkeypatch.setattr(search, "EXHAUSTIVE_ORBIT_LIMIT", 0)
        sels = search.search_skew_gs(
            43, (21, 21, 21, 15), 7, budget=200_000, seed=1, workers=3, want=2
        )
        assert [s.reps_per_block for s in sels] == [
            ((1, 6, 7), (1, 3, 6), (3, 7, 9), (0, 1, 3)),
            ((2, 6, 9), (6, 7, 9), (1, 2, 7), (0, 1, 2)),
            ((1, 3, 7), (1, 2, 7), (2, 6, 7), (0, 2, 3)),
            ((2, 3, 7), (2, 3, 6), (3, 7, 9), (0, 2, 3)),
        ]
        for sel in sels:
            fam = sel.orbsys.family(sel.reps_per_block)
            assert sds.verify_sds(fam, 35).ok and sds.is_skew(fam.blocks[0])

    @pytest.mark.parametrize("v,sizes", [(17, (8, 7, 7, 5)), (19, (9, 9, 7, 6))])
    def test_q2_rejected(self, v, sizes):
        # -1 lies in the order-2 subgroup: no negation pairing exists
        with pytest.raises(ValueError):
            search.search_skew_gs(v, sizes, 2)

    def test_non_skew_result_raises(self, monkeypatch):
        monkeypatch.setattr(sds, "is_skew", lambda b: False)
        with pytest.raises(RuntimeError):
            search.search_skew_gs(19, (9, 9, 7, 6), 3, budget=500_000, seed=1)

    def test_wrong_k0_rejected(self):
        with pytest.raises(ValueError):
            search.search_skew_gs(19, (8, 9, 7, 7), 3)

    def test_skew_output_feeds_hadamard(self):
        from sdskit import hadamard

        sels = search.search_skew_gs(19, (9, 9, 7, 6), 3, budget=500_000, seed=1)
        fam = sels[0].orbsys.family(sels[0].reps_per_block)
        m = hadamard.build_skew_hadamard(19, *fam.blocks)
        assert hadamard.is_skew_hadamard(m)
        assert m.n == 76
