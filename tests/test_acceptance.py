"""End-to-end acceptance gate.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output of a failure) and enforces its stated runtime budget.
"""

import math
import random
import time

from sdskit import catalog, equivalence, hadamard, sds, search, zmod

from conftest import brute_difference_counts


def _report(num, label, ok, elapsed):
    print(f"[{num}] {label}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)", flush=True)


def test_1_appendix_replay(entries):
    start = time.monotonic()
    replayed = 0
    ok = True
    for e in entries:
        if e.status != "verified":
            continue
        report = sds.verify_sds(e.family, e.params.lam)
        ok = ok and report.ok and e.family.sizes == e.params.sizes
        replayed += 1
    elapsed = time.monotonic() - start
    ok = ok and replayed == 34 and elapsed < 1.0
    _report(1, f"stored-family replay ({replayed} families)", ok, elapsed)
    assert ok


def test_2_existence_table(entries):
    start = time.monotonic()
    rows = catalog.table1_report(entries)
    yes = sum(r.status == "yes" for r in rows)
    unknown = sum(r.status == "?" for r in rows)
    ok = (
        len(rows) == 36
        and yes == 28
        and unknown == 8
        and catalog.table1_matches_expected(rows)
    )
    elapsed = time.monotonic() - start
    _report(2, "existence table (36 rows, 28 yes / 8 open)", ok, elapsed)
    assert ok


def test_3_order_956_matrices(entries):
    start = time.monotonic()
    ok = True
    for eid in ("gs956-family1", "gs956-family2", "gs956-family3"):
        fam = catalog.entry_by_id(entries, eid).family
        ok = ok and sds.verify_sds(fam, 158).ok
        wide = sds.compose_with_paley_todd(fam)
        m = hadamard.build_skew_hadamard(239, *wide.blocks)
        ok = ok and m.n == 956 and hadamard.is_skew_hadamard(m)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    _report(3, "three skew-Hadamard matrices of order 956", ok, elapsed)
    assert ok


def test_4_order_1324_matrices(entries):
    start = time.monotonic()
    ok = True
    for i in range(1, 7):
        fam = catalog.entry_by_id(entries, f"gs1324-family{i}").family
        ok = ok and sds.verify_sds(fam, 299).ok
        ok = ok and sds.is_skew(fam.blocks[0])
        m = hadamard.build_skew_hadamard(331, *fam.blocks)
        ok = ok and m.n == 1324 and hadamard.is_skew_hadamard(m)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _report(4, "six skew-Hadamard matrices of order 1324", ok, elapsed)
    assert ok


def _random_transform(rng, f):
    v = f.v
    while True:
        m = rng.randrange(1, v)
        if math.gcd(m, v) == 1:
            break
    blocks = list(f.blocks)
    rng.shuffle(blocks)  # canonical form sorts equal-size blocks anyway
    blocks = [b.scale(m).translate(rng.randrange(v)) for b in blocks]
    # only equal-size permutations are allowed: restore the size order
    blocks.sort(key=lambda b: -b.size)
    sizes = sorted((b.size for b in f.blocks), reverse=True)
    assert [b.size for b in blocks] == sizes
    return sds.DifferenceFamily(v, tuple(blocks))


def test_5_non_equivalence(entries):
    start = time.monotonic()
    groups = [
        [f"gs956-family{i}" for i in (1, 2, 3)],
        [f"gs1324-family{i}" for i in (1, 2, 3, 4, 5, 6)],
    ]
    rng = random.Random(2026)
    ok = True
    for ids in groups:
        forms = []
        for eid in ids:
            fam = catalog.entry_by_id(entries, eid).family
            form = equivalence.canonical_form(fam)
            for _ in range(50):
                g = _random_transform(rng, fam)
                ok = ok and equivalence.canonical_form(g) == form
            forms.append(form)
        for i in range(len(forms)):
            for j in range(i + 1, len(forms)):
                ok = ok and forms[i] != forms[j]
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300.0
    _report(5, "pairwise non-equivalence + 50 transformed copies each", ok, elapsed)
    assert ok


def test_6_search_rediscovery():
    start = time.monotonic()
    p19 = sds.ParameterSet(19, (9, 7, 6), 8)
    found19 = search.search_sds(p19, 3, budget=2_000_000, seed=2026)
    p31 = sds.ParameterSet(31, (15, 15, 10), 17)
    found31 = search.search_sds(p31, 3, budget=2_000_000, seed=2026)
    if not found31:
        found31 = search.search_sds(p31, 5, budget=2_000_000, seed=2026)
    ok = bool(found19) and bool(found31)
    for sel, lam in [(s, 8) for s in found19] + [(s, 17) for s in found31]:
        ok = ok and sds.verify_sds(sel.orbsys.family(sel.reps_per_block), lam).ok
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _report(6, "search rediscovers (19;9,7,6;8) and (31;15,15,10;17)", ok, elapsed)
    assert ok


def _invariant_sum_identity(rng):
    for _ in range(1000):
        v = rng.randrange(5, 60)
        t = rng.randint(1, 4)
        sizes = [rng.randint(0, v - 1) for _ in range(t)]
        fam = sds.DifferenceFamily.from_sets(
            v, [rng.sample(range(v), k) for k in sizes]
        )
        counts = sds.difference_counts(fam)
        if sum(counts[1:]) != sum(k * (k - 1) for k in sizes):
            return False
        if counts[1:] != brute_difference_counts(v, fam.member_lists())[1:]:
            return False
    return True


def _invariant_square_decomposition():
    v = 3
    while v < 1000:
        if zmod.is_prime(v):
            psets = sds.enumerate_P(v)
            if not psets:
                return False
            for p in psets:
                s = sum((v - 2 * k) ** 2 for k in p.sizes)
                if s != 4 * v - 1:
                    return False
        v += 4
    return True


def _invariant_complement_preserves_order(entries):
    for e in entries:
        if e.family is None:
            continue
        n = e.params.n
        for i in range(len(e.family.blocks)):
            comp, lam2 = sds.complement_block(e.family, i)
            if sum(comp.sizes) - lam2 != n:
                return False
            if not sds.verify_sds(comp, lam2).ok:
                return False
    return True


def _invariant_hadamard_oracle(rng):
    def naive(m):
        return all(
            sum(m.entry(i, k) * m.entry(j, k) for k in range(m.n)) == 0
            for i in range(m.n)
            for j in range(i + 1, m.n)
        )

    for n in range(1, 65):
        mats = [
            hadamard.SignMatrix(n, tuple(rng.getrandbits(n) for _ in range(n)))
            for _ in range(3)
        ]
        for m in mats:
            if hadamard.is_hadamard(m) != naive(m):
                return False
    # include true Hadamard matrices so both branches of the oracle fire
    m = hadamard.build_skew_hadamard(
        3,
        sds.Block.from_iterable(3, [1]),
        sds.Block.from_iterable(3, [0]),
        sds.Block.from_iterable(3, [0]),
        sds.Block.from_iterable(3, []),
    )
    return hadamard.is_hadamard(m) and naive(m)


def _invariant_skew_circulant(rng):
    for _ in range(100):
        v = rng.choice([3, 7, 11, 19, 23, 31, 43])
        members = [
            x if rng.random() < 0.5 else v - x for x in range(1, (v + 1) // 2)
        ]
        b = sds.Block.from_iterable(v, members)
        if not sds.is_skew(b):
            return False
        z0 = [b.translate(r).mask for r in range(v)]  # rows of Z0
        for r in range(v):
            if (z0[r] >> r) & 1:
                return False
            for c in range(r + 1, v):
                if ((z0[r] >> c) & 1) == ((z0[c] >> r) & 1):
                    return False
    return True


def test_7_invariants(entries):
    start = time.monotonic()
    rng = random.Random(7)
    checks = {
        "sum identity": _invariant_sum_identity(rng),
        "square decomposition": _invariant_square_decomposition(),
        "complement preserves order": _invariant_complement_preserves_order(entries),
        "hadamard oracle": _invariant_hadamard_oracle(rng),
        "skew circulant": _invariant_skew_circulant(rng),
    }
    ok = all(checks.values())
    elapsed = time.monotonic() - start
    failing = [k for k, v in checks.items() if not v]
    label = "invariant suites" + (f" (failing: {failing})" if failing else "")
    _report(7, label, ok, elapsed)
    assert ok
