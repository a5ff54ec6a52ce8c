import hashlib
import itertools
import random

import pytest

from sdskit import hadamard, sds
from sdskit.hadamard import SignMatrix


def _naive_dot(m, i, j):
    return sum(m.entry(i, k) * m.entry(j, k) for k in range(m.n))


def _random_sign_matrix(rng, n):
    return SignMatrix(n, tuple(rng.getrandbits(n) for _ in range(n)))


def _known_hadamard(n):
    """Sylvester construction for n a power of two."""
    rows = [0]
    size = 1
    while size < n:
        mask = (1 << size) - 1
        rows = [r | (r << size) for r in rows] + [
            r | ((r ^ mask) << size) for r in rows
        ]
        size *= 2
    return SignMatrix(n, tuple(rows))


class TestPredicates:
    def test_popcount_check_matches_naive_oracle(self):
        rng = random.Random(5)
        for n in (1, 2, 4, 8, 12, 16, 32, 64):
            mats = [_known_hadamard(n)] if n & (n - 1) == 0 else []
            mats += [_random_sign_matrix(rng, n) for _ in range(5)]
            for m in mats:
                naive = all(
                    _naive_dot(m, i, j) == 0
                    for i in range(n)
                    for j in range(i + 1, n)
                )
                assert hadamard.is_hadamard(m) == naive

    def test_sylvester_not_skew(self):
        # symmetric, so fails the skew shape for n > 1
        assert hadamard.is_hadamard(_known_hadamard(4))
        assert not hadamard.is_skew_hadamard(_known_hadamard(4))

    def test_skew_requires_plus_diagonal(self):
        m = SignMatrix(2, (0b01, 0b10))
        assert not hadamard.is_skew_hadamard(m)


class TestSignMatrixShape:
    def test_rejects_nonpositive_order(self):
        # an order -4 matrix with no rows passed is_skew_hadamard
        for n in (-4, 0):
            with pytest.raises(ValueError):
                SignMatrix(n, ())

    def test_rejects_wrong_row_count(self):
        with pytest.raises(ValueError):
            SignMatrix(4, (0, 3))

    def test_rejects_bits_outside_row(self):
        # a stray bit 2 made two equal ++ rows look orthogonal
        for rows in ((0b100, 0), (-1, 0)):
            with pytest.raises(ValueError):
                SignMatrix(2, rows)


def _gs_oracle(blocks):
    """The Goethals-Seidel array entry by entry from its definition: the
    circulant Z_k has entry (r, c) = a_k[(c - r) mod v], with a_k = -1 on
    members of block k; R is the back-diagonal, so (X R)(r, c) = X(r, v-1-c)."""
    v = blocks[0].v
    a = [[-1 if x in b else 1 for x in range(v)] for b in blocks]

    def z(k):
        return lambda r, c: a[k][(c - r) % v]

    def times_r(x):
        return lambda r, c: x(r, v - 1 - c)

    def transpose(x):
        return lambda r, c: x(c, r)

    def neg(x):
        return lambda r, c: -x(r, c)

    z0 = z(0)
    zr = [times_r(z(k)) for k in range(4)]
    ztr = [times_r(transpose(z(k))) for k in range(4)]
    grid = [
        [z0, zr[1], zr[2], zr[3]],
        [neg(zr[1]), z0, neg(ztr[3]), ztr[2]],
        [neg(zr[2]), ztr[3], z0, neg(ztr[1])],
        [neg(zr[3]), neg(ztr[2]), ztr[1], z0],
    ]
    return [
        [grid[i // v][j // v](i % v, j % v) for j in range(4 * v)]
        for i in range(4 * v)
    ]


class TestGoethalsSeidel:
    def test_order_4_from_length_1(self):
        blocks = [sds.Block(1, 0)] * 4
        m = hadamard.goethals_seidel(*blocks)
        assert m.n == 4
        assert hadamard.is_skew_hadamard(m)
        assert m.to_lines() == ["++++", "-+-+", "-++-", "--++"]

    def test_block_structure(self):
        # all 16 blocks against the definition, for random blocks of
        # random length
        rng = random.Random(2)
        for _ in range(40):
            v = rng.randint(1, 12)
            blocks = [sds.Block(v, rng.getrandbits(v)) for _ in range(4)]
            m = hadamard.goethals_seidel(*blocks)
            want = _gs_oracle(blocks)
            assert m.n == 4 * v
            assert [
                [m.entry(i, j) for j in range(m.n)] for i in range(m.n)
            ] == want

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hadamard.goethals_seidel(
                sds.Block(3, 0), sds.Block(3, 0), sds.Block(5, 0), sds.Block(3, 0)
            )


class TestBuildSkewHadamard:
    def test_order_12_pipeline(self):
        m = hadamard.build_skew_hadamard(
            3,
            sds.Block.from_iterable(3, [1]),
            sds.Block.from_iterable(3, [0]),
            sds.Block.from_iterable(3, [0]),
            sds.Block.from_iterable(3, []),
        )
        assert m.n == 12
        assert hadamard.is_skew_hadamard(m)

    def test_skew_block_gives_skew_diagonal_blocks(self):
        rng = random.Random(8)
        for _ in range(20):
            v = rng.choice([7, 11, 19, 23])
            half = []
            for x in range(1, (v + 1) // 2):
                half.append(x if rng.random() < 0.5 else v - x)
            b = sds.Block.from_iterable(v, half)
            assert sds.is_skew(b)
            z0 = [b.translate(r).mask for r in range(v)]  # rows of Z0
            # Z0 + Z0^T = 2I for a skew-type block
            for r in range(v):
                assert (z0[r] >> r) & 1 == 0
                for c in range(r + 1, v):
                    assert ((z0[r] >> c) & 1) != ((z0[c] >> r) & 1)

    def test_failed_certificate_raises(self, monkeypatch):
        # the final check is a raise, not an assert, so it survives -O
        monkeypatch.setattr(hadamard, "is_skew_hadamard", lambda m: False)
        with pytest.raises(hadamard.BuildError):
            hadamard.build_skew_hadamard(
                3,
                sds.Block.from_iterable(3, [1]),
                sds.Block.from_iterable(3, [0]),
                sds.Block.from_iterable(3, [0]),
                sds.Block.from_iterable(3, []),
            )

    def test_rejects_non_skew_first_block(self):
        with pytest.raises(hadamard.BuildError):
            hadamard.build_skew_hadamard(
                3,
                sds.Block.from_iterable(3, [1, 2]),
                sds.Block.from_iterable(3, [0]),
                sds.Block.from_iterable(3, [0]),
                sds.Block.from_iterable(3, []),
            )

    def test_rejects_bad_sizes(self):
        with pytest.raises(hadamard.BuildError):
            hadamard.build_skew_hadamard(
                7,
                sds.Block.from_iterable(7, [1, 2, 4]),
                sds.Block.from_iterable(7, [0, 1]),
                sds.Block.from_iterable(7, [0]),
                sds.Block.from_iterable(7, []),
            )

    def test_rejects_non_sds(self):
        # sizes pass the arithmetic identity but the blocks do not verify
        with pytest.raises(hadamard.BuildError):
            hadamard.build_skew_hadamard(
                7,
                sds.Block.from_iterable(7, [1, 2, 4]),
                sds.Block.from_iterable(7, [0, 1, 2]),
                sds.Block.from_iterable(7, [0, 1, 3]),
                sds.Block.from_iterable(7, [0]),
            )

    def test_catalog_section4_family(self, entries):
        from sdskit.catalog import entry_by_id

        fam = entry_by_id(entries, "gs1324-family1").family
        m = hadamard.build_skew_hadamard(331, *fam.blocks)
        assert m.n == 1324
        assert hadamard.is_skew_hadamard(m)


class TestIo:
    def test_round_trip(self, tmp_path):
        m = hadamard.build_skew_hadamard(
            3,
            sds.Block.from_iterable(3, [1]),
            sds.Block.from_iterable(3, [0]),
            sds.Block.from_iterable(3, [0]),
            sds.Block.from_iterable(3, []),
        )
        path = tmp_path / "h12.txt"
        hadamard.write_matrix(m, path)
        assert hadamard.read_matrix(path) == m

    def test_read_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n+-\n+x\n")
        with pytest.raises(ValueError):
            hadamard.read_matrix(path)

    def test_read_rejects_nonpositive_order(self, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("-4\n")
        with pytest.raises(ValueError):
            hadamard.read_matrix(path)

    def test_read_rejects_lines_after_rows(self, tmp_path):
        path = tmp_path / "long.txt"
        path.write_text("2\n++\n+-\n\n")
        assert hadamard.read_matrix(path) == SignMatrix(2, (0, 0b10))
        path.write_text("2\n++\n+-\n--\n")
        with pytest.raises(ValueError):
            hadamard.read_matrix(path)


def _flipped(m, cells):
    rows = list(m.rows)
    for r, c in cells:
        rows[r] ^= 1 << c
    return SignMatrix(m.n, tuple(rows))


def _skew_oracle(m):
    """M + M^T = 2I and orthogonal rows, entry by entry."""
    n = m.n
    a = [[m.entry(i, j) for j in range(n)] for i in range(n)]
    skew = all(
        a[i][j] + a[j][i] == (2 if i == j else 0)
        for i in range(n)
        for j in range(n)
    )
    return skew and all(
        sum(x * y for x, y in zip(a[i], a[j])) == 0
        for i in range(n)
        for j in range(i + 1, n)
    )


class TestSkewOracle:
    def test_every_flip_matches_definition(self, entries):
        from sdskit.catalog import entry_by_id

        fam = sds.compose_with_paley_todd(entry_by_id(entries, "appx-7-3-3-1").family)
        order12 = hadamard.build_skew_hadamard(
            3,
            sds.Block.from_iterable(3, [1]),
            sds.Block.from_iterable(3, [0]),
            sds.Block.from_iterable(3, [0]),
            sds.Block.from_iterable(3, []),
        )
        order28 = hadamard.build_skew_hadamard(7, *fam.blocks)
        for m in (order12, order28):
            n = m.n
            assert hadamard.is_skew_hadamard(m) and _skew_oracle(m)
            flips = [[(r, c)] for r in range(n) for c in range(n)]
            flips += [[(r, c), (c, r)] for r in range(n) for c in range(r + 1, n)]
            # -I + S is Hadamard with M + M^T = -2I when I + S is skew-Hadamard
            flips.append([(i, i) for i in range(n)])
            for cells in flips:
                f = _flipped(m, cells)
                assert hadamard.is_skew_hadamard(f) == _skew_oracle(f), cells


# sha256 of the files `sdskit hadamard --out` writes for the paper's orders
PINNED_FILES = [
    ("gs956-family1", True,
     "fa885b3aa5b4ba1f85553b5bcff9d91dbb979a7a6ca2a6d1b483ab7a62d0087a"),
    ("gs1324-family1", False,
     "97266ddee40bca5fb51fe871f64f10ac805c7ca7076af833e39e54f700010c6e"),
]


class TestRowCodec:
    def test_lines_match_entries_and_round_trip(self, tmp_path):
        # n up to 70 crosses byte and 64-bit word boundaries
        rng = random.Random(11)
        path = tmp_path / "m.txt"
        for n in range(1, 71):
            for _ in range(2):
                m = _random_sign_matrix(rng, n)
                assert [[ch == "-" for ch in line] for line in m.to_lines()] == [
                    [m.entry(i, j) == -1 for j in range(n)] for i in range(n)
                ]
                hadamard.write_matrix(m, path)
                assert hadamard.read_matrix(path) == m

    @pytest.mark.parametrize("eid, paley_todd, digest", PINNED_FILES)
    def test_written_file_pinned(self, entries, tmp_path, eid, paley_todd, digest):
        from sdskit.catalog import entry_by_id

        fam = entry_by_id(entries, eid).family
        if paley_todd:
            fam = sds.compose_with_paley_todd(fam)
        m = hadamard.goethals_seidel(*fam.blocks)
        path = tmp_path / "h.txt"
        hadamard.write_matrix(m, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_read_names_the_bad_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        cases = [
            ("2\n+-\n+x\n", 3),
            ("2\n+\n++\n", 2),
            ("3\n+++\n---\n", 4),  # missing row
            ("3\n+++\n+_-\n+++\n", 3),  # int() would accept the underscore
            ("3\n+ -\n+++\n+++\n", 2),
        ]
        for text, k in cases:
            path.write_text(text)
            with pytest.raises(ValueError, match=f"^line {k}: malformed matrix row"):
                hadamard.read_matrix(path)


# Skew-type Goethals-Seidel families (members of a0..a3) at odd v, v = 9 and
# 15 composite; each assembles to a skew-Hadamard matrix of order 4v
SKEW_GS_FAMILIES = [
    (1, [[], [], [], []]),
    (3, [[1], [0], [0], []]),
    (5, [[1, 2], [0], [0], [0, 2]]),
    (7, [[1, 2, 4], [0, 1, 3], [0, 1, 3], [0]]),
    (9, [[1, 2, 3, 4], [0, 4], [0, 2, 5], [0, 1, 4, 6]]),
    (15, [[1, 2, 3, 4, 5, 7, 9], [3, 4, 6, 9, 11, 12], [0, 2, 5, 6, 9, 10, 13],
          [0, 1, 3, 4, 5, 6, 9, 10, 11, 12, 14]]),
]
ODD_V = (1, 3, 5, 7, 9, 15)


def _pair_loop(m):
    """Every distinct row pair XORs to n/2 bits."""
    return all(
        (a ^ b).bit_count() * 2 == m.n for a, b in itertools.combinations(m.rows, 2)
    )


def _skew_entries(m):
    """M + M^T = 2I, entry by entry."""
    n = m.n
    return all(
        m.entry(i, j) + m.entry(j, i) == (2 if i == j else 0)
        for i in range(n)
        for j in range(i, n)
    )


def _block_matrix(v, leaders, signs):
    """The 4v x 4v matrix whose row bv+r has chunk c equal to leaders[b][c]
    rotated left by signs[b][c]*r."""
    rows = []
    for b in range(4):
        for r in range(v):
            rows.append(sum(
                sds.Block(v, leaders[b][c]).translate(signs[b][c] * r).mask << (c * v)
                for c in range(4)
            ))
    return SignMatrix(4 * v, tuple(rows))


def _skew_block(rng, v):
    return sds.Block.from_iterable(
        v, [d if rng.random() < 0.5 else v - d for d in range(1, (v + 1) // 2)]
    )


def _leader(rng, v):
    return rng.choice([0, (1 << v) - 1, rng.getrandbits(v)])


def _skew_pattern(rng, v):
    """Leaders and signs for _block_matrix that give M + M^T = 2I: a skew
    diagonal leader of sign +1, and each off-diagonal pair related as its
    two signs require."""
    full = (1 << v) - 1
    leaders = [[0] * 4 for _ in range(4)]
    signs = [[1] * 4 for _ in range(4)]
    for b in range(4):
        leaders[b][b] = _skew_block(rng, v).mask
        for c in range(b + 1, 4):
            s, t = rng.choice((1, -1)), rng.choice((1, -1))
            y = _leader(rng, v) if s == t else rng.choice((0, full))
            x = full ^ (sds.Block(v, y).negate().mask if s == t == 1 else y)
            leaders[b][c], leaders[c][b] = x, y
            signs[b][c], signs[c][b] = s, t
    return leaders, signs


def _signed_block_permutation(rng, v):
    """For each of 4v indices, its source index and whether it is negated:
    blocks of v indices go to blocks in random order, each reflected
    (j -> -j) and negated at random."""
    out = []
    for b in rng.sample(range(4), 4):
        refl, neg = rng.random() < 0.5, rng.random() < 0.5
        out += [(b * v + (-j % v if refl else j), neg) for j in range(v)]
    return out


def _transformed(rng, m, skew_keeping):
    """P M Q for random signed block permutations P and Q, with Q = P^T when
    skew_keeping.  Each keeps the Hadamard property and the block layout (a
    reflection flips a block's sign); Q = P^T also keeps M + M^T = 2I."""
    v = m.n // 4
    rows = _signed_block_permutation(rng, v)
    cols = rows if skew_keeping else _signed_block_permutation(rng, v)
    return SignMatrix(m.n, tuple(
        sum(((m.rows[i] >> j & 1) ^ ni ^ nj) << k for k, (j, nj) in enumerate(cols))
        for i, ni in rows
    ))


def _rotate_chunk(m, b, c, k):
    """m with chunk c of each row in block row b rotated left by k."""
    v = m.n // 4
    full = (1 << v) - 1
    rows = list(m.rows)
    for i in range(b * v, (b + 1) * v):
        x = (rows[i] >> (c * v)) & full
        rows[i] ^= (x ^ sds.Block(v, x).translate(k).mask) << (c * v)
    return SignMatrix(m.n, tuple(rows))


BOTH_OUTCOMES = {(p, ok) for p in ("hadamard", "skew") for ok in (True, False)}


class TestLeaderCertificate:
    def test_gs_arrays_match_oracles(self):
        rng = random.Random(23)
        mats = [
            hadamard.goethals_seidel(*(sds.Block.from_iterable(v, b) for b in blocks))
            for v, blocks in SKEW_GS_FAMILIES
        ]
        for v in ODD_V:
            for k in range(30):
                blocks = [sds.Block(v, rng.getrandbits(v)) for _ in range(4)]
                if k % 2:
                    blocks[0] = _skew_block(rng, v)
                mats.append(hadamard.goethals_seidel(*blocks))
        seen = set()
        for m in mats:
            assert hadamard._gs_shape(m) is not None
            h = _pair_loop(m)
            skew = h and _skew_entries(m)
            assert hadamard.is_hadamard(m) == h
            assert hadamard.is_skew_hadamard(m) == skew
            seen |= {("hadamard", h), ("skew", skew)}
        assert seen == BOTH_OUTCOMES

    def test_sign_patterns_match_oracles(self):
        # 16 blocks with random signs and random, all-zero or all-one
        # leaders, half of them drawn to meet M + M^T = 2I.  Only
        # goethals_seidel's signs give the shape, but a constant chunk
        # meets either sign, as both rotations fix it.
        rng = random.Random(29)
        seen, seen_shaped = set(), set()
        for v in ODD_V:
            full = (1 << v) - 1
            for k in range(60):
                if k % 2:
                    leaders, signs = _skew_pattern(rng, v)
                else:
                    leaders = [[_leader(rng, v) for _ in range(4)] for _ in range(4)]
                    signs = [[rng.choice((1, -1)) for _ in range(4)] for _ in range(4)]
                m = _block_matrix(v, leaders, signs)
                if k % 2:
                    assert _skew_entries(m)
                shaped = all(
                    signs[b][c] == hadamard._SIGNS[b][c] or leaders[b][c] in (0, full)
                    for b in range(4) for c in range(4)
                )
                assert (hadamard._gs_shape(m) is not None) == shaped
                h = _pair_loop(m)
                skew = h and _skew_entries(m)
                assert hadamard.is_hadamard(m) == h
                assert hadamard.is_skew_hadamard(m) == skew
                seen |= {("hadamard", h), ("skew", skew)}
                if shaped:
                    seen_shaped |= {("hadamard", h), ("skew", skew)}
        assert seen == seen_shaped == BOTH_OUTCOMES

    def test_transformed_families_match_oracles(self):
        # the skew families under signed block permutations and reflections,
        # which give every sign pattern, goethals_seidel's own among them;
        # two of three then get a chunk rotated in one block row, which
        # keeps that block row's own orthogonality but may break it with
        # the others
        rng = random.Random(31)
        seen, seen_shaped = set(), set()
        for v, blocks in SKEW_GS_FAMILIES[1:]:
            base = hadamard.goethals_seidel(*(sds.Block.from_iterable(v, b) for b in blocks))
            for k in range(600 if v == 3 else 40):
                m = _transformed(rng, base, k % 2 == 0)
                for _ in range(k % 3):
                    m = _rotate_chunk(m, rng.randrange(4), rng.randrange(4), rng.randrange(1, v))
                h = _pair_loop(m)
                skew = h and _skew_entries(m)
                assert hadamard.is_hadamard(m) == h
                assert hadamard.is_skew_hadamard(m) == skew
                seen |= {("hadamard", h), ("skew", skew)}
                if hadamard._gs_shape(m) is not None:
                    seen_shaped |= {("hadamard", h), ("skew", skew)}
        assert seen == seen_shaped == BOTH_OUTCOMES


class TestLeaderDetection:
    def test_corpus_matrices_have_the_shape(self, entries):
        from sdskit.catalog import entry_by_id

        ids = [(f"gs956-family{k}", True) for k in (1, 2, 3)]
        ids += [(f"gs1324-family{k}", False) for k in range(1, 7)]
        for eid, paley_todd in ids:
            fam = entry_by_id(entries, eid).family
            if paley_todd:
                fam = sds.compose_with_paley_todd(fam)
            assert hadamard._gs_shape(hadamard.goethals_seidel(*fam.blocks)) is not None, eid

    def test_generator_and_recogniser_agree(self, entries):
        # _gs_shape reads goethals_seidel's row-0 chunks back as leaders
        from sdskit.catalog import entry_by_id

        rng = random.Random(37)
        families = [
            [sds.Block(v, rng.choice([0, (1 << v) - 1, rng.getrandbits(v)]))
             for _ in range(4)]
            for v in range(1, 32, 2)
            for _ in range(10)
        ]
        for eid in ("gs956-family1", "gs956-family2", "gs956-family3"):
            fam = entry_by_id(entries, eid).family
            families.append(list(sds.compose_with_paley_todd(fam).blocks))
        for k in range(1, 7):
            families.append(list(entry_by_id(entries, f"gs1324-family{k}").family.blocks))
        for blocks in families:
            v = blocks[0].v
            full = (1 << v) - 1
            m = hadamard.goethals_seidel(*blocks)
            leaders = [[(m.rows[b * v] >> (c * v)) & full for c in range(4)]
                       for b in range(4)]
            assert all(leaders[b][b] == blocks[0].mask for b in range(4))
            assert hadamard._gs_shape(m) == (v, leaders)

    def test_order_28_flips(self):
        blocks = [sds.Block.from_iterable(7, b) for b in SKEW_GS_FAMILIES[3][1]]
        m = hadamard.goethals_seidel(*blocks)
        n = m.n
        assert hadamard._gs_shape(m) is not None
        # the whole diagonal flipped complements each Z0 block, a circulant
        assert hadamard._gs_shape(_flipped(m, [(i, i) for i in range(n)])) is not None
        flips = [[(r, c)] for r in range(n) for c in range(n)]
        flips += [[(r, c), (c, r)] for r in range(n) for c in range(r + 1, n)]
        for cells in flips:
            assert hadamard._gs_shape(_flipped(m, cells)) is None, cells

    def test_sylvester_has_no_shape(self):
        for n in (8, 16, 32):
            assert hadamard._gs_shape(_known_hadamard(n)) is None


def _swapped(m, a, b):
    """P M P^T for the transposition P of a and b: rows a and b swapped,
    then columns a and b."""
    rows = list(m.rows)
    rows[a], rows[b] = rows[b], rows[a]
    both = 1 << a | 1 << b
    rows = [r ^ both if (r >> a ^ r >> b) & 1 else r for r in rows]
    return SignMatrix(m.n, tuple(rows))


class TestSingleShape:
    def test_is_skew_hadamard_finds_the_shape_once(self, monkeypatch):
        blocks = [sds.Block.from_iterable(7, b) for b in SKEW_GS_FAMILIES[3][1]]
        m = hadamard.goethals_seidel(*blocks)
        calls = []
        gs_shape = hadamard._gs_shape
        monkeypatch.setattr(hadamard, "_gs_shape", lambda m: calls.append(1) or gs_shape(m))
        assert hadamard.is_skew_hadamard(m)
        assert len(calls) == 1
        assert hadamard.is_hadamard(m)
        assert len(calls) == 2


class TestGenericSkewPath:
    def test_swapped_gs1324(self, entries):
        # a skew-Hadamard matrix of the paper's order without the shape;
        # n = 1324 is 4 mod 8, so the flips cross byte-plane boundaries
        from sdskit.catalog import entry_by_id

        fam = entry_by_id(entries, "gs1324-family1").family
        m = _swapped(hadamard.goethals_seidel(*fam.blocks), 5, 700)
        n = m.n
        assert hadamard._gs_shape(m) is None
        assert hadamard.is_skew_hadamard(m)
        for cells in ([(n - 1, n - 2)], [(7, 8)], [(8, 7)], [(n - 1, n - 1)],
                      [(3, 900), (900, 3)]):
            assert not hadamard.is_skew_hadamard(_flipped(m, cells)), cells
        # rows 5 and 700 swapped back alone: Hadamard, and once the row with
        # a -1 on the diagonal is negated, a plus diagonal but not skew
        rows = list(m.rows)
        rows[5], rows[700] = rows[700], rows[5]
        rows = [r ^ (1 << n) - 1 if (r >> i) & 1 else r for i, r in enumerate(rows)]
        h = SignMatrix(n, tuple(rows))
        assert hadamard.is_hadamard(h) and not any((r >> i) & 1 for i, r in enumerate(rows))
        assert any(h.entry(i, j) == h.entry(j, i) for i in (5, 700) for j in range(n) if j != i)
        assert not hadamard.is_skew_hadamard(h)

    def test_plus_diagonal_hadamard_not_skew(self):
        # Sylvester matrices with each column scaled to a + diagonal entry
        # (at order 2 this gives a skew-Hadamard matrix)
        for n in (4, 8, 16, 32, 64):
            rows = _known_hadamard(n).rows
            neg = sum(1 << i for i, r in enumerate(rows) if (r >> i) & 1)
            h = SignMatrix(n, tuple(r ^ neg for r in rows))
            assert hadamard.is_hadamard(h)
            assert not hadamard.is_skew_hadamard(h) and not _skew_oracle(h), n


class TestOrderLine:
    def test_read_rejects_non_decimal_order(self, tmp_path):
        # int() reads the first three heads as 12
        path = tmp_path / "m.txt"
        body = ("+" * 12 + "\n") * 12
        path.write_text("12\n" + body)
        assert hadamard.read_matrix(path).n == 12
        for head in ("1_2", "+12", "+1_2", "12.", "0x0c", ""):
            path.write_text(f"{head}\n{body}")
            with pytest.raises(ValueError, match="^line 1: "):
                hadamard.read_matrix(path)
