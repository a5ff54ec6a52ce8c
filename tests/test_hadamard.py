import hashlib
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
