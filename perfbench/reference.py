"""Independent oracle for the benchmark's correctness checks.

Nothing here imports sdskit: inputs the benchmark feeds to the program and
outputs it reads back are judged by this code alone, so a defect in the
program cannot vouch for itself.

Matrices are handled as strings of '0'/'1' (one string per row, character
j is column j, '1' means -1), which is also the bit layout of sdskit's
packed rows (bit j of a row int is column j).
"""

from __future__ import annotations

_TO_BITS = str.maketrans("+-", "01")
_FLIP = str.maketrans("01", "10")


def difference_counts(v: int, blocks) -> list[int]:
    """counts[c] = #{(a, b) within one block : a - b = c (mod v), a != b}."""
    counts = [0] * v
    for block in blocks:
        members = list(block)
        for a in members:
            for b in members:
                if a != b:
                    counts[(a - b) % v] += 1
    return counts


def is_sds(v: int, blocks, lam: int) -> bool:
    return all(c == lam for c in difference_counts(v, blocks)[1:])


def is_skew_block(v: int, members) -> bool:
    """0 absent and exactly one of {i, v - i} present for each i != 0."""
    s = set(members)
    return 0 not in s and all((i in s) != ((v - i) in s) for i in range(1, v))


def is_skew_gs_family(v: int, blocks) -> bool:
    """Four blocks, the first skew, forming an SDS at lambda = sum(k) - v."""
    return (
        len(blocks) == 4
        and is_skew_block(v, blocks[0])
        and is_sds(v, blocks, sum(len(b) for b in blocks) - v)
    )


def quadratic_residues(v: int) -> tuple[int, ...]:
    return tuple(sorted({x * x % v for x in range(1, v)}))


def orbit_union(v: int, h: int, reps) -> list[int]:
    """Union of the orbits of reps under multiplication by h mod v."""
    out = set()
    for r in reps:
        x = r % v
        while x not in out:
            out.add(x)
            x = x * h % v
    return sorted(out)


def _circulant(first: str) -> list[str]:
    """Row r, column c holds first[(c - r) mod v]."""
    v = len(first)
    return [first[v - r:] + first[: v - r] for r in range(v)]


def goethals_seidel_rows(v: int, blocks) -> list[str]:
    """Rows of the Goethals-Seidel array

        A    BR    CR    DR
       -BR   A     D'R  -C'R
       -CR  -D'R   A     B'R
       -DR   C'R  -B'R   A

    (X' the transpose, R the back-diagonal) for four blocks; -1 on members.
    Skew-Hadamard of order 4v when the blocks form a skew-GS family.
    """
    seqs = []
    for b in blocks:
        s = set(b)
        seqs.append("".join("1" if i in s else "0" for i in range(v)))
    a, b, c, d = (_circulant(s) for s in seqs)
    bt, ct, dt = (_circulant(s[0] + s[:0:-1]) for s in seqs[1:])

    def r(x):
        return [row[::-1] for row in x]

    def neg(x):
        return [row.translate(_FLIP) for row in x]

    grid = [
        [a, r(b), r(c), r(d)],
        [neg(r(b)), a, r(dt), neg(r(ct))],
        [neg(r(c)), neg(r(dt)), a, r(bt)],
        [neg(r(d)), r(ct), neg(r(bt)), a],
    ]
    return ["".join(blk[i] for blk in band) for band in grid for i in range(v)]


def rows_to_ints(rows: list[str]) -> tuple[int, ...]:
    """Pack '0'/'1' rows into ints with bit j = column j."""
    return tuple(int(row[::-1], 2) for row in rows)


def is_skew_hadamard_rows(rows: list[str]) -> bool:
    """Exact test of H + H' = 2I and H H' = nI on '0'/'1' rows."""
    n = len(rows)
    if n % 2 or any(len(row) != n for row in rows):
        return False
    for i, col in enumerate(zip(*rows)):
        flipped = "".join(col).translate(_FLIP)
        if rows[i] != flipped[:i] + "0" + flipped[i + 1 :]:
            return False
    ints = [int(row, 2) for row in rows]
    half = n // 2
    for i, ri in enumerate(ints):
        if set(map(int.bit_count, map(ri.__xor__, ints[i + 1 :]))) - {half}:
            return False
    return True


def is_skew_hadamard_file(text: str, n: int) -> bool:
    """The matrix-file format: the order on line 1, then n rows of +/-."""
    lines = text.split("\n")
    if lines[0].strip() != str(n) or len(lines) < n + 1:
        return False
    rows = lines[1 : n + 1]
    if any(set(row) - {"+", "-"} for row in rows):
        return False
    if any(line.strip() for line in lines[n + 1 :]):
        return False
    return is_skew_hadamard_rows([row.translate(_TO_BITS) for row in rows])


def speed_probe(kind: str) -> None:
    """Fixed work, timed next to the program to gauge how fast the machine
    is running at that moment.

    Contention from other tenants slows kinds of work unequally: measured
    side by side, big-int, string and small-int loop work slowed 1.58x
    where canonical_form's sort-and-compare loops slowed 1.41x.  So there
    are two kinds: "bits" (string handling, big-int XOR and popcount,
    small-int loops) and "sort" (the least image of blocks under every
    multiplier, as tuples of sorted residues).
    """
    v = 239
    qr = quadratic_residues(v)
    if kind == "sort":
        for block in [qr, qr[::2], qr[1::2]] * 4:
            min(tuple(sorted(m * x % v for x in block)) for m in range(1, v))
        return
    ints = [int(row, 2) for row in goethals_seidel_rows(v, [qr] * 4)]
    for i in range(0, len(ints), 4):
        set(map(int.bit_count, map(ints[i].__xor__, ints[i + 1 :])))
    difference_counts(v, [qr] * 20)
