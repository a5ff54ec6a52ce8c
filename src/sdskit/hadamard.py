"""Goethals-Seidel assembly and exact Hadamard verification.

All arithmetic is on packed sign bits (bit set = -1 entry); verification
is popcount-based and certificate-grade, with no floating point.  Rows
move whole as `_bits` text; skewness is certified as row i XOR column i.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import sds
from .sds import Block, DifferenceFamily

_TO_SIGNS = str.maketrans("01", "+-")
_TO_BITS = str.maketrans("+-", "01")


def _bits(row: int, n: int) -> str:
    """The n bits of row as '0'/'1' characters, column 0 first."""
    return format(row, f"0{n}b")[::-1]


@dataclass(frozen=True)
class SignMatrix:
    """A square +-1 matrix with packed rows (bit j of row i = entry -1)."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("order must be positive")
        if len(self.rows) != self.n:
            raise ValueError(f"{len(self.rows)} rows for order {self.n}")
        if any(r < 0 or r >> self.n for r in self.rows):
            raise ValueError(f"row has bits outside 0..{self.n - 1}")

    def entry(self, i: int, j: int) -> int:
        return -1 if (self.rows[i] >> j) & 1 else 1

    def to_lines(self) -> list[str]:
        return [_bits(r, self.n).translate(_TO_SIGNS) for r in self.rows]


def goethals_seidel(a0: Block, a1: Block, a2: Block, a3: Block) -> SignMatrix:
    """Assemble the 4v x 4v Goethals-Seidel array from four blocks over Z_v.

    Block a_i is the +-1 first row of a circulant Z_i (set bit = -1), R is
    the back-diagonal permutation and ' the transpose:

        [  Z0     Z1 R    Z2 R    Z3 R  ]
        [ -Z1 R   Z0     -Z3'R    Z2'R  ]
        [ -Z2 R   Z3'R    Z0     -Z1'R  ]
        [ -Z3 R  -Z2'R    Z1'R    Z0    ]

    Row r of Z_i is a_i translated by r, row r of Z_i R is -a_i translated
    by -1-r, and row r of Z_i'R is a_i translated by -1-r.
    """
    v = a0.v
    if not (a1.v == a2.v == a3.v == v):
        raise ValueError("all four blocks must share one modulus")
    full = (1 << v) - 1

    def rows(b, start, step):
        return [b.translate(start + step * r).mask for r in range(v)]

    def neg(block):
        return [row ^ full for row in block]

    z0 = rows(a0, 0, 1)
    z1r, z2r, z3r = (rows(a.negate(), -1, -1) for a in (a1, a2, a3))
    z1tr, z2tr, z3tr = (rows(a, -1, -1) for a in (a1, a2, a3))
    grid = [
        [z0, z1r, z2r, z3r],
        [neg(z1r), z0, neg(z3tr), z2tr],
        [neg(z2r), z3tr, z0, neg(z1tr)],
        [neg(z3r), neg(z2tr), z1tr, z0],
    ]
    out = []
    for block_row in grid:
        for r in range(v):
            row = 0
            for bj, block in enumerate(block_row):
                row |= block[r] << (bj * v)
            out.append(row)
    return SignMatrix(4 * v, tuple(out))


def is_hadamard(m: SignMatrix) -> bool:
    """Exact orthogonality check: every distinct row pair has dot product
    zero, computed as n - 2*popcount(xor)."""
    n = m.n
    rows = m.rows
    for i in range(n):
        ri = rows[i]
        for j in range(i + 1, n):
            if (ri ^ rows[j]).bit_count() * 2 != n:
                return False
    return True


def is_skew_hadamard(m: SignMatrix) -> bool:
    """True iff Hadamard with M + M^T = 2I: each row i, in ascending order,
    has bit i clear and XORs with column i to every other bit."""
    n = m.n
    full = (1 << n) - 1
    columns = zip(*(_bits(r, n) for r in m.rows))
    for i, (row, column) in enumerate(zip(m.rows, columns)):
        if (row >> i) & 1 or row ^ int("".join(column)[::-1], 2) != full ^ (1 << i):
            return False
    return is_hadamard(m)


class BuildError(ValueError):
    """A precondition of the skew-Hadamard pipeline failed."""


def build_skew_hadamard(
    v: int, x0: Block, x1: Block, x2: Block, x3: Block
) -> SignMatrix:
    """Assemble and certify a 4v x 4v skew-Hadamard matrix from a 4-block
    family of order v whose first block is skew."""
    if not sds.is_skew(x0):
        raise BuildError("first block is not of skew type")
    fam = DifferenceFamily(v, (x0, x1, x2, x3))
    lam0 = sum(fam.sizes) - v
    if sds.derive_lambda(v, fam.sizes) != lam0:
        raise BuildError(
            f"sizes {fam.sizes} do not give an order-v family over Z_{v}"
        )
    report = sds.verify_sds(fam, lam0)
    if not report.ok:
        raise BuildError(
            f"blocks are not an SDS at lambda={lam0} "
            f"(worst deviation {report.worst_deviation})"
        )
    m = goethals_seidel(*fam.blocks)
    if not is_skew_hadamard(m):
        raise BuildError("assembled matrix failed the skew-Hadamard check")
    return m


def write_matrix(m: SignMatrix, path) -> None:
    """Write the order on the first line, then one +/- row per line."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{m.n}\n")
        fh.writelines(line + "\n" for line in m.to_lines())


def read_matrix(path) -> SignMatrix:
    """Inverse of write_matrix; a bad row names its line, the order being line 1."""
    with open(path, encoding="ascii") as fh:
        n = int(fh.readline())
        rows = []
        for k in range(2, n + 2):
            line = fh.readline().strip()
            if len(line) != n or line.strip("+-"):
                raise ValueError(f"line {k}: malformed matrix row, need {n} +/- signs")
            rows.append(int(line.translate(_TO_BITS)[::-1], 2))
        if fh.read().strip():
            raise ValueError(f"lines after the {n} matrix rows")
    return SignMatrix(n, tuple(rows))
