"""Goethals-Seidel assembly and exact Hadamard verification.

All arithmetic is on packed sign bits (bit set = -1 entry); verification
is popcount-based and certificate-grade, with no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import sds
from .sds import Block, DifferenceFamily


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
        out = []
        for r in self.rows:
            out.append("".join("-" if (r >> j) & 1 else "+" for j in range(self.n)))
        return out


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
    """True iff Hadamard with +1 diagonal and antisymmetric off-diagonal
    (M + M^T = 2I)."""
    n = m.n
    nbytes = (n + 7) // 8
    rb = [r.to_bytes(nbytes, "little") for r in m.rows]
    for i in range(n):
        if (rb[i][i >> 3] >> (i & 7)) & 1:
            return False
        for j in range(i + 1, n):
            if ((rb[i][j >> 3] >> (j & 7)) & 1) == ((rb[j][i >> 3] >> (i & 7)) & 1):
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
        for line in m.to_lines():
            fh.write(line + "\n")


def read_matrix(path) -> SignMatrix:
    with open(path, encoding="ascii") as fh:
        n = int(fh.readline())
        rows = []
        for _ in range(n):
            line = fh.readline().strip()
            if len(line) != n or set(line) - {"+", "-"}:
                raise ValueError("malformed matrix row")
            row = 0
            for j, ch in enumerate(line):
                if ch == "-":
                    row |= 1 << j
            rows.append(row)
        if fh.read().strip():
            raise ValueError(f"lines after the {n} matrix rows")
    return SignMatrix(n, tuple(rows))
