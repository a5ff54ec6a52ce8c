"""Goethals-Seidel assembly and exact Hadamard verification.

All arithmetic is on packed sign bits (bit set = -1 entry); verification
is popcount-based and certificate-grade, with no floating point.  Rows
move whole as sds.bit_text text, and every v-bit rotation is
sds.rotations.  One step rule (_gs_rows) and one sign table (_SIGNS)
both build the Goethals-Seidel array and recognise its rows: a matrix
laid out as goethals_seidel builds it is certified from its four block
leaders (_gs_shape); any other matrix row pair by row pair, with skewness
read as row i XOR column i, the columns coming from sds.bit_columns.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import sds
from .sds import Block, DifferenceFamily, bit_text, from_bit_text, rotations

_TO_SIGNS = str.maketrans("01", "+-")
_TO_BITS = str.maketrans("+-", "01")


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
        return [bit_text(r, self.n).translate(_TO_SIGNS) for r in self.rows]


# The step sign of chunk c in block row b of the Goethals-Seidel array: +1
# (circulant) on the diagonal blocks, -1 (back-circulant) elsewhere.
_SIGNS = tuple(tuple(1 if b == c else -1 for c in range(4)) for b in range(4))


def _gs_rows(v: int, row: int, signs):
    """A Goethals-Seidel block row from its leader `row`: v rows, each the
    one before it with v-bit chunk c rotated left by one (bit k to k+1,
    bit v-1 to 0) when signs[c] = +1 and right by one (bit k to k-1, bit 0
    to v-1) when signs[c] = -1, in all four chunks at once."""
    full = (1 << v) - 1
    up = wrap_down = down = wrap_up = 0
    for c, sc in enumerate(signs):
        if sc == 1:
            up |= (full ^ 1) << (c * v)
            wrap_down |= 1 << (c * v)
        else:
            down |= (full >> 1) << (c * v)
            wrap_up |= 1 << (c * v + v - 1)
    for _ in range(v):
        yield row
        row = ((row << 1 & up) | (row >> (v - 1) & wrap_down)
               | (row >> 1 & down) | (row << (v - 1) & wrap_up))


def goethals_seidel(a0: Block, a1: Block, a2: Block, a3: Block) -> SignMatrix:
    """Assemble the 4v x 4v Goethals-Seidel array from four blocks over Z_v.

    Block a_i is the +-1 first row of a circulant Z_i (set bit = -1), R is
    the back-diagonal permutation and ' the transpose:

        [  Z0     Z1 R    Z2 R    Z3 R  ]
        [ -Z1 R   Z0     -Z3'R    Z2'R  ]
        [ -Z2 R   Z3'R    Z0     -Z1'R  ]
        [ -Z3 R  -Z2'R    Z1'R    Z0    ]

    Row r of Z_i is a_i translated by r, row r of Z_i R is -a_i translated
    by -1-r (a_i with its bits reversed, rotated right by r), and row r of
    Z_i'R is a_i translated by -1-r.  So each block row b is _gs_rows of
    its leader row (r = 0) with signs _SIGNS[b].
    """
    v = a0.v
    if not (a1.v == a2.v == a3.v == v):
        raise ValueError("all four blocks must share one modulus")
    full = (1 << v) - 1
    z0 = a0.mask
    z1r, z2r, z3r = (int(bit_text(a.mask, v), 2) for a in (a1, a2, a3))
    z1tr, z2tr, z3tr = (rotations(a.mask, v, [v - 1])[0] for a in (a1, a2, a3))
    leaders = [
        [z0, z1r, z2r, z3r],
        [z1r ^ full, z0, z3tr ^ full, z2tr],
        [z2r ^ full, z3tr, z0, z1tr ^ full],
        [z3r ^ full, z2tr ^ full, z1tr, z0],
    ]
    out = []
    for b, chunks in enumerate(leaders):
        row = sum(x << (c * v) for c, x in enumerate(chunks))
        out += _gs_rows(v, row, _SIGNS[b])
    return SignMatrix(4 * v, tuple(out))


def _gs_shape(m: SignMatrix):
    """(v, x) when m is laid out as goethals_seidel builds it, else None.

    That is, n = 4v with v odd and each block row b is _gs_rows of its
    leader row bv with signs _SIGNS[b]; x[b][c] is chunk c of row bv.  No
    sign is read from m: a matrix with the array's layout but other signs
    (a signed block permutation of it, say) has no shape here and takes
    the row-pair path.
    """
    v, rem = divmod(m.n, 4)
    if rem or v % 2 == 0:
        return None
    blocks = [m.rows[b * v:(b + 1) * v] for b in range(4)]
    # rotation keeps popcounts, so each block row has one row popcount;
    # this rejects most matrices without the shape before the row steps
    if any(len({r.bit_count() for r in rows}) > 1 for rows in blocks):
        return None
    if any(tuple(_gs_rows(v, rows[0], _SIGNS[b])) != rows
           for b, rows in enumerate(blocks)):
        return None
    full = (1 << v) - 1
    return v, [[(rows[0] >> (c * v)) & full for c in range(4)] for rows in blocks]


def is_hadamard(m: SignMatrix) -> bool:
    """Exact orthogonality check: every distinct row pair has dot product
    zero, computed as n - 2*popcount(xor).

    A matrix laid out as goethals_seidel builds it (see _gs_shape) is
    certified from its leaders.  With s = _SIGNS, a chunk's popcount is
    unchanged when both operands rotate alike, so chunk c of rows bv+r and
    b'v+t contributes v - 2*popcount(x[b][c] ^ rot(x[b'][c], s[b'][c]*k)),
    with k = t-r when s[b][c] = s[b'][c] and k = t+r when the signs differ.
    The dot product is therefore F(t-r) + H(t+r), F summing the equal-sign
    chunks and H the others.  For odd v, (r, t) -> (t-r, t+r) is a
    bijection of Z_v^2, so the rows are orthogonal iff, on each diagonal
    block pair, F(0) = n and F(d) = 0 for d != 0 (H is empty there), and
    on each off-diagonal block pair F and H are each constant with
    F + H = 0.  That is 10 block pairs x 4 chunks x v popcounts in place of
    n(n-1)/2 row pairs.  Any other matrix takes the row-pair loop.
    """
    return _orthogonal(m, _gs_shape(m))


def _orthogonal(m: SignMatrix, shape) -> bool:
    """is_hadamard of m, given shape = _gs_shape(m)."""
    n = m.n
    if shape is not None:
        v, x = shape
        for b in range(4):
            for b2 in range(b, 4):
                f, h = [0] * v, [0] * v
                for c in range(4):
                    # x[b2][c] rotated by _SIGNS[b2][c]*k for k = 0..v-1;
                    # left by v-k is right by k
                    shifts = range(v) if _SIGNS[b2][c] == 1 else range(v, 0, -1)
                    acc = f if _SIGNS[b][c] == _SIGNS[b2][c] else h
                    xc = x[b][c]
                    acc[:] = [
                        t + v - 2 * (xc ^ y).bit_count()
                        for t, y in zip(acc, rotations(x[b2][c], v, shifts))
                    ]
                if b == b2:
                    if f[0] != n or any(f[1:]):
                        return False
                elif f.count(f[0]) != v or h.count(h[0]) != v or f[0] + h[0]:
                    return False
        return True
    rows = m.rows
    for i in range(n):
        ri = rows[i]
        for j in range(i + 1, n):
            if (ri ^ rows[j]).bit_count() * 2 != n:
                return False
    return True


def is_skew_hadamard(m: SignMatrix) -> bool:
    """True iff Hadamard with M + M^T = 2I.

    A matrix laid out as goethals_seidel builds it (see _gs_shape) has
    entry (bv+r, cv+j) = bit j - r of x[b][b] on the diagonal blocks and
    bit j + r of x[b][c] off them, so M + M^T = 2I holds iff each diagonal
    leader is skew (sds.is_skew: bit 0 clear, bit d set iff bit -d clear)
    and x[b][c] = ~x[c][b] for b < c.  The test then ends in is_hadamard's
    orthogonality check, on the shape already computed.

    Any other matrix is skew iff each row i, in ascending order, has bit i
    clear and XORs with column i to every other bit; the columns come from
    sds.bit_columns, and the first bad row ends the test.
    """
    n = m.n
    shape = _gs_shape(m)
    if shape is not None:
        v, x = shape
        full = (1 << v) - 1
        for b in range(4):
            if not sds.is_skew(Block(v, x[b][b])):
                return False
            if any(x[b][c] != x[c][b] ^ full for c in range(b + 1, 4)):
                return False
    else:
        full = (1 << n) - 1
        columns = sds.bit_columns(m.rows, n)
        for i, (row, column) in enumerate(zip(m.rows, columns)):
            if (row >> i) & 1 or row ^ column != full ^ (1 << i):
                return False
    return _orthogonal(m, shape)


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
        raise BuildError(f"blocks are not an SDS at lambda={lam0} ({report})")
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
        head = fh.readline().strip()
        if not head.removeprefix("-").isdigit():
            raise ValueError(f"line 1: malformed order {head!r}, need decimal digits")
        n = int(head)
        rows = []
        for k in range(2, n + 2):
            line = fh.readline().strip()
            if len(line) != n or line.strip("+-"):
                raise ValueError(f"line {k}: malformed matrix row, need {n} +/- signs")
            rows.append(from_bit_text(line.translate(_TO_BITS)))
        if fh.read().strip():
            raise ValueError(f"lines after the {n} matrix rows")
    return SignMatrix(n, tuple(rows))
