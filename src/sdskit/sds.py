"""Supplementary difference sets: blocks, parameter sets, the difference
verifier, parameter enumeration, and block-level predicates.  sds owns the
package's packed bits: mask rotation (rotations), bit text (bit_text) and
the columns of a bit matrix (bit_columns)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from . import zmod


def rotations(x: int, v: int, shifts: Iterable[int]) -> list[int]:
    """The low v bits of x rotated left by each r in shifts (bit i -> bit
    (i+r) mod v); each r must lie in 0..v, and rotating left by v-r is
    rotating right by r."""
    twice = x | x << v  # x rotated left by r is bits v-r..2v-r-1 of twice
    full = (1 << v) - 1
    return [(twice >> (v - r)) & full for r in shifts]


def bit_text(x: int, n: int) -> str:
    """The low n bits of x as '0'/'1' characters, bit 0 first; int(text, 2)
    of it reverses the n bits (bit i -> bit n-1-i)."""
    return format(x, f"0{n}b")[::-1]


def from_bit_text(text: str) -> int:
    """The inverse of bit_text: character i of text is bit i."""
    return int(text[::-1], 2)


# _PLANES[b] maps a byte to b"1" if its bit b is set, else b"0"
_PLANES = [(b"0" * (1 << b) + b"1" * (1 << b)) * (128 >> b) for b in range(8)]


def bit_columns(rows: Sequence[int], n: int) -> Iterator[int]:
    """The columns of the n x n bit matrix whose row j is rows[j]: yields,
    for i = 0..n-1 in order, the int whose bit j is bit i of rows[j].

    The rows are laid out once as little-endian bytes, last row first, so
    byte i//8 of every row is one strided slice, and its bit plane i%8 is
    one translate into text with row n-1 first: int(text, 2) is column i.
    """
    w = (n + 7) >> 3
    flat = b"".join([r.to_bytes(w, "little") for r in reversed(rows)])
    for i in range(n):
        yield int(flat[i >> 3::w].translate(_PLANES[i & 7]), 2)


def least_translate_key(v: int, members: Sequence[int]) -> int:
    """The key of the lexicographically least translate of a set of
    distinct residues in 0..v-1.

    A set's key has member y at bit v-1-y: the bit reversal of its Block
    mask.  Among sets of one size, the smaller sorted member list has the
    larger key, and translating by -y rotates the key left by y.  The least
    translate contains 0, so its key is the largest rotation that brings a
    member to 0.  The empty set has key 0.
    """
    key = 0
    for y in members:
        key |= 1 << (v - 1 - y)
    return max(rotations(key, v, members), default=0)


def key_members(v: int, key: int) -> tuple[int, ...]:
    """The sorted members of the set whose key is `key` (the inverse of the
    layout in least_translate_key)."""
    return Block(v, int(bit_text(key, v), 2)).members()


@dataclass(frozen=True)
class Block:
    """A subset of Z_v stored as a packed bit-vector (bit i set iff i is a
    member).  The mask doubles as the +-1 first row of the block's
    circulant, with a set bit standing for -1."""

    v: int
    mask: int

    def __post_init__(self):
        if self.v < 1:
            raise ValueError("modulus must be positive")
        if self.mask < 0 or self.mask >> self.v:
            raise ValueError("mask has bits outside 0..v-1")

    @classmethod
    def from_iterable(cls, v: int, members: Iterable[int]) -> "Block":
        mask = 0
        for x in members:
            mask |= 1 << (x % v)
        return cls(v, mask)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def members(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.v) if (self.mask >> i) & 1)

    def __contains__(self, x: int) -> bool:
        return (self.mask >> (x % self.v)) & 1 == 1

    def complement(self) -> "Block":
        return Block(self.v, self.mask ^ ((1 << self.v) - 1))

    def translate(self, t: int) -> "Block":
        return Block(self.v, rotations(self.mask, self.v, [t % self.v])[0])

    def scale(self, m: int) -> "Block":
        """The block {m*x mod v : x in this block}."""
        return Block.from_iterable(self.v, (m * x for x in self.members()))

    def negate(self) -> "Block":
        """The block {-x mod v : x in this block}: reversing the bits maps
        i to v-1-i, and one more rotation maps that to v-i."""
        m, v = self.mask, self.v
        return Block(v, rotations(int(bit_text(m, v), 2), v, [1])[0])

    def difference_counts(self, residues: Iterable[int]) -> list[int]:
        """For each c in residues, the number of ordered member pairs (a, b)
        with a - b = c (mod v): the popcount of mask AND mask rotated by c."""
        m, v = self.mask, self.v
        return [(m & y).bit_count() for y in rotations(m, v, [c % v for c in residues])]


@dataclass(frozen=True)
class ParameterSet:
    """An SDS parameter set (v; k_1..k_t; lambda) with derived order n.

    Construction checks the counting identity
    lambda * (v-1) = sum k_i (k_i - 1).
    """

    v: int
    sizes: tuple[int, ...]
    lam: int

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(self.sizes))
        if self.v < 3:
            raise ValueError("v must be >= 3")
        if any(k < 0 or k > self.v for k in self.sizes):
            raise ValueError("block sizes must lie in 0..v")
        if self.lam * (self.v - 1) != sum(k * (k - 1) for k in self.sizes):
            raise ValueError(
                f"lambda={self.lam} violates the counting identity for "
                f"v={self.v}, sizes={self.sizes}"
            )

    @property
    def n(self) -> int:
        """Order: sum of block sizes minus lambda."""
        return sum(self.sizes) - self.lam

    @property
    def in_P(self) -> bool:
        """Membership in the normalized 3-block family with prime
        v = 3 (mod 4) and n = (3v-1)/4."""
        if len(self.sizes) != 3:
            return False
        if self.v % 4 != 3 or not zmod.is_prime(self.v):
            return False
        k1, k2, k3 = self.sizes
        if not (2 * k1 < self.v and k1 >= k2 >= k3 >= 0):
            return False
        return 4 * self.lam == 4 * (k1 + k2 + k3) - (3 * self.v - 1)

    def __str__(self) -> str:
        ks = ",".join(str(k) for k in self.sizes)
        return f"({self.v};{ks};{self.lam})"


@dataclass(frozen=True)
class DifferenceFamily:
    """An ordered list of blocks over a common modulus."""

    v: int
    blocks: tuple[Block, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        for b in self.blocks:
            if b.v != self.v:
                raise ValueError("all blocks must share the family modulus")

    @classmethod
    def from_sets(cls, v: int, sets: Iterable[Iterable[int]]) -> "DifferenceFamily":
        return cls(v, tuple(Block.from_iterable(v, s) for s in sets))

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(b.size for b in self.blocks)

    def member_lists(self) -> tuple[tuple[int, ...], ...]:
        return tuple(b.members() for b in self.blocks)


def difference_counts(f: DifferenceFamily) -> list[int]:
    """Count, for each c in 1..v-1, the ordered pairs (a, b) within a block
    with a - b = c (mod v), summed over blocks.

    Returns a list indexed by c; index 0 is unused and left at 0.
    """
    counts = [0] * f.v
    for b in f.blocks:
        for c, n in enumerate(b.difference_counts(range(1, f.v)), start=1):
            counts[c] += n
    return counts


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    lam: int
    histogram: tuple[int, ...]
    worst_deviation: int

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        bad = [c for c, n in enumerate(self.histogram) if c and n != self.lam]
        return (
            f"worst deviation {self.worst_deviation}; {len(bad)} residues "
            f"off lambda, first {bad[:5]}"
        )


def verify_sds(f: DifferenceFamily, lam: int) -> VerifyReport:
    """Check that every nonzero residue occurs exactly lam times as a
    within-block difference.  The report carries the full histogram."""
    counts = difference_counts(f)
    worst = max((abs(counts[c] - lam) for c in range(1, f.v)), default=0)
    return VerifyReport(
        ok=worst == 0, lam=lam, histogram=tuple(counts), worst_deviation=worst
    )


def derive_lambda(v: int, sizes: Iterable[int]) -> Optional[int]:
    """lambda from the counting identity, or None when non-integral or
    v < 2 (where the identity does not fix lambda)."""
    total = sum(k * (k - 1) for k in sizes)
    if v < 2 or total % (v - 1):
        return None
    return total // (v - 1)


def enumerate_P(v: int) -> list[ParameterSet]:
    """All normalized 3-block parameter sets for prime v = 3 (mod 4).

    Every decomposition 4v-1 = s1^2 + s2^2 + s3^2 into positive odd
    squares yields sizes k_i = (v - s_i)/2; output is deduplicated and
    sorted descending by (k1, k2, k3).
    """
    if not zmod.is_prime(v):
        raise ValueError(f"v={v} is not prime")
    if v % 4 != 3:
        raise ValueError(f"v={v} is not 3 mod 4")
    target = 4 * v - 1
    found = set()
    s1 = 1
    while s1 * s1 <= target:
        s2 = 1
        while s2 <= s1 and s1 * s1 + s2 * s2 < target:
            rest = target - s1 * s1 - s2 * s2
            s3 = math.isqrt(rest)
            if s3 * s3 == rest and s3 % 2 == 1 and s3 <= s2:
                ks = tuple(sorted(((v - s) // 2 for s in (s1, s2, s3)), reverse=True))
                found.add(ks)
            s2 += 2
        s1 += 2
    out = []
    for ks in sorted(found, reverse=True):
        lam = sum(ks) - (3 * v - 1) // 4
        out.append(ParameterSet(v, ks, lam))
    return out


def is_skew(b: Block) -> bool:
    """True iff 0 is absent and exactly one of {i, v-i} is present for
    every i in 1..v-1."""
    return 0 not in b and b.mask ^ b.negate().mask == (1 << b.v) - 2


def is_symmetric(b: Block) -> bool:
    """True iff the block equals its own negation mod v."""
    return b.mask == b.negate().mask


def complement_block(f: DifferenceFamily, i: int) -> tuple[DifferenceFamily, int]:
    """Replace block i (0-based) by its complement in Z_v.

    Returns the new family together with its lambda, recomputed from the
    counting identity.  The order n is unchanged.
    """
    if not 0 <= i < len(f.blocks):
        raise IndexError(f"block index {i} out of range")
    blocks = list(f.blocks)
    blocks[i] = blocks[i].complement()
    g = DifferenceFamily(f.v, tuple(blocks))
    lam = derive_lambda(f.v, g.sizes)
    if lam is None:
        raise ValueError("complemented family has non-integral lambda")
    return g, lam


def compose_with_paley_todd(f: DifferenceFamily) -> DifferenceFamily:
    """Prepend the Paley-Todd difference set (nonzero squares mod v) as a
    new first block.

    If the input verifies at lambda, the output verifies at
    lambda + (v-3)/4, raising the order by (v+1)/4.
    """
    qr = zmod.quadratic_residues(f.v)
    return DifferenceFamily(f.v, (qr,) + f.blocks)
