"""Canonical forms for difference families under the standard group action.

The group: one multiplier m in Z_v^* applied to all blocks, an independent
translation per block, and permutations of equal-size blocks.  Block
complementation is NOT part of the relation (it changes lambda).  The
canonical form is the lexicographically minimal representative: each block
as a sorted residue list, blocks ordered by (size descending, list).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import sds


def least_rotation(seq) -> int:
    """Index k such that seq[k:] + seq[:k] is the lexicographically minimal
    rotation (Booth's algorithm, O(n))."""
    n = len(seq)
    if n == 0:
        return 0
    s = list(seq) + list(seq)
    f = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k % n


def _min_translate(v: int, members: list[int]) -> tuple[int, ...]:
    """The lexicographically least translate of a sorted residue list.

    Comparing translates of an equal-size set is equivalent to comparing
    rotations of its circular gap sequence, so Booth applies with cost
    O(k) instead of O(v).
    """
    k = len(members)
    if k == 0:
        return ()
    if k == v:
        return tuple(range(v))
    gaps = [members[i + 1] - members[i] for i in range(k - 1)]
    gaps.append(v - members[-1] + members[0])
    r = least_rotation(gaps)
    out = [0] * k
    acc = 0
    for i in range(k - 1):
        acc += gaps[(r + i) % k]
        out[i + 1] = acc
    return tuple(out)


@dataclass(frozen=True)
class CanonicalForm:
    v: int
    blocks: tuple[tuple[int, ...], ...]


def canonical_form(f: sds.DifferenceFamily) -> CanonicalForm:
    """Minimum over all multipliers, per-block translations, and equal-size
    block permutations.  Idempotent."""
    v = f.v
    member_lists = [list(b.members()) for b in f.blocks]
    best = None
    for m in range(1, v):
        if v > 1 and math.gcd(m, v) != 1:
            continue
        cand = []
        for members in member_lists:
            scaled = sorted(m * x % v for x in members)
            cand.append(_min_translate(v, scaled))
        cand.sort(key=lambda t: (-len(t), t))
        key = tuple(cand)
        if best is None or key < best:
            best = key
    if best is None:  # no blocks or v too small to matter
        best = ()
    return CanonicalForm(v, best)


def are_equivalent(f1: sds.DifferenceFamily, f2: sds.DifferenceFamily) -> bool:
    """True iff the families have equal canonical forms.

    Mismatched moduli are an error; mismatched size multisets are simply
    non-equivalent.
    """
    if f1.v != f2.v:
        raise ValueError(f"modulus mismatch: {f1.v} vs {f2.v}")
    if sorted(f1.sizes) != sorted(f2.sizes):
        return False
    return canonical_form(f1) == canonical_form(f2)
