"""Canonical forms for difference families under the standard group action.

The group: one multiplier m in Z_v^* applied to all blocks, an independent
translation per block, and permutations of equal-size blocks.  Block
complementation is NOT part of the relation (it changes lambda).  The
canonical form is the lexicographically minimal representative: each block
as a sorted residue list, blocks ordered by (size descending, list).

Blocks are compared by integer keys from sds.least_translate_key: among
sets of one size, a smaller sorted list is a larger key, so each candidate
block is ranked by (-size, -key).  Only the winning keys are turned back
into residue lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import sds


@dataclass(frozen=True)
class CanonicalForm:
    v: int
    blocks: tuple[tuple[int, ...], ...]


def canonical_form(f: sds.DifferenceFamily) -> CanonicalForm:
    """Minimum over all multipliers, per-block translations, and equal-size
    block permutations.  Idempotent."""
    v = f.v
    member_lists = f.member_lists()
    best = []
    for m in range(1, v + 1):  # m = v is a unit only at v = 1
        if math.gcd(m, v) != 1:
            continue
        cand = sorted(
            (-len(members), -sds.least_translate_key(v, [m * x % v for x in members]))
            for members in member_lists
        )
        if m == 1 or cand < best:
            best = cand
    return CanonicalForm(v, tuple(sds.key_members(v, -key) for _, key in best))


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
