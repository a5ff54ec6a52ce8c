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

Let cand(m) be the sorted list of ranks of the blocks scaled by m.  For
prime v >= 3 it is evaluated at one multiplier per coset of the stabilizer
S = {h : cand(h) = cand(1)}, (v-1)/|S| of them, plus a few order tests.
This is exact: a key names a block's translation class and
m(B + t) = mB + mt, so cand(h) = cand(1) says h permutes the classes of
equal-size blocks, S is a subgroup, and cand(m h) = cand(m) for h in S.
Z_v^* is cyclic with a generator g, so S is generated by g^((v-1)/|S|);
|S| is found by testing g^((v-1)/p^e) for each prime power p^e dividing
v-1, and g^i for i < (v-1)/|S| meets every coset once.  A union of orbits
of an order-q subgroup has |S| >= q.  Composite v keeps the loop over
every unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import sds, zmod


@dataclass(frozen=True)
class CanonicalForm:
    v: int
    blocks: tuple[tuple[int, ...], ...]


def canonical_form(f: sds.DifferenceFamily) -> CanonicalForm:
    """Minimum over all multipliers, per-block translations, and equal-size
    block permutations.  Idempotent."""
    v = f.v
    member_lists = f.member_lists()

    def cand(m):
        return sorted(
            (-len(members), -sds.least_translate_key(v, [m * x % v for x in members]))
            for members in member_lists
        )

    if v < 3 or not zmod.is_prime(v):
        # every unit; m = v is a unit only at v = 1
        best = min(cand(m) for m in range(1, v + 1) if math.gcd(m, v) == 1)
    else:
        # one unit per coset of the stabilizer S (see the module docstring)
        n = v - 1
        g = zmod.primitive_root(v)
        base = cand(1)
        order = 1  # |S|
        for p in zmod.prime_divisors(n):
            pe = p
            while n % pe == 0 and cand(pow(g, n // pe, v)) == base:
                order *= p
                pe *= p
        best = min([base] + [cand(pow(g, i, v)) for i in range(1, n // order)])
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
