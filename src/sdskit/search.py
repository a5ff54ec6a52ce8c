"""Orbit-union search for difference families.

Blocks are built as unions of orbits of a prime-order subgroup H of Z_v^*,
which shrinks the search space from subsets of Z_v to subsets of orbit
representatives.  Each orbit is one bit mask and a block is the OR of its
orbits' masks.  A block is H-invariant, so its difference counts are
constant on each orbit: they are kept only at the (v-1)/q nonzero orbit
representatives, by sds.Block.difference_counts.  Two engines are provided:
exhaustive backtracking with count pruning for small orbit counts, and
randomized-restart local search with single-orbit swaps otherwise.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Sequence

from . import equivalence, sds, zmod
from .zmod import OrbitSystem

# At most this many nontrivial orbits before switching from exhaustive
# backtracking to local search.
EXHAUSTIVE_ORBIT_LIMIT = 24


class InfeasibleError(ValueError):
    """Raised when the orbit method cannot represent the target sizes."""

    def __init__(self, reasons: Sequence[str]):
        self.reasons = tuple(reasons)
        super().__init__("; ".join(reasons))


@dataclass(frozen=True)
class BlockPlan:
    """How one block decomposes into orbits: m nontrivial orbits plus
    optionally the zero orbit."""

    size: int
    orbit_count: int
    include_zero: bool


def feasibility(v: int, sizes: Sequence[int], q: int) -> list[BlockPlan]:
    """Per-block orbit counts for the q-orbit method.

    Each size k must satisfy q | k (plain union) or k = 1 (mod q) (union
    plus the zero orbit; equivalent to q | v-k since q | v-1).  Raises
    InfeasibleError listing every failing block.
    """
    if not zmod.is_prime(q):
        raise ValueError(f"q={q} is not prime")
    if (v - 1) % q != 0:
        raise ValueError(f"q={q} does not divide v-1={v - 1}")
    plans = []
    bad = []
    for i, k in enumerate(sizes):
        if k % q == 0:
            plans.append(BlockPlan(k, k // q, False))
        elif k % q == 1:
            plans.append(BlockPlan(k, (k - 1) // q, True))
        else:
            bad.append(
                f"block {i}: q={q} divides neither k={k} nor v-k={v - k}"
            )
    if bad:
        raise InfeasibleError(bad)
    return plans


@dataclass(frozen=True)
class OrbitSelection:
    """A family described by orbit representatives, one rep set per block."""

    orbsys: OrbitSystem
    reps_per_block: tuple[tuple[int, ...], ...]


def expand(sel: OrbitSelection) -> sds.DifferenceFamily:
    """Materialize an orbit selection into a difference family.

    Representatives may be arbitrary orbit members; naming the same orbit
    twice within a block is an error.
    """
    osys = sel.orbsys
    blocks = []
    for reps in sel.reps_per_block:
        seen = set()
        members: list[int] = []
        for r in reps:
            idx = osys.orbit_index_of(r)
            if idx in seen:
                raise ValueError(f"representative {r} duplicates an orbit")
            seen.add(idx)
            members.extend(osys.orbits[idx])
        blocks.append(sds.Block.from_iterable(osys.v, members))
    return sds.DifferenceFamily(osys.v, tuple(blocks))


def _orbit_masks(orbsys: OrbitSystem) -> list[int]:
    return [sds.Block.from_iterable(orbsys.v, orb).mask for orb in orbsys.orbits]


def _union(masks, block) -> int:
    mask = 0
    for o in block:
        mask |= masks[o]
    return mask


def _selection_from_indices(orbsys: OrbitSystem, blocks) -> OrbitSelection:
    reps = tuple(
        tuple(sorted(orbsys.orbits[i][0] for i in block)) for block in blocks
    )
    return OrbitSelection(orbsys, reps)


def _exhaustive(orbsys, plans, lam, budget, want, skew_pairs=None):
    """Backtracking over per-block orbit combinations, pruning any block
    choice that pushes a running count past lambda.

    If skew_pairs is given, block 0 instead picks one orientation per
    negation-paired orbit couple (the structural skew constraint).
    """
    v = orbsys.v
    reps = orbsys.reps[1:]
    masks = _orbit_masks(orbsys)
    free = range(1, len(masks))
    found = []
    nodes = 0

    def block_choices(bi):
        if skew_pairs is not None and bi == 0:
            return itertools.product(*skew_pairs)
        return itertools.combinations(free, plans[bi].orbit_count)

    def recurse(bi, partial, counts):
        nonlocal nodes
        if len(found) >= want or nodes >= budget:
            return
        if bi == len(plans):
            if all(c == lam for c in counts):
                found.append(partial)
            return
        base = [0] if plans[bi].include_zero else []
        for combo in block_choices(bi):
            nodes += 1
            if nodes >= budget:
                return
            block = base + list(combo)
            added = sds.Block(v, _union(masks, block)).difference_counts(reps)
            total = [c + d for c, d in zip(counts, added)]
            if max(total) <= lam:
                recurse(bi + 1, partial + [block], total)
            if len(found) >= want:
                return

    recurse(0, [], [0] * len(reps))
    return found


def _local_search(orbsys, plans, lam, budget, want, rng, skew_pairs=None):
    """Randomized restarts + steepest single-orbit swap descent on the sum
    of squared deviations of the difference counts from lambda.

    A move replaces one orbit of one block; in the skew block 0 it swaps
    an orbit for its negation.  Its cost is the family total with the old
    block's counts taken out and the new block's put in.
    """
    v = orbsys.v
    reps = orbsys.reps[1:]
    masks = _orbit_masks(orbsys)
    free = list(range(1, len(masks)))
    found = []
    seen_keys = set()
    evals = 0

    def random_state():
        blocks = []
        if skew_pairs is not None:
            blocks.append([rng.choice(pair) for pair in skew_pairs])
        start = 1 if skew_pairs is not None else 0
        for plan in plans[start:]:
            base = [0] if plan.include_zero else []
            blocks.append(base + rng.sample(free, plan.orbit_count))
        return blocks

    def counts_of(mask):
        return sds.Block(v, mask).difference_counts(reps)

    while evals < budget and len(found) < want:
        blocks = random_state()
        block_masks = [_union(masks, b) for b in blocks]
        block_counts = [counts_of(m) for m in block_masks]
        total = [sum(col) for col in zip(*block_counts)]
        cost = sum((t - lam) ** 2 for t in total)
        sideways = 0
        while evals < budget:
            if cost == 0:
                key = tuple(tuple(sorted(b)) for b in blocks)
                if key not in seen_keys:
                    seen_keys.add(key)
                    found.append([list(b) for b in blocks])
                break
            best = None
            moves = []
            for bi, block in enumerate(blocks):
                in_block = set(block)
                if skew_pairs is not None and bi == 0:
                    # block 0 holds one orbit of each pair: flip one pair
                    for a, b in skew_pairs:
                        moves.append((bi, a, b) if a in in_block else (bi, b, a))
                    continue
                for o_out in block:
                    if o_out == 0:
                        continue
                    for o_in in free:
                        if o_in not in in_block:
                            moves.append((bi, o_out, o_in))
            rng.shuffle(moves)
            for bi, o_out, o_in in moves:
                evals += 1
                new = counts_of(block_masks[bi] ^ masks[o_out] ^ masks[o_in])
                c = sum(
                    (t - old + n - lam) ** 2
                    for t, old, n in zip(total, block_counts[bi], new)
                )
                if best is None or c < best[0]:
                    best = (c, bi, o_out, o_in, new)
                if evals >= budget:
                    break
            if best is None:
                break
            c, bi, o_out, o_in, new = best
            if c > cost or (c == cost and sideways >= 10):
                break  # local optimum; restart
            if c == cost:
                sideways += 1
            else:
                sideways = 0
            total = [t - old + n for t, old, n in zip(total, block_counts[bi], new)]
            block_counts[bi] = new
            block_masks[bi] ^= masks[o_out] ^ masks[o_in]
            blocks[bi].remove(o_out)
            blocks[bi].append(o_in)
            cost = c
    return found


def _dedup_and_sort(orbsys, raw_blocks_list):
    out = {}
    for blocks in raw_blocks_list:
        sel = _selection_from_indices(orbsys, blocks)
        form = equivalence.canonical_form(expand(sel))
        out.setdefault(form.blocks, sel)
    return [out[k] for k in sorted(out)]


def _run(orbsys, plans, lam, budget, seed, workers, want, skew_pairs=None):
    if len(orbsys.orbits) - 1 <= EXHAUSTIVE_ORBIT_LIMIT:
        raw = _exhaustive(orbsys, plans, lam, budget, want, skew_pairs)
    else:
        raw = []
        per_worker = max(1, budget // max(1, workers))
        for w in range(max(1, workers)):
            rng = random.Random(f"{seed}:{w}")
            raw.extend(
                _local_search(orbsys, plans, lam, per_worker, want, rng, skew_pairs)
            )
    return _dedup_and_sort(orbsys, raw)


def search_sds(
    p: sds.ParameterSet,
    q: int,
    budget: int = 1_000_000,
    seed: int = 0,
    workers: int = 1,
    want: int = 1,
) -> list[OrbitSelection]:
    """Find difference families with parameters p as unions of q-orbits.

    Every returned selection expands to a family passing verify_sds at
    p.lam.  Deterministic for fixed (seed, workers); an empty result only
    means the budget was exhausted, not nonexistence.  The local engine
    splits its budget into `workers` seeded streams that run one after
    another; the exhaustive engine ignores both `workers` and `seed`.
    """
    plans = feasibility(p.v, p.sizes, q)
    orbsys = zmod.orbit_system(p.v, zmod.element_of_order(p.v, q))
    sels = _run(orbsys, plans, p.lam, budget, seed, workers, want)
    for sel in sels:
        if not verify_selection(sel, p.lam):
            raise RuntimeError(
                f"search returned {sel.reps_per_block}, which fails to verify"
            )
    return sels


def negation_pairs(orbsys: OrbitSystem) -> list[tuple[int, int]]:
    """Pair up nontrivial orbits with their negations (q odd, so -1 is not
    in the subgroup and the pairing is perfect)."""
    pairs = []
    done = set()
    for i in range(1, len(orbsys.orbits)):
        if i in done:
            continue
        j = orbsys.orbit_index_of(orbsys.v - orbsys.orbits[i][0])
        if j == i:
            raise ValueError("orbit is self-negating; subgroup order not odd?")
        done.add(i)
        done.add(j)
        pairs.append((i, j))
    return pairs


def search_skew_gs(
    v: int,
    sizes: Sequence[int],
    q: int,
    budget: int = 1_000_000,
    seed: int = 0,
    workers: int = 1,
    want: int = 1,
) -> list[OrbitSelection]:
    """Search for 4-block families of order v whose first block is skew.

    sizes = (k0, k1, k2, k3) with k0 = (v-1)/2; the skew constraint is
    structural: block 0 takes exactly one orbit from each negation pair.
    The result feeds directly into the Goethals-Seidel assembly.
    `workers` and `seed` act as in search_sds.
    """
    sizes = tuple(sizes)
    if len(sizes) != 4:
        raise ValueError("need exactly 4 block sizes")
    if sizes[0] != (v - 1) // 2 or v % 2 == 0:
        raise ValueError(f"k0={sizes[0]} must equal (v-1)/2")
    lam0 = sum(sizes) - v
    if sds.derive_lambda(v, sizes) != lam0:
        raise ValueError("sizes do not admit an order-v family")
    plans = feasibility(v, sizes, q)
    if plans[0].include_zero:
        raise ValueError("skew first block cannot contain 0")
    orbsys = zmod.orbit_system(v, zmod.element_of_order(v, q))
    pairs = negation_pairs(orbsys)
    if len(pairs) != plans[0].orbit_count:
        raise ValueError("first block must take one orbit from every pair")
    sels = _run(orbsys, plans, lam0, budget, seed, workers, want, skew_pairs=pairs)
    for sel in sels:
        fam = expand(sel)
        if not (sds.verify_sds(fam, lam0) and sds.is_skew(fam.blocks[0])):
            raise RuntimeError(
                f"search returned {sel.reps_per_block}, which is not a skew family"
            )
    return sels


def verify_selection(sel: OrbitSelection, lam: int) -> bool:
    return sds.verify_sds(expand(sel), lam).ok
