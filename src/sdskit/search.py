"""Orbit-union search for difference families.

Blocks are built as unions of orbits of a prime-order subgroup H of Z_v^*,
which shrinks the search space from subsets of Z_v to subsets of orbit
representatives.  zmod.OrbitSystem owns the orbit data: one sds.Block
mask per orbit (a block is the sum of its disjoint orbits' masks), the
negation pairs, and the expansion of representatives into a family.  A
block is H-invariant, so its difference counts are constant on each orbit:
they are kept only at the (v-1)/q nonzero orbit representatives, by
sds.Block.difference_counts.  Each block reaches the engines as a spec
(fixed, groups) of masks: it holds the mask fixed and exactly m items of
each (items, m) in groups, where an item is the mask of one orbit or of a
set of orbits taken together.  Two engines are provided: exhaustive
backtracking with count pruning for small orbit counts, and
randomized-restart local search with single-item swaps otherwise.  Both
see only masks; _run turns their results back into OrbitSelections.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from . import equivalence, sds, zmod

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
            plans.append(BlockPlan(k // q, False))
        elif k % q == 1:
            plans.append(BlockPlan((k - 1) // q, True))
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

    orbsys: zmod.OrbitSystem
    reps_per_block: tuple[tuple[int, ...], ...]


def _choices(fixed, groups):
    """Every block mask the spec (fixed, groups) allows, lazily, in
    itertools.product order over the groups' combinations."""
    (items, m), rest = groups[0], groups[1:]
    heads = map(fixed.__add__, map(sum, itertools.combinations(items, m)))
    if not rest:
        return heads
    return itertools.chain.from_iterable(_choices(h, rest) for h in heads)


def _exhaustive(v, reps, specs, lam, budget, want):
    """Backtracking over per-block choices, pruning any block choice that
    pushes a running count past lambda; each choice evaluated is one unit
    of the budget."""
    found = []
    nodes = 0

    def recurse(bi, partial, counts):
        nonlocal nodes
        if len(found) >= want:
            return
        if bi == len(specs):
            if all(c == lam for c in counts):
                found.append(partial)
            return
        for mask in _choices(*specs[bi]):
            if nodes >= budget:
                return
            nodes += 1
            added = sds.Block(v, mask).difference_counts(reps)
            total = [c + d for c, d in zip(counts, added)]
            if max(total) <= lam:
                recurse(bi + 1, partial + [mask], total)
            if len(found) >= want:
                return

    recurse(0, [], [0] * len(reps))
    return found


def _local_search(v, reps, specs, lam, budget, want, rng):
    """Randomized restarts + steepest single-item swap descent on the sum
    of squared deviations of the difference counts from lambda.

    A move swaps one item a block took from a group for an item of the
    same group that the block lacks, and is one unit of the budget.  Its
    cost is the family total with the old block's counts taken out and the
    new block's put in.  A restart's initial counts are not charged.
    """
    found = []
    evals = 0

    def counts_of(mask):
        return sds.Block(v, mask).difference_counts(reps)

    while evals < budget and len(found) < want:
        # picks[bi][gi] lists the items block bi holds from its group gi
        picks = [[rng.sample(g, m) for g, m in groups] for _, groups in specs]
        block_masks = [
            fixed + sum(map(sum, pick)) for (fixed, _), pick in zip(specs, picks)
        ]
        block_counts = [counts_of(m) for m in block_masks]
        total = [sum(col) for col in zip(*block_counts)]
        cost = sum((t - lam) ** 2 for t in total)
        sideways = 0
        while evals < budget:
            if cost == 0:
                if tuple(block_masks) not in found:
                    found.append(tuple(block_masks))
                break
            best = None
            moves = []
            for bi, pick in enumerate(picks):
                for (g, _), chosen in zip(specs[bi][1], pick):
                    held = set(chosen)
                    for o_out in chosen:
                        for o_in in g:
                            if o_in not in held:
                                moves.append((bi, chosen, o_out, o_in))
            rng.shuffle(moves)
            for bi, chosen, o_out, o_in in moves:
                evals += 1
                new = counts_of(block_masks[bi] ^ o_out ^ o_in)
                c = sum(
                    (t - old + n - lam) ** 2
                    for t, old, n in zip(total, block_counts[bi], new)
                )
                if best is None or c < best[0]:
                    best = (c, bi, chosen, o_out, o_in, new)
                if evals >= budget:
                    break
            if best is None:
                break
            c, bi, chosen, o_out, o_in, new = best
            if c > cost or (c == cost and sideways >= 10):
                break  # local optimum; restart
            if c == cost:
                sideways += 1
            else:
                sideways = 0
            total = [t - old + n for t, old, n in zip(total, block_counts[bi], new)]
            block_counts[bi] = new
            block_masks[bi] ^= o_out ^ o_in
            chosen.remove(o_out)
            chosen.append(o_in)
            cost = c
    return found


def _run(orbsys, specs, lam, budget, seed, workers, want):
    """Run one engine on the block specs; merge results by canonical form.

    A spec's fixed part and items are masks: a free block's spec is
    (zero-orbit mask or 0, [(every nontrivial orbit's mask, m)]); the skew
    block's is (0, [([mask of o, mask of -o], 1) for each negation pair]).
    The local engine splits the budget over min(workers, budget) seeded
    streams.  Each block's representatives are read back from its mask.
    """
    v, reps = orbsys.v, orbsys.reps[1:]
    if len(reps) <= EXHAUSTIVE_ORBIT_LIMIT:
        raw = _exhaustive(v, reps, specs, lam, budget, want)
    else:
        raw = []
        streams = min(workers, budget)
        per_stream = budget // streams
        for w in range(streams):
            rng = random.Random(f"{seed}:{w}")
            raw += _local_search(v, reps, specs, lam, per_stream, want, rng)
    out = {}
    for masks in raw:
        blocks = tuple(sds.Block(v, m) for m in masks)
        form = equivalence.canonical_form(sds.DifferenceFamily(v, blocks))
        out.setdefault(form.blocks, blocks)
    return [
        OrbitSelection(
            orbsys, tuple(tuple(r for r in orbsys.reps if r in b) for b in out[k])
        )
        for k in sorted(out)
    ]


def _plan(v, sizes, lam, q, budget, workers, want, skew):
    """The checks and block specs behind plan_sds and, with skew,
    plan_skew_gs; returns the search as a function of the seed."""
    for name, count in (("budget", budget), ("workers", workers), ("want", want)):
        if count < 1:
            raise ValueError(f"{name} must be at least 1, not {count}")
    plans = feasibility(v, sizes, q)
    if skew and plans[0].include_zero:
        raise ValueError("skew first block cannot contain 0")
    orbsys = zmod.orbit_system(v, zmod.element_of_order(v, q))
    masks = orbsys.masks
    specs = [
        (masks[0] if plan.include_zero else 0, [(masks[1:], plan.orbit_count)])
        for plan in plans
    ]
    if skew:
        specs[0] = (0, [([masks[i], masks[j]], 1) for i, j in orbsys.negation_pairs()])

    def run(seed):
        sels = _run(orbsys, specs, lam, budget, seed, workers, want)
        for sel in sels:
            fam = orbsys.family(sel.reps_per_block)
            if not sds.verify_sds(fam, lam) or (skew and not sds.is_skew(fam.blocks[0])):
                raise RuntimeError(
                    f"search returned {sel.reps_per_block}, which fails to verify"
                )
        return sels

    return run


def plan_sds(
    p: sds.ParameterSet, q: int, budget: int = 1_000_000, workers: int = 1,
    want: int = 1,
) -> Callable[[int], list[OrbitSelection]]:
    """search_sds up to the search: it raises on all input that search_sds
    rejects, and plan_sds(p, q, budget, workers, want)(seed) is search_sds."""
    return _plan(p.v, p.sizes, p.lam, q, budget, workers, want, False)


def search_sds(
    p: sds.ParameterSet, q: int, budget: int = 1_000_000, seed: int = 0,
    workers: int = 1, want: int = 1,
) -> list[OrbitSelection]:
    """Find difference families with parameters p as unions of q-orbits.

    Every returned selection expands to a family passing verify_sds at
    p.lam.  Deterministic for fixed (seed, workers); an empty result only
    means the budget was exhausted, not nonexistence.  One unit of
    `budget` is one block choice evaluated by the exhaustive engine, or one
    move evaluated by the local engine; a local restart's initial counts
    (one per block) are not charged.  The local engine splits its budget
    over min(workers, budget) seeded streams run one after another; the
    exhaustive engine ignores `workers` and `seed`.  A budget, workers or
    want below 1 is a ValueError.
    """
    return plan_sds(p, q, budget, workers, want)(seed)


def plan_skew_gs(
    v: int, sizes: Sequence[int], q: int, budget: int = 1_000_000, workers: int = 1,
    want: int = 1,
) -> Callable[[int], list[OrbitSelection]]:
    """search_skew_gs up to the search, as plan_sds is to search_sds."""
    sizes = tuple(sizes)
    if len(sizes) != 4:
        raise ValueError("need exactly 4 block sizes")
    if sizes[0] != (v - 1) // 2 or v % 2 == 0:
        raise ValueError(f"k0={sizes[0]} must equal (v-1)/2")
    lam0 = sum(sizes) - v
    if sds.derive_lambda(v, sizes) != lam0:
        raise ValueError("sizes do not admit an order-v family")
    return _plan(v, sizes, lam0, q, budget, workers, want, True)


def search_skew_gs(
    v: int, sizes: Sequence[int], q: int, budget: int = 1_000_000, seed: int = 0,
    workers: int = 1, want: int = 1,
) -> list[OrbitSelection]:
    """Search for 4-block families of order v whose first block is skew.

    sizes = (k0, k1, k2, k3) with k0 = (v-1)/2; the skew constraint is
    structural: block 0 takes exactly one orbit from each negation pair.
    The result feeds directly into the Goethals-Seidel assembly.
    `budget`, `workers`, `want` and `seed` act as in search_sds.
    """
    return plan_skew_gs(v, sizes, q, budget, workers, want)(seed)
