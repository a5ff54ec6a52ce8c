"""Arithmetic in Z_v for prime v: primality, unit orders, primitive roots,
subgroup orbits, and quadratic residues.  OrbitSystem owns the orbit data
that the corpus and the search share: orbit masks, negation pairs, and the
expansion of orbit representatives into a difference family."""

from __future__ import annotations

from dataclasses import dataclass, field

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10^24
# (covers 64-bit inputs unconditionally).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for n >= 0 (valid through 64 bits)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def element_of_order(v: int, q: int) -> int:
    """Return a unit of Z_v^* of multiplicative order exactly q (q prime,
    q | v-1).

    Deterministic: uses the smallest base g >= 2 with g^((v-1)/q) != 1 and
    returns h = g^((v-1)/q) mod v, so repeated calls agree.
    """
    if not is_prime(v):
        raise ValueError(f"v={v} is not prime")
    if not is_prime(q):
        raise ValueError(f"q={q} is not prime")
    if (v - 1) % q != 0:
        raise ValueError(f"q={q} does not divide v-1={v - 1}")
    e = (v - 1) // q
    for g in range(2, v):
        h = pow(g, e, v)
        if h != 1:
            return h
    raise AssertionError("unreachable for prime v")


def prime_divisors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return tuple(primes)


def primitive_root(v: int) -> int:
    """The least generator of the cyclic group Z_v^* (v prime): the least
    g whose order is v-1, i.e. g^((v-1)/p) != 1 for every prime p | v-1."""
    if not is_prime(v):
        raise ValueError(f"v={v} is not prime")
    primes = prime_divisors(v - 1)
    return next(
        g for g in range(1, v) if all(pow(g, (v - 1) // p, v) != 1 for p in primes)
    )


def multiplicative_order(v: int, x: int) -> int:
    """Order of x in Z_v^* by direct iteration (v prime, x a unit)."""
    if x % v == 0:
        raise ValueError("0 is not a unit")
    k = 1
    y = x % v
    while y != 1:
        y = y * x % v
        k += 1
    return k


@dataclass(frozen=True)
class OrbitSystem:
    """Partition of Z_v into orbits of the subgroup generated by h.

    h has prime order q, so the orbit of 0 is {0} and every other orbit
    has exactly q elements.  Orbits are sorted internally and listed in
    increasing order of their minimum element (the representative);
    index[x] is the number of x's orbit and masks[i] is orbit i's
    sds.Block mask.
    """

    v: int
    h: int
    q: int
    orbits: tuple[tuple[int, ...], ...]
    index: tuple[int, ...] = field(repr=False)
    masks: tuple[int, ...] = field(repr=False)

    @property
    def reps(self) -> tuple[int, ...]:
        return tuple(o[0] for o in self.orbits)

    def orbit_index_of(self, x: int) -> int:
        return self.index[x % self.v]

    def negation_pairs(self) -> list[tuple[int, int]]:
        """Each nontrivial orbit i paired with the orbit j of its negation,
        as (i, j) with i < j, in ascending i.  For odd q, -1 is not in the
        subgroup and the pairing is perfect; even q is a ValueError."""
        if self.q % 2 == 0:
            raise ValueError(f"q={self.q} is even: every orbit is self-negating")
        neg = [self.orbit_index_of(-o[0]) for o in self.orbits]
        return [(i, j) for i, j in enumerate(neg) if 0 < i < j]

    def family(self, reps_per_block):
        """The difference family whose block i is the union of the orbits
        named by reps_per_block[i].  A rep may be any member of its orbit;
        naming one orbit twice within a block is a ValueError."""
        from . import sds

        blocks = []
        for reps in reps_per_block:
            taken = {self.orbit_index_of(r) for r in reps}
            if len(taken) < len(reps):
                raise ValueError(f"representatives {reps} repeat an orbit")
            blocks.append(sds.Block(self.v, sum(self.masks[i] for i in taken)))
        return sds.DifferenceFamily(self.v, blocks)


def orbit_system(v: int, h: int) -> OrbitSystem:
    """Build the full orbit partition of Z_v under the subgroup <h>.

    h must have prime order in Z_v^*.
    """
    from . import sds

    if not is_prime(v):
        raise ValueError(f"v={v} is not prime")
    h %= v
    q = multiplicative_order(v, h)
    if not is_prime(q):
        raise ValueError(f"order of h={h} is {q}, not prime")
    index = [None] * v
    orbits: list[tuple[int, ...]] = []
    for j in range(v):  # j is the least member of each new orbit
        if index[j] is not None:
            continue
        orb = []
        x = j
        while index[x] is None:
            index[x] = len(orbits)
            orb.append(x)
            x = x * h % v
        orbits.append(tuple(sorted(orb)))
    masks = tuple(sds.Block.from_iterable(v, orb).mask for orb in orbits)
    return OrbitSystem(v, h, q, tuple(orbits), tuple(index), masks)


def quadratic_residues(v: int):
    """The Paley-Todd difference set: nonzero squares mod v, for prime
    v = 3 (mod 4).  Returned as a Block; always of skew type."""
    from . import sds

    if not is_prime(v):
        raise ValueError(f"v={v} is not prime")
    if v % 4 != 3:
        raise ValueError(f"v={v} is not 3 mod 4 (result would not be skew)")
    return sds.Block.from_iterable(v, (x * x % v for x in range(1, v)))
