"""The four benchmark workloads.

Each workload class turns (seed, corpus) into a fixed list of items before any
timing starts.  An item is one call into sdskit; its outcome (the value
returned, or the exception raised) is judged after the pass, outside the
timed region, by the independent oracle in ``reference``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass
from typing import Callable, Optional

import reference as ref

# Search targets: (kind, v, sizes, q, budget, engine).  The first four are
# solved well inside their budget; the rest stop at it.  Budgets are
# nodes (exhaustive) or move evaluations (local search).
SEARCH_TARGETS = (
    ("sds", 19, (9, 7, 6), 3, 100_000, "exhaustive"),
    ("sds", 31, (15, 15, 10), 3, 100_000, "exhaustive"),
    ("gs", 19, (9, 9, 7, 6), 3, 100_000, "exhaustive"),
    ("gs", 43, (21, 21, 21, 15), 7, 100_000, "exhaustive"),
    ("sds", 43, (21, 21, 15), 3, 3_000, "exhaustive"),
    ("sds", 71, (31, 31, 30), 5, 1_000, "exhaustive"),
    ("sds", 103, (49, 49, 42), 3, 400, "local"),
    ("sds", 131, (65, 61, 55), 5, 400, "local"),
    ("gs", 79, (39, 37, 34, 33), 3, 800, "local"),
)

GS956 = tuple(f"gs956-family{i}" for i in (1, 2, 3))
GS1324 = tuple(f"gs1324-family{i}" for i in range(1, 7))


@dataclass
class Item:
    kind: str
    label: str
    call: Callable[[], object]
    engine: Optional[str] = None
    budget: int = 0


def quiet(fn, *args):
    """Call fn with stdout and stderr captured (CLI calls print)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return fn(*args)


class Workload:
    """Items plus the checks that judge their outcomes."""

    items: list
    PROBE = "bits"  # the reference.speed_probe kind that times are scaled by

    def check_pass(self, outcomes) -> list:
        """One bool per item: did it give the required outcome?"""
        raise NotImplementedError

    def solved(self, outcomes, oks) -> int:
        return sum(oks)

    def check_run(self) -> list:
        """Problems found by checks made once per run."""
        return []

    def notes(self) -> list:
        """Seed defects the workload steps round, still present in this run."""
        return []


def _verified(entries):
    return [e for e in entries if e.status == "verified"]


def _members(entry):
    return [list(b.members()) for b in entry.family.blocks]


def _skew_gs_blocks(entry):
    """The 4-block skew-GS family of a gs956 (Paley-Todd first) or gs1324
    entry, as member lists, checked by the oracle."""
    v = entry.params.v
    blocks = _members(entry)
    if entry.id.startswith("gs956"):
        blocks = [list(ref.quadratic_residues(v))] + blocks
    if not ref.is_skew_gs_family(v, blocks):
        raise RuntimeError(f"{entry.id}: corpus family fails the oracle")
    return blocks


def _move_member(rng, v, blocks, bi):
    """A copy of blocks with one member of block bi moved to a non-member."""
    block = blocks[bi]
    outside = sorted(set(range(v)) - set(block))
    moved = [list(b) for b in blocks]
    moved[bi] = sorted(set(block) - {rng.choice(block)} | {rng.choice(outside)})
    return moved


class Certify(Workload):
    """The deliverable through the CLI: write and certify the order-956 and
    order-1324 matrices, verify every stored family, reproduce table 1.

    The short verify calls are spread between the long hadamard calls, so
    their times sample the whole pass rather than one moment of it.
    """

    def __init__(self, rng, mods, entries, work):
        cli = mods["cli"]
        self.outputs = {}  # item index -> (path, order)
        self.certified = set()  # digests of files the oracle accepted
        hadamards = []
        for eid in GS956 + GS1324:
            path = work / f"{eid}.txt"
            path.unlink(missing_ok=True)
            argv = ["hadamard", "--id", eid, "--out", str(path)]
            if eid in GS956:
                argv.insert(3, "--paley-todd")
            order = 956 if eid in GS956 else 1324
            item = Item("hadamard", eid, lambda a=argv: quiet(cli.main, a))
            hadamards.append((item, path, order))
        # cmd_verify resolves a compose target only among the ids it is
        # given, so a compose entry is verified with its target named first.
        # Verified alone it exits 3; notes() says whether it still does.
        verifies = []
        self.compose_alone = None
        for e in _verified(entries):
            argv = ["verify", "--id", e.id]
            if e.compose is not None:
                argv[1:1] = ["--id", e.compose]
                self.compose_alone = ["verify", "--id", e.id]
            verifies.append(Item("verify", e.id, lambda a=argv: quiet(cli.main, a)))
        self.cli = cli
        self.items = []
        per = -(-len(verifies) // len(hadamards))
        for k, (item, path, order) in enumerate(hadamards):
            self.outputs[len(self.items)] = (path, order)
            self.items.append(item)
            self.items.extend(verifies[k * per : (k + 1) * per])
        self.items.append(Item("table1", "table1", lambda: quiet(cli.main, ["table1"])))

    def _file_ok(self, path, n):
        try:
            data = path.read_bytes()
        except OSError:
            return False
        digest = hashlib.sha256(data).digest()
        if digest not in self.certified:
            text = data.decode("ascii", errors="replace")
            if not ref.is_skew_hadamard_file(text, n):
                return False
            self.certified.add(digest)
        return True

    def notes(self):
        if self.compose_alone is None:
            return []
        code = quiet(self.cli.main, self.compose_alone)
        if code == 0:
            return []
        return [f"KNOWN_DEFECT: sdskit {' '.join(self.compose_alone)} exits {code}"]

    def check_pass(self, outcomes):
        oks = [out == 0 for out in outcomes]
        for i, (path, n) in self.outputs.items():
            oks[i] = oks[i] and self._file_ok(path, n)
            path.unlink(missing_ok=True)  # no later pass may be credited with it
        return oks


class Reject(Workload):
    """Near misses of the certificates, each of which must be rejected.

    is_skew_hadamard scans row pairs in order and stops at the first bad
    one, so a flip costs in proportion to the rows scanned before it.  The
    seed draws where each flip lands, but its detection row is fixed at
    DEPTHS of the order, so a pass costs the same whatever the seed and
    its item-time quantiles fall inside clusters of like items.  Each GS
    family gives 12 distinct items, 108 in all.  They run in a seeded
    order, so each cluster samples the whole pass.
    """

    DEPTHS = tuple((2 * k + 1) / 14 for k in range(7))

    def __init__(self, rng, mods, entries, work):
        hadamard, sds, cli = mods["hadamard"], mods["sds"], mods["cli"]
        fams = _verified(entries)
        gs = [
            (e.id, e.params.v, _skew_gs_blocks(e))
            for e in fams
            if e.id.startswith("gs")
        ]
        self.items = []
        self.expect = []

        def matrix_item(kind, eid, n, rows, r, c):
            rows = list(rows)
            rows[r] ^= 1 << c
            if kind == "symflip":
                rows[c] ^= 1 << r
            m = hadamard.SignMatrix(n, tuple(rows))
            call = lambda: hadamard.is_skew_hadamard(m)
            self.items.append(Item(kind, f"{kind}:{eid}:{r},{c}", call))
            self.expect.append(lambda out: out is False)

        # One flip per depth and one skew-keeping flip in each matrix.
        for eid, v, blocks in gs:
            n = 4 * v
            rows = ref.rows_to_ints(ref.goethals_seidel_rows(v, blocks))
            for depth in self.DEPTHS:
                d = int(depth * n)
                other = rng.randrange(d, n)  # other == d flips the diagonal
                r, c = (d, other) if rng.random() < 0.5 else (other, d)
                matrix_item("flip", eid, n, rows, r, c)
            matrix_item("symflip", eid, n, rows, *rng.sample(range(n), 2))

        # Two moved members in each GS family, cycling through its blocks.
        for k, (eid, v, blocks) in enumerate(gs):
            for bi in (k % 4, (k + 2) % 4):
                moved = _move_member(rng, v, blocks, bi)
                while ref.is_skew_gs_family(v, moved):
                    moved = _move_member(rng, v, blocks, bi)
                args = [sds.Block.from_iterable(v, b) for b in moved]
                self.items.append(
                    Item("moved", f"moved:{eid}:{bi}",
                         lambda v=v, a=args: hadamard.build_skew_hadamard(v, *a))
                )
                self.expect.append(lambda out: isinstance(out, hadamard.BuildError))

        # Corpus files holding one stored family with a member moved.
        for k in range(2 * len(gs)):
            while True:
                e = rng.choice(fams)
                v, lam, blocks = e.params.v, e.params.lam, _members(e)
                bi = rng.choice([i for i, b in enumerate(blocks) if 0 < len(b) < v])
                moved = _move_member(rng, v, blocks, bi)
                if not ref.is_sds(v, moved, lam):
                    break
            path = work / f"corrupt-{k}.txt"
            ks = ",".join(str(len(b)) for b in moved)
            lines = [f"entry near-miss-{k}", f"params v={v} k={ks} lambda={lam}",
                     "status verified", f"provenance {e.id} with one member moved"]
            lines += [("block " + " ".join(map(str, b))).rstrip() for b in moved]
            path.write_text("\n".join(lines + ["end", ""]), encoding="ascii")
            argv = ["verify", "--file", str(path)]
            call = lambda a=argv: quiet(cli.main, a)
            self.items.append(Item("corrupt", f"corrupt:{e.id}:{k}", call))
            self.expect.append(lambda out: out == 3)

        paired = list(zip(self.items, self.expect))
        rng.shuffle(paired)
        self.items, self.expect = map(list, zip(*paired))

    def check_pass(self, outcomes):
        return [want(out) for want, out in zip(self.expect, outcomes)]


class Classify(Workload):
    """Random group transforms of every verified family must canonicalize
    to the form of the untransformed family.

    Items run in a seeded random order, so the many short small-v items
    sample the whole pass rather than one moment of it.
    """

    TRANSFORMS = 2
    PROBE = "sort"

    def __init__(self, rng, mods, entries, work):
        sds, self.equivalence = mods["sds"], mods["equivalence"]
        self.families = {}
        tagged = []  # (entry, variant number, item); variant 0 is as stored
        # Every verified family is one of the GS families or has v <= 131.
        for e in _verified(entries):
            v = e.params.v
            base = _members(e)
            if not ref.is_sds(v, base, e.params.lam):
                raise RuntimeError(f"{e.id}: corpus family fails the oracle")
            variants = [base]
            variants += [self._transform(rng, v, base) for _ in range(self.TRANSFORMS)]
            for t, sets in enumerate(variants):
                fam = sds.DifferenceFamily.from_sets(v, sets)
                if t == 0:
                    self.families[e.id] = fam
                item = Item("form", f"{e.id}:{t}",
                            lambda f=fam: self.equivalence.canonical_form(f))
                tagged.append((e, t, item))
        rng.shuffle(tagged)
        self.items = [item for _, _, item in tagged]
        groups = {}  # entry id -> (entry, item indices), variant 0 first
        for i, (e, t, _) in sorted(enumerate(tagged), key=lambda x: x[1][1]):
            groups.setdefault(e.id, (e, []))[1].append(i)
        self.groups = list(groups.values())
        self.forms = {}  # entry id -> canonical blocks seen in the first pass

    @staticmethod
    def _transform(rng, v, blocks):
        """A multiplier, a translation per block, equal-size blocks shuffled."""
        m = rng.randrange(1, v)
        moved = []
        for b in blocks:
            t = rng.randrange(v)
            moved.append(sorted((m * x + t) % v for x in b))
        order = list(range(len(moved)))
        for size in {len(b) for b in moved}:
            same = [i for i in order if len(moved[i]) == size]
            shuffled = rng.sample(same, len(same))
            for i, j in zip(same, shuffled):
                order[i] = j
        return [moved[j] for j in order]

    def _form_ok(self, e, form):
        v = e.params.v
        blocks = [list(b) for b in form.blocks]
        sizes = sorted(e.params.sizes, reverse=True)
        return (
            form.v == v
            and [len(b) for b in blocks] == sizes
            and all(b == sorted(set(b)) and all(0 <= x < v for x in b) for b in blocks)
            and ref.is_sds(v, blocks, e.params.lam)
        )

    def check_pass(self, outcomes):
        oks = [False] * len(outcomes)
        for e, idx in self.groups:
            base = getattr(outcomes[idx[0]], "blocks", None)
            if base is not None and e.id not in self.forms:
                if self._form_ok(e, outcomes[idx[0]]):
                    self.forms[e.id] = base
            good = base is not None and base == self.forms.get(e.id)
            for i in idx:
                oks[i] = good and getattr(outcomes[i], "blocks", None) == base
        return oks

    def check_run(self):
        problems = []
        for group in (GS956, GS1324):
            for i, a in enumerate(group):
                for b in group[i + 1 :]:
                    fa, fb = self.families[a], self.families[b]
                    if self.equivalence.are_equivalent(fa, fb) is not False:
                        problems.append(f"are_equivalent({a}, {b}) is not False")
        return problems


class Search(Workload):
    """Orbit searches: solved targets plus exhaustive and local targets
    that stop at their budget."""

    def __init__(self, rng, mods, entries, work):
        search, sds = mods["search"], mods["sds"]
        self.items = []
        self.targets = []
        for kind, v, sizes, q, budget, engine in SEARCH_TARGETS:
            seed = rng.randrange(2**31)
            label = f"{kind}:{v}:{','.join(map(str, sizes))}:q{q}"
            if kind == "sds":
                lam = sds.derive_lambda(v, sizes)
                p = sds.ParameterSet(v, sizes, lam)
                call = lambda p=p, q=q, b=budget, s=seed: search.search_sds(
                    p, q, budget=b, seed=s, workers=1)
            else:
                lam = sum(sizes) - v
                call = lambda v=v, z=sizes, q=q, b=budget, s=seed: (
                    search.search_skew_gs(v, z, q, budget=b, seed=s, workers=1))
            self.items.append(Item("search", label, call, engine, budget))
            self.targets.append((kind, v, sizes, lam))

    @staticmethod
    def _selection_ok(sel, kind, v, sizes, lam):
        blocks = [ref.orbit_union(v, sel.orbsys.h, reps) for reps in sel.reps_per_block]
        if tuple(len(b) for b in blocks) != tuple(sizes):
            return False
        if kind == "gs" and not ref.is_skew_block(v, blocks[0]):
            return False
        return ref.is_sds(v, blocks, lam)

    def check_pass(self, outcomes):
        return [
            isinstance(out, list)
            and all(self._selection_ok(sel, *target) for sel in out)
            for target, out in zip(self.targets, outcomes)
        ]

    def solved(self, outcomes, oks):
        return sum(1 for out, ok in zip(outcomes, oks) if ok and out)


WORKLOADS = {
    "certify": Certify,
    "reject": Reject,
    "classify": Classify,
    "search": Search,
}


def build(name, seed, mods, entries, work):
    rng = random.Random(f"{name}:{seed}")
    return WORKLOADS[name](rng, mods, entries, work)
