"""Machine-readable corpus of published difference-family data.

The corpus is a line-oriented ASCII format designed to be eyeball-checked
against the source tables:

    entry <id>
    params v=<v> k=<k1,k2,...> lambda=<lam>
    status verified | open | external
    provenance <free text>
    # then one encoding (verified entries only):
    block <members...>          (one line per block; may be empty)
    orbit h=<h> q=<q>           followed by one `reps <...>` line per block
    compose paley_todd <entry-id>
    end

Each of params, status, provenance, orbit and compose appears at most once
in an entry, and a params or orbit line holds exactly its keys, each once.

Verified entries are re-verified on load; a mismatch is a hard failure.
Orbit entries expand through zmod.OrbitSystem, which owns the orbit masks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from . import sds, zmod

STATUSES = ("verified", "open", "external")
_ONCE = frozenset({"params", "status", "provenance", "orbit", "compose"})


class CatalogParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


class CatalogIntegrityError(ValueError):
    """A verified entry failed re-verification on load."""


@dataclass
class CatalogEntry:
    id: str
    params: sds.ParameterSet
    status: str
    provenance: str
    # exactly one of the following is set for verified entries
    blocks: Optional[tuple[tuple[int, ...], ...]] = None
    orbit: Optional[tuple[int, int, tuple[tuple[int, ...], ...]]] = None  # (h, q, reps)
    compose: Optional[str] = None  # referenced entry id
    family: Optional[sds.DifferenceFamily] = None

    @property
    def encoding(self) -> str:
        if self.blocks is not None:
            return "blocks"
        if self.orbit is not None:
            return "orbit"
        if self.compose is not None:
            return "compose"
        return "none"


def decimals(tokens: list[str]) -> tuple[int, ...]:
    """int() of each token, which must be ASCII digits after at most one
    leading '-' (int() alone takes '+', '_', spaces and non-ASCII digits,
    and gives a raw message for '', '-' or '5-3'): how the corpus parser
    and the CLI read every integer."""
    if not all(t.removeprefix("-").isdigit() and t.isascii() for t in tokens):
        raise ValueError(f"not decimal integers: {' '.join(tokens)!r}")
    return tuple(map(int, tokens))


def _fields(text: str, keys: tuple[str, ...]) -> list[str]:
    """The values of key=value tokens in the order of `keys`, each key once."""
    tokens = text.split()
    fields = dict(t.split("=", 1) for t in tokens if "=" in t)
    if len(tokens) != len(keys) or fields.keys() != set(keys):
        raise ValueError("need exactly " + " ".join(k + "=" for k in keys))
    return [fields[k] for k in keys]


def _parse_ints(text: str, lineno: int) -> tuple[int, ...]:
    try:
        return decimals(text.split())
    except ValueError:
        raise CatalogParseError(lineno, f"expected integers, got {text!r}")


def _check_residues(entry: CatalogEntry, word: str, lines) -> None:
    """Every residue on each `word` line lies in 0..v-1, none twice: the
    data is read as written, never reduced mod v."""
    v = entry.params.v
    for line in lines:
        bad = [x for x in line if not 0 <= x < v]
        if bad:
            raise CatalogIntegrityError(
                f"entry {entry.id}: {word} residues {bad} outside 0..{v - 1}"
            )
        if len(set(line)) != len(line):
            raise CatalogIntegrityError(
                f"entry {entry.id}: {word} line repeats a residue"
            )


def materialize(
    entry: CatalogEntry, entries: list[CatalogEntry]
) -> Optional[sds.DifferenceFamily]:
    """Build a verified entry's family, check it at the declared lambda, and
    store it as entry.family (also returned).

    A compose target is resolved among the entries that precede `entry` in
    `entries` (all of them when `entry` is not in the list) and is
    materialized first if it has no family yet.  Entries of other statuses
    carry no data and get no family.  Missing, malformed or failing data
    raises CatalogIntegrityError naming the entry.
    """
    if entry.status != "verified":
        if entry.encoding != "none":
            raise CatalogIntegrityError(
                f"entry {entry.id}: status {entry.status} must not carry data"
            )
        return None
    v = entry.params.v
    if entry.blocks is not None:
        _check_residues(entry, "block", entry.blocks)
        fam = sds.DifferenceFamily.from_sets(v, entry.blocks)
    elif entry.orbit is not None:
        h, q, reps = entry.orbit
        _check_residues(entry, "reps", reps)
        try:
            osys = zmod.orbit_system(v, h)
            if osys.q != q:
                raise ValueError(f"h={h} has order {osys.q}, not {q}")
            fam = osys.family(reps)
        except ValueError as exc:
            raise CatalogIntegrityError(f"entry {entry.id}: {exc}") from None
    elif entry.compose is not None:
        earlier = itertools.takewhile(lambda e: e is not entry, entries)
        base = next((e for e in earlier if e.id == entry.compose), None)
        if base is not None and base.family is None:
            materialize(base, entries)
        if base is None or base.family is None:
            raise CatalogIntegrityError(
                f"entry {entry.id}: compose target {entry.compose!r} "
                "not defined earlier in the corpus"
            )
        fam = sds.compose_with_paley_todd(base.family)
    else:
        raise CatalogIntegrityError(f"entry {entry.id}: verified but no data")
    if fam.sizes != entry.params.sizes:
        raise CatalogIntegrityError(
            f"entry {entry.id}: block sizes {fam.sizes} != declared "
            f"{entry.params.sizes}"
        )
    report = sds.verify_sds(fam, entry.params.lam)
    if not report.ok:
        raise CatalogIntegrityError(
            f"entry {entry.id}: verification failed at lambda="
            f"{entry.params.lam} ({report})"
        )
    entry.family = fam
    return fam


def load_catalog(text: str, verify: bool = True) -> list[CatalogEntry]:
    """Parse a corpus document.

    With verify=True (the default), every verified entry is materialized
    and re-verified; failures raise CatalogIntegrityError.
    """
    entries: list[CatalogEntry] = []
    ids: set[str] = set()
    cur: Optional[dict] = None
    pending_reps: Optional[list[tuple[int, ...]]] = None

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        word, _, rest = line.partition(" ")
        rest = rest.strip()
        if word == "entry":
            if cur is not None:
                raise CatalogParseError(lineno, "previous entry not closed")
            if not rest:
                raise CatalogParseError(lineno, "entry needs an id")
            cur = {"id": rest, "lineno": lineno}
            pending_reps = None
        elif cur is None:
            raise CatalogParseError(lineno, f"unexpected {word!r} outside entry")
        elif word in _ONCE and word in cur:
            raise CatalogParseError(lineno, f"second {word} line in entry")
        elif word == "params":
            try:
                v, ks, lam = _fields(rest, ("v", "k", "lambda"))
                v, lam = decimals([v, lam])
                cur["params"] = sds.ParameterSet(v, decimals(ks.split(",")), lam)
            except ValueError as exc:
                raise CatalogParseError(lineno, f"bad params line: {exc}")
        elif word == "status":
            if rest not in STATUSES:
                raise CatalogParseError(lineno, f"unknown status {rest!r}")
            cur["status"] = rest
        elif word == "provenance":
            cur["provenance"] = rest
        elif word == "block":
            cur.setdefault("blocks", []).append(_parse_ints(rest, lineno))
        elif word == "orbit":
            try:
                cur["orbit"] = decimals(_fields(rest, ("h", "q")))
            except ValueError as exc:
                raise CatalogParseError(lineno, f"bad orbit line: {exc}")
            pending_reps = []
            cur["reps"] = pending_reps
        elif word == "reps":
            if pending_reps is None:
                raise CatalogParseError(lineno, "reps before orbit line")
            pending_reps.append(_parse_ints(rest, lineno))
        elif word == "compose":
            parts = rest.split()
            if len(parts) != 2 or parts[0] != "paley_todd":
                raise CatalogParseError(lineno, "compose syntax: paley_todd <id>")
            cur["compose"] = parts[1]
        elif word == "end":
            for need in ("params", "status", "provenance"):
                if need not in cur:
                    raise CatalogParseError(lineno, f"entry missing {need}")
            entry = CatalogEntry(
                id=cur["id"],
                params=cur["params"],
                status=cur["status"],
                provenance=cur["provenance"],
                blocks=tuple(cur["blocks"]) if "blocks" in cur else None,
                orbit=(*cur["orbit"], tuple(cur["reps"])) if "orbit" in cur else None,
                compose=cur.get("compose"),
            )
            if sum(x is not None for x in (entry.blocks, entry.orbit, entry.compose)) > 1:
                raise CatalogParseError(lineno, "entry has multiple encodings")
            if entry.id in ids:
                raise CatalogParseError(lineno, f"duplicate id {entry.id!r}")
            if verify:
                materialize(entry, entries)
            entries.append(entry)
            ids.add(entry.id)
            cur = None
            pending_reps = None
        else:
            raise CatalogParseError(lineno, f"unknown directive {word!r}")
    if cur is not None:
        raise CatalogParseError(cur["lineno"], "unterminated entry (missing end)")
    return entries


def emit_catalog(entries: list[CatalogEntry]) -> str:
    out = []
    for e in entries:
        out.append(f"entry {e.id}")
        ks = ",".join(str(k) for k in e.params.sizes)
        out.append(f"params v={e.params.v} k={ks} lambda={e.params.lam}")
        out.append(f"status {e.status}")
        out.append(f"provenance {e.provenance}")
        if e.blocks is not None:
            for b in e.blocks:
                out.append(("block " + " ".join(str(x) for x in b)).rstrip())
        elif e.orbit is not None:
            h, q, reps = e.orbit
            out.append(f"orbit h={h} q={q}")
            for r in reps:
                out.append("reps " + " ".join(str(x) for x in r))
        elif e.compose is not None:
            out.append(f"compose paley_todd {e.compose}")
        out.append("end")
        out.append("")
    return "\n".join(out)


def load_default(verify: bool = True) -> list[CatalogEntry]:
    """Load the corpus shipped with the package."""
    text = resources.files("sdskit").joinpath("data/corpus.txt").read_text("ascii")
    return load_catalog(text, verify=verify)


def entry_by_id(entries: list[CatalogEntry], entry_id: str) -> CatalogEntry:
    for e in entries:
        if e.id == entry_id:
            return e
    raise KeyError(f"no catalog entry with id {entry_id!r}")


@dataclass(frozen=True)
class Table1Row:
    v: int
    sizes: tuple[int, int, int]
    lam: int
    status: str  # "yes" or "?"
    source: str  # blocks | orbit | compose | external | none


# Primes v = 3 (mod 4) covered by the published existence table.
TABLE1_PRIMES = (3, 7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79, 83, 103, 107, 127, 131)


def table1_report(entries: list[CatalogEntry]) -> list[Table1Row]:
    """One row per enumerated parameter set for every prime v = 3 (mod 4)
    up to 131, with existence status taken from the catalog."""
    rows = []
    for v in TABLE1_PRIMES:
        for p in sds.enumerate_P(v):
            match = None
            for e in entries:
                if (
                    e.params.v == v
                    and e.params.sizes == p.sizes
                    and e.params.lam == p.lam
                    and len(e.params.sizes) == 3
                    and e.status in ("verified", "external")
                ):
                    match = e
                    break
            if match is None:
                rows.append(Table1Row(v, p.sizes, p.lam, "?", "none"))
            elif match.status == "external":
                rows.append(Table1Row(v, p.sizes, p.lam, "yes", "external"))
            else:
                rows.append(Table1Row(v, p.sizes, p.lam, "yes", match.encoding))
    return rows


# The published existence summary, frozen: (v, k1, k2, k3, lambda, status).
EXPECTED_TABLE1 = (
    (3, 1, 1, 0, 0, "yes"),
    (7, 3, 3, 1, 2, "yes"),
    (7, 2, 2, 2, 1, "yes"),
    (11, 4, 4, 3, 3, "yes"),
    (19, 9, 7, 6, 8, "yes"),
    (19, 7, 7, 7, 7, "yes"),
    (23, 11, 10, 7, 11, "yes"),
    (31, 15, 15, 10, 17, "yes"),
    (31, 13, 12, 12, 14, "yes"),
    (43, 21, 21, 15, 25, "yes"),
    (43, 21, 18, 16, 23, "yes"),
    (43, 20, 17, 17, 22, "yes"),
    (43, 19, 19, 16, 22, "yes"),
    (47, 22, 22, 17, 26, "yes"),
    (47, 21, 19, 19, 24, "yes"),
    (59, 29, 28, 22, 35, "yes"),
    (67, 31, 28, 28, 37, "yes"),
    (67, 30, 30, 27, 37, "yes"),
    (71, 34, 32, 28, 41, "?"),
    (71, 31, 31, 30, 39, "yes"),
    (79, 39, 37, 31, 48, "yes"),
    (79, 38, 35, 32, 46, "?"),
    (79, 37, 34, 33, 45, "yes"),
    (83, 39, 37, 34, 48, "?"),
    (83, 37, 37, 35, 47, "?"),
    (103, 51, 48, 42, 64, "yes"),
    (103, 51, 46, 43, 63, "yes"),
    (103, 49, 49, 42, 63, "yes"),
    (103, 46, 46, 45, 60, "yes"),
    (107, 49, 48, 46, 63, "?"),
    (127, 61, 58, 54, 78, "?"),
    # published table prints k3=56 here; 55 is the only value consistent
    # with the counting identity (507 = 17^2 + 13^2 + 7^2)
    (127, 60, 57, 55, 77, "?"),
    (127, 57, 57, 57, 76, "yes"),
    (131, 65, 61, 55, 83, "yes"),
    (131, 64, 58, 57, 81, "?"),
    (131, 61, 61, 56, 80, "yes"),
)


def table1_matches_expected(rows: list[Table1Row]) -> bool:
    got = tuple((r.v, *r.sizes, r.lam, r.status) for r in rows)
    return got == EXPECTED_TABLE1
