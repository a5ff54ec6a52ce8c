"""Command-line front end.

Exit codes are a stable contract:
    0  success / verified
    1  bad input (e.g. invalid modulus)
    2  usage error
    3  verification failure
    4  Hadamard assembly or check failure
    5  existence-table mismatch

Commands raise on bad input; main alone turns a KeyError, OSError or
ValueError into "error: ..." on stderr and exit 1.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from contextlib import nullcontext

from . import catalog, equivalence, hadamard, sds, search

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_USAGE = 2
EXIT_VERIFY_FAIL = 3
EXIT_HADAMARD_FAIL = 4
EXIT_TABLE_MISMATCH = 5


def _read_corpus(path):
    """Parse a corpus-format file, which must be ASCII, without verifying
    its entries."""
    with open(path, encoding="ascii") as fh:
        return catalog.load_catalog(fh.read(), verify=False)


def _resolve(tokens, is_file):
    """Map tokens to (label, entry, entries) triples; `entries` is the list
    the entry's compose target resolves in.

    A token for which is_file holds is a corpus-format file and gives all
    its entries, labelled <path>:<id>.  Any other token is an id in the
    shipped corpus, which is read unverified and labelled <id>.
    """
    out = []
    corpus = None
    for token in tokens:
        if is_file(token):
            entries = _read_corpus(token)
            out += [(f"{token}:{e.id}", e, entries) for e in entries]
        else:
            if corpus is None:
                corpus = catalog.load_default(verify=False)
            out.append((token, catalog.entry_by_id(corpus, token), corpus))
    return out


def _named(args):
    """The entries of a command's --id list or --file (always a file)."""
    return _resolve(args.id or [args.file], lambda _: args.file is not None)


def _family(entry, entries):
    """The entry's verified family; an entry without one is bad input."""
    if catalog.materialize(entry, entries) is None:
        raise ValueError(f"entry {entry.id} carries no block data")
    return entry.family


def cmd_params(args) -> int:
    psets = sds.enumerate_P(args.v)
    if args.format == "json":
        print(
            json.dumps(
                [
                    {"v": p.v, "k": list(p.sizes), "lambda": p.lam, "n": p.n}
                    for p in psets
                ]
            )
        )
    else:
        for p in psets:
            print(f"{p}  n={p.n}")
    return EXIT_OK


def cmd_verify(args) -> int:
    status = EXIT_OK
    for _, e, entries in _named(args):
        try:
            fam = catalog.materialize(e, entries)
        except catalog.CatalogIntegrityError as exc:
            print(f"{e.id}: FAIL ({exc})")
            status = EXIT_VERIFY_FAIL
            continue
        if fam is None:
            print(f"{e.id}: SKIP (status {e.status}, no data)")
            continue
        # materialize has verified the family at its declared lambda
        if args.lam is None:
            print(f"{e.id}: PASS lambda={e.params.lam}")
            continue
        report = sds.verify_sds(fam, args.lam)
        if report.ok:
            print(f"{e.id}: PASS lambda={args.lam}")
        else:
            hist = sorted(set(report.histogram[1:]))
            print(f"{e.id}: FAIL lambda={args.lam} {report}; count values {hist}")
            status = EXIT_VERIFY_FAIL
    return status


def cmd_search(args) -> int:
    sizes = catalog.decimals(args.sizes.split(","))
    counts = dict(budget=args.budget, workers=args.workers, want=args.want)
    lam = sds.derive_lambda(args.v, sizes)  # plan_skew_gs checks it is sum(sizes)-v
    try:
        if args.skew_gs:
            run = search.plan_skew_gs(args.v, sizes, args.q, **counts)
        elif lam is None:
            raise ValueError("sizes admit no integral lambda")
        else:
            run = search.plan_sds(sds.ParameterSet(args.v, sizes, lam), args.q, **counts)
    except search.InfeasibleError as exc:
        raise ValueError(f"infeasible for the orbit method: {exc}") from None
    # --out opens after the checks (bad input makes no file), before the search
    with open(args.out, "a+", encoding="ascii") if args.out else nullcontext() as fh:
        taken = set()
        if fh:
            fh.seek(0)
            taken = {e.id for e in catalog.load_catalog(fh.read(), verify=False)}
        # the input has passed every check, so a seed line means a search
        seed = args.seed
        if seed is None:
            seed = random.SystemRandom().randrange(2**32)
            print(f"seed: {seed} (pass --seed {seed} to reproduce)")
        sels = run(seed)
        if not sels:
            print("no family found within budget (not a nonexistence proof)")
            return EXIT_OK
        # ids already in --out are skipped, so appending never duplicates one
        prefix = f"found-{args.v}-q{args.q}-s{seed}-"
        ids = (f"{prefix}{i}" for i in itertools.count(1))
        fresh = (eid for eid in ids if eid not in taken)
        entries = []
        for sel, eid in zip(sels, fresh):
            entries.append(
                catalog.CatalogEntry(
                    id=eid,
                    params=sds.ParameterSet(args.v, sizes, lam),
                    status="verified",
                    provenance=f"search v={args.v} q={args.q} seed={seed}",
                    orbit=(sel.orbsys.h, sel.orbsys.q, sel.reps_per_block),
                )
            )
            print(f"found {eid}: reps {sel.reps_per_block}")
        if fh:
            if fh.tell():
                fh.write("\n")  # the file may not end in a newline
            fh.write(catalog.emit_catalog(entries))
            print(f"appended {len(entries)} entries to {args.out}")
    return EXIT_OK


def cmd_hadamard(args) -> int:
    named = _named(args)
    # a matrix file holds one matrix, so --out takes one family
    if args.out and len(named) > 1:
        raise ValueError(f"--out takes one family, not {len(named)}")
    fams = [(label, _family(e, entries)) for label, e, entries in named]
    status = EXIT_OK
    for label, fam in fams:
        if args.paley_todd:
            fam = sds.compose_with_paley_todd(fam)
        if len(fam.blocks) != 4:
            print(f"{label}: FAIL (need 4 blocks, have {len(fam.blocks)})")
            status = EXIT_HADAMARD_FAIL
            continue
        try:
            m = hadamard.build_skew_hadamard(fam.v, *fam.blocks)
        except hadamard.BuildError as exc:
            print(f"{label}: FAIL ({exc})")
            status = EXIT_HADAMARD_FAIL
            continue
        print(f"{label}: PASS skew-Hadamard of order {m.n}")
        if args.out:
            hadamard.write_matrix(m, args.out)
            print(f"wrote {args.out}")
    return status


def cmd_equiv(args) -> int:
    # a token containing "/" or ending in ".txt" names a corpus file
    named = _resolve(args.ids, lambda t: "/" in t or t.endswith(".txt"))
    fams = [(label, _family(e, entries)) for label, e, entries in named]
    forms = [(label, equivalence.canonical_form(f)) for label, f in fams]
    for i in range(len(forms)):
        for j in range(i + 1, len(forms)):
            verdict = (
                "EQUIVALENT" if forms[i][1] == forms[j][1] else "NONEQUIVALENT"
            )
            print(f"{forms[i][0]} vs {forms[j][0]}: {verdict}")
    return EXIT_OK


def cmd_table1(args) -> int:
    entries = catalog.load_default(verify=True)
    rows = catalog.table1_report(entries)
    if args.format == "json":
        print(
            json.dumps(
                [
                    {
                        "v": r.v,
                        "k": list(r.sizes),
                        "lambda": r.lam,
                        "status": r.status,
                        "source": r.source,
                    }
                    for r in rows
                ]
            )
        )
    else:
        for r in rows:
            extra = " (external)" if r.source == "external" else ""
            print(
                f"v={r.v:>3}  k={r.sizes[0]},{r.sizes[1]},{r.sizes[2]}"
                f"  lambda={r.lam:>3}  {r.status}{extra}"
            )
    if not catalog.table1_matches_expected(rows):
        got = {(r.v, *r.sizes, r.lam): r.status for r in rows}
        for exp in catalog.EXPECTED_TABLE1:
            key, want = exp[:5], exp[5]
            if got.get(key) != want:
                print(f"MISMATCH {key}: expected {want}, got {got.get(key)}")
        return EXIT_TABLE_MISMATCH
    return EXIT_OK


def _integer(text):
    """argparse type: an integer as the corpus parser reads one."""
    try:
        return catalog.decimals([text])[0]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sdskit",
        description="Cyclic difference families and skew-Hadamard matrices",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="enumerate 3-block parameter sets for v")
    p.add_argument("v", type=_integer)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("verify", help="verify catalog entries or a corpus file")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--id", action="append", help="catalog entry id (repeatable)")
    g.add_argument("--file", help="corpus-format file to verify")
    p.add_argument("--lambda", dest="lam", type=_integer, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="orbit-union search for a family")
    p.add_argument("v", type=_integer)
    p.add_argument("sizes", help="comma-separated block sizes")
    p.add_argument("--q", type=_integer, required=True, help="prime orbit order")
    p.add_argument("--budget", type=_integer, default=1_000_000,
                   help="units of work: one block choice evaluated "
                        "(exhaustive engine) or one move evaluated (local "
                        "engine); a local restart's initial counts are "
                        "not charged")
    p.add_argument("--seed", type=_integer, default=None)
    p.add_argument("--workers", type=_integer, default=1,
                   help="split the local-search budget into N seeded streams "
                        "(at most one per budget unit) run one after another "
                        "(the exhaustive engine ignores it and the seed)")
    p.add_argument("--want", type=_integer, default=1)
    p.add_argument("--skew-gs", action="store_true", help="4-block skew search")
    p.add_argument("--out", help="append found families to this corpus file")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("hadamard", help="assemble and check a skew-Hadamard matrix")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--id", action="append", help="catalog entry id (repeatable)")
    g.add_argument("--file", help="corpus-format file")
    p.add_argument("--paley-todd", action="store_true",
                   help="prepend the quadratic-residue block first")
    p.add_argument("--out", help="matrix output file (one family only)")
    p.set_defaults(func=cmd_hadamard)

    p = sub.add_parser("equiv", help="pairwise equivalence of families")
    p.add_argument("ids", nargs="+", help="catalog ids or corpus files")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("table1", help="reproduce the existence summary table")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_table1)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, OSError, ValueError) as exc:
        # str() of a KeyError quotes its message
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
