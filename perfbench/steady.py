"""Steadiness mode: repeat runs and compare each metric's spread to its bound.

    python3 perfbench/steady.py --runs 1             # every workload once
    python3 perfbench/steady.py --workloads certify search --runs 10
    python3 perfbench/steady.py --runs 10 --save .bench_out/a.json
    python3 perfbench/steady.py --runs 10 --against .bench_out/a.json

Each run is ``run.py --trace 0`` in its own process with the next seed,
measuring BENCHMARK.json's ``run_seconds``, the length the bounds are set for.
For every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread
(q3 - q1) / median and the bound from BENCHMARK.json.  A metric is
"steady" when its spread is below a third of its bound.  ``--against`` compares the medians with a
saved earlier set: the later median may be worse by at most the bound.
Exits 1 when a spread or a median drift exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify", "reject", "classify", "search")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def verdict(metric, xs):
    """(median, q1, q3, spread, text, too wide?) for one metric."""
    med = statistics.median(xs)
    if len(xs) < 2:
        return med, med, med, 0.0, "", False
    q1, _, q3 = statistics.quantiles(xs, n=4)
    spread = (q3 - q1) / med
    bound = metric["bound"]
    if spread < bound / 3:
        return med, q1, q3, spread, "steady", False
    if spread <= bound:
        return med, q1, q3, spread, "within bound", False
    return med, q1, q3, spread, "TOO WIDE", True


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save", type=Path, help="write medians and values here")
    ap.add_argument("--against", type=Path, help="compare with a saved set")
    args = ap.parse_args(argv)

    earlier = json.loads(args.against.read_text()) if args.against else {}
    saved = {}
    failed = False
    for wl in args.workloads:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        results = [run_once(wl, seed, bench["run_seconds"]) for seed in seeds]
        fails = sum(r["failed"] for r in results)
        tried = sum(r["attempted"] for r in results)
        correct = sum(r["correct"] for r in results)
        print(f"\n{wl}: {args.runs} runs, correct in {correct},"
              f" fail_ratio {fails / tried:.4g} ({fails}/{tried})")
        print(f"  {'metric':<14}{'unit':>6}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}  verdict")
        saved[wl] = {}
        for m in bench["end_to_end"]:
            name = m["name"]
            xs = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, spread, text, bad = verdict(m, xs)
            saved[wl][name] = {"median": med, "values": xs}
            if wl in earlier:
                old = earlier[wl][name]["median"]
                drift = (med - old) / old * (1 if m["better"] == "lower" else -1)
                text += f"; {drift:+.3f} vs earlier"
                if drift > m["bound"]:
                    text += " EXCEEDS BOUND"
                    bad = True
            failed = failed or bad
            print(f"  {name:<14}{m['unit']:>6}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}"
                  f"{spread:>9.4f}{m['bound']:>7.2f}  {text}", flush=True)
    if args.save:
        args.save.write_text(json.dumps(saved, indent=1) + "\n")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
