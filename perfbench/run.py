"""sdskit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from a checkout whose ``src/sdskit`` is the program under test.  A run
builds the workload's items from the seed, then repeats passes over them
(one pass = the workload's fixed job) for about ``--seconds`` seconds of
measured time, checking every outcome after each pass, outside the timed
region.  Load is closed-loop from one caller in one process: each call
starts when the previous one returns.

Times are reported in reference-speed seconds.  On a shared 2-CPU
virtual machine a core's speed changes by up to 1.8x, in phases lasting
from about a second to tens of seconds, as other tenants load the host.
So a fixed reference job, ``reference.speed_probe``, is timed between
items about twice a second, and each item's time is multiplied by
REF_SECONDS over the mean time of the probes on either side of it.  Each
workload uses the probe kind closest to the work it does
(``Workload.PROBE``).  A slower program still moves these numbers one for
one; a slower machine moves them much less.  The run record keeps the
raw seconds too.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics, taken from passes run
with every public sdskit function wrapped in a span (see tracing.py).
Earlier lines give the run's metadata and a readable table.  A record of
the run is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

# Reported times are scaled to a machine on which reference.speed_probe()
# of each kind takes this long: a shared 2-CPU x86-64 VM in its faster
# phase, Python 3.11.
REF_SECONDS = {"bits": 0.042, "sort": 0.0265}
# Seconds of items between two probes.
PROBE_EVERY = 0.5

# Fresh interpreters timed for setup_s (after one untimed warm-up that
# also leaves compiled bytecode behind, as an installed package has).
# Each also times the probe, after the set-up, for its own rescaling.
SETUP_REPEATS = 15
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import sdskit
from sdskit import catalog, cli
catalog.load_default(verify=True)
setup = time.perf_counter() - t
sys.path.insert(0, sys.argv[2])
import reference
t = time.perf_counter()
reference.speed_probe("bits")
print(setup, time.perf_counter() - t)
"""

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "item_s.p50": "s",
    "item_s.p90": "s",
    "peak_rss_mb": "MB",
    "solved": "count",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import sdskit from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "sdskit" / "__init__.py").is_file():
        fail(f"no program to measure: {src / 'sdskit'} is missing")
    sys.path.insert(0, str(src))
    import sdskit
    from sdskit import catalog, cli, equivalence, hadamard, sds, search, zmod

    if Path(sdskit.__file__).resolve().parent != (src / "sdskit").resolve():
        fail(f"imported sdskit from {sdskit.__file__}, not from {src}")
    return {
        "catalog": catalog,
        "sds": sds,
        "zmod": zmod,
        "equivalence": equivalence,
        "hadamard": hadamard,
        "search": search,
        "cli": cli,
    }


def commit_id():
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.is_file():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown"


def probe(kind):
    """Seconds the reference job of this kind takes right now."""
    t = time.perf_counter()
    reference.speed_probe(kind)
    return time.perf_counter() - t


def measure_setup():
    """Median over fresh interpreters of import + load_default(verify=True),
    raw and in reference-speed seconds."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), str(HERE)]
    raw, scaled = [], []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=False
        )
        if done.returncode != 0:
            fail(f"set-up failed in a fresh interpreter:\n{done.stderr}")
        if i:
            setup, probe_s = map(float, done.stdout.split()[-2:])
            raw.append(setup)
            scaled.append(setup * REF_SECONDS["bits"] / probe_s)
    return statistics.median(raw), statistics.median(scaled)


def rescale(metrics, scale):
    """Per-layer metrics with times multiplied and rates divided by scale."""
    out = {}
    for k, v in metrics.items():
        unit = tracing.unit_of(k)
        out[k] = v * scale if unit == "s" else v / scale if unit.endswith("/s") else v
    return out


def run_pass(items, kind, tracer=None):
    """Run every item once, timing the reference probe before the first
    item and again whenever PROBE_EVERY seconds of items have run and at
    the end.  Returns (raw item times, rescaled item times, outcomes,
    probe times); each item is rescaled by the mean of its two
    surrounding probes."""
    gc.collect()
    times, scaled, outcomes = [], [], []
    probes = [probe(kind)]
    segment = 0  # index of the first item since the last probe
    for i, item in enumerate(items):
        t = time.perf_counter()
        try:
            if tracer is None:
                out = item.call()
            else:
                tracer.trace = item.label
                out = tracer.span(f"item.{item.kind}", item.call)
        except Exception as exc:  # an item's failure is an outcome to judge
            out = exc
        times.append(time.perf_counter() - t)
        outcomes.append(out)
        if sum(times[segment:]) >= PROBE_EVERY or i == len(items) - 1:
            probes.append(probe(kind))
            scale = REF_SECONDS[kind] / statistics.mean(probes[-2:])
            scaled.extend(x * scale for x in times[segment:])
            segment = i + 1
    return times, scaled, outcomes, probes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("certify", "reject", "classify", "search"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if sys.flags.optimize:
        fail("refusing to run under python -O: sdskit guards certificates "
             "with assert, so the run would time a program that skips them")
    mods = load_program()

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "optimize": sys.flags.optimize,
        "nproc": os.cpu_count(),
        "commit": commit_id(),
    }
    print("meta " + json.dumps(meta), flush=True)

    setup_raw, setup_s = measure_setup() if not args.trace else (None, None)
    work = OUT / "work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    entries = mods["catalog"].load_default(verify=True)
    wl = workloads.build(args.workload, args.seed, mods, entries, work)
    items = wl.items
    targets = {it.label: (it.engine, it.budget) for it in items if it.engine}

    tracer = tracing.Tracer(mods) if args.trace else None
    walls = {False: [], True: []}  # per pass, reference-speed seconds
    raw_walls = []  # untraced passes, seconds
    item_times, raw_item_times, solved, layer, spans, failures = [], [], [], [], [], []
    probes = []
    peak_rss_mb = None
    attempted = failed = 0
    measured = 0.0
    while True:
        traced = bool(tracer) and len(walls[False]) > len(walls[True])
        if traced:
            tracer.spans = []
            tracer.install()
            try:
                tracer.trace = "setup"
                load = mods["catalog"].load_default
                tracer.span("item.setup", lambda: load(verify=True))
                times, scaled, outcomes, pass_probes = run_pass(items, wl.PROBE, tracer)
            finally:
                tracer.uninstall()
        else:
            times, scaled, outcomes, pass_probes = run_pass(items, wl.PROBE)
            if peak_rss_mb is None:
                # Before the oracle's first checks, which would raise the peak.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probes.extend(pass_probes)
        wall = sum(times)
        walls[traced].append(sum(scaled))
        if traced:
            scale = sum(scaled) / wall
            layer.append(rescale(tracing.layer_metrics(tracer.spans, targets), scale))
            spans.extend(s.as_dict() for s in tracer.spans)
        else:
            raw_walls.append(wall)
            raw_item_times.extend(times)
            item_times.extend(scaled)
        measured += wall
        oks = wl.check_pass(outcomes)
        solved.append(wl.solved(outcomes, oks))
        attempted += len(items)
        for item, out, ok in zip(items, outcomes, oks):
            if not ok:
                failed += 1
                failures.append(f"{item.label}: {out!r}"[:300])
        pending_trace = bool(tracer) and not walls[True]
        if not pending_trace and measured + statistics.median(raw_walls) > args.seconds:
            break

    problems = wl.check_run()
    correct = failed == 0 and not problems
    for line in (failures + problems)[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    notes = wl.notes()
    for line in notes:
        print(line, file=sys.stderr)

    summary = {
        "passes": len(walls[False]) + len(walls[True]),
        "items_per_pass": len(items),
        "item_samples": len(item_times),
        "fail_ratio": failed / attempted,
        "probe_s": probes,
        "raw_pass_walls_s": raw_walls,
        "notes": notes,
    }
    if args.trace:
        metrics = {
            k: statistics.median(m[k] for m in layer) for k in layer[0]
        }
        metrics["trace.overhead_ratio"] = (
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1
        )
        units = {k: tracing.unit_of(k) for k in metrics}
        (OUT / f"spans-{args.workload}-seed{args.seed}.jsonl").write_text(
            "".join(json.dumps(s) + "\n" for s in spans)
        )
    else:
        p90 = statistics.quantiles(item_times, n=10, method="inclusive")[8]
        raw_p90 = statistics.quantiles(raw_item_times, n=10, method="inclusive")[8]
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls[False]),
            "item_s.p50": statistics.median(item_times),
            "item_s.p90": p90,
            "peak_rss_mb": peak_rss_mb,
            "solved": statistics.median(solved),
        }
        units = E2E_UNITS
        summary["raw_seconds"] = {
            "setup_s": setup_raw,
            "wall_s": statistics.median(raw_walls),
            "item_s.p50": statistics.median(raw_item_times),
            "item_s.p90": raw_p90,
        }

    print("run " + json.dumps(summary))
    for k, v in metrics.items():
        print(f"  {k:<48} {v:>14.6g} {units[k]}")
    print(f"  {'fail_ratio':<48} {summary['fail_ratio']:>14.6g} ratio")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(meta=meta, run=summary, result=result, failures=failures + problems)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
