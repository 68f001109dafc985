"""The skewsimple benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload catalogue|sweeps|reports --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src. Each run
is one process and one thread, a closed loop over whole rounds of its
workload: every instance is rebuilt from its description each time it is
timed, and rounds repeat until S seconds have passed (reports always run at
least two, so that two run_checks of each instance can be compared byte for
byte). Outputs are checked afterwards by the independent verifier in
verifier.py.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
separate traced pass over the same rounds, plus the tracing overhead. Times
are reference-normalised seconds (see refclock.py); the raw wall-clock
figures are printed on the line before.

``--describe`` prints the make-up of each workload for the seed and exits.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from refclock import NOMINAL_S, RefClock
from tracer import Tracer
from verifier import self_test
from workloads import WORKLOADS, Item, run_report, run_sweep

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_SPAWNS = 9
MIN_ROUNDS = {"catalogue": 1, "sweeps": 1, "reports": 2}
# reasons that mean the program made no claim; every other failure is a wrong claim
NO_CLAIM = ("raised", "capacity_exceeded")


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("catalogue", "sweeps", "reports"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.describe:
        parser.error("--workload is required")
    return args


def _import_package() -> None:
    src = ROOT / "src"
    if not (src / "skewsimple" / "__init__.py").is_file():
        _fail(f"no skewsimple package under {src}; run from a checkout of the repository")
    for key in [k for k in os.environ if k.startswith("SKEWSIMPLE_")]:
        del os.environ[key]  # caps come from the descriptions only
    sys.path.insert(0, str(src))
    import skewsimple  # noqa: F401


_IMPORT = ("import time; t = time.perf_counter(); import skewsimple.cli; "
           "print(time.perf_counter() - t)")


def _spawn_import() -> float:
    """Seconds a fresh interpreter spends importing skewsimple.cli, which
    loads every module the command line needs."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _IMPORT], env=env, cwd=ROOT,
                          check=True, capture_output=True, text=True)
    return float(proc.stdout)


def measure_setup(clock) -> tuple[float, float]:
    """Median import time over SETUP_SPAWNS fresh interpreters, raw and
    normalised by the reference samples that bracket each spawn."""
    _spawn_import()  # warm the file cache and byte-code
    raws, norms = [], []
    for _ in range(SETUP_SPAWNS):
        seconds, (t0, t1, _) = clock.measure_quiet(_spawn_import)
        raws.append(seconds)
        norms.append(seconds * NOMINAL_S / clock.reference(t0, t1))
    return statistics.median(raws), statistics.median(norms)


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()
        self.wrong: list[str] = []

    def add(self, item, statuses: dict, contradictions: dict) -> None:
        for op in item.ops:
            self.attempted += 1
            reason = statuses.get(op) or contradictions.get(op)
            if reason is None:
                continue
            self.failed += 1
            self.reasons[f"{item.name}.{op}: {reason}"] += 1
            if not reason.startswith(NO_CLAIM):
                self.wrong.append(f"{item.name}.{op}: {reason}")


def _digest(out: dict) -> str:
    return out.get("canonical") or json.dumps(out, sort_keys=True, default=str)


def run_rounds(clock, items, run_fn, seconds: float, min_rounds: int, measure=None):
    """Whole rounds, at least min_rounds, until the time is up; returns
    per-instance samples and the outputs of the first round, checking later
    rounds against them."""
    measure = measure or clock.measure
    first: list[dict] = []
    units, mismatches, statuses = [], [], []
    start = time.perf_counter()
    done = 0
    while done < min_rounds or time.perf_counter() - start < seconds:
        for index, item in enumerate(items):
            gc.collect()  # start every unit from the same heap state
            out, unit = measure(run_fn, item)
            units.append(unit)
            statuses.append(out["ops"])
            if done == 0:
                first.append(out)
            elif _digest(out) != _digest(first[index]):
                mismatches.append(f"{item.name}: output differs between rounds")
        done += 1
    return {"rounds": done, "raws": [u[2] for u in units],
            "norms": [clock.normalise(u) for u in units], "first": first,
            "statuses": statuses, "mismatches": mismatches}


def instance_p50(items, times: list[float]) -> float:
    """Median over distinct instances of each instance's median time in the
    run, so that the middle instances are each represented by all their
    timings rather than by one."""
    per: dict[int, list[float]] = {}
    for unit, t in enumerate(times):
        per.setdefault(id(items[unit % len(items)]), []).append(t)
    return statistics.median(statistics.median(ts) for ts in per.values())


def check_outputs(items, verify_fn, phases) -> tuple[Tally, list[str]]:
    """Verify the first round's outputs and count every round's operations."""
    tally = Tally()
    problems: list[str] = []
    outputs = phases[0]["first"]
    verified: dict[int, dict] = {}
    for item, out in zip(items, outputs):
        if id(item) not in verified:  # repeated catalogue items are verified once
            verified[id(item)] = verify_fn(item, out)
    contradictions = [verified[id(item)] for item in items]
    for phase in phases:
        problems += phase["mismatches"]
        for unit, statuses in enumerate(phase["statuses"]):
            index = unit % len(items)
            tally.add(items[index], statuses, contradictions[index])
        if phase is not phases[0]:
            for item, a, b in zip(items, outputs, phase["first"]):
                if _digest(a) != _digest(b):
                    problems.append(f"{item.name}: traced output differs from untraced")
    return tally, problems


def _census():
    """One fixed pass touching every traced layer (two fixtures through
    check+report, one constructive sweep), so each layer has a measured time
    on every workload."""
    swap = json.loads((ROOT / "tests" / "fixtures" / "swap2.json").read_text())
    natural = json.loads((ROOT / "tests" / "fixtures" / "natural_s3.json").read_text())
    for doc in (swap, natural):
        run_report(Item(doc["name"], doc, (), text=json.dumps(doc)))
    run_sweep(Item("census_swap2", swap, ("center_structure", "constructive"),
                   sweep="center_structure"))


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_package()
    if args.describe:
        return describe(args.seed)
    items_fn, run_fn, verify_fn = WORKLOADS[args.workload]
    problems = self_test()
    items = items_fn(args.seed)
    gc.freeze()  # keep the long-lived heap out of every later collection
    with RefClock() as clock:
        if not args.trace:
            setup_raw, setup_norm = measure_setup(clock)
            phase = run_rounds(clock, items, run_fn, args.seconds, MIN_ROUNDS[args.workload])
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            phases = [phase]
        else:
            untraced = run_rounds(clock, items, run_fn, args.seconds / 2,
                                  MIN_ROUNDS[args.workload])
            tracer = Tracer()
            tracer.install()
            clock.on_sample = tracer.absorb
            ref_start = len(clock.durations)

            def traced_measure(fn, item):
                tracer.instance = item.name
                return clock.measure(fn, item)

            traced = run_rounds(clock, items, run_fn, 0, untraced["rounds"],
                                measure=traced_measure)
            tracer.instance = "census"
            clock.measure(_census)
            tracer.uninstall()
            clock.on_sample = None
            scale = NOMINAL_S / statistics.fmean(clock.durations[ref_start:])
            phases = [untraced, traced]
    tally, mismatch_problems = check_outputs(items, verify_fn, phases)
    problems += mismatch_problems + tally.wrong
    for reason, count in sorted(tally.reasons.items()):
        print(f"failed x{count}: {reason}")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    if not args.trace:
        n = len(phase["norms"])
        metrics = {
            "instances_per_s": (n / sum(phase["norms"]), "1/s"),
            "instance_p50_ms": (instance_p50(items, phase["norms"]) * 1e3, "ms"),
            "setup_s": (setup_norm, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"raw: rounds={phase['rounds']} instances={n} "
              f"instances_per_s={n / sum(phase['raws']):.4f} "
              f"instance_p50_ms={instance_p50(items, phase['raws']) * 1e3:.3f} "
              f"setup_s={setup_raw:.4f}")
    else:
        metrics = tracer.layer_metrics(scale, traced["rounds"])
        overhead = 100 * (sum(traced["norms"]) / sum(untraced["norms"]) - 1)
        metrics["trace.overhead_pct"] = (overhead, "%")
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
        print(f"raw: rounds={traced['rounds']} untraced_s={sum(untraced['raws']):.3f} "
              f"traced_s={sum(traced['raws']):.3f} spans={len(tracer.spans)}")
    result = {"correct": not problems, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


def describe(seed: int) -> int:
    """Counts by ring, group and action kind and the |R| range, per workload."""
    for name, (items_fn, _, _) in WORKLOADS.items():
        items = items_fn(seed)
        sizes = [item.algebra.size for item in items]
        ops = sum(len(item.ops) for item in items)
        print(f"{name}: {len(items)} instances, {ops} operations per round, "
              f"|R| from {min(sizes)} to {max(sizes)}")
        for axis, index in (("ring", 0), ("group", 1), ("action", 2)):
            counts = Counter(item.kind_tags[index] for item in items)
            print(f"  {axis}: " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
        if name == "sweeps":
            counts = Counter(item.extra["sweep"] for item in items)
            print("  sweep: " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
