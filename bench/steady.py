"""Steadiness of the end-to-end metrics across seeds.

    python3 bench/steady.py --workload sweeps --runs 10 --seed-base 100 [--seconds 20]

Runs bench/run.py once per seed (seed-base, seed-base + 1, ...), one after
the other, and prints for every end-to-end metric the median, the quartiles
(statistics.quantiles with n=4) and the spread, which is the distance between
the quartiles as a share of the median. The bounds in BENCHMARK.json are set
from these spreads. All run results, with each run's raw wall-clock line, are
also written as JSON lines to .bench_out/steady-<workload>-<seed-base>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=0)
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args(argv)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    for workload in args.workload:
        runs = []
        log = out_dir / f"steady-{workload}-{args.seed_base}.jsonl"
        with open(log, "w", encoding="utf-8") as fh:
            for i in range(args.runs):
                seed = args.seed_base + i
                proc = subprocess.run(
                    [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True, check=True)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                result["seed"] = seed
                result["raw"] = lines[-2]
                runs.append(result)
                fh.write(json.dumps(result) + "\n")
                fh.flush()
                shown = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}, "
              f"failed shares: {sorted(shares)}")
        for name in runs[0]["metrics"]:
            s = summarise([r["metrics"][name]["value"] for r in runs])
            print(f"  {name:16s} median {s['median']:.5g}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}"
                  f"  spread {100 * s['spread']:.2f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
