"""Repeat benchmark workloads and report the spread of every metric.

    python3 perfbench/steady.py [--repeats N] [--trace 0|1]

Runs ``perfbench/run.py`` on every workload with seeds 1..N, one process at
a time, from the root of the checkout, for the ``run_seconds`` of
``BENCHMARK.json``.  For each workload and metric it prints the median, the
quartiles (``statistics.quantiles(n=4)``), the quartile distance as a share
of the median, and the sample count, with the operations attempted and
failed.  With the default ``--repeats 1`` it is the one command that runs
every workload once and prints each metric with its unit.  The summary is
also written to ``perfbench/out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS, spec

BENCH_DIR = Path(__file__).resolve().parent


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "n": len(values),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    seconds = str(spec()["run_seconds"])
    summary, ok = {}, True
    for name in WORKLOADS:
        samples: dict[str, list[float]] = {}
        units, attempted, failed = {}, 0, 0
        for seed in range(1, args.repeats + 1):
            cmd = [
                sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(seed),
                "--seconds", seconds, "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                samples.setdefault(metric, []).append(entry["value"])
                units[metric] = entry["unit"]
            print(f"{name} seed={seed} correct={result['correct']} " + " ".join(
                f"{m}={e['value']:.6g}" for m, e in result["metrics"].items()
            ), flush=True)
        stats = {m: {**summarise(v), "unit": units[m]} for m, v in samples.items()}
        summary[name] = {"attempted": attempted, "failed": failed, "metrics": stats}
        print(f"{name}: attempted {attempted}, failed {failed}")
        for metric, s in stats.items():
            print(
                f"  {metric:32s} median {s['median']:12.6g} {s['unit']:6s} "
                f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {100 * s['spread']:.2f}%  n={s['n']}"
            )
    out = BENCH_DIR / "out" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
