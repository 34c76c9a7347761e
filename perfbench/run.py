"""hss-stab benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Every workload is one ``hss-stab`` CLI command on a bundled scenario copied
into ``perfbench/scenarios/``.  The inputs are fixed files, so ``--seed``
changes nothing but is accepted and echoed.

``--trace 0`` measures, in this order:

- ``setup_s``: ``SETUP_REPEATS`` child processes (after one warm-up) each
  import the package and load and validate the scenario; each time is from
  spawn until the child has loaded it, and the median is reported;
- rounds of the CLI command, each a child process with
  ``--format json --no-timestamp --out FILE``, until ``--seconds`` have
  passed (at least one round): the medians of ``wall_s`` (spawn to exit)
  and of ``peak_rss_mb`` (the child's own ``ru_maxrss``).

``--trace 1`` runs the command once under ``traced.py`` for layer self
times and counts and once more under ``traced.py --memory`` for tracemalloc
peaks, and reports the per-layer metrics with the tracing overhead (spans
times the cost of one span).

Every output is then checked by ``checks.py`` against computations made
apart from the program.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` (CLI commands) and
``metrics``.  Raw outputs go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import traced

BENCH_DIR = Path(__file__).resolve().parent
SCENARIOS = BENCH_DIR / "scenarios"
SETUP_REPEATS = 9
MB = 1024.0  # ru_maxrss is in KiB on Linux


@dataclass(frozen=True)
class Workload:
    command: str
    scenario: str
    hmax: int

    def cli_args(self, out: Path) -> list[str]:
        return [
            self.command,
            "--scenario",
            str(SCENARIOS / self.scenario),
            "--hmax",
            str(self.hmax),
            "--format",
            "json",
            "--no-timestamp",
            "--out",
            str(out),
        ]


WORKLOADS = {
    # one dense eigen solve with vectors, n = 2703; the dense complex
    # closed-loop model sets the peak RSS
    "eig-h25": Workload("eig", "four_cider_six_node.json", 25),
    # 33 state-only rebuilds with values-only solves and matching, n = 323
    "classify-two-node-h8": Workload("classify", "two_node.json", 8),
    # nominal and probe (hmax 15) assemblies and solves, n = 1325 and 1643
    "spurious-h12": Workload("spurious", "four_cider_six_node.json", 12),
}

def spec() -> dict:
    """``BENCHMARK.json``: the run length and each metric's unit."""
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


SETUP_CODE = (
    "import sys, time\n"
    "import hss_stab\n"
    "hss_stab.load_scenario(sys.argv[1]).with_hmax(int(sys.argv[2]))\n"
    "print(time.monotonic(), hss_stab.__file__)\n"
)


class Children:
    """Starts the benchmark's child processes and measures each one."""

    def __init__(self, root: Path, out_dir: Path):
        self.out_dir = out_dir
        self.src = root / "src"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.src), os.environ.get("PYTHONPATH")) if p
        )
        self.runs = 0

    def run(self, args: list[str]) -> tuple[float, float, int, str]:
        """``(wall s, peak RSS MB, exit code, stdout)`` of one child process."""
        self.runs += 1
        log = self.out_dir / f"child-{self.runs}.log"
        with open(log, "w") as err:
            start = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, *args], env=self.env, stdout=subprocess.PIPE, stderr=err, text=True
            )
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        return wall, usage.ru_maxrss / MB, proc.returncode, stdout

    def setup_time(self, workload: Workload) -> float:
        start = time.monotonic()
        _, _, code, stdout = self.run(
            ["-c", SETUP_CODE, str(SCENARIOS / workload.scenario), str(workload.hmax)]
        )
        if code != 0:
            raise RuntimeError(f"set-up child failed with exit code {code}")
        loaded, package = stdout.split()
        if not Path(package).is_relative_to(self.src):
            raise RuntimeError(f"hss_stab was imported from {package}, not from {self.src}")
        return float(loaded) - start


def check_files(workload: Workload, outputs: list[Path]) -> list[str]:
    oracle = checks.build_oracle(workload.command, str(SCENARIOS / workload.scenario), workload.hmax)
    failures = []
    for out in outputs:
        failures += [f"{out.name}: {msg}" for msg in checks.check_output(json.loads(out.read_text()), oracle)]
    return failures


def measure(workload: Workload, children: Children, seconds: float):
    """End-to-end metrics, CLI outputs and failed commands of one run."""
    children.setup_time(workload)  # warm-up: byte-compilation and file cache
    setups = [children.setup_time(workload) for _ in range(SETUP_REPEATS)]
    walls, rss, outputs, attempted = [], [], [], 0
    deadline = time.monotonic() + seconds
    while True:
        attempted += 1
        out = children.out_dir / f"round-{attempted}.json"
        wall, peak, code, _ = children.run(["-m", "hss_stab.cli", *workload.cli_args(out)])
        if code == 0:
            walls.append(wall)
            rss.append(peak)
            outputs.append(out)
        if time.monotonic() >= deadline:
            break
    metrics = {}
    if walls:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(rss),
        }
    return metrics, outputs, attempted, attempted - len(outputs)


def trace(workload: Workload, children: Children):
    """Per-layer metrics, CLI outputs and failed commands of one traced run."""
    outputs = [children.out_dir / f"{k}.json" for k in ("traced", "memory")]
    script = str(BENCH_DIR / "traced.py")
    passes = [
        children.run([script, str(out.with_suffix(".spans.json")), *flags, "--", *workload.cli_args(out)])
        for out, flags in zip(outputs, ([], ["--memory"]))
    ]
    failed = sum(1 for p in passes if p[2] != 0)
    outputs = [o for o, p in zip(outputs, passes) if p[2] == 0]
    if failed:
        return {}, outputs, len(passes), failed
    metrics = traced.layer_metrics(*(json.loads(o.with_suffix(".spans.json").read_text()) for o in outputs))
    metrics["trace.wall_s"] = passes[0][0]
    return metrics, outputs, len(passes), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hss_stab" / "__init__.py").is_file():
        print("run from the root of an hss-stab checkout: src/hss_stab is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workload = WORKLOADS[args.workload]
    out_dir = BENCH_DIR / "out" / f"{args.workload}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in out_dir.iterdir():
        stale.unlink()
    children = Children(root, out_dir)

    if args.trace:
        metrics, outputs, attempted, failed = trace(workload, children)
    else:
        metrics, outputs, attempted, failed = measure(workload, children, args.seconds)
    failures = check_files(workload, outputs) if outputs else ["no command succeeded"]
    for msg in failures:
        print(f"CHECK FAILED {msg}", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in spec()["per_layer" if args.trace else "end_to_end"]}
    metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics}
    for name, m in metrics.items():
        print(f"{args.workload} seed={args.seed} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted={attempted} failed={failed} correct={not failures}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
