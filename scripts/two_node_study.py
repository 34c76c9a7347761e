#!/usr/bin/env python3
"""End-to-end study on the bundled two-node system.

Assembles the closed-loop model, reports the stability verdict, traces the
eigenvalue loci for the voltage-control gain sweep defined in the scenario,
and classifies the spectrum. Writes CSV results next to this script under
out/.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

from hss_stab import load_scenario
from hss_stab.runner import export_results, run_command


def main():
    scenario = load_scenario(ROOT / "scenarios" / "two_node.json")
    out_dir = ROOT / "scripts" / "out"
    out_dir.mkdir(exist_ok=True)

    eig = run_command("eig", scenario)
    export_results(eig, "csv", out_dir / "two_node_eig.csv")
    print(
        f"eigenvalues: {len(eig.records)}, stable={eig.meta['stable']}, "
        f"worst Re={eig.meta['worst_re']:.3e}"
    )

    sweep = run_command("sweep", scenario, sweep_name="voltage_kp")
    export_results(sweep, "csv", out_dir / "two_node_kp_sweep.csv")
    print(f"sweep '{sweep.meta['parameter']}': {sweep.meta['steps']} steps, "
          f"{sweep.meta['unresolved_steps']} unresolved")

    classify = run_command("classify", scenario)
    export_results(classify, "csv", out_dir / "two_node_classify.csv")
    print("classification counts:", classify.meta["counts"])

    spurious = run_command("spurious", scenario)
    export_results(spurious, "csv", out_dir / "two_node_spurious.csv")
    print(
        f"spurious flags: {spurious.meta['n_spurious']}, "
        f"boundary suspects: {spurious.meta['n_boundary_suspect']}"
    )
    print(f"results in {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
