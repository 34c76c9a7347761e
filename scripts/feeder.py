#!/usr/bin/env python3
"""Binary-tree feeder scenarios for scaling studies.

``feeder(nodes, hmax)`` returns a scenario document with nodes n1..nN,
where the parent of node n_i is n_(i//2).  Every branch is 0.1 ohm and
1 mH, and every node but n1 carries a 10 uF shunt.  n1 holds the
grid-forming ``vf`` resource of ``scenarios/two_node.json``, and every other
node a copy of its grid-following ``pq`` resource with a 2 kW, 0.3 kvar
setpoint.  The document is built in memory, so no large scenario file is
kept in the repository.

Usage: ``python scripts/feeder.py NODES [HMAX] > feeder.json`` prints the
scenario as JSON (HMAX defaults to 25).
"""

import argparse
import copy
import json
import pathlib

TWO_NODE = pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "two_node.json"


def feeder(nodes: int, hmax: int) -> dict:
    """The scenario document of the ``nodes``-node binary-tree feeder at ``hmax``."""
    if nodes < 2:
        raise ValueError(f"a feeder needs at least 2 nodes, got {nodes}")
    forming, following = json.loads(TWO_NODE.read_text())["ciders"]
    ids = [f"n{i}" for i in range(1, nodes + 1)]
    ciders = [dict(forming, node="n1")]
    for node in ids[1:]:
        cider = copy.deepcopy(following)
        cider["node"] = node
        cider["setpoint"]["harmonics"]["0"] = [2000.0, 300.0]
        ciders.append(cider)
    return {
        "system": {"f1": 50.0, "hmax": hmax},
        "grid": {
            "nodes": [{"id": "n1", "kind": "forming"}]
            + [{"id": node, "kind": "following"} for node in ids[1:]],
            "branches": [
                {"from": f"n{i // 2}", "to": f"n{i}", "r": 0.1, "l": 0.001}
                for i in range(2, nodes + 1)
            ],
            "shunts": [{"node": node, "c": 1e-5} for node in ids[1:]],
        },
        "ciders": ciders,
        "analysis": {},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("nodes", type=int, help="number of nodes, at least 2")
    parser.add_argument("hmax", type=int, nargs="?", default=25, help="harmonic truncation")
    args = parser.parse_args(argv)
    print(json.dumps(feeder(args.nodes, args.hmax), indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
