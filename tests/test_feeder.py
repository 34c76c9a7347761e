import json

import pytest

from hss_stab import scenario_from_dict
from hss_stab.pipeline import assemble
from scripts.feeder import feeder, main


@pytest.mark.parametrize("nodes, n, nnz", [(6, 3213, 23025), (24, 13311, 98841)])
def test_state_only_system_size(nodes, n, nnz):
    a = assemble(scenario_from_dict(feeder(nodes, 25)), state_only=True).model.a
    assert a.shape == (n, n)
    assert a.nnz == nnz


def test_tree_layout():
    doc = feeder(7, 3)
    assert doc["system"] == {"f1": 50.0, "hmax": 3}
    assert [(b["from"], b["to"]) for b in doc["grid"]["branches"]] == [
        ("n1", "n2"), ("n1", "n3"), ("n2", "n4"), ("n2", "n5"), ("n3", "n6"), ("n3", "n7")
    ]
    assert [s["node"] for s in doc["grid"]["shunts"]] == [f"n{i}" for i in range(2, 8)]
    assert [(c["node"], c["template"]) for c in doc["ciders"]] == [("n1", "vf")] + [
        (f"n{i}", "pq") for i in range(2, 8)
    ]
    assert all(c["setpoint"]["harmonics"]["0"] == [2000.0, 300.0] for c in doc["ciders"][1:])


def test_cli_prints_the_scenario(capsys):
    assert main(["3", "2"]) == 0
    assert json.loads(capsys.readouterr().out) == feeder(3, 2)


def test_single_node_rejected():
    with pytest.raises(ValueError, match="at least 2 nodes"):
        feeder(1, 2)
