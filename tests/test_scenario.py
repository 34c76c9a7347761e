import copy
import json

import pytest

from hss_stab import (
    PhysicalParameterError,
    ScenarioError,
    load_scenario,
    scenario_from_dict,
)
from hss_stab.pipeline import assemble_system
from hss_stab.runner import run_command
from tests.conftest import load_raw, scenario_path

DELETE = object()

MINIMAL = {
    "grid": {
        "nodes": [{"id": "a", "kind": "forming"}, {"id": "b", "kind": "following"}],
        "branches": [{"from": "a", "to": "b", "r": 0.1, "l": 0.001}],
        "shunts": [{"node": "b", "c": 1e-05}],
    }
}


class TestLoading:
    def test_minimal_defaults(self):
        scenario = scenario_from_dict(copy.deepcopy(MINIMAL))
        assert scenario.hmax == 25
        assert scenario.f1 == 50.0
        assert scenario.ciders == ()

    def test_file_roundtrip(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps(MINIMAL))
        scenario = load_scenario(p)
        assert scenario.source == str(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(p)

    def test_schema_violation_names_field(self):
        raw = copy.deepcopy(MINIMAL)
        raw["grid"]["nodes"][0]["kind"] = "slack"
        with pytest.raises(ScenarioError, match="grid.nodes.0.kind"):
            scenario_from_dict(raw)

    @pytest.mark.parametrize(
        "literal",
        ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400],
        ids=["NaN", "Infinity", "-Infinity", "1e999", "int-400-digits"],
    )
    def test_non_finite_literal_names_field(self, tmp_path, literal):
        # json.loads reads the first four as floats and the last as an int no
        # float holds
        text = scenario_path("two_node").read_text()
        assert text.count('"kp": 0.05') == 1
        p = tmp_path / "s.json"
        p.write_text(text.replace('"kp": 0.05', f'"kp": {literal}'))
        with pytest.raises(ScenarioError, match="not finite") as exc:
            load_scenario(p)
        assert exc.value.field == "ciders.0.control.gains.kp"

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("grid", "nodes", 0, "kind"), "slack", "grid.nodes.0.kind"),
            (("grid", "nodes"), [], "grid.nodes"),
            (("grid", "nodes", 0, "id"), 5, "grid.nodes.0.id"),
            (("system", "hmax"), -1, "system.hmax"),
            (("system", "hmax"), True, "system.hmax"),
            (("system", "f1"), True, "system.f1"),
            (("analysis", "stability_margin"), "big", "analysis.stability_margin"),
            (("sweeps", "bad"), {"path": "grid.branches.0.r", "values": [0.1]}, "sweeps.bad.values"),
            (("extra",), 1, "<document>"),
            (
                ("grid", "branches", 0, "r"),
                [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, "x"]],
                "grid.branches.0.r.2.2",
            ),
            (("grid", "branches", 0, "r"), [[1.0, 2.0]], "grid.branches.0.r"),
        ],
        ids=[
            "node-kind-slack",
            "nodes-empty",
            "node-id-number",
            "hmax-negative",
            "hmax-bool",
            "f1-bool",
            "margin-string",
            "sweep-one-value",
            "unknown-top-level-key",
            "phase-matrix-entry-string",
            "phase-matrix-shape",
        ],
    )
    def test_single_fault_names_field(self, path, value, field):
        raw = copy.deepcopy(MINIMAL)
        target = raw
        for key in path[:-1]:
            target = target[key] if isinstance(target, list) else target.setdefault(key, {})
        target[path[-1]] = value
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(raw, source="s.json")
        assert err.value.field == field
        assert str(err.value).startswith(f"s.json: at '{field}': ")

    def test_unknown_top_level_key(self):
        raw = copy.deepcopy(MINIMAL)
        raw["extra"] = 1
        with pytest.raises(ScenarioError):
            scenario_from_dict(raw)

    def test_unknown_node_reference(self):
        raw = load_raw("two_node")
        raw["ciders"][1]["node"] = "n9"
        with pytest.raises(ScenarioError, match="n9"):
            scenario_from_dict(raw)

    def test_negative_inductance_names_branch(self):
        raw = copy.deepcopy(MINIMAL)
        raw["grid"]["branches"][0]["l"] = -0.001
        with pytest.raises(PhysicalParameterError, match="a-b"):
            scenario_from_dict(raw)

    def test_kind_mismatch(self):
        raw = load_raw("two_node")
        raw["ciders"] = [raw["ciders"][1]]
        raw["ciders"][0]["node"] = "n1"  # power-controlled unit at forming node
        with pytest.raises(ScenarioError, match="cannot sit"):
            scenario_from_dict(raw)

    def test_unknown_custom_kind_names_field(self):
        # at a following node the scenario checks alone would place it; the
        # template rejects the kind itself, with its field
        raw = load_raw("four_cider_six_node")
        custom = copy.deepcopy(load_raw("toy_gain")["ciders"][0])
        raw["ciders"].append({**custom, "node": "n5", "kind": "grid-supporting"})
        with pytest.raises(ScenarioError, match="kind must be") as exc:
            scenario_from_dict(raw)
        assert exc.value.field == "ciders.4.kind"

    def test_duplicate_resource(self):
        raw = load_raw("two_node")
        raw["ciders"].append(copy.deepcopy(raw["ciders"][1]))
        with pytest.raises(ScenarioError, match="more than one"):
            scenario_from_dict(raw)

    def test_forming_node_needs_resource(self):
        raw = load_raw("two_node")
        raw["ciders"] = [raw["ciders"][1]]  # drop the voltage-forming unit
        with pytest.raises(ScenarioError, match="forming"):
            scenario_from_dict(raw)

    def test_single_value_sweep_rejected(self):
        raw = copy.deepcopy(MINIMAL)
        raw["sweeps"] = {"bad": {"path": "grid.branches.0.r", "values": [0.1]}}
        with pytest.raises(ScenarioError, match="sweeps.bad.values"):
            scenario_from_dict(raw)

    def test_sweep_path_validated_on_load(self):
        raw = copy.deepcopy(MINIMAL)
        raw["sweeps"] = {"bad": {"path": "grid.branches.3.r", "values": [0.1, 0.2]}}
        with pytest.raises(ScenarioError):
            scenario_from_dict(raw)

    @pytest.mark.parametrize(
        "name, cider, path, value, field",
        [
            ("two_node", 0, "hardware.filter.l", "x", "ciders.0.hardware.filter.l"),
            ("two_node", 0, "control.gains.kp", None, "ciders.0.control.gains.kp"),
            ("two_node", 0, "node", DELETE, "ciders.0"),
            ("two_node", 0, "setpoint.harmonics", [1, 2], "ciders.0.setpoint.harmonics"),
            ("two_node", 1, "operating_point", 5, "ciders.1.operating_point"),
            ("two_node", 0, "setpoint", 5, "ciders.0.setpoint"),
            ("toy_gain", 0, "reference.channels", "x", "ciders.0.reference.channels"),
            ("toy_gain", 0, "reference.channels", 0, "ciders.0.reference.channels"),
            ("toy_gain", 0, "reference.channels", -1, "ciders.0.reference.channels"),
            ("toy_gain", 0, "reference.d_rho", 0, "ciders.0.reference.d_rho"),
            ("toy_gain", 0, "reference.d_rho", -1, "ciders.0.reference.d_rho"),
            ("toy_gain", 0, "setpoint.channels", 3.7, "ciders.0.setpoint.channels"),
            ("toy_gain", 0, "reference.channels", 3.2, "ciders.0.reference.channels"),
            ("toy_gain", 0, "reference.d_rho", 3.9, "ciders.0.reference.d_rho"),
            ("two_node", 0, "setpoint.channels", 5, "ciders.0.setpoint.channels"),
            (
                "two_node",
                1,
                "operating_point.w_pi.channels",
                7,
                "ciders.1.operating_point.w_pi.channels",
            ),
            ("toy_gain", 0, "setpoint.channels", 2, "ciders.0.setpoint.channels"),
            (
                "toy_gain",
                0,
                "operating_point.w_pi.channels",
                2,
                "ciders.0.operating_point.w_pi.channels",
            ),
            (
                "two_node",
                0,
                "setpoint.harmonics",
                {"0": [325.0, 0.0, 0.0]},
                "ciders.0.setpoint.harmonics.0",
            ),
            ("toy_gain", 0, "routing.ctl_inputs", 5, "ciders.0.routing.ctl_inputs"),
            ("toy_gain", 0, "hardware.0.state_names", 5, "ciders.0.hardware.0.state_names"),
            (
                "toy_gain",
                0,
                "transforms.hardware_to_control",
                {"type": "park", "theta0": "x"},
                "ciders.0.transforms.hardware_to_control.theta0",
            ),
            ("two_node", 1, "control.gains.ki", True, "ciders.1.control.gains.ki"),
            ("two_node", 0, "hardware.filter.l", True, "ciders.0.hardware.filter.l"),
            (
                "two_node",
                0,
                "setpoint.harmonics",
                {"0": [True, False]},
                "ciders.0.setpoint.harmonics.0.0",
            ),
            ("toy_gain", 0, "routing.ctl_inputs.1.meas", True, "ciders.0.routing.ctl_inputs.1.meas"),
            (
                "toy_gain",
                0,
                "routing.hw_actuation_inputs",
                [False, 1, 2],
                "ciders.0.routing.hw_actuation_inputs.0",
            ),
            ("two_node", 0, "extra", 1, "ciders.0"),
            ("two_node", 1, "extra", 1, "ciders.1"),
            ("toy_gain", 0, "extra", 1, "ciders.0"),
            ("two_node", 0, "hardware.extra", 1, "ciders.0.hardware"),
            ("two_node", 0, "hardware.filter.x", 1.0, "ciders.0.hardware.filter"),
            ("two_node", 1, "hardware.filter.c", 1e-05, "ciders.1.hardware.filter"),
            ("two_node", 0, "control.extra", 1, "ciders.0.control"),
            ("two_node", 0, "control.gains.kd", 1.0, "ciders.0.control.gains"),
            ("two_node", 0, "setpoint.harmonic", {"0": [1.0, 0.0]}, "ciders.0.setpoint"),
            ("two_node", 0, "operating_point.extra", 1, "ciders.0.operating_point"),
            (
                "two_node",
                1,
                "operating_point.w_pi.harmonic",
                {},
                "ciders.1.operating_point.w_pi",
            ),
            ("toy_gain", 0, "hardware.0.e", {"0": [[1.0]]}, "ciders.0.hardware.0"),
            ("toy_gain", 0, "routing.extra", 1, "ciders.0.routing"),
            ("toy_gain", 0, "routing.ctl_inputs.0.gain", 1, "ciders.0.routing.ctl_inputs.0"),
            ("toy_gain", 0, "transforms.extra", {}, "ciders.0.transforms"),
            (
                "toy_gain",
                0,
                "transforms.grid_to_hardware.theta0",
                0.0,
                "ciders.0.transforms.grid_to_hardware",
            ),
            (
                "toy_gain",
                0,
                "transforms.hardware_to_control",
                {"type": "park", "theta": 0.1},
                "ciders.0.transforms.hardware_to_control",
            ),
            (
                "toy_gain",
                0,
                "transforms.control_to_hardware",
                {"type": "inverse-park", "dim": 3},
                "ciders.0.transforms.control_to_hardware",
            ),
            (
                "toy_gain",
                0,
                "transforms.hardware_to_control",
                {"type": "custom", "harmonics": {"0": [[1.0]]}, "dim": 1},
                "ciders.0.transforms.hardware_to_control",
            ),
            ("toy_gain", 0, "reference.gain", 1, "ciders.0.reference"),
            ("toy_gain", 0, "reference", {"type": "pq", "channels": 2}, "ciders.0.reference"),
            (
                "toy_gain",
                0,
                "reference",
                {"type": "affine", "m_rho": [[0.0]], "m_sigma": [[1.0]], "d_rho": 1},
                "ciders.0.reference",
            ),
            ("toy_gain", 0, "kind", ["grid-forming"], "ciders.0.kind"),
            (
                "toy_gain",
                0,
                "transforms.grid_to_hardware.type",
                ["identity"],
                "ciders.0.transforms.grid_to_hardware.type",
            ),
            ("toy_gain", 0, "reference.type", {"vf": 1}, "ciders.0.reference.type"),
            ("two_node", 0, "setpoint.harmonics.+0", [1.0, 0.0], "ciders.0.setpoint.harmonics.+0"),
            ("toy_gain", 0, "hardware.0.a.00", [[1.0] * 3] * 3, "ciders.0.hardware.0.a.00"),
            (
                "toy_gain",
                0,
                "reference",
                {
                    "type": "affine",
                    "m_rho": [[0.0] * 3] * 3,
                    "m_sigma": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, [1, 5]]],
                },
                "ciders.0.reference.m_sigma.2.2",
            ),
            ("two_node", 1, "operating_point.w_pi", DELETE, "ciders.1.operating_point"),
        ],
        ids=[
            "filter-l-string",
            "kp-null",
            "node-missing",
            "harmonics-list",
            "op-number",
            "setpoint-number",
            "reference-channels-string",
            "reference-channels-zero",
            "reference-channels-negative",
            "reference-d-rho-zero",
            "reference-d-rho-negative",
            "setpoint-channels-fractional",
            "reference-channels-fractional",
            "reference-d-rho-fractional",
            "vf-setpoint-channels-contradict",
            "pq-w-pi-channels-contradict",
            "custom-setpoint-channels-contradict",
            "custom-w-pi-channels-contradict",
            "setpoint-entry-width",
            "ctl-inputs-number",
            "state-names-number",
            "theta0-string",
            "ki-bool",
            "filter-l-bool",
            "setpoint-entry-bool",
            "meas-index-bool",
            "routing-index-bool",
            "vf-unknown-entry",
            "pq-unknown-entry",
            "custom-unknown-entry",
            "hardware-unknown-entry",
            "vf-filter-unknown-entry",
            "pq-filter-c",
            "control-unknown-entry",
            "gains-kd",
            "setpoint-harmonic",
            "operating-point-unknown-entry",
            "w-pi-unknown-entry",
            "block-unknown-entry",
            "routing-unknown-entry",
            "ctl-input-unknown-entry",
            "transforms-unknown-entry",
            "identity-theta0",
            "park-theta",
            "inverse-park-dim",
            "custom-transform-dim",
            "vf-reference-unknown-entry",
            "pq-reference-channels",
            "affine-reference-d-rho",
            "custom-kind-list",
            "transform-type-list",
            "reference-type-object",
            "setpoint-order-plus-zero",
            "block-order-double-zero",
            "affine-imaginary-gain",
            "pq-w-pi-missing",
        ],
    )
    def test_malformed_resource_names_field(self, name, cider, path, value, field):
        raw = load_raw(name)
        *parents, key = path.split(".")
        entry = raw["ciders"][cider]
        for segment in parents:
            entry = entry[int(segment)] if isinstance(entry, list) else entry[segment]
        if value is DELETE:
            del entry[key]
        else:
            entry[key] = value
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(raw)
        assert exc.value.field == field


class TestParameterPaths:
    def test_resolve(self, two_node):
        assert two_node.resolve_parameter("ciders.0.control.gains.kp") == 0.05
        assert two_node.resolve_parameter("grid.branches.0.r") == 0.1

    def test_resolve_non_scalar_rejected(self, two_node):
        with pytest.raises(ScenarioError, match="numeric scalar"):
            two_node.resolve_parameter("grid.branches.0")

    def test_with_parameter_rebuilds(self, two_node):
        changed = two_node.with_parameter("grid.branches.0.r", 0.3)
        assert changed.resolve_parameter("grid.branches.0.r") == 0.3
        assert two_node.resolve_parameter("grid.branches.0.r") == 0.1  # original intact
        assert changed.topology.branches[0].resistance[0, 0] == 0.3

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_with_parameter_non_finite_rejected(self, two_node, value):
        with pytest.raises(ScenarioError, match="not finite") as exc:
            two_node.with_parameter("grid.branches.0.r", value)
        assert exc.value.field == "grid.branches.0.r"

    def test_with_hmax(self, two_node):
        assert two_node.with_hmax(3).hmax == 3

    def test_missing_segment(self, two_node):
        with pytest.raises(ScenarioError, match="no entry"):
            two_node.resolve_parameter("ciders.0.control.gains.kd")


class TestValidationCompleteness:
    @pytest.mark.parametrize("name", ["two_node", "rlc_grid", "toy_gain"])
    def test_loaded_scenarios_run_eig(self, name):
        scenario = load_scenario(scenario_path(name))
        if name == "two_node":
            scenario = scenario.with_hmax(2)
        results = run_command("eig", scenario)
        assert results.records
        assert results.meta["stable"] is True

    def test_assembled_dimensions(self, two_node):
        system = assemble_system(two_node.with_hmax(1))
        count = 2 * 1 + 1
        per_channel = sum(
            len(c.model.state_names) for c in system.ciders
        ) + len(system.grid_model.state_names)
        assert system.model.state_dim == count * per_channel
