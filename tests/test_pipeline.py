"""Assembly with the pieces of a nominal system reused (``assemble(like=...)``)."""

import dataclasses
from collections.abc import Mapping

import numpy as np
import pytest

from hss_stab import analysis, classify_eigenvalues, pipeline, scenario_from_dict
from hss_stab.pipeline import assemble
from hss_stab.sparse import Csr
from tests.conftest import load_raw

CASES = {"two_node": 8, "four_cider_six_node": 5}


def nominal(name):
    return scenario_from_dict(load_raw(name)).with_hmax(CASES[name])


def perturbations():
    for name in CASES:
        analysis_opts = load_raw(name)["analysis"]
        for path in analysis_opts["control_parameters"] + analysis_opts["hardware_parameters"]:
            for rel in (-0.1, 0.1):
                yield pytest.param(name, path, rel, id=f"{name}-{path}-{rel:+}")


@pytest.fixture(scope="module")
def nominal_systems():
    return {name: assemble(nominal(name), state_only=True) for name in CASES}


@pytest.mark.parametrize("name, path, rel", list(perturbations()))
def test_reuse_equals_fresh_assembly(name, path, rel, nominal_systems, monkeypatch):
    base = nominal_systems[name]
    scenario = base.scenario.with_parameter(path, base.scenario.resolve_parameter(path) * (1 + rel))
    fresh = assemble(scenario, state_only=True)

    calls = []
    internal = pipeline.assemble_internal_response
    monkeypatch.setattr(
        pipeline,
        "assemble_internal_response",
        lambda config, index_set: calls.append(config.node_id) or internal(config, index_set),
    )
    reused = assemble(scenario, state_only=True, like=base)

    assert_same_arrays(reused.model.a, fresh.model.a)
    # only the resource the parameter belongs to is rebuilt; a grid
    # parameter rebuilds none, but lifts the grid anew
    if path.startswith("ciders."):
        assert calls == [scenario.ciders[int(path.split(".")[1])].node_id]
        assert reused.grid_model is base.grid_model
    else:
        assert calls == []
        assert reused.grid_model is not base.grid_model
    resources = {cfg.node_id for cfg in scenario.ciders}
    for cider, before in zip(reused.ciders, base.ciders, strict=True):
        if cider.node_id in resources:
            assert (cider is before) == (cider.node_id not in calls)


def test_other_harmonic_grid_reuses_nothing(nominal_systems):
    base = nominal_systems["two_node"]
    other = assemble(base.scenario.with_hmax(3), state_only=True, like=base)
    assert other.grid_model is not base.grid_model
    assert not {id(c) for c in other.ciders} & {id(c) for c in base.ciders}
    fresh = assemble(base.scenario.with_hmax(3), state_only=True)
    assert_same_arrays(other.model.a, fresh.model.a)


@pytest.mark.parametrize("name", list(CASES))
def test_full_assembly_rebuilds_state_only_resources(name, nominal_systems):
    # a state-only system's resources carry the gamma port alone, so a
    # full assembly reuses none of them and equals a fresh one bit for bit
    base = nominal_systems[name]
    reused = assemble(base.scenario, like=base)
    fresh = assemble(base.scenario)
    assert reused.grid_model is base.grid_model
    assert not {id(c) for c in reused.ciders} & {id(c) for c in base.ciders}
    assert reused.model.ports == fresh.model.ports == ("sigma", "o")
    assert_same_arrays(reused.model, fresh.model)


@pytest.mark.parametrize("name, hmax", [("two_node", 5), ("four_cider_six_node", 4)])
def test_state_only_assembly_reuses_full_resources(name, hmax, monkeypatch):
    # a full system carries every port, so a state-only assembly reuses
    # each unchanged resource and stacks its gamma port alone
    base = assemble(nominal(name).with_hmax(hmax))
    path = load_raw(name)["analysis"]["control_parameters"][0]
    scenario = base.scenario.with_parameter(path, base.scenario.resolve_parameter(path) * 1.1)
    fresh = assemble(scenario, state_only=True)

    calls = []
    internal = pipeline.assemble_internal_response
    monkeypatch.setattr(
        pipeline,
        "assemble_internal_response",
        lambda config, index_set: calls.append(config.node_id) or internal(config, index_set),
    )
    reused = assemble(scenario, state_only=True, like=base)

    changed = scenario.ciders[int(path.split(".")[1])].node_id
    assert calls == [changed]
    assert reused.grid_model is base.grid_model
    resources = {cfg.node_id for cfg in scenario.ciders}
    kept = [c for c, before in zip(reused.ciders, base.ciders, strict=True) if c is before]
    assert {c.node_id for c in kept} == resources - {changed}
    assert all(c.model.ports == ("gamma", "sigma", "o") for c in kept)

    def gamma_models(system):  # a following node's placeholder carries every port
        return [c.model.with_ports(("gamma",)) for c in system.ciders]

    assert_same_arrays(gamma_models(reused), gamma_models(fresh))
    for part in ("model", "resources", "open_loop", "interconnection", "closed"):
        assert_same_arrays(getattr(reused, part), getattr(fresh, part))


def assert_same_arrays(got, expected):
    """Every ndarray and sparse array of ``got`` equals its counterpart in
    ``expected`` bit for bit (the data, indices and indptr of a sparse one)."""
    leaves = dict(array_leaves(expected, "model"))
    assert leaves.keys() == dict(array_leaves(got, "model")).keys()
    for path, array in array_leaves(got, "model"):
        assert np.array_equal(array, leaves[path]), path


def array_leaves(obj, path="system"):
    """(path, array) of every ndarray and sparse array reachable from ``obj``."""
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif isinstance(obj, Csr):
        for part in ("data", "indices", "indptr"):
            yield f"{path}.{part}", getattr(obj, part)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from array_leaves(getattr(obj, f.name), f"{path}.{f.name}")
    elif isinstance(obj, Mapping):
        for key, value in obj.items():
            yield from array_leaves(value, f"{path}[{key!r}]")
    elif isinstance(obj, (tuple, list)):
        for k, value in enumerate(obj):
            yield from array_leaves(value, f"{path}[{k}]")


@pytest.fixture
def nominal_snapshots(monkeypatch):
    """(system, copies of its pieces' arrays) for every system that
    ``classify_eigenvalues`` assembles without ``like``, copied as it is made."""
    seen = []
    original = analysis.assemble

    def recording(scenario, state_only=False, like=None):
        system = original(scenario, state_only=state_only, like=like)
        if like is None:
            seen.append((system, {p: a.copy() for p, a in pieces(system)}))
        return system

    monkeypatch.setattr(analysis, "assemble", recording)
    return seen


def pieces(system):
    return array_leaves((system.grid_model, system.ciders), "pieces")


def test_classify_leaves_nominal_pieces_unchanged(nominal_snapshots):
    scenario = nominal("two_node").with_hmax(5)
    opts = scenario.analysis
    classify_eigenvalues(scenario, opts.control_parameters, opts.hardware_parameters)
    ((system, before),) = nominal_snapshots
    after = dict(pieces(system))
    # the grid lift and every resource model (all CSR) are among the arrays compared
    assert {
        "pieces[0].a.data",
        "pieces[1][0].model.a.data",
        "pieces[1][1].model.a.data",
    } <= before.keys()
    assert before.keys() == after.keys()
    for path, array in before.items():
        assert np.array_equal(after[path], array), path
