"""Assembly with the pieces of a nominal system reused (``assemble_system(like=...)``)."""

import dataclasses
from collections.abc import Mapping

import numpy as np
import pytest
import scipy.sparse as sp

from hss_stab import analysis, classify_eigenvalues, pipeline, scenario_from_dict
from hss_stab.pipeline import assemble_system
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
    return {name: assemble_system(nominal(name), state_only=True) for name in CASES}


@pytest.mark.parametrize("name, path, rel", list(perturbations()))
def test_reuse_equals_fresh_assembly(name, path, rel, nominal_systems, monkeypatch):
    base = nominal_systems[name]
    scenario = base.scenario.with_parameter(path, base.scenario.resolve_parameter(path) * (1 + rel))
    fresh = assemble_system(scenario, state_only=True)

    calls = []
    internal = pipeline.assemble_internal_response
    monkeypatch.setattr(
        pipeline,
        "assemble_internal_response",
        lambda *args, **kwargs: calls.append(kwargs["name"]) or internal(*args, **kwargs),
    )
    reused = assemble_system(scenario, state_only=True, like=base.pieces)

    assert np.array_equal(reused.model.a, fresh.model.a)
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
    other = assemble_system(base.scenario.with_hmax(3), state_only=True, like=base.pieces)
    assert other.grid_model is not base.grid_model
    assert not {id(c) for c in other.ciders} & {id(c) for c in base.ciders}
    fresh = assemble_system(base.scenario.with_hmax(3), state_only=True)
    assert np.array_equal(other.model.a, fresh.model.a)


def array_leaves(obj, path="system"):
    """(path, array) of every ndarray and sparse array reachable from ``obj``."""
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif sp.issparse(obj):
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
    assemble = analysis.assemble_system

    def recording(scenario, state_only=False, like=None):
        system = assemble(scenario, state_only=state_only, like=like)
        if like is None:
            seen.append((system, {p: a.copy() for p, a in pieces(system)}))
        return system

    monkeypatch.setattr(analysis, "assemble_system", recording)
    return seen


def pieces(system):
    return array_leaves((system.pieces.grid_model, system.pieces.ciders), "pieces")


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
