"""Scenario files: loading, validation and dotted parameter paths.

A scenario is a single JSON document describing the harmonic grid
settings, the electrical topology, the resources with their setpoints
and operating trajectories, named parameter sweeps and analysis
tolerances.  Everything the downstream modules need is pre-validated
here, with the field-path helpers of ``templates``, and every error names
its field.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Mapping

from .cider import CiderConfig
from .errors import ScenarioError
from .grid import FOLLOWING, FORMING, Branch, GridNode, GridTopology
from .templates import (
    DOCUMENT,
    _as_number,
    _count,
    _entries,
    _number,
    _require,
    _strings,
    build_cider_config,
)

DEFAULT_F1 = 50.0
DEFAULT_HMAX = 25

@dataclass(frozen=True)
class SweepDef:
    path: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class AnalysisOptions:
    stability_margin: float = 0.0
    classification_tolerance: float | None = None
    spurious_tolerance: float | None = None
    control_parameters: tuple[str, ...] = ()
    hardware_parameters: tuple[str, ...] = ()


@dataclass(frozen=True)
class Scenario:
    raw: Mapping[str, Any]
    source: str | None
    f1: float
    hmax: int
    topology: GridTopology
    ciders: tuple[CiderConfig, ...]
    sweeps: Mapping[str, SweepDef]
    analysis: AnalysisOptions

    # -- dotted parameter paths -------------------------------------------

    def resolve_parameter(self, path: str) -> float:
        """Value of a dotted path into the scenario document; must be a number."""
        value = _walk(self.raw, path, self.source)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioError(
                f"parameter path does not address a numeric scalar (found "
                f"{type(value).__name__})",
                field=path,
                path=self.source,
            )
        return float(value)

    def with_parameter(self, path: str, value: float) -> "Scenario":
        raw = copy.deepcopy(dict(self.raw))
        _assign(raw, path, float(value), self.source)
        return scenario_from_dict(raw, source=self.source)

    def with_hmax(self, hmax: int) -> "Scenario":
        raw = copy.deepcopy(dict(self.raw))
        raw.setdefault("system", {})["hmax"] = int(hmax)
        return scenario_from_dict(raw, source=self.source)


def _segments(path: str):
    if not path:
        raise ScenarioError("empty parameter path")
    return path.split(".")


def _walk(doc, path: str, source=None):
    node = doc
    for seg in _segments(path):
        if isinstance(node, list):
            try:
                node = node[int(seg)]
            except (ValueError, IndexError):
                raise ScenarioError(
                    f"cannot index list with '{seg}'", field=path, path=source
                )
        elif isinstance(node, dict):
            if seg not in node:
                raise ScenarioError(f"no entry '{seg}'", field=path, path=source)
            node = node[seg]
        else:
            raise ScenarioError(
                f"path descends into a scalar at '{seg}'", field=path, path=source
            )
    return node


def _assign(doc, path: str, value, source=None):
    segs = _segments(path)
    parent = _walk(doc, ".".join(segs[:-1]), source) if len(segs) > 1 else doc
    last = segs[-1]
    if isinstance(parent, list):
        try:
            parent[int(last)] = value
        except (ValueError, IndexError):
            raise ScenarioError(f"cannot index list with '{last}'", field=path, path=source)
    elif isinstance(parent, dict):
        if last not in parent:
            raise ScenarioError(f"no entry '{last}'", field=path, path=source)
        parent[last] = value
    else:
        raise ScenarioError("path addresses a scalar container", field=path, path=source)


def load_scenario(path) -> Scenario:
    """Parse and fully validate a scenario file."""
    p = Path(path)
    try:
        raw = json.loads(p.read_text())
    except FileNotFoundError:
        raise ScenarioError("file not found", path=str(p)) from None
    except OSError as exc:
        raise ScenarioError(f"cannot read file: {exc.strerror}", path=str(p)) from None
    except ValueError as exc:
        raise ScenarioError(f"invalid JSON: {exc}", path=str(p))
    return scenario_from_dict(raw, source=str(p))


def scenario_from_dict(raw: dict, source: str | None = None) -> Scenario:
    """Validate a scenario document and build its Scenario; a ScenarioError
    names ``source`` and the field at fault."""
    try:
        return _parse(raw, source)
    except ScenarioError as exc:
        if exc.path is not None:
            raise
        raise ScenarioError(exc.message, field=exc.field, path=source) from None


def _parse(raw, source) -> Scenario:
    for field in _non_finite_fields(raw):  # the first, if any: json.loads takes NaN
        raise ScenarioError("number is not finite", field=field)
    _entries(raw, DOCUMENT, ("grid",), ("system", "ciders", "sweeps", "analysis"))
    system = _entries(raw.get("system", {}), "system", optional=("f1", "hmax"))
    f1 = _number(system, "f1", "system", default=DEFAULT_F1)
    if f1 <= 0:
        raise ScenarioError(f"expected a number > 0, got {f1}", field="system.f1")
    hmax = _count(system, "hmax", "system", 0, default=DEFAULT_HMAX)

    topology = _build_topology(raw["grid"])
    ciders = tuple(
        build_cider_config(c, i)
        for i, c in enumerate(_require(raw, "ciders", DOCUMENT, list, default=[]))
    )
    _cross_validate(topology, ciders)

    sweeps = {
        name: _sweep(sw, f"sweeps.{name}")
        for name, sw in _require(raw, "sweeps", DOCUMENT, dict, default={}).items()
    }
    keys = tuple(f.name for f in fields(AnalysisOptions))
    an = _entries(raw.get("analysis", {}), "analysis", optional=keys)
    analysis = AnalysisOptions(
        stability_margin=_number(an, "stability_margin", "analysis", default=0.0),
        classification_tolerance=_number(an, "classification_tolerance", "analysis", default=None),
        spurious_tolerance=_number(an, "spurious_tolerance", "analysis", default=None),
        control_parameters=_strings(an, "control_parameters", "analysis"),
        hardware_parameters=_strings(an, "hardware_parameters", "analysis"),
    )
    scenario = Scenario(raw, source, f1, hmax, topology, ciders, sweeps, analysis)
    for name, sw in sweeps.items():
        scenario.resolve_parameter(sw.path)
    return scenario


def _sweep(raw, field) -> SweepDef:
    values = _require(_entries(raw, field, ("path", "values")), "values", field, list)
    if len(values) < 2:
        raise ScenarioError(f"expected at least 2 values, got {len(values)}", field=f"{field}.values")
    return SweepDef(
        _require(raw, "path", field, str),
        tuple(_as_number(v, f"{field}.values.{i}") for i, v in enumerate(values)),
    )


def _non_finite_fields(node, path=()):
    """Dotted paths of the numbers in ``node`` that no finite float holds (NaN,
    the infinities and integers too large for a float), in document order."""
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _non_finite_fields(value, path + (str(key),))
    elif isinstance(node, (int, float)):
        try:
            finite = math.isfinite(node)
        except OverflowError:
            finite = False
        if not finite:
            yield ".".join(path)


def _build_topology(raw) -> GridTopology:
    grid = _entries(raw, "grid", ("nodes",), ("branches", "shunts"))
    nodes = _require(grid, "nodes", "grid", list)
    if not nodes:
        raise ScenarioError("expected at least one node", field="grid.nodes")
    branches = _require(grid, "branches", "grid", list, default=[])
    shunts = _require(grid, "shunts", "grid", list, default=[])
    return GridTopology(
        tuple(_node(n, f"grid.nodes.{i}") for i, n in enumerate(nodes)),
        tuple(_branch(b, f"grid.branches.{i}") for i, b in enumerate(branches)),
        dict(_shunt(s, f"grid.shunts.{i}") for i, s in enumerate(shunts)),
    )


def _node(raw, field) -> GridNode:
    kind = _entries(raw, field, ("id", "kind"))["kind"]
    if kind not in (FORMING, FOLLOWING):
        raise ScenarioError(
            f"expected '{FORMING}' or '{FOLLOWING}', got {kind!r}", field=f"{field}.kind"
        )
    return GridNode(_require(raw, "id", field, str), kind)


def _branch(raw, field) -> Branch:
    _entries(raw, field, ("from", "to", "r", "l"))
    return Branch(
        _require(raw, "from", field, str),
        _require(raw, "to", field, str),
        _phase_matrix(raw, "r", field),
        _phase_matrix(raw, "l", field),
    )


def _shunt(raw, field) -> tuple[str, float | list]:
    _entries(raw, field, ("node", "c"))
    return _require(raw, "node", field, str), _phase_matrix(raw, "c", field)


def _phase_matrix(section, key, field) -> float | list:
    """A number (the same decoupled phases) or a 3x3 array of numbers."""
    value, at = _require(section, key, field), f"{field}.{key}"
    if not isinstance(value, list):
        return _as_number(value, at)
    if len(value) != 3 or not all(isinstance(row, list) and len(row) == 3 for row in value):
        raise ScenarioError(f"expected a number or 3x3 numbers, got {value!r}", field=at)
    return [[_as_number(v, f"{at}.{i}.{k}") for k, v in enumerate(row)] for i, row in enumerate(value)]


def _cross_validate(topology: GridTopology, ciders):
    kinds = {n.node_id: n.kind for n in topology.nodes}
    seen = set()
    for i, cfg in enumerate(ciders):
        if cfg.node_id not in kinds:
            raise ScenarioError(
                f"resource references unknown node '{cfg.node_id}'",
                field=f"ciders.{i}.node",
            )
        if cfg.node_id in seen:
            raise ScenarioError(
                f"node '{cfg.node_id}' hosts more than one resource",
                field=f"ciders.{i}.node",
            )
        seen.add(cfg.node_id)
        expected = "forming" if cfg.kind == "grid-forming" else "following"
        if kinds[cfg.node_id] != expected:
            raise ScenarioError(
                f"a {cfg.kind} resource cannot sit at a {kinds[cfg.node_id]} node "
                f"'{cfg.node_id}'",
                field=f"ciders.{i}.kind",
            )
    if ciders:
        forming_hosts = {c.node_id for c in ciders if c.kind == "grid-forming"}
        missing = set(topology.forming_ids) - forming_hosts
        if missing:
            raise ScenarioError(
                f"forming nodes without a voltage-forming resource: {sorted(missing)}",
                field="ciders",
            )
