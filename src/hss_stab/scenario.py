"""Scenario files: loading, validation and dotted parameter paths.

A scenario is a single JSON document describing the harmonic grid
settings, the electrical topology, the resources with their setpoints
and operating trajectories, named parameter sweeps and analysis
tolerances.  Everything the downstream modules need is pre-validated
here with path-to-field diagnostics.
"""

from __future__ import annotations

import copy
import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import jsonschema
import numpy as np

from .errors import ScenarioError
from .grid import Branch, GridNode, GridTopology
from .templates import CiderConfig, build_cider_config

DEFAULT_F1 = 50.0
DEFAULT_HMAX = 25

_NUMBER_OR_PAIR = {
    "oneOf": [
        {"type": "number"},
        {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 2,
            "maxItems": 2,
        },
    ]
}
_PHASE_MATRIX = {
    "oneOf": [
        {"type": "number"},
        {
            "type": "array",
            "minItems": 3,
            "maxItems": 3,
            "items": {
                "type": "array",
                "minItems": 3,
                "maxItems": 3,
                "items": {"type": "number"},
            },
        },
    ]
}

SCHEMA = {
    "type": "object",
    "required": ["grid"],
    "additionalProperties": False,
    "properties": {
        "system": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "f1": {"type": "number", "exclusiveMinimum": 0},
                "hmax": {"type": "integer", "minimum": 0},
            },
        },
        "grid": {
            "type": "object",
            "required": ["nodes"],
            "additionalProperties": False,
            "properties": {
                "nodes": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "required": ["id", "kind"],
                        "additionalProperties": False,
                        "properties": {
                            "id": {"type": "string"},
                            "kind": {"enum": ["forming", "following"]},
                        },
                    },
                },
                "branches": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["from", "to", "r", "l"],
                        "additionalProperties": False,
                        "properties": {
                            "from": {"type": "string"},
                            "to": {"type": "string"},
                            "r": _PHASE_MATRIX,
                            "l": _PHASE_MATRIX,
                        },
                    },
                },
                "shunts": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["node", "c"],
                        "additionalProperties": False,
                        "properties": {
                            "node": {"type": "string"},
                            "c": _PHASE_MATRIX,
                        },
                    },
                },
            },
        },
        "ciders": {"type": "array", "items": {"type": "object"}},
        "sweeps": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["path", "values"],
                "additionalProperties": False,
                "properties": {
                    "path": {"type": "string"},
                    "values": {
                        "type": "array",
                        "minItems": 2,
                        "items": {"type": "number"},
                    },
                },
            },
        },
        "analysis": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "stability_margin": {"type": "number"},
                "classification_tolerance": {"type": ["number", "null"]},
                "spurious_tolerance": {"type": ["number", "null"]},
                "control_parameters": {"type": "array", "items": {"type": "string"}},
                "hardware_parameters": {"type": "array", "items": {"type": "string"}},
            },
        },
    },
}


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


@functools.cache
def _schema_validator():
    """Validator of ``SCHEMA``; the schema itself is checked on first use only."""
    cls = jsonschema.validators.validator_for(SCHEMA)
    cls.check_schema(SCHEMA)
    return cls(SCHEMA)


def scenario_from_dict(raw: dict, source: str | None = None) -> Scenario:
    error = jsonschema.exceptions.best_match(_schema_validator().iter_errors(raw))
    if error is not None:
        field = ".".join(str(s) for s in error.absolute_path) or "<document>"
        raise ScenarioError(error.message, field=field, path=source)
    for field in _non_finite_fields(raw):  # the first, if any: json.loads and jsonschema take NaN
        raise ScenarioError("number is not finite", field=field, path=source)

    system = raw.get("system", {})
    f1 = float(system.get("f1", DEFAULT_F1))
    hmax = int(system.get("hmax", DEFAULT_HMAX))

    topology = _build_topology(raw["grid"], source)
    ciders = tuple(
        build_cider_config(c, i) for i, c in enumerate(raw.get("ciders", []))
    )
    _cross_validate(topology, ciders, source)

    sweeps = {
        name: SweepDef(sw["path"], tuple(float(v) for v in sw["values"]))
        for name, sw in raw.get("sweeps", {}).items()
    }
    an = raw.get("analysis", {})
    analysis = AnalysisOptions(
        stability_margin=float(an.get("stability_margin", 0.0)),
        classification_tolerance=an.get("classification_tolerance"),
        spurious_tolerance=an.get("spurious_tolerance"),
        control_parameters=tuple(an.get("control_parameters", ())),
        hardware_parameters=tuple(an.get("hardware_parameters", ())),
    )
    scenario = Scenario(raw, source, f1, hmax, topology, ciders, sweeps, analysis)
    for name, sw in sweeps.items():
        scenario.resolve_parameter(sw.path)
    return scenario


def _non_finite_fields(node, path=()):
    """Dotted paths of the NaN and infinite numbers in ``node``, in document order."""
    if isinstance(node, float) and not math.isfinite(node):
        yield ".".join(path)
    elif isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _non_finite_fields(value, path + (str(key),))


def _build_topology(grid_raw, source) -> GridTopology:
    nodes = tuple(GridNode(n["id"], n["kind"]) for n in grid_raw["nodes"])
    branches = tuple(
        Branch(b["from"], b["to"], np.asarray(b["r"], float), np.asarray(b["l"], float))
        for b in grid_raw.get("branches", [])
    )
    shunts = {s["node"]: np.asarray(s["c"], float) for s in grid_raw.get("shunts", [])}
    return GridTopology(nodes, branches, shunts)


def _cross_validate(topology: GridTopology, ciders, source):
    kinds = {n.node_id: n.kind for n in topology.nodes}
    seen = set()
    for i, cfg in enumerate(ciders):
        if cfg.node_id not in kinds:
            raise ScenarioError(
                f"resource references unknown node '{cfg.node_id}'",
                field=f"ciders.{i}.node",
                path=source,
            )
        if cfg.node_id in seen:
            raise ScenarioError(
                f"node '{cfg.node_id}' hosts more than one resource",
                field=f"ciders.{i}.node",
                path=source,
            )
        seen.add(cfg.node_id)
        expected = "forming" if cfg.kind == "grid-forming" else "following"
        if kinds[cfg.node_id] != expected:
            raise ScenarioError(
                f"a {cfg.kind} resource cannot sit at a {kinds[cfg.node_id]} node "
                f"'{cfg.node_id}'",
                field=f"ciders.{i}.kind",
                path=source,
            )
    if ciders:
        forming_hosts = {c.node_id for c in ciders if c.kind == "grid-forming"}
        missing = set(topology.forming_ids) - forming_hosts
        if missing:
            raise ScenarioError(
                f"forming nodes without a voltage-forming resource: {sorted(missing)}",
                field="ciders",
                path=source,
            )
