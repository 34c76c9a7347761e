"""Built-in resource templates and raw-block parsing for scenario files.

Two executable resources ship with the package: a voltage-controlled
(grid-forming) unit with an LC output filter and PI voltage control in
the rotating frame, and a power-controlled (grid-following) unit with an
L filter, PI current control and the nonlinear power reference.  All
gains and filter values come from the scenario; a 'custom' template
accepts raw LTP blocks keyed by harmonic order.  The field-path helpers
(``_entries``, ``_require``, ``_number``) check the rest of the scenario
document too, with one definition of a number: booleans are not numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .cider import (
    CiderTransforms,
    CtlInput,
    InternalRouting,
    LtpBlock,
    identity_series,
    inverse_park_series,
    lti_block,
    park_series,
)
from .errors import ScenarioError
from .references import AffineReference, PqReference, ReferencePlugin

PHASES = ("a", "b", "c")
GRID_FORMING = "grid-forming"
GRID_FOLLOWING = "grid-following"


@dataclass(frozen=True)
class CiderConfig:
    """Everything needed to assemble one resource at any harmonic grid."""

    node_id: str
    kind: str
    hardware: tuple[LtpBlock, ...]
    control: tuple[LtpBlock, ...]
    routing: InternalRouting
    transforms: CiderTransforms
    plugin: ReferencePlugin
    setpoint: Mapping[int, np.ndarray]
    w_pi: Mapping[int, np.ndarray]


def parse_number(value, field: str) -> complex:
    """A JSON number, or an [re, im] pair."""
    if _is_number(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(_is_number(v) for v in value):
        return complex(value[0], value[1])
    raise ScenarioError(f"expected a number or [re, im] pair, got {value!r}", field=field)


def parse_matrix(value, field: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ScenarioError("expected a non-empty nested array", field=field)
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list):
            raise ScenarioError("matrix rows must be arrays", field=f"{field}.{i}")
        rows.append([parse_number(v, f"{field}.{i}.{k}") for k, v in enumerate(row)])
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ScenarioError("matrix rows differ in length", field=field)
    return np.array(rows, dtype=complex)


def parse_series(value, field: str) -> dict[int, np.ndarray]:
    if not isinstance(value, dict) or not value:
        raise ScenarioError("expected {harmonic order: matrix}", field=field)
    out = {}
    for key, mat in value.items():
        try:
            h = int(key)
        except ValueError:
            raise ScenarioError(f"'{key}' is not an integer harmonic order", field=field)
        out[h] = parse_matrix(mat, f"{field}.{key}")
    return out


def parse_harmonic_vectors(value, channels: int, field: str) -> dict[int, np.ndarray]:
    """{order: flat channel vector} used for setpoints and trajectories."""
    out: dict[int, np.ndarray] = {}
    if value is None:
        return out
    if not isinstance(value, dict):
        raise ScenarioError("expected {harmonic order: vector}", field=field)
    for key, vec in value.items():
        try:
            h = int(key)
        except ValueError:
            raise ScenarioError(f"'{key}' is not an integer harmonic order", field=field)
        if not isinstance(vec, list):
            raise ScenarioError("harmonic entry must be an array", field=f"{field}.{key}")
        parsed = np.array(
            [parse_number(v, f"{field}.{key}.{i}") for i, v in enumerate(vec)]
        )
        if parsed.shape != (channels,):
            raise ScenarioError(
                f"harmonic entry has {parsed.shape[0]} channels, expected {channels}",
                field=f"{field}.{key}",
            )
        out[h] = parsed
    return out


def parse_transform(spec, field: str) -> dict[int, np.ndarray]:
    if not isinstance(spec, dict) or "type" not in spec:
        raise ScenarioError("transform needs a 'type'", field=field)
    kind = spec["type"]
    if kind == "identity":
        return identity_series(_count(spec, "dim", field, 1))
    if kind == "park":
        return park_series(_number(spec, "theta0", field, default=0.0))
    if kind == "inverse-park":
        return inverse_park_series(_number(spec, "theta0", field, default=0.0))
    if kind == "custom":
        return parse_series(spec.get("harmonics"), f"{field}.harmonics")
    raise ScenarioError(f"unknown transform type '{kind}'", field=field)


DOCUMENT = "<document>"
_KINDS = {list: "an array", dict: "an object", str: "a string"}
_REQUIRED = object()


def _at(field: str, key) -> str:
    """The field path of entry ``key`` of the section at ``field``."""
    return str(key) if field == DOCUMENT else f"{field}.{key}"


def _entries(section, field, required=(), optional=()):
    """``section``, an object holding every key of ``required`` and no key
    outside ``required`` and ``optional``."""
    if not isinstance(section, dict):
        raise ScenarioError(f"expected an object, got {section!r}", field=field)
    for key in section:
        if key not in required and key not in optional:
            allowed = ", ".join(required + optional)
            raise ScenarioError(f"unknown entry '{key}' (allowed: {allowed})", field=field)
    for key in required:
        _require(section, key, field)
    return section


def _require(section, key, field, kind=object, default=_REQUIRED):
    """The entry ``key`` of ``section``, which must be an instance of ``kind``;
    required unless ``default`` is given."""
    if isinstance(section, dict) and key not in section and default is not _REQUIRED:
        return default
    if not isinstance(section, dict) or key not in section:
        raise ScenarioError(f"missing required entry '{key}'", field=field)
    value = section[key]
    if not isinstance(value, kind):
        raise ScenarioError(f"expected {_KINDS[kind]}, got {value!r}", field=_at(field, key))
    return value


def _is_number(value) -> bool:
    """A JSON number: true and false are not, though Python's bool is an int."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_number(value, field, kind=float):
    """``value`` converted by ``kind``; an ``int`` must be integral: 3.7 is
    rejected, not truncated."""
    fractional = kind is int and isinstance(value, float) and not value.is_integer()
    if not _is_number(value) or fractional:
        noun = "an integer" if kind is int else "a number"
        raise ScenarioError(f"expected {noun}, got {value!r}", field=field)
    return kind(value)


def _number(section, key, field, kind=float, default=_REQUIRED):
    """A numeric entry converted by ``kind``; required unless ``default`` is
    given.  With a default of None the entry may also be null."""
    value = _require(section, key, field, default=default)
    if value is None and default is None:
        return None
    return _as_number(value, _at(field, key), kind)


def _count(section, key, field, minimum, default=_REQUIRED) -> int:
    """An integer entry no less than ``minimum``."""
    value = _number(section, key, field, int, default)
    if value < minimum:
        raise ScenarioError(f"expected an integer >= {minimum}, got {value}", field=_at(field, key))
    return value


def _strings(section, key, field) -> tuple[str, ...]:
    """An array of strings; empty when the entry is absent."""
    values = _require(section, key, field, list, default=[])
    for i, value in enumerate(values):
        if not isinstance(value, str):
            raise ScenarioError(f"expected a string, got {value!r}", field=f"{_at(field, key)}.{i}")
    return tuple(values)


def _indices(section, key, field) -> tuple[int, ...]:
    """A required array of channel indices."""
    values = _require(section, key, field, list)
    return tuple(_as_number(v, f"{_at(field, key)}.{i}", int) for i, v in enumerate(values))


def _trajectory(section, field, channels: int) -> dict[int, np.ndarray]:
    """The {order: vector} map of a trajectory section whose width is
    ``channels``; a ``channels`` entry, when given, must say the same."""
    if "channels" in section and _number(section, "channels", field, int) != channels:
        raise ScenarioError(
            f"declares {section['channels']!r} channels, the resource takes {channels}",
            field=f"{field}.channels",
        )
    return parse_harmonic_vectors(section.get("harmonics"), channels, f"{field}.harmonics")


def _resource(raw, field, kind, hardware, control, routing, transforms, plugin) -> CiderConfig:
    """A resource's configuration; its setpoint is as wide as the reference
    law's and its operating voltage trajectory as its grid inputs, empty
    when the resource gives none."""
    op = _require(raw, "operating_point", field, dict, default={})
    return CiderConfig(
        node_id=_require(raw, "node", field, str),
        kind=kind,
        hardware=hardware,
        control=control,
        routing=routing,
        transforms=transforms,
        plugin=plugin,
        setpoint=_trajectory(
            _require(raw, "setpoint", field, dict), f"{field}.setpoint", plugin.d_sigma
        ),
        w_pi=_trajectory(
            _require(op, "w_pi", f"{field}.operating_point", dict, default={}),
            f"{field}.operating_point.w_pi",
            len(routing.hw_grid_inputs),
        ),
    )


def _dq_config(raw, field, hardware: LtpBlock, plugin: ReferencePlugin, kind: str) -> CiderConfig:
    """A three-phase resource under PI control in the rotating (dq) frame:
    hardware inputs 0-2 actuate, 3-5 take the grid, outputs 0-2 are measured."""
    gains = _require(_require(raw, "control", field), "gains", f"{field}.control")
    kp = _number(gains, "kp", f"{field}.control.gains")
    ki = _number(gains, "ki", f"{field}.control.gains")
    pi = lti_block(
        "pi",
        np.zeros((2, 2)),
        np.eye(2),
        ki * np.eye(2),
        kp * np.eye(2),
        state_names=("pi.xi_d", "pi.xi_q"),
    )
    routing = InternalRouting(
        hw_grid_inputs=(3, 4, 5),
        hw_actuation_inputs=(0, 1, 2),
        ctl_measured_outputs=(0, 1, 2),
        ctl_inputs=(
            CtlInput("error", meas_index=0, ref_index=0),
            CtlInput("error", meas_index=1, ref_index=1),
        ),
    )
    transforms = CiderTransforms(
        grid_to_hw=identity_series(3),
        hw_to_ctl=park_series(),
        ctl_to_hw=inverse_park_series(),
        grid_out_to_hw_out=identity_series(3),
        hw_out_to_grid_out=identity_series(3),
    )
    return _resource(raw, field, kind, (hardware,), (pi,), routing, transforms, plugin)


def _vf_config(raw, field) -> CiderConfig:
    filt = _require(_require(raw, "hardware", field), "filter", f"{field}.hardware")
    l = _number(filt, "l", f"{field}.hardware.filter")
    r = _number(filt, "r", f"{field}.hardware.filter")
    c = _number(filt, "c", f"{field}.hardware.filter")
    if l <= 0 or c <= 0 or r < 0:
        raise ScenarioError("filter values must be positive (r >= 0)", field=f"{field}.hardware.filter")
    eye, zero = np.eye(3), np.zeros((3, 3))
    a = np.block([[-(r / l) * eye, -(1.0 / l) * eye], [(1.0 / c) * eye, zero]])
    b = np.block([[(1.0 / l) * eye, zero], [zero, -(1.0 / c) * eye]])
    c_mat = np.hstack([zero, eye])
    d = np.zeros((3, 6))
    names = tuple(f"lc.i_f.{p}" for p in PHASES) + tuple(f"lc.v_c.{p}" for p in PHASES)
    hardware = lti_block("lc", a, b, c_mat, d, state_names=names, phase_triples=(0, 3))
    return _dq_config(raw, field, hardware, _setpoint_reference(2, 2), GRID_FORMING)


def _pq_config(raw, field) -> CiderConfig:
    filt = _require(_require(raw, "hardware", field), "filter", f"{field}.hardware")
    l = _number(filt, "l", f"{field}.hardware.filter")
    r = _number(filt, "r", f"{field}.hardware.filter")
    if l <= 0 or r < 0:
        raise ScenarioError("filter values must be positive (r >= 0)", field=f"{field}.hardware.filter")
    eye, zero = np.eye(3), np.zeros((3, 3))
    a = -(r / l) * eye
    b = np.hstack([(1.0 / l) * eye, -(1.0 / l) * eye])
    names = tuple(f"lf.i.{p}" for p in PHASES)
    hardware = lti_block("lf", a, b, eye, np.zeros((3, 6)), state_names=names, phase_triples=(0,))
    cfg = _dq_config(raw, field, hardware, PqReference(), GRID_FOLLOWING)
    if "w_pi" not in raw.get("operating_point", {}):
        raise ScenarioError(
            "power-controlled resource needs an operating voltage trajectory",
            field=f"{field}.operating_point.w_pi",
        )
    return cfg


def parse_block(raw, field) -> LtpBlock:
    """Raw LTP block; absent matrices default to zeros of the inferred shape."""
    if not isinstance(raw, dict):
        raise ScenarioError("block must be an object", field=field)
    name = _require(raw, "name", field, str, default="block")
    series = {}
    for key in ("a", "b", "c", "d"):
        if key in raw:
            series[key] = parse_series(raw[key], f"{field}.{key}")
    nx = _series_dim(series, "a", 0)
    if nx is None:
        nx = _series_dim(series, "b", 0) or _series_dim(series, "c", 1) or 0
    nu = _series_dim(series, "b", 1)
    if nu is None:
        nu = _series_dim(series, "d", 1)
    ny = _series_dim(series, "c", 0)
    if ny is None:
        ny = _series_dim(series, "d", 0)
    if nu is None or ny is None:
        raise ScenarioError(
            "cannot infer block input/output dims; provide b or d and c or d",
            field=field,
        )
    series.setdefault("a", {0: np.zeros((nx, nx))})
    series.setdefault("b", {0: np.zeros((nx, nu))})
    series.setdefault("c", {0: np.zeros((ny, nx))})
    series.setdefault("d", {0: np.zeros((ny, nu))})
    state_names = _strings(raw, "state_names", field) if "state_names" in raw else None
    return LtpBlock(name, series["a"], series["b"], series["c"], series["d"], state_names)


def _series_dim(series, key, axis):
    if key not in series:
        return None
    return next(iter(series[key].values())).shape[axis]


def _custom_config(raw, field) -> CiderConfig:
    hardware = tuple(
        parse_block(b, f"{field}.hardware.{i}")
        for i, b in enumerate(_require(raw, "hardware", field, list))
    )
    control = tuple(
        parse_block(b, f"{field}.control.{i}")
        for i, b in enumerate(_require(raw, "control", field, list))
    )
    routing_raw = _require(raw, "routing", field)
    ctl_inputs = tuple(
        CtlInput(
            kind=_require(src, "kind", f"{field}.routing.ctl_inputs.{i}", str),
            meas_index=_number(src, "meas", f"{field}.routing.ctl_inputs.{i}", int, None),
            ref_index=_number(src, "ref", f"{field}.routing.ctl_inputs.{i}", int, None),
        )
        for i, src in enumerate(_require(routing_raw, "ctl_inputs", f"{field}.routing", list))
    )
    routing = InternalRouting(
        hw_grid_inputs=_indices(routing_raw, "hw_grid_inputs", f"{field}.routing"),
        hw_actuation_inputs=_indices(routing_raw, "hw_actuation_inputs", f"{field}.routing"),
        ctl_measured_outputs=_indices(routing_raw, "ctl_measured_outputs", f"{field}.routing"),
        ctl_inputs=ctl_inputs,
    )
    traw = _require(raw, "transforms", field)
    transforms = CiderTransforms(
        grid_to_hw=parse_transform(
            _require(traw, "grid_to_hardware", f"{field}.transforms"),
            f"{field}.transforms.grid_to_hardware",
        ),
        hw_to_ctl=parse_transform(
            _require(traw, "hardware_to_control", f"{field}.transforms"),
            f"{field}.transforms.hardware_to_control",
        ),
        ctl_to_hw=parse_transform(
            _require(traw, "control_to_hardware", f"{field}.transforms"),
            f"{field}.transforms.control_to_hardware",
        ),
        grid_out_to_hw_out=parse_transform(
            _require(traw, "grid_output_to_hardware_output", f"{field}.transforms"),
            f"{field}.transforms.grid_output_to_hardware_output",
        ),
        hw_out_to_grid_out=(
            parse_transform(
                traw["hardware_output_to_grid_output"],
                f"{field}.transforms.hardware_output_to_grid_output",
            )
            if "hardware_output_to_grid_output" in traw
            else None
        ),
    )
    plugin = _parse_reference(_require(raw, "reference", field), f"{field}.reference")
    kind = _require(raw, "kind", field)
    if kind not in (GRID_FORMING, GRID_FOLLOWING):
        raise ScenarioError(
            f"kind must be '{GRID_FORMING}' or '{GRID_FOLLOWING}', got {kind!r}", field=f"{field}.kind"
        )
    return _resource(raw, field, kind, hardware, control, routing, transforms, plugin)


def _setpoint_reference(channels: int, d_rho: int) -> AffineReference:
    """The grid-forming voltage reference: the setpoint passes through."""
    return AffineReference(np.zeros((channels, d_rho)), np.eye(channels))


def _parse_reference(raw, field) -> ReferencePlugin:
    kind = _require(raw, "type", field)
    if kind == "vf":
        return _setpoint_reference(
            _count(raw, "channels", field, 1, default=2), _count(raw, "d_rho", field, 1, default=2)
        )
    if kind == "pq":
        return PqReference()
    if kind == "affine":
        return AffineReference(
            parse_matrix(_require(raw, "m_rho", field), f"{field}.m_rho").real,
            parse_matrix(_require(raw, "m_sigma", field), f"{field}.m_sigma").real,
        )
    raise ScenarioError(f"unknown reference type '{kind}'", field=field)


TEMPLATES = {"vf": _vf_config, "pq": _pq_config, "custom": _custom_config}


def build_cider_config(raw, index: int) -> CiderConfig:
    field = f"ciders.{index}"
    if not isinstance(raw, dict):
        raise ScenarioError(f"expected an object, got {raw!r}", field=field)
    template = _require(raw, "template", field, str, default="custom")
    if template not in TEMPLATES:
        raise ScenarioError(
            f"unknown template '{template}' (choose from {sorted(TEMPLATES)})",
            field=field,
        )
    cfg = TEMPLATES[template](raw, field)
    expected = GRID_FORMING if template == "vf" else GRID_FOLLOWING if template == "pq" else cfg.kind
    if raw.get("kind", expected) != expected:
        raise ScenarioError(
            f"template '{template}' builds a {expected} resource, scenario says "
            f"'{raw.get('kind')}'",
            field=f"{field}.kind",
        )
    return cfg
