"""Built-in resource templates and raw-block parsing for scenario files.

Two executable resources ship with the package: a voltage-controlled
(grid-forming) unit with an LC output filter and PI voltage control in
the rotating frame, and a power-controlled (grid-following) unit with an
L filter, PI current control and the nonlinear power reference.  All
gains and filter values come from the scenario; a 'custom' template
accepts raw LTP blocks keyed by harmonic order.
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
    setpoint_channels: int
    w_pi: Mapping[int, np.ndarray]
    w_pi_channels: int


def parse_number(value, field: str) -> complex:
    """A JSON number, or an [re, im] pair."""
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(
        isinstance(v, (int, float)) for v in value
    ):
        return complex(value[0], value[1])
    raise ScenarioError("expected a number or [re, im] pair", field=field)


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
        dim = spec.get("dim")
        if not isinstance(dim, int) or dim < 1:
            raise ScenarioError("identity transform needs integer 'dim'", field=field)
        return identity_series(dim)
    if kind == "park":
        return park_series(_number(spec, "theta0", field, default=0.0))
    if kind == "inverse-park":
        return inverse_park_series(_number(spec, "theta0", field, default=0.0))
    if kind == "custom":
        return parse_series(spec.get("harmonics"), f"{field}.harmonics")
    raise ScenarioError(f"unknown transform type '{kind}'", field=field)


_KINDS = {list: "an array", dict: "an object"}


def _require(section, key, field, kind=object):
    """The entry ``key`` of ``section``, which must be an instance of ``kind``."""
    if not isinstance(section, dict) or key not in section:
        raise ScenarioError(f"missing required entry '{key}'", field=field)
    value = section[key]
    if not isinstance(value, kind):
        raise ScenarioError(f"expected {_KINDS[kind]}, got {value!r}", field=f"{field}.{key}")
    return value


def _number(section, key, field, kind=float, default=None):
    """A numeric entry converted by ``kind``; required unless ``default`` is given."""
    if default is not None and isinstance(section, dict) and key not in section:
        return default
    value = _require(section, key, field)
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ScenarioError(f"expected a number, got {value!r}", field=f"{field}.{key}") from None


def _w_pi(raw, field, channels: int) -> dict[int, np.ndarray]:
    """The operating voltage trajectory, empty when the resource gives none."""
    op = raw.get("operating_point", {})
    if not isinstance(op, dict) or not isinstance(op.get("w_pi", {}), dict):
        raise ScenarioError(
            "expected an object with an object 'w_pi'", field=f"{field}.operating_point"
        )
    return parse_harmonic_vectors(
        op.get("w_pi", {}).get("harmonics"), channels, f"{field}.operating_point.w_pi.harmonics"
    )


def _gains(raw, field) -> tuple[float, float]:
    gains = _require(_require(raw, "control", field), "gains", f"{field}.control")
    kp = _number(gains, "kp", f"{field}.control.gains")
    ki = _number(gains, "ki", f"{field}.control.gains")
    return kp, ki


def _pi_control(kp: float, ki: float) -> LtpBlock:
    return lti_block(
        "pi",
        np.zeros((2, 2)),
        np.eye(2),
        ki * np.eye(2),
        kp * np.eye(2),
        state_names=("pi.xi_d", "pi.xi_q"),
    )


def _dq_routing() -> InternalRouting:
    return InternalRouting(
        hw_grid_inputs=(3, 4, 5),
        hw_actuation_inputs=(0, 1, 2),
        ctl_measured_outputs=(0, 1, 2),
        ctl_inputs=(
            CtlInput("error", meas_index=0, ref_index=0),
            CtlInput("error", meas_index=1, ref_index=1),
        ),
    )


def _dq_transforms() -> CiderTransforms:
    return CiderTransforms(
        grid_to_hw=identity_series(3),
        hw_to_ctl=park_series(),
        ctl_to_hw=inverse_park_series(),
        grid_out_to_hw_out=identity_series(3),
    )


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
    kp, ki = _gains(raw, field)
    return CiderConfig(
        node_id=_require(raw, "node", field),
        kind=GRID_FORMING,
        hardware=(hardware,),
        control=(_pi_control(kp, ki),),
        routing=_dq_routing(),
        transforms=_dq_transforms(),
        plugin=_setpoint_reference(2, 2),
        setpoint=parse_harmonic_vectors(
            _require(raw, "setpoint", field, dict).get("harmonics"), 2, f"{field}.setpoint.harmonics"
        ),
        setpoint_channels=2,
        w_pi=_w_pi(raw, field, 3),
        w_pi_channels=3,
    )


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
    kp, ki = _gains(raw, field)
    w_pi = _w_pi(raw, field, 3)
    if "w_pi" not in raw.get("operating_point", {}):
        raise ScenarioError(
            "power-controlled resource needs an operating voltage trajectory",
            field=f"{field}.operating_point.w_pi",
        )
    return CiderConfig(
        node_id=_require(raw, "node", field),
        kind=GRID_FOLLOWING,
        hardware=(hardware,),
        control=(_pi_control(kp, ki),),
        routing=_dq_routing(),
        transforms=_dq_transforms(),
        plugin=PqReference(),
        setpoint=parse_harmonic_vectors(
            _require(raw, "setpoint", field, dict).get("harmonics"), 2, f"{field}.setpoint.harmonics"
        ),
        setpoint_channels=2,
        w_pi=w_pi,
        w_pi_channels=3,
    )


def parse_block(raw, field) -> LtpBlock:
    """Raw LTP block; absent matrices default to zeros of the inferred shape."""
    if not isinstance(raw, dict):
        raise ScenarioError("block must be an object", field=field)
    name = raw.get("name", "block")
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
    state_names = tuple(_require(raw, "state_names", field, list)) if "state_names" in raw else None
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
            kind=_require(src, "kind", f"{field}.routing.ctl_inputs.{i}"),
            meas_index=src.get("meas"),
            ref_index=src.get("ref"),
        )
        for i, src in enumerate(_require(routing_raw, "ctl_inputs", f"{field}.routing", list))
    )
    routing = InternalRouting(
        hw_grid_inputs=tuple(_require(routing_raw, "hw_grid_inputs", f"{field}.routing", list)),
        hw_actuation_inputs=tuple(
            _require(routing_raw, "hw_actuation_inputs", f"{field}.routing", list)
        ),
        ctl_measured_outputs=tuple(
            _require(routing_raw, "ctl_measured_outputs", f"{field}.routing", list)
        ),
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
    sp = _require(raw, "setpoint", field)
    channels = _number(sp, "channels", f"{field}.setpoint", int)
    if channels != plugin.d_sigma:
        raise ScenarioError(
            f"setpoint has {channels} channels, reference law expects {plugin.d_sigma}",
            field=f"{field}.setpoint",
        )
    kind = _require(raw, "kind", field)
    if kind not in (GRID_FORMING, GRID_FOLLOWING):
        raise ScenarioError(
            f"kind must be '{GRID_FORMING}' or '{GRID_FOLLOWING}', got {kind!r}", field=f"{field}.kind"
        )
    d_pi = len(routing.hw_grid_inputs)
    return CiderConfig(
        node_id=_require(raw, "node", field),
        kind=kind,
        hardware=hardware,
        control=control,
        routing=routing,
        transforms=transforms,
        plugin=plugin,
        setpoint=parse_harmonic_vectors(
            sp.get("harmonics"), channels, f"{field}.setpoint.harmonics"
        ),
        setpoint_channels=channels,
        w_pi=_w_pi(raw, field, d_pi),
        w_pi_channels=d_pi,
    )


def _setpoint_reference(channels: int, d_rho: int) -> AffineReference:
    """The grid-forming voltage reference: the setpoint passes through."""
    return AffineReference(np.zeros((channels, d_rho)), np.eye(channels))


def _parse_reference(raw, field) -> ReferencePlugin:
    kind = _require(raw, "type", field)
    if kind == "vf":
        dims = {key: _number(raw, key, field, int, default=2) for key in ("channels", "d_rho")}
        for key, value in dims.items():
            if value < 1:
                raise ScenarioError(f"expected an integer >= 1, got {value}", field=f"{field}.{key}")
        return _setpoint_reference(dims["channels"], dims["d_rho"])
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
    template = raw.get("template", "custom")
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
