"""Built-in resource templates and raw-block parsing for scenario files.

Two executable resources ship with the package: a voltage-controlled
(grid-forming) unit with an LC output filter and PI voltage control in
the rotating frame, and a power-controlled (grid-following) unit with an
L filter, PI current control and the nonlinear power reference.  All
gains and filter values come from the scenario; a 'custom' template
accepts raw LTP blocks keyed by harmonic order.  Tables name the entries
of every object of a resource, and the field-path helpers (``_entries``,
``_require``, ``_number``) check them and the rest of the scenario
document, with one definition of a number: booleans are not numbers.
The channel widths of a resource's parts are checked by ``CiderConfig``.
"""

from __future__ import annotations

import numpy as np

from .cider import (
    TRANSFORM_KEYS,
    CiderConfig,
    CiderTransforms,
    CtlInput,
    InternalRouting,
    LtpBlock,
    identity_series,
    inverse_park_series,
    lti_block,
    park_series,
)
from .errors import ScenarioError, ShapeError
from .harmonic import normalize_series
from .references import AffineReference, PqReference, ReferencePlugin

PHASES = ("a", "b", "c")
GRID_FORMING = "grid-forming"
GRID_FOLLOWING = "grid-following"


def parse_number(value, field: str, real: bool = False) -> complex:
    """A JSON number, or an [re, im] pair whose im is 0 when ``real``."""
    if _is_number(value):
        return complex(value)
    pair = isinstance(value, list) and len(value) == 2 and all(_is_number(v) for v in value)
    if pair and not (real and value[1]):
        return complex(value[0], value[1])
    noun = "a real number" if real else "a number or [re, im] pair"
    raise ScenarioError(f"expected {noun}, got {value!r}", field=field)


def parse_matrix(value, field: str, real: bool = False) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ScenarioError("expected a non-empty nested array", field=field)
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list):
            raise ScenarioError("matrix rows must be arrays", field=f"{field}.{i}")
        rows.append([parse_number(v, f"{field}.{i}.{k}", real) for k, v in enumerate(row)])
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ScenarioError("matrix rows differ in length", field=field)
    return np.array(rows, dtype=complex)


def _by_order(value, field, noun, parse, *args) -> dict:
    """{order: parse(entry, its field, *args)} of an {harmonic order: entry}
    object; a second key for one order, such as '+0' after '0', is rejected."""
    if not isinstance(value, dict):
        raise ScenarioError(f"expected {{harmonic order: {noun}}}", field=field)
    out = {}
    for key, entry in value.items():
        try:
            h = int(key)
        except ValueError:
            raise ScenarioError(f"'{key}' is not an integer harmonic order", field=field)
        if h in out:
            raise ScenarioError(f"harmonic order {h} is given twice", field=f"{field}.{key}")
        out[h] = parse(entry, f"{field}.{key}", *args)
    return out


def parse_series(value, field: str) -> dict[int, np.ndarray]:
    """An {order: matrix} series whose matrices share one shape."""
    series = _by_order(value, field, "matrix", parse_matrix)
    if not series:
        raise ScenarioError("expected at least one harmonic order", field=field)
    try:
        return normalize_series(series)
    except ShapeError as exc:
        raise ScenarioError(str(exc), field=field) from None


def _vector(value, field) -> np.ndarray:
    """One harmonic entry of a trajectory, an array of numbers; ``CiderConfig``
    checks its width."""
    if not isinstance(value, list):
        raise ScenarioError(f"expected an array of numbers, got {value!r}", field=field)
    return np.array([parse_number(v, f"{field}.{i}") for i, v in enumerate(value)], dtype=complex)


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


def _object(section, key, field, required=(), optional=()):
    """The object entry ``key`` of ``section`` ({} when absent), checked by ``_entries``."""
    return _entries(section.get(key, {}), _at(field, key), required, optional)


def _require(section, key, field, kind=object, default=_REQUIRED):
    """The entry ``key`` of the object ``section``, which must be an instance
    of ``kind``; required unless ``default`` is given."""
    if not isinstance(section, dict):
        raise ScenarioError(f"expected an object, got {section!r}", field=field)
    if key not in section:
        if default is _REQUIRED:
            raise ScenarioError(f"missing required entry '{key}'", field=field)
        return default
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


def _typed(spec, field, table, noun):
    """What ``table`` builds from the object ``spec``, whose 'type' names a
    row of (required entries, optional entries, builder)."""
    kind = _require(spec, "type", field, str)
    if kind not in table:
        raise ScenarioError(f"unknown {noun} type '{kind}'", field=field)
    required, optional, build = table[kind]
    return build(_entries(spec, field, ("type",) + required, optional), field)


def _trajectory(section, key, field, channels: int) -> dict[int, np.ndarray]:
    """The {order: vector} map of trajectory ``key`` of ``section`` ({} when
    absent) of a resource that takes ``channels``; a ``channels`` entry, if
    given, must agree."""
    at = _at(field, key)
    trajectory = _object(section, key, field, optional=("channels", "harmonics"))
    if "channels" in trajectory and _number(trajectory, "channels", at, int) != channels:
        raise ScenarioError(
            f"declares {trajectory['channels']!r} channels, the resource takes {channels}",
            field=f"{at}.channels",
        )
    harmonics = trajectory.get("harmonics", {})
    return _by_order(harmonics, f"{at}.harmonics", "vector", _vector)


def _dq_filter(raw, field, *keys) -> list[float]:
    """The ``keys`` entries of a dq template's ``hardware.filter``; r may be
    0, the others must be positive."""
    at = f"{field}.hardware.filter"
    hardware = _object(raw, "hardware", field, ("filter",))
    filt = _object(hardware, "filter", f"{field}.hardware", keys)
    values = [_number(filt, key, at) for key in keys]
    if any(value < 0 or (value == 0 and key != "r") for key, value in zip(keys, values)):
        raise ScenarioError("filter values must be positive (r >= 0)", field=at)
    return values


def _dq_parts(raw, field, hardware: LtpBlock, plugin: ReferencePlugin):
    """A three-phase resource under PI control in the rotating (dq) frame:
    hardware inputs 0-2 actuate, 3-5 take the grid, outputs 0-2 are measured."""
    at = f"{field}.control.gains"
    control = _object(raw, "control", field, ("gains",))
    gains = _object(control, "gains", f"{field}.control", ("kp", "ki"))
    kp, ki = _number(gains, "kp", at), _number(gains, "ki", at)
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
    return (hardware,), (pi,), routing, transforms, plugin


def _vf_parts(raw, field):
    l, r, c = _dq_filter(raw, field, "l", "r", "c")
    eye, zero = np.eye(3), np.zeros((3, 3))
    a = np.block([[-(r / l) * eye, -(1.0 / l) * eye], [(1.0 / c) * eye, zero]])
    b = np.block([[(1.0 / l) * eye, zero], [zero, -(1.0 / c) * eye]])
    c_mat = np.hstack([zero, eye])
    d = np.zeros((3, 6))
    names = tuple(f"lc.i_f.{p}" for p in PHASES) + tuple(f"lc.v_c.{p}" for p in PHASES)
    hardware = lti_block("lc", a, b, c_mat, d, state_names=names, phase_triples=(0, 3))
    return _dq_parts(raw, field, hardware, _vf_reference({}, field))


def _pq_parts(raw, field):
    l, r = _dq_filter(raw, field, "l", "r")
    eye = np.eye(3)
    a = -(r / l) * eye
    b = np.hstack([(1.0 / l) * eye, -(1.0 / l) * eye])
    names = tuple(f"lf.i.{p}" for p in PHASES)
    hardware = lti_block("lf", a, b, eye, np.zeros((3, 6)), state_names=names, phase_triples=(0,))
    return _dq_parts(raw, field, hardware, PqReference())


def parse_block(raw, field) -> LtpBlock:
    """Raw LTP block; absent matrices default to zeros of the inferred shape."""
    _entries(raw, field, optional=("name", "a", "b", "c", "d", "state_names"))
    series = {key: parse_series(raw[key], f"{field}.{key}") for key in "abcd" if key in raw}
    nx = _dim(series, ("a", 0), ("b", 0), ("c", 1)) or 0
    nu = _dim(series, ("b", 1), ("d", 1))
    ny = _dim(series, ("c", 0), ("d", 0))
    if nu is None or ny is None:
        raise ScenarioError(
            "cannot infer block input/output dims; provide b or d and c or d",
            field=field,
        )
    for key, shape in {"a": (nx, nx), "b": (nx, nu), "c": (ny, nx), "d": (ny, nu)}.items():
        series.setdefault(key, {0: np.zeros(shape)})
    name = _require(raw, "name", field, str, default="block")
    state_names = _strings(raw, "state_names", field) if "state_names" in raw else None
    try:
        return LtpBlock(name, series["a"], series["b"], series["c"], series["d"], state_names)
    except ShapeError as exc:
        raise ScenarioError(str(exc), field=field) from None


def _dim(series, *where) -> int | None:
    """The size along ``axis`` of the first (matrix, axis) of ``where`` given."""
    for key, axis in where:
        if key in series:
            return next(iter(series[key].values())).shape[axis]
    return None


def _blocks(raw, key, field) -> tuple[LtpBlock, ...]:
    blocks = _require(raw, key, field, list)
    return tuple(parse_block(b, f"{field}.{key}.{i}") for i, b in enumerate(blocks))


def _ctl_input(raw, field) -> CtlInput:
    _entries(raw, field, ("kind",), ("meas", "ref"))
    return CtlInput(
        _require(raw, "kind", field, str),
        _number(raw, "meas", field, int, None),
        _number(raw, "ref", field, int, None),
    )


_TRANSFORMS = {
    "identity": (("dim",), (), lambda s, f: identity_series(_count(s, "dim", f, 1))),
    "park": ((), ("theta0",), lambda s, f: park_series(_number(s, "theta0", f, default=0.0))),
    "inverse-park": (
        (), ("theta0",), lambda s, f: inverse_park_series(_number(s, "theta0", f, default=0.0))
    ),
    "custom": (("harmonics",), (), lambda s, f: parse_series(s["harmonics"], f"{f}.harmonics")),
}
_INDEX_LISTS = ("hw_grid_inputs", "hw_actuation_inputs", "ctl_measured_outputs")


def _vf_reference(spec, field) -> AffineReference:
    """The grid-forming voltage law AffineReference(0, I): the setpoint passes
    through.  ``channels`` and ``d_rho`` default to 2."""
    channels = _count(spec, "channels", field, 1, default=2)
    d_rho = _count(spec, "d_rho", field, 1, default=2)
    return AffineReference(np.zeros((channels, d_rho)), np.eye(channels))


def _affine_reference(spec, field) -> AffineReference:
    m_rho, m_sigma = (
        parse_matrix(spec[key], f"{field}.{key}", real=True).real for key in ("m_rho", "m_sigma")
    )
    try:
        return AffineReference(m_rho, m_sigma)
    except ShapeError as exc:
        raise ScenarioError(str(exc), field=field) from None


_REFERENCES = {
    "vf": ((), ("channels", "d_rho"), _vf_reference),
    "pq": ((), (), lambda s, f: PqReference()),
    "affine": (("m_rho", "m_sigma"), (), _affine_reference),
}


def _custom_parts(raw, field):
    at = f"{field}.routing"
    routing = _object(raw, "routing", field, _INDEX_LISTS + ("ctl_inputs",))
    ctl_inputs = _require(routing, "ctl_inputs", at, list)
    *required, optional = TRANSFORM_KEYS.values()
    given = _object(raw, "transforms", field, tuple(required), (optional,))
    transforms = {
        name: _typed(given[key], f"{field}.transforms.{key}", _TRANSFORMS, "transform")
        for name, key in TRANSFORM_KEYS.items()
        if key in given
    }
    return (
        _blocks(raw, "hardware", field),
        _blocks(raw, "control", field),
        InternalRouting(
            **{key: _indices(routing, key, at) for key in _INDEX_LISTS},
            ctl_inputs=tuple(
                _ctl_input(src, f"{at}.ctl_inputs.{i}") for i, src in enumerate(ctl_inputs)
            ),
        ),
        CiderTransforms(**transforms),
        _typed(raw["reference"], f"{field}.reference", _REFERENCES, "reference"),
    )


_COMMON = ("node", "hardware", "control", "setpoint")
# Per template: the reader of a resource's hardware, control, routing,
# transforms and reference law; the kinds of resource it builds (vf and pq
# build one, so their 'kind' may be omitted); and the (required, optional)
# entries of the resource, besides 'template', and of its operating_point.
TEMPLATES = {
    "vf": (_vf_parts, (GRID_FORMING,), (_COMMON, ("kind", "operating_point")), ((), ("w_pi",))),
    "pq": (
        _pq_parts, (GRID_FOLLOWING,), (_COMMON + ("operating_point",), ("kind",)), (("w_pi",), ())
    ),
    "custom": (
        _custom_parts,
        (GRID_FORMING, GRID_FOLLOWING),
        (_COMMON + ("kind", "routing", "transforms", "reference"), ("operating_point",)),
        ((), ("w_pi",)),
    ),
}


def build_cider_config(raw, index: int) -> CiderConfig:
    """The resource at ``ciders.index``, checked by ``CiderConfig``.  Its
    setpoint is as wide as the reference law's and its operating voltage
    trajectory as its grid inputs, empty when the resource gives none."""
    field = f"ciders.{index}"
    template = _require(raw, "template", field, str, default="custom")
    if template not in TEMPLATES:
        raise ScenarioError(
            f"unknown template '{template}' (choose from {sorted(TEMPLATES)})", field=field
        )
    parts, kinds, (required, optional), operating_point = TEMPLATES[template]
    _entries(raw, field, required, ("template",) + optional)
    kind = _require(raw, "kind", field, str, default=kinds[0])
    if kind not in kinds:
        raise ScenarioError(
            f"kind must be {' or '.join(map(repr, kinds))} for template '{template}', got {kind!r}",
            field=f"{field}.kind",
        )
    hardware, control, routing, transforms, plugin = parts(raw, field)
    op = _object(raw, "operating_point", field, *operating_point)
    node_id = _require(raw, "node", field, str)
    setpoint = _trajectory(raw, "setpoint", field, plugin.d_sigma)
    w_pi = _trajectory(op, "w_pi", f"{field}.operating_point", len(routing.hw_grid_inputs))
    try:
        return CiderConfig(
            node_id, kind, hardware, control, routing, transforms, plugin, setpoint, w_pi
        )
    except ScenarioError as exc:  # its field is relative to the resource
        raise ScenarioError(exc.message, field=f"{field}.{exc.field}") from None
