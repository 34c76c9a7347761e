"""Harmonic state-space model of a single converter-interfaced resource.

A resource is power hardware plus control software, interconnected
through coordinate transforms.  ``CiderConfig`` holds one and checks, when
it is built, that the widths of its parts agree.  The internal closed loop
is formed by the generic loop-closing operation; the grid response then
combines the internal response with the linearised reference calculation
and the external transforms into the grid-facing quadruple with
disturbance ports gamma (grid), sigma (setpoint) and o (operating-point
offset).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .assembly import close_loop
from .errors import ConfigurationError, ScenarioError, ShapeError, WellPosednessError
from .harmonic import (
    HarmonicIndexSet,
    default_sample_count,
    normalize_series,
    sample_series,
    series_from_samples,
    toeplitz_from_fourier,
)
from .model import HssModel, check_phase_triples, lift_ltp, stack_models, stack_phase_triples
from .references import ReferencePlugin
from .sparse import Csr, anti_diagonal, hstack, zeros


@dataclass(frozen=True)
class LtpBlock:
    """One LTP subsystem given by matrix-valued Fourier series A, B, C, D.

    ``phase_triples`` lists the first state of each abc phase triple, as
    in ``HssModel``.
    """

    name: str
    a: Mapping[int, np.ndarray]
    b: Mapping[int, np.ndarray]
    c: Mapping[int, np.ndarray]
    d: Mapping[int, np.ndarray]
    state_names: tuple[str, ...] | None = None
    phase_triples: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "a", normalize_series(self.a))
        object.__setattr__(self, "b", normalize_series(self.b))
        object.__setattr__(self, "c", normalize_series(self.c))
        object.__setattr__(self, "d", normalize_series(self.d))
        nx, nx2 = _series_shape(self.a)
        nu = _series_shape(self.b)[1]
        ny = _series_shape(self.c)[0]
        if nx != nx2:
            raise ShapeError(f"block '{self.name}': state matrix is not square")
        if _series_shape(self.b)[0] != nx:
            raise ShapeError(f"block '{self.name}': B rows != state dim")
        if _series_shape(self.c)[1] != nx:
            raise ShapeError(f"block '{self.name}': C cols != state dim")
        if _series_shape(self.d) != (ny, nu):
            raise ShapeError(f"block '{self.name}': D shape != (outputs, inputs)")
        if self.state_names is not None and len(self.state_names) != nx:
            raise ShapeError(f"block '{self.name}': {len(self.state_names)} names for {nx} states")
        object.__setattr__(
            self, "phase_triples", check_phase_triples(self.phase_triples, nx, f"block '{self.name}'")
        )

    @property
    def n_states(self) -> int:
        return _series_shape(self.a)[0]

    @property
    def n_inputs(self) -> int:
        return _series_shape(self.b)[1]

    @property
    def n_outputs(self) -> int:
        return _series_shape(self.c)[0]

    def resolved_state_names(self) -> tuple[str, ...]:
        if self.state_names is not None:
            return tuple(self.state_names)
        return tuple(f"{self.name}.x{i}" for i in range(self.n_states))


def _series_shape(series) -> tuple[int, int]:
    return np.shape(next(iter(series.values())))


def lti_block(name, a, b, c, d, state_names=None, phase_triples=()) -> LtpBlock:
    """Constant-coefficient block (pure DC series)."""
    return LtpBlock(
        name,
        {0: np.atleast_2d(a)},
        {0: np.atleast_2d(b)},
        {0: np.atleast_2d(c)},
        {0: np.atleast_2d(d)},
        state_names,
        phase_triples,
    )


def stack_blocks(blocks: Sequence[LtpBlock], group: str) -> LtpBlock:
    """Parallel (block-diagonal) composition; inputs and outputs concatenate."""
    if not blocks:
        return lti_block(group, np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0)), ())
    if len(blocks) == 1:
        return blocks[0]

    def block_series(which: str) -> dict[int, np.ndarray]:
        orders = sorted({h for blk in blocks for h in getattr(blk, which)})
        rows = {"a": "n_states", "b": "n_states", "c": "n_outputs", "d": "n_outputs"}[which]
        cols = {"a": "n_states", "b": "n_inputs", "c": "n_states", "d": "n_inputs"}[which]
        out = {}
        for h in orders:
            mats = []
            for blk in blocks:
                shape = (getattr(blk, rows), getattr(blk, cols))
                mats.append(np.asarray(getattr(blk, which).get(h, np.zeros(shape, dtype=complex))))
            out[h] = np.zeros(np.sum([m.shape for m in mats], axis=0), np.result_type(*mats))
            r = c = 0
            for m in mats:
                out[h][r : r + m.shape[0], c : c + m.shape[1]] = m
                r, c = r + m.shape[0], c + m.shape[1]
        return out

    names = tuple(n for blk in blocks for n in blk.resolved_state_names())
    triples = stack_phase_triples((blk.n_states, blk.phase_triples) for blk in blocks)
    return LtpBlock(group, *(block_series(k) for k in "abcd"), names, triples)


@dataclass(frozen=True)
class CtlInput:
    """Source of one control-software input channel.

    kind 'error' receives reference minus measurement, 'measurement' the
    transformed measurement alone, 'reference' the reference alone.
    """

    kind: str
    meas_index: int | None = None
    ref_index: int | None = None


@dataclass(frozen=True)
class InternalRouting:
    """Explicit wiring between hardware, control and the transforms.

    Hardware input channels split into grid-side disturbances and
    actuation channels driven (in order) by the transformed control
    output.  ``ctl_measured_outputs`` lists the hardware outputs entering
    the measurement transform, and ``ctl_inputs`` declares the source of
    every control input channel.
    """

    hw_grid_inputs: tuple[int, ...]
    hw_actuation_inputs: tuple[int, ...]
    ctl_measured_outputs: tuple[int, ...]
    ctl_inputs: tuple[CtlInput, ...]

    @property
    def n_ref(self) -> int:
        refs = [c.ref_index for c in self.ctl_inputs if c.ref_index is not None]
        return max(refs) + 1 if refs else 0


def _selector(indices, width) -> np.ndarray:
    out = np.zeros((width, len(indices)))
    for col, idx in enumerate(indices):
        out[idx, col] = 1.0
    return out


def assemble_internal_response(config: CiderConfig, index_set: HarmonicIndexSet) -> HssModel:
    """Close the hardware/control loop of a resource through its routing.

    The result is the internal quadruple over the stacked state
    col(x_hw, x_ctl) with disturbance columns partitioned into the
    grid-side ('pi') and reference ('kappa') groups.  Its outputs are the
    hardware outputs alone: the control outputs only feed the loop.
    """
    hw = stack_blocks(config.hardware, "hw")
    ctl = stack_blocks(config.control, "ctl")
    routing = config.routing
    act = normalize_series(config.transforms.ctl_to_hw)
    meas = normalize_series(config.transforms.hw_to_ctl)
    n_meas = _series_shape(meas)[0]

    def times(series, right):
        """series * right: T(series) @ kron(I, right) = T(series * right) for constant right."""
        return {h: m @ right for h, m in series.items()}

    p_grid = _selector(routing.hw_grid_inputs, hw.n_inputs)
    p_act = _selector(routing.hw_actuation_inputs, hw.n_inputs)
    s_ref = np.zeros((ctl.n_inputs, routing.n_ref))
    s_meas = np.zeros((ctl.n_inputs, n_meas))
    for ch, src in enumerate(routing.ctl_inputs):
        if src.kind == "error":
            s_ref[ch, src.ref_index] = 1.0
            s_meas[ch, src.meas_index] = -1.0
        elif src.kind == "measurement":
            s_meas[ch, src.meas_index] = 1.0
        else:
            s_ref[ch, src.ref_index] = 1.0
    s_out = _selector(routing.ctl_measured_outputs, hw.n_outputs).T

    hw_model = lift_ltp(
        hw.a,
        {"loop": times(hw.b, p_act), "pi": times(hw.b, p_grid)},
        hw.c,
        {"loop": times(hw.d, p_act), "pi": times(hw.d, p_grid)},
        index_set,
        hw.resolved_state_names(),
        hw.phase_triples,
    )
    ctl_model = lift_ltp(
        ctl.a,
        {"loop": times(ctl.b, s_meas), "kappa": times(ctl.b, s_ref)},
        ctl.c,
        {"loop": times(ctl.d, s_meas), "kappa": times(ctl.d, s_ref)},
        index_set,
        ctl.resolved_state_names(),
        ctl.phase_triples,
    )
    # open loop over col(x_hw, x_ctl), re-interleaved into the h-major layout
    open_model = stack_models([hw_model, ctl_model])

    t_act = toeplitz_from_fourier(act, index_set)
    t_meas = toeplitz_from_fourier(times(meas, s_out), index_set)
    j_int = anti_diagonal(t_act, t_meas)

    try:
        closed = close_loop(open_model, j_int, loop_port="loop")
    except WellPosednessError as exc:
        raise WellPosednessError(
            f"{config.node_id}: internal actuation/measurement loop is ill-posed "
            f"(feedthrough chain hardware D -> measurement -> control D -> actuation): {exc}"
        ) from exc
    hw_rows = slice(0, index_set.count * hw.n_outputs)  # the outputs stack hardware first
    model = closed.model
    return replace(model, c=model.c[hw_rows], f={p: f[hw_rows] for p, f in model.f.items()})


def pinv_series(
    series: Mapping[int, np.ndarray], index_set: HarmonicIndexSet
) -> dict[int, np.ndarray]:
    """Time-pointwise inverse of a square matrix series, refit as a series.

    Only defined for series that are square and invertible at every
    sample; non-square output transforms need a user-supplied inverse.
    """
    shape = _series_shape(normalize_series(series))
    if shape[0] != shape[1]:
        raise ConfigurationError(
            f"output transform with block shape {shape} has no default "
            f"pseudo-inverse; supply one explicitly"
        )
    samples = sample_series(series, index_set, default_sample_count(index_set))
    try:
        inv = np.linalg.inv(samples)
    except np.linalg.LinAlgError as exc:
        raise ConfigurationError(
            "output transform is singular at some instant; supply its "
            "pseudo-inverse explicitly"
        ) from exc
    return series_from_samples(inv, index_set)


@dataclass(frozen=True)
class CiderTransforms:
    """External and internal coordinate transforms as generating series."""

    grid_to_hw: Mapping[int, np.ndarray]
    hw_to_ctl: Mapping[int, np.ndarray]
    ctl_to_hw: Mapping[int, np.ndarray]
    grid_out_to_hw_out: Mapping[int, np.ndarray]
    hw_out_to_grid_out: Mapping[int, np.ndarray] | None = None

    def output_map(self, index_set: HarmonicIndexSet) -> Csr:
        """Lift of the transform sending hardware outputs to the grid port."""
        if self.hw_out_to_grid_out is not None:
            return toeplitz_from_fourier(self.hw_out_to_grid_out, index_set)
        return toeplitz_from_fourier(
            pinv_series(self.grid_out_to_hw_out, index_set), index_set
        )


#: The scenario entry of each CiderTransforms field; the last is optional.
TRANSFORM_KEYS = {
    "grid_to_hw": "grid_to_hardware",
    "hw_to_ctl": "hardware_to_control",
    "ctl_to_hw": "control_to_hardware",
    "grid_out_to_hw_out": "grid_output_to_hardware_output",
    "hw_out_to_grid_out": "hardware_output_to_grid_output",
}
#: The indices each kind of control input reads.
_CTL_INPUT_INDICES = {"error": ("meas", "ref"), "measurement": ("meas",), "reference": ("ref",)}


@dataclass(frozen=True)
class CiderConfig:
    """Everything needed to assemble one resource at any harmonic grid.

    Construction checks that the channel widths of the blocks, the routing,
    the transforms, the reference law and the trajectories agree, from the
    shapes of their series alone.  A ScenarioError names the field at fault
    relative to the resource's scenario entry (``routing``,
    ``transforms.hardware_to_control``, ``reference``, ...), so the
    assembly of a constructed config raises only numerical errors.
    """

    node_id: str
    kind: str
    hardware: tuple[LtpBlock, ...]
    control: tuple[LtpBlock, ...]
    routing: InternalRouting
    transforms: CiderTransforms
    plugin: ReferencePlugin
    setpoint: Mapping[int, np.ndarray]
    w_pi: Mapping[int, np.ndarray]

    def __post_init__(self):
        routing, plugin, t = self.routing, self.plugin, self.transforms
        at = {name: f"transforms.{key}" for name, key in TRANSFORM_KEYS.items()}
        series = {name: s for name, s in vars(t).items() if s is not None}
        for name, s in series.items():
            if not s:
                raise ScenarioError("empty series: give at least one order", field=at[name])
        shape = {name: _series_shape(s) for name, s in series.items()}
        hw_in, hw_out = _widths(self.hardware)
        ctl_in, ctl_out = _widths(self.control)
        d_pi, n_act = len(routing.hw_grid_inputs), len(routing.hw_actuation_inputs)
        n_meas, n_frame = shape["hw_to_ctl"]
        for i, src in enumerate(routing.ctl_inputs):
            field = f"routing.ctl_inputs.{i}"
            if src.kind not in _CTL_INPUT_INDICES:
                kinds = ", ".join(_CTL_INPUT_INDICES)
                raise ScenarioError(f"unknown kind '{src.kind}' (allowed: {kinds})", field=field)
            index = {"meas": src.meas_index, "ref": src.ref_index}
            for key in _CTL_INPUT_INDICES[src.kind]:
                if index[key] is None:
                    raise ScenarioError(f"an '{src.kind}' input needs '{key}'", field=field)
            if src.meas_index is not None and not 0 <= src.meas_index < n_meas:
                message = f"{src.meas_index} is not one of {n_meas} measurements"
                raise ScenarioError(message, field=f"{field}.meas")
        for j, k in enumerate(routing.ctl_measured_outputs):
            if not 0 <= k < hw_out:
                message = f"{k} is not one of {hw_out} hardware outputs"
                raise ScenarioError(message, field=f"routing.ctl_measured_outputs.{j}")

        if t.hw_out_to_grid_out is not None:
            out = at["hw_out_to_grid_out"], shape["hw_out_to_grid_out"][1], hw_out, "columns"
        else:  # inverted pointwise (``pinv_series``)
            out = at["grid_out_to_hw_out"], shape["grid_out_to_hw_out"], (hw_out, hw_out), "shape"
        declared = sorted(routing.hw_grid_inputs + routing.hw_actuation_inputs)
        refs = sorted({c.ref_index for c in routing.ctl_inputs if c.ref_index is not None})
        n_measured = len(routing.ctl_measured_outputs)
        # (field, width, the width the other parts give it, what is compared)
        rules = [
            ("routing", declared, list(range(hw_in)), "grid and actuation inputs, a partition"),
            ("routing.ctl_inputs", len(routing.ctl_inputs), ctl_in, "sources of control inputs"),
            ("routing.ctl_inputs", refs, list(range(len(refs))), "reference indices"),
            (at["ctl_to_hw"], shape["ctl_to_hw"], (n_act, ctl_out), "shape"),
            (at["hw_to_ctl"], n_frame, n_measured, "columns, one per measured output"),
            (at["hw_to_ctl"], n_frame, d_pi, "columns, one per grid input"),
            (at["hw_to_ctl"], n_meas, plugin.d_rho, "rows, one per reference law input"),
            (at["grid_to_hw"], shape["grid_to_hw"][0], d_pi, "rows, one per grid input"),
            out,
            ("reference", plugin.d_kappa, routing.n_ref, "outputs, one per reference input"),
        ]
        for field, trajectory, width in [
            ("setpoint", self.setpoint, plugin.d_sigma),
            ("operating_point.w_pi", self.w_pi, d_pi),
        ]:
            rules += [
                (f"{field}.harmonics.{h}", np.shape(vec), (width,), "shape")
                for h, vec in trajectory.items()
            ]
        for field, got, wanted, rule in rules:
            if got != wanted:
                raise ScenarioError(f"{rule}: {got}, expected {wanted}", field=field)
        # a constant default output map is inverted at every instant alike
        # (``pinv_series``), so a singular one fails here, not at assembly
        if t.hw_out_to_grid_out is None and set(t.grid_out_to_hw_out) == {0}:
            try:
                np.linalg.inv(np.asarray(t.grid_out_to_hw_out[0], complex))
            except np.linalg.LinAlgError:
                inverse = TRANSFORM_KEYS["hw_out_to_grid_out"]
                message = f"singular, so it has no inverse; give '{inverse}'"
                raise ScenarioError(message, field=at["grid_out_to_hw_out"]) from None


def _widths(blocks: Sequence[LtpBlock]) -> tuple[int, int]:
    """Inputs and outputs of the parallel stack of ``blocks``."""
    return sum(b.n_inputs for b in blocks), sum(b.n_outputs for b in blocks)


@dataclass(frozen=True)
class CiderHss:
    """Grid response of one resource: ports gamma, sigma, o.

    The o port acts on col(w_kappa, w_pi, w_sigma), the operating-point
    trajectories of the reference, the grid-side disturbance and the
    setpoint, in that column order.
    """

    node_id: str
    model: HssModel


def assemble_cider_hss(
    config: CiderConfig,
    internal: HssModel,
    r_rho: Csr,
    r_sigma: Csr | None,
    ctl_frame_op: Csr,
    index_set: HarmonicIndexSet,
    state_only: bool = False,
) -> CiderHss:
    """Combine internal response, reference small-signal model and transforms.

    ``internal`` comes from ``assemble_internal_response``, ``r_rho`` and
    ``r_sigma`` from ``make_operating_point``, and ``ctl_frame_op`` is the
    lift T_kp of ``config.transforms.hw_to_ctl``, the one the reference lifts
    were made with.  With K = R_rho T_kp, one port map takes a disturbance
    pair (X_pi, X_kappa) of E, or of F through the output map, to the ports

        gamma = (X_pi + X_kappa K) T_pg
        sigma = X_kappa R_sigma
        o     = [X_kappa | -X_kappa K | -X_kappa R_sigma]

    ``state_only`` builds the gamma port alone, the one port a state-only
    loop closure reads (``assemble``); ``r_sigma`` is then not read.
    """
    t_pg = toeplitz_from_fourier(config.transforms.grid_to_hw, index_set)
    try:
        out_map = config.transforms.output_map(index_set)
    except ConfigurationError as exc:  # a time-varying map, singular at some instant
        field = TRANSFORM_KEYS["grid_out_to_hw_out"]
        raise ConfigurationError(f"{config.node_id}: transforms.{field}: {exc}") from exc
    k = r_rho @ ctl_frame_op

    def ports(x_pi, x_kappa):
        ref = x_kappa @ k
        gamma = (x_pi + ref) @ t_pg
        if state_only:
            return {"gamma": gamma}
        sigma = x_kappa @ r_sigma
        return {
            "gamma": gamma,
            "sigma": sigma,
            "o": hstack([x_kappa, -ref, -sigma]),
        }

    model = HssModel(
        index_set=index_set,
        a=internal.a,
        e=ports(internal.e["pi"], internal.e["kappa"]),
        c=out_map @ internal.c,
        f=ports(out_map @ internal.f["pi"], out_map @ internal.f["kappa"]),
        state_names=tuple(f"{config.node_id}.{n}" for n in internal.state_names),
        phase_triples=internal.phase_triples,
    )
    return CiderHss(config.node_id, model)


def make_zero_injection(index_set: HarmonicIndexSet, node_id: str) -> CiderHss:
    """Stateless resource injecting nothing; used for pure junction nodes."""
    n = index_set.count * 3  # one three-phase grid port

    model = HssModel(
        index_set=index_set,
        a=zeros((0, 0)),
        e={"gamma": zeros((0, n)), "sigma": zeros((0, 0)), "o": zeros((0, 0))},
        c=zeros((n, 0)),
        f={"gamma": zeros((n, n)), "sigma": zeros((n, 0)), "o": zeros((n, 0))},
        state_names=(),
    )
    return CiderHss(node_id, model)


def park_series(theta0: float = 0.0) -> dict[int, np.ndarray]:
    """Three-phase to rotating-frame transform (2x3), amplitude-invariant.

    Entries are pure fundamental-frequency sinusoids, so the lifted
    operator couples only adjacent harmonics.
    """
    phases = theta0 - np.array([0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0])
    plus = np.exp(1j * phases)
    a_plus = (1.0 / 3.0) * np.vstack([plus, 1j * plus])
    return {1: a_plus, -1: np.conj(a_plus)}


def inverse_park_series(theta0: float = 0.0) -> dict[int, np.ndarray]:
    """Rotating-frame to three-phase transform (3x2); left inverse of park."""
    phases = theta0 - np.array([0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0])
    plus = np.exp(1j * phases)
    a_plus = 0.5 * np.column_stack([plus, 1j * plus])
    return {1: a_plus, -1: np.conj(a_plus)}


def identity_series(dim: int) -> dict[int, np.ndarray]:
    return {0: np.eye(dim)}
