"""Harmonic state-space model of a single converter-interfaced resource.

A resource is power hardware plus control software, interconnected
through coordinate transforms.  The internal closed loop is formed by
the generic loop-closing operation; the grid response then combines the
internal response with the linearised reference calculation and the
external transforms into the grid-facing quadruple with disturbance
ports gamma (grid), sigma (setpoint) and o (operating-point offset).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .assembly import close_loop
from .errors import ConfigurationError, ShapeError, WellPosednessError
from .harmonic import (
    HarmonicIndexSet,
    default_sample_count,
    normalize_series,
    sample_series,
    series_from_samples,
    toeplitz_from_fourier,
)
from .model import HssModel, check_phase_triples, lift_ltp, stack_models, stack_phase_triples


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
    return next(iter(series.values())).shape


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
                mats.append(getattr(blk, which).get(h, np.zeros(shape, dtype=complex)))
            out[h] = scipy.linalg.block_diag(*mats)
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

    def __post_init__(self):
        if self.kind not in ("error", "measurement", "reference"):
            raise ConfigurationError(f"unknown control-input kind '{self.kind}'")
        if self.kind in ("error", "measurement") and self.meas_index is None:
            raise ConfigurationError(f"'{self.kind}' input needs a measurement index")
        if self.kind in ("error", "reference") and self.ref_index is None:
            raise ConfigurationError(f"'{self.kind}' input needs a reference index")


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

    def validate(self, hardware: LtpBlock, control: LtpBlock, n_meas: int):
        declared = sorted(self.hw_grid_inputs + self.hw_actuation_inputs)
        if declared != list(range(hardware.n_inputs)):
            raise ConfigurationError(
                f"hardware inputs {declared} must partition 0..{hardware.n_inputs - 1}"
            )
        if len(self.ctl_inputs) != control.n_inputs:
            raise ConfigurationError(
                f"{len(self.ctl_inputs)} control-input sources declared for "
                f"{control.n_inputs} control inputs"
            )
        for k in self.ctl_measured_outputs:
            if not 0 <= k < hardware.n_outputs:
                raise ConfigurationError(f"measured hardware output {k} out of range")
        refs = sorted({c.ref_index for c in self.ctl_inputs if c.ref_index is not None})
        if refs != list(range(len(refs))):
            raise ConfigurationError(f"reference indices {refs} must be contiguous from 0")
        for c in self.ctl_inputs:
            if c.meas_index is not None and not 0 <= c.meas_index < n_meas:
                raise ConfigurationError(
                    f"measurement index {c.meas_index} outside transformed "
                    f"measurement vector of dim {n_meas}"
                )


def _selector(indices, width) -> np.ndarray:
    out = np.zeros((width, len(indices)))
    for col, idx in enumerate(indices):
        out[idx, col] = 1.0
    return out


def assemble_internal_response(
    hardware: Sequence[LtpBlock],
    control: Sequence[LtpBlock],
    routing: InternalRouting,
    ctl_to_hw: Mapping[int, np.ndarray],
    hw_to_ctl: Mapping[int, np.ndarray],
    index_set: HarmonicIndexSet,
    name: str = "cider",
) -> HssModel:
    """Close the hardware/control loop through the declared routing.

    The result is the internal quadruple over the stacked state
    col(x_hw, x_ctl) with disturbance columns partitioned into the
    grid-side ('pi') and reference ('kappa') groups.  Its outputs are the
    hardware outputs alone: the control outputs only feed the loop.
    """
    hw = stack_blocks(tuple(hardware), "hw")
    ctl = stack_blocks(tuple(control), "ctl")
    act = normalize_series(ctl_to_hw)
    meas = normalize_series(hw_to_ctl)
    n_act_t, ny_c_t = _series_shape(act)
    n_meas, n_sel_t = _series_shape(meas)
    routing.validate(hw, ctl, n_meas)
    if ny_c_t != ctl.n_outputs:
        raise ShapeError(
            f"{name}: actuation transform expects {ny_c_t} control outputs, "
            f"control provides {ctl.n_outputs}"
        )
    if n_act_t != len(routing.hw_actuation_inputs):
        raise ShapeError(
            f"{name}: actuation transform provides {n_act_t} channels for "
            f"{len(routing.hw_actuation_inputs)} actuation inputs"
        )
    if n_sel_t != len(routing.ctl_measured_outputs):
        raise ShapeError(
            f"{name}: measurement transform expects {n_sel_t} signals, "
            f"{len(routing.ctl_measured_outputs)} hardware outputs selected"
        )

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
    j_int = sp.block_array([[None, t_act], [t_meas, None]], format="csr")

    try:
        closed = close_loop(open_model, j_int, loop_port="loop")
    except WellPosednessError as exc:
        raise WellPosednessError(
            f"{name}: internal actuation/measurement loop is ill-posed "
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

    def output_map(self, index_set: HarmonicIndexSet) -> sp.csr_array:
        """Lift of the transform sending hardware outputs to the grid port."""
        if self.hw_out_to_grid_out is not None:
            return toeplitz_from_fourier(self.hw_out_to_grid_out, index_set)
        return toeplitz_from_fourier(
            pinv_series(self.grid_out_to_hw_out, index_set), index_set
        )


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
    internal: HssModel,
    r_rho: sp.csr_array,
    r_sigma: sp.csr_array,
    transforms: CiderTransforms,
    ctl_frame_op: sp.csr_array,
    index_set: HarmonicIndexSet,
    node_id: str,
) -> CiderHss:
    """Combine internal response, reference small-signal model and transforms.

    ``internal`` comes from ``assemble_internal_response``, ``r_rho`` and
    ``r_sigma`` from ``make_operating_point``, and ``ctl_frame_op`` is the
    lift T_kp of ``transforms.hw_to_ctl``, the one the reference lifts were
    made with.  With K = R_rho T_kp, one port map takes a disturbance pair
    (X_pi, X_kappa) of E, or of F through the output map, to the ports

        gamma = (X_pi + X_kappa K) T_pg
        sigma = X_kappa R_sigma
        o     = [X_kappa | -X_kappa K | -X_kappa R_sigma]
    """
    t_pg = toeplitz_from_fourier(transforms.grid_to_hw, index_set)
    out_map = transforms.output_map(index_set)

    count = index_set.count
    d_pi = internal.port_dim("pi") // count
    if t_pg.shape[0] // count != d_pi:
        raise ShapeError(
            f"{node_id}: grid-side transform yields {t_pg.shape[0] // count} channels, "
            f"hardware exposes {d_pi} grid inputs"
        )
    if ctl_frame_op.shape[1] // count != d_pi:
        raise ShapeError(
            f"{node_id}: control-frame transform expects {ctl_frame_op.shape[1] // count} "
            f"channels, grid-side disturbance has {d_pi}"
        )
    if out_map.shape[1] != internal.output_dim:
        raise ShapeError(
            f"{node_id}: output transform expects {out_map.shape[1] // count} hardware "
            f"outputs, internal response provides {internal.output_dim // count}"
        )
    if r_rho.shape[0] != internal.port_dim("kappa"):
        raise ShapeError(
            f"{node_id}: reference law gives {r_rho.shape[0] // count} channels, "
            f"control takes {internal.port_dim('kappa') // count} reference inputs"
        )

    k = r_rho @ ctl_frame_op

    def ports(x_pi, x_kappa):
        ref = x_kappa @ k
        sigma = x_kappa @ r_sigma
        return {
            "gamma": (x_pi + ref) @ t_pg,
            "sigma": sigma,
            "o": sp.hstack([x_kappa, -ref, -sigma], format="csr"),
        }

    model = HssModel(
        index_set=index_set,
        a=internal.a,
        e=ports(internal.e["pi"], internal.e["kappa"]),
        c=out_map @ internal.c,
        f=ports(out_map @ internal.f["pi"], out_map @ internal.f["kappa"]),
        state_names=tuple(f"{node_id}.{n}" for n in internal.state_names),
        phase_triples=internal.phase_triples,
    )
    return CiderHss(node_id, model)


def make_zero_injection(index_set: HarmonicIndexSet, node_id: str) -> CiderHss:
    """Stateless resource injecting nothing; used for pure junction nodes."""
    n = index_set.count * 3  # one three-phase grid port

    def zeros(rows, cols):
        return sp.csr_array((rows, cols), dtype=complex)

    model = HssModel(
        index_set=index_set,
        a=zeros(0, 0),
        e={"gamma": zeros(0, n), "sigma": zeros(0, 0), "o": zeros(0, 0)},
        c=zeros(n, 0),
        f={"gamma": zeros(n, n), "sigma": zeros(n, 0), "o": zeros(n, 0)},
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
