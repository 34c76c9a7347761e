"""Scenario-to-model assembly: resources, grid and the closed loop."""

from __future__ import annotations

from dataclasses import dataclass, replace

import scipy.sparse as sp

from .assembly import (
    ClosedLoopSystem,
    OpenLoopSystem,
    ResourceBlock,
    build_interconnection,
    build_open_loop,
    close_loop,
    stack_resources,
)
from .cider import CiderHss, assemble_cider_hss, assemble_internal_response, make_zero_injection
from .errors import ConfigurationError
from .grid import build_grid_state_space, lift_grid_to_hss
from .harmonic import HarmonicIndexSet, toeplitz_from_fourier
from .model import HssModel
from .references import make_operating_point
from .scenario import Scenario
from .templates import CiderConfig


def assemble_cider(config: CiderConfig, index_set: HarmonicIndexSet) -> CiderHss:
    """Build the grid response of one configured resource; the one lift of
    ``hw_to_ctl`` serves both the reference lifts and the grid response."""
    internal = assemble_internal_response(
        config.hardware,
        config.control,
        config.routing,
        config.transforms.ctl_to_hw,
        config.transforms.hw_to_ctl,
        index_set,
        name=config.node_id,
    )
    ctl_frame_op = toeplitz_from_fourier(config.transforms.hw_to_ctl, index_set)
    try:
        r_rho, r_sigma = make_operating_point(
            config.plugin, ctl_frame_op, config.w_pi, config.setpoint, index_set
        )
    except ConfigurationError as exc:  # a width mismatch: name the resource
        raise ConfigurationError(f"{config.node_id}: {exc}") from None
    return assemble_cider_hss(
        internal, r_rho, r_sigma, config.transforms, ctl_frame_op, index_set, config.node_id
    )


@dataclass(frozen=True)
class AssemblyPieces:
    """What ``assemble_system(like=...)`` reuses of an assembled system."""

    scenario: Scenario
    grid_model: HssModel
    ciders: tuple[CiderHss, ...]


@dataclass(frozen=True)
class SystemModel:
    """Assembled analysis target of a scenario.

    ``model`` is the closed-loop system (``closed.model``), or the bare
    grid model for scenarios without resources.  It is the one dense model
    of an assembly; the resources, the grid lift, the stack and the open
    loop stay in CSR.  A state-only assembly stacks and opens the loop
    port (gamma) alone, the only one its loop closure reads.
    """

    scenario: Scenario
    index_set: HarmonicIndexSet
    model: HssModel
    grid_model: HssModel
    ciders: tuple[CiderHss, ...]
    resources: ResourceBlock | None
    open_loop: OpenLoopSystem | None
    interconnection: sp.csr_array | None
    closed: ClosedLoopSystem | None

    @property
    def pieces(self) -> AssemblyPieces:
        """The reusable pieces alone, so that holding them for later
        rebuilds does not keep the closed loop alive."""
        return AssemblyPieces(self.scenario, self.grid_model, self.ciders)


def assemble_system(
    scenario: Scenario, state_only: bool = False, like: AssemblyPieces | None = None
) -> SystemModel:
    """Run the full assembly pipeline for a scenario.

    Resources are ordered voltage-forming first (matching the grid's node
    ordering); following nodes without a declared resource receive a
    zero-injection placeholder so the interconnection stays square.
    ``state_only`` propagates to the loop closure when only the spectrum
    of the result is needed; the stack and the open loop then carry the
    loop port alone.  The system closed loop is densified here, once:
    ``perfbench/checks.py`` and ``perfbench/traced.py`` read
    ``model`` and ``closed.model`` as ndarrays.  Every other model
    stays in CSR.

    ``like`` holds the pieces (``SystemModel.pieces``) of a system
    assembled earlier in the same command, typically the nominal one of a
    sweep or classification.  On the same harmonic grid, its grid lift is
    taken when ``raw["grid"]`` is unchanged, and its ``CiderHss`` of every
    resource whose ``raw["ciders"]`` entry is unchanged: each depends on
    nothing else.  Only the other pieces, the stacking, the open loop and
    the loop closure are rebuilt, so the result equals a fresh assembly
    bit for bit.  Reused pieces are only read.
    """
    index_set = HarmonicIndexSet(scenario.hmax, scenario.f1)
    if like is not None and like.grid_model.index_set != index_set:
        like = None
    if like is not None and scenario.raw["grid"] == like.scenario.raw["grid"]:
        grid_model = like.grid_model
    else:
        grid_model = lift_grid_to_hss(build_grid_state_space(scenario.topology), index_set)

    if not scenario.ciders:
        return SystemModel(
            scenario, index_set, grid_model.dense(), grid_model, (), None, None, None, None
        )

    kept = {} if like is None else _unchanged_ciders(scenario, like)
    by_node = {cfg.node_id: cfg for cfg in scenario.ciders}
    ciders = []
    for node_id in scenario.topology.ordered_ids:
        if node_id in kept:
            ciders.append(kept[node_id])
        elif node_id in by_node:
            ciders.append(assemble_cider(by_node[node_id], index_set))
        else:  # a following node: the scenario gives every forming node a resource
            ciders.append(make_zero_injection(index_set, node_id))
    ciders = tuple(ciders)

    stacked = ciders
    if state_only:  # the loop closure then reads A, C and the gamma port alone
        stacked = [replace(c, model=c.model.with_ports(("gamma",))) for c in ciders]
    resources = stack_resources(stacked)
    open_loop = build_open_loop(resources, grid_model, scenario.topology.ordered_ids)
    n_res_out, n_grid_out = open_loop.output_split
    interconnection = build_interconnection((n_res_out, n_grid_out))
    closed = close_loop(
        open_loop.model,
        interconnection,
        loop_port="gamma",
        state_only=state_only,
    )
    closed = replace(closed, model=closed.model.dense())
    return SystemModel(
        scenario,
        index_set,
        closed.model,
        grid_model,
        ciders,
        resources,
        open_loop,
        interconnection,
        closed,
    )


def _unchanged_ciders(scenario: Scenario, like: AssemblyPieces) -> dict[str, CiderHss]:
    """``like``'s assembled resources, by node, whose scenario entry
    ``scenario`` repeats unchanged."""
    built = {c.node_id: c for c in like.ciders}
    return {
        cfg.node_id: built[cfg.node_id]
        for cfg, entry, old in zip(
            scenario.ciders, scenario.raw["ciders"], like.scenario.raw.get("ciders", ())
        )
        if entry == old
    }
