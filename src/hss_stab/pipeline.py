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
from .cider import (
    CiderConfig,
    CiderHss,
    assemble_cider_hss,
    assemble_internal_response,
    make_zero_injection,
)
from .errors import NumericalError
from .grid import build_grid_state_space, lift_grid_to_hss
from .harmonic import HarmonicIndexSet, toeplitz_from_fourier
from .model import HssModel
from .references import make_operating_point
from .scenario import Scenario


def assemble_cider(
    config: CiderConfig, index_set: HarmonicIndexSet, state_only: bool = False
) -> CiderHss:
    """Build the grid response of one configured resource; the one lift of
    ``hw_to_ctl`` serves both the reference lifts and the grid response.
    ``state_only`` builds its gamma port alone (``assemble_cider_hss``), so
    R_sigma is not built.  A reference law that the operating voltage
    ``w_pi`` leaves undefined or aliased raises its ``NumericalError``
    prefixed with the node id and that trajectory."""
    internal = assemble_internal_response(config, index_set)
    ctl_frame_op = toeplitz_from_fourier(config.transforms.hw_to_ctl, index_set)
    try:
        r_rho, r_sigma = make_operating_point(
            config.plugin, ctl_frame_op, config.w_pi, config.setpoint, index_set, state_only
        )
    except NumericalError as exc:  # the one nonlinear law is nonlinear in the voltage alone
        raise type(exc)(f"{config.node_id}: operating_point.w_pi: {exc}") from exc
    return assemble_cider_hss(config, internal, r_rho, r_sigma, ctl_frame_op, index_set, state_only)


@dataclass(frozen=True)
class SystemModel:
    """Assembled analysis target of a scenario.

    ``model`` is the closed-loop system (``closed.model``), or the bare
    grid model for scenarios without resources.  ``assemble`` holds every
    model in CSR; ``assemble_system`` holds ``model`` dense.  A state-only
    assembly stacks and opens the loop port (gamma) alone, the only one
    its loop closure reads.  A system is also the reuse handle of later
    assemblies of the same command (``assemble(like=...)``).
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


def assemble(
    scenario: Scenario, state_only: bool = False, like: SystemModel | None = None
) -> SystemModel:
    """Run the full assembly pipeline for a scenario; every model is CSR.

    Resources are ordered voltage-forming first (matching the grid's node
    ordering); following nodes without a declared resource receive a
    zero-injection placeholder so the interconnection stays square.
    ``state_only`` propagates to the loop closure when only the spectrum
    of the result is needed; each resource is then built with its loop
    port alone, and the stack and the open loop carry that port alone.

    ``like`` is a system assembled earlier in the same command, typically
    the nominal one of a sweep or classification.  On the same harmonic
    grid, its grid lift is taken when ``raw["grid"]`` is unchanged, and
    its ``CiderHss`` of every resource whose ``raw["ciders"]`` entry is
    unchanged and that carries every port this assembly stacks (a full
    assembly rebuilds the resources of a state-only ``like``): each depends
    on nothing else.  Only the other pieces, the stacking, the open loop
    and the loop closure are rebuilt, so the result equals a fresh assembly
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
        return SystemModel(scenario, index_set, grid_model, grid_model, (), None, None, None, None)

    ports = ("gamma",) if state_only else ("gamma", "sigma", "o")
    kept = {} if like is None else _unchanged_ciders(scenario, like, ports)
    by_node = {cfg.node_id: cfg for cfg in scenario.ciders}
    ciders = []
    for node_id in scenario.topology.ordered_ids:
        if node_id in kept:
            ciders.append(kept[node_id])
        elif node_id in by_node:
            ciders.append(assemble_cider(by_node[node_id], index_set, state_only))
        else:  # a following node: the scenario gives every forming node a resource
            ciders.append(make_zero_injection(index_set, node_id))
    ciders = tuple(ciders)

    # a state-only loop closure reads A, C and the gamma port alone
    resources = stack_resources([replace(c, model=c.model.with_ports(ports)) for c in ciders])
    open_loop = build_open_loop(resources, grid_model, scenario.topology.ordered_ids)
    n_res_out, n_grid_out = open_loop.output_split
    interconnection = build_interconnection((n_res_out, n_grid_out))
    closed = close_loop(
        open_loop.model,
        interconnection,
        loop_port="gamma",
        state_only=state_only,
    )
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


def assemble_system(
    scenario: Scenario, state_only: bool = False, like: SystemModel | None = None
) -> SystemModel:
    """``assemble`` with ``model`` densified once, and ``closed.model`` set
    to that same dense model.

    It exists only for readers that take ndarrays: the benchmark's oracle
    (``perfbench/checks.py``) and tracer (``perfbench/traced.py``), and
    tests.  No command calls it, and it goes with the benchmark change
    that lets those readers take CSR (ROADMAP item 4).
    """
    system = assemble(scenario, state_only, like)
    model = system.model.dense()
    closed = None if system.closed is None else replace(system.closed, model=model)
    return replace(system, model=model, closed=closed)


def _unchanged_ciders(
    scenario: Scenario, like: SystemModel, ports: tuple[str, ...]
) -> dict[str, CiderHss]:
    """``like``'s assembled resources, by node, whose scenario entry
    ``scenario`` repeats unchanged and whose model carries ``ports``."""
    built = {c.node_id: c for c in like.ciders}
    return {
        cfg.node_id: built[cfg.node_id]
        for cfg, entry, old in zip(
            scenario.ciders, scenario.raw["ciders"], like.scenario.raw.get("ciders", ())
        )
        if entry == old and set(ports) <= set(built[cfg.node_id].model.ports)
    }
