"""Interconnection of harmonic state-space models.

Stacks resource models, combines them with the grid into the open-loop
system, and closes the feedback w_gamma = J * y.  Every model here, the
closed loop included, is held in CSR (``HssModel``'s representation
rule), and J is a plain CSR array.  The loop closure is generic in J and
is reused for the converter-internal control loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import ShapeError, WellPosednessError, WiringError
from .model import HssModel, check_same_grid, stack_models


def build_interconnection(dims: tuple[int, int]) -> sp.csr_array:
    """J, the anti-diagonal identity pairing two equally sized port groups, in CSR."""
    n1, n2 = dims
    if n1 != n2:
        raise WiringError(f"interconnected port groups differ in size: {n1} vs {n2}")
    eye = sp.eye_array(n1, format="csr")
    return sp.block_array([[None, eye], [eye, None]], format="csr")


@dataclass(frozen=True)
class WellPosednessCertificate:
    """Records how invertibility of (I - J*F_gamma) was established."""

    nilpotent_loop: bool
    log_det: float
    condition_estimate: float | None


@dataclass(frozen=True)
class ResourceBlock:
    """Block-diagonal stack of resource models, gamma ports grouped per node."""

    model: HssModel
    node_ids: tuple[str, ...]


@dataclass(frozen=True)
class OpenLoopSystem:
    model: HssModel
    #: split of the output into (resource block, grid block) rows
    output_split: tuple[int, int]


@dataclass(frozen=True)
class ClosedLoopSystem:
    model: HssModel
    certificate: WellPosednessCertificate


def stack_resources(ciders) -> ResourceBlock:
    """Block-diagonal composition of resource HSS models, forming set first.

    ``ciders`` is an ordered sequence of objects exposing ``model``
    (ports gamma/sigma/o) and ``node_id``.
    """
    models = [c.model for c in ciders]
    check_same_grid(models, "resources")
    return ResourceBlock(stack_models(models), tuple(c.node_id for c in ciders))


def build_open_loop(resources: ResourceBlock, grid: HssModel, grid_nodes) -> OpenLoopSystem:
    """Combine the stacked resources and the grid into the open-loop system.

    The gamma disturbance becomes col(resource gamma, grid gamma); setpoint
    and operating-point ports touch only resource rows.
    """
    check_same_grid([resources.model, grid], "resources and grid")
    grid_nodes = tuple(grid_nodes)
    if resources.node_ids != grid_nodes:
        missing = set(grid_nodes).symmetric_difference(resources.node_ids)
        raise WiringError(
            f"resource nodes {resources.node_ids} do not match grid nodes "
            f"{grid_nodes}; unmatched: {sorted(missing)}"
        )
    rm = resources.model
    rq_in = rm.port_dim("gamma")
    rq_out = rm.output_dim
    g_in = grid.port_dim("gamma")
    g_out = grid.output_dim
    if rq_in != g_out or rq_out != g_in:
        raise WiringError(
            f"gamma port sizes do not pair up: resources {rq_in}in/{rq_out}out, "
            f"grid {g_in}in/{g_out}out"
        )
    return OpenLoopSystem(stack_models([rm, grid]), output_split=(rq_out, g_out))


class _LoopSolver:
    """Applies (I - J*F_gamma)^-1 to stacked CSR right-hand sides.

    The nilpotent case ((J*F)^2 = 0, the norm when the grid block has no
    feedthrough) is handled by the exact two-term series instead of an LU
    factorisation; the determinant is then exactly one.
    """

    def __init__(self, f_gamma: sp.csr_array, j: sp.csr_array):
        self.j = j
        self.jf = j @ f_gamma
        self.lu = None
        if not (self.jf @ self.jf).count_nonzero():
            self.certificate = WellPosednessCertificate(True, 0.0, None)
            return
        m = np.eye(self.jf.shape[0], dtype=complex) - self.jf.toarray()
        sign, log_det = np.linalg.slogdet(m)
        if sign == 0 or not np.isfinite(log_det):
            raise WellPosednessError(
                "algebraic loop (I - J*F_gamma) is singular; the feedthrough "
                "chain through the interconnection closes on itself"
            )
        cond = float(np.abs(np.linalg.cond(m, 1)))
        if not np.isfinite(cond) or cond > 1e12:
            raise WellPosednessError(
                f"algebraic loop (I - J*F_gamma) is numerically singular "
                f"(1-norm condition ~{cond:.2e})"
            )
        self.certificate = WellPosednessCertificate(False, float(log_det), cond)
        self.lu = scipy.linalg.lu_factor(m)

    def solve_j(self, x: sp.csr_array) -> sp.csr_array:
        """(I - J F)^-1 J x."""
        jx = self.j @ x
        if self.lu is not None:
            return sp.csr_array(scipy.linalg.lu_solve(self.lu, jx.toarray()))
        return jx + self.jf @ jx


def close_loop(
    open_model: HssModel,
    j: np.ndarray | sp.csr_array,
    loop_port: str = "gamma",
    state_only: bool = False,
) -> ClosedLoopSystem:
    """Close the feedback w[loop_port] = J*y and eliminate the loop port.

    All closed-loop matrices are computed through linear solves against
    (I - J*F) rather than explicit inverses.  J (a plain CSR array from
    ``build_interconnection``) and the open model may be dense or CSR; the
    products run in CSR and the closed-loop matrices are returned in CSR.
    ``state_only`` skips the output and remaining-port matrices (enough for
    eigenvalue work), so it reads only A, C and the loop port of the open model.
    """

    def csr(mat) -> sp.csr_array:
        return sp.csr_array(mat, dtype=complex)

    e_gamma = csr(open_model.e[loop_port])
    f_gamma = csr(open_model.f[loop_port])
    if j.shape != (f_gamma.shape[1], open_model.output_dim):
        raise ShapeError(
            f"interconnection shape {j.shape} does not map outputs "
            f"({open_model.output_dim}) to the '{loop_port}' port ({f_gamma.shape[1]})"
        )
    solver = _LoopSolver(f_gamma, csr(j))

    # w_loop = (I - J F)^-1 J (C x + sum_j F_j w_j)
    c = csr(open_model.c)
    jc = solver.solve_j(c)
    a_closed = csr(open_model.a) + e_gamma @ jc

    e_closed = {}
    f_closed = {}
    if state_only:
        c_closed = sp.csr_array((0, open_model.state_dim), dtype=complex)
    else:
        c_closed = c + f_gamma @ jc
        for port in (p for p in open_model.ports if p != loop_port):
            f_port = csr(open_model.f[port])
            jf = solver.solve_j(f_port)
            e_closed[port] = csr(open_model.e[port]) + e_gamma @ jf
            f_closed[port] = f_port + f_gamma @ jf

    model = HssModel(
        index_set=open_model.index_set,
        a=a_closed,
        e=e_closed,
        c=c_closed,
        f=f_closed,
        state_names=open_model.state_names,
        phase_triples=open_model.phase_triples,
    )
    return ClosedLoopSystem(model, solver.certificate)
