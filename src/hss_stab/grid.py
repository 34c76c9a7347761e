"""State-space model of the electrical grid and its harmonic lift.

The grid is described by three-phase RL branches between nodes and shunt
capacitances at nodes hosting current-controlled (grid-following)
resources.  States are the branch currents and the shunt voltages; the
disturbance stacks the voltages imposed at voltage-controlled
(grid-forming) nodes with the currents injected at grid-following nodes,
and the output stacks the complementary quantities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (
    ConfigurationError,
    PhysicalParameterError,
    ShapeError,
    TopologyError,
)
from .harmonic import HarmonicIndexSet, node_major_order
from .model import HssModel, block_diag_csr, component_labels
from .sparse import csr

FORMING = "forming"
FOLLOWING = "following"

PHASES = ("a", "b", "c")


@dataclass(frozen=True)
class GridNode:
    node_id: str
    kind: str

    def __post_init__(self):
        if self.kind not in (FORMING, FOLLOWING):
            raise ConfigurationError(
                f"node '{self.node_id}': kind must be '{FORMING}' or '{FOLLOWING}'"
            )


@dataclass(frozen=True)
class Branch:
    from_node: str
    to_node: str
    resistance: np.ndarray  # 3x3, Ohm
    inductance: np.ndarray  # 3x3, H

    def __post_init__(self):
        object.__setattr__(self, "resistance", _phase_matrix(self.resistance))
        object.__setattr__(self, "inductance", _phase_matrix(self.inductance))


def _phase_matrix(value) -> np.ndarray:
    """Accept a scalar (decoupled phases) or a full 3x3 matrix."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return float(arr) * np.eye(3)
    if arr.shape != (3, 3):
        raise ShapeError(f"phase matrix must be scalar or 3x3, got shape {arr.shape}")
    return arr


def _check_spd(mat: np.ndarray, what: str, semidefinite: bool = False):
    if np.max(np.abs(mat - mat.T)) > 1e-9 * max(1.0, np.max(np.abs(mat))):
        raise PhysicalParameterError(f"{what} is not symmetric")
    eigs = np.linalg.eigvalsh(mat)
    if semidefinite:
        if eigs.min() < -1e-12 * max(1.0, eigs.max()):
            raise PhysicalParameterError(f"{what} is not positive semidefinite")
    elif eigs.min() <= 0:
        raise PhysicalParameterError(f"{what} is not positive definite")


@dataclass(frozen=True)
class GridTopology:
    nodes: tuple[GridNode, ...]
    branches: tuple[Branch, ...]
    shunts: Mapping[str, np.ndarray]  # following node id -> 3x3 capacitance, F

    def __post_init__(self):
        object.__setattr__(
            self, "shunts", {k: _phase_matrix(v) for k, v in self.shunts.items()}
        )
        ids = [n.node_id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise TopologyError("duplicate node ids")
        known = set(ids)
        for br in self.branches:
            for end in (br.from_node, br.to_node):
                if end not in known:
                    raise TopologyError(f"branch endpoint '{end}' is not a declared node")
            if br.from_node == br.to_node:
                raise TopologyError(f"branch '{br.from_node}' loops onto itself")
        if not self.forming_ids:
            raise ConfigurationError("grid has no forming node (no voltage reference)")
        for rid in self.following_ids:
            if rid not in self.shunts:
                raise ConfigurationError(
                    f"following node '{rid}' has no shunt capacitance"
                )
        for nid, c in self.shunts.items():
            if nid not in known:
                raise TopologyError(f"shunt references unknown node '{nid}'")
        for br in self.branches:
            tag = f"branch {br.from_node}-{br.to_node}"
            _check_spd(br.inductance, f"{tag} inductance")
            _check_spd(br.resistance, f"{tag} resistance", semidefinite=True)
        for rid in self.following_ids:
            _check_spd(self.shunts[rid], f"shunt at node '{rid}'")
        self._check_connected()

    @property
    def forming_ids(self) -> tuple[str, ...]:
        return tuple(n.node_id for n in self.nodes if n.kind == FORMING)

    @property
    def following_ids(self) -> tuple[str, ...]:
        return tuple(n.node_id for n in self.nodes if n.kind == FOLLOWING)

    @property
    def ordered_ids(self) -> tuple[str, ...]:
        # nodes ordered with forming set first
        return self.forming_ids + self.following_ids

    def _check_connected(self):
        index = {n.node_id: k for k, n in enumerate(self.nodes)}
        ends = [(index[br.from_node], index[br.to_node]) for br in self.branches]
        rows, cols = np.array(ends, int).reshape(-1, 2).T
        labels = component_labels(len(index), rows, cols)
        missing = [n.node_id for n, label in zip(self.nodes, labels) if label != labels[0]]
        if missing:
            raise TopologyError(f"grid graph is disconnected; unreachable nodes: {missing}")


@dataclass(frozen=True)
class GridStateSpace:
    """Real-valued quadruple of the grid; the feedthrough is identically zero.

    Every state is one phase of a branch current or node voltage, so the
    states form consecutive abc triples.
    """

    topology: GridTopology
    a: np.ndarray
    e: np.ndarray
    c: np.ndarray
    f: np.ndarray
    state_names: tuple[str, ...]

    @property
    def phase_triples(self) -> tuple[int, ...]:
        return tuple(range(0, len(self.state_names), len(PHASES)))


def _incidence(topology: GridTopology) -> tuple[np.ndarray, np.ndarray]:
    """Three-phase incidence blocks (A_LS, A_LR), +1 at from-node, -1 at to-node."""
    forming = topology.forming_ids
    following = topology.following_ids
    nl = len(topology.branches)
    a_ls = np.zeros((3 * nl, 3 * len(forming)))
    a_lr = np.zeros((3 * nl, 3 * len(following)))
    s_pos = {nid: i for i, nid in enumerate(forming)}
    r_pos = {nid: i for i, nid in enumerate(following)}
    for ell, br in enumerate(topology.branches):
        for nid, sign in ((br.from_node, 1.0), (br.to_node, -1.0)):
            if nid in s_pos:
                a_ls[3 * ell : 3 * ell + 3, 3 * s_pos[nid] : 3 * s_pos[nid] + 3] = (
                    sign * np.eye(3)
                )
            else:
                a_lr[3 * ell : 3 * ell + 3, 3 * r_pos[nid] : 3 * r_pos[nid] + 3] = (
                    sign * np.eye(3)
                )
    return a_ls, a_lr


def build_grid_state_space(topology: GridTopology) -> GridStateSpace:
    """Assemble the grid quadruple from branch and shunt dynamics.

    State col(i_L, v_R), disturbance col(v_S, i_R), output col(i_S, v_R).
    Shunts at forming nodes are dominated by the resource output filter
    and dropped.
    """
    branches = topology.branches
    following = topology.following_ids
    nl, nr, ns = len(branches), len(following), len(topology.forming_ids)
    a_ls, a_lr = _incidence(topology)

    l_inv = np.zeros((3 * nl, 3 * nl))
    r_all = np.zeros((3 * nl, 3 * nl))
    for ell, br in enumerate(branches):
        sl = slice(3 * ell, 3 * ell + 3)
        l_inv[sl, sl] = np.linalg.inv(br.inductance)
        r_all[sl, sl] = br.resistance
    c_inv = np.zeros((3 * nr, 3 * nr))
    for k, rid in enumerate(following):
        sl = slice(3 * k, 3 * k + 3)
        c_inv[sl, sl] = np.linalg.inv(topology.shunts[rid])

    nx = 3 * nl + 3 * nr
    a = np.zeros((nx, nx))
    a[: 3 * nl, : 3 * nl] = -l_inv @ r_all
    a[: 3 * nl, 3 * nl :] = l_inv @ a_lr
    a[3 * nl :, : 3 * nl] = -c_inv @ a_lr.T

    e = np.zeros((nx, 3 * ns + 3 * nr))
    e[: 3 * nl, : 3 * ns] = l_inv @ a_ls
    e[3 * nl :, 3 * ns :] = c_inv

    ny = 3 * ns + 3 * nr
    c = np.zeros((ny, nx))
    c[: 3 * ns, : 3 * nl] = a_ls.T
    c[3 * ns :, 3 * nl :] = np.eye(3 * nr)

    f = np.zeros((ny, 3 * ns + 3 * nr))

    names = tuple(
        f"grid.{br.from_node}-{br.to_node}.i{p}" for br in branches for p in PHASES
    ) + tuple(f"grid.{rid}.v{p}" for rid in following for p in PHASES)
    return GridStateSpace(topology, a, e, c, f, names)


def lift_grid_to_hss(gss: GridStateSpace, index_set: HarmonicIndexSet) -> HssModel:
    """Harmonic lift of the (constant) grid quadruple, ports grouped per node.

    Each matrix becomes its block-diagonal DC lift, held in CSR;
    disturbance columns and output rows are then regrouped so that all
    harmonics of one node form a contiguous block, matching the
    resource-side port layout.  Each matrix is read into a Csr once, not
    once per harmonic.
    """
    count = index_set.count
    # harmonic-major port position -> its node-major position
    idx = np.argsort(node_major_order(count, [3] * len(gss.topology.ordered_ids)))
    a, e, c, f = (csr(m) for m in (gss.a, gss.e, gss.c, gss.f))

    return HssModel(
        index_set=index_set,
        a=block_diag_csr([a] * count),
        e={"gamma": block_diag_csr([e] * count, cols=idx)},
        c=block_diag_csr([c] * count, rows=idx),
        f={"gamma": block_diag_csr([f] * count)},
        state_names=gss.state_names,
        phase_triples=gss.phase_triples,
    )
