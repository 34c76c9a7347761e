import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from hss_stab import scenario_from_dict
from hss_stab.model import lift_ltp

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def scenario_path(name: str) -> Path:
    return SCENARIO_DIR / f"{name}.json"


def load_raw(name: str) -> dict:
    return json.loads(scenario_path(name).read_text())


@pytest.fixture
def two_node():
    return scenario_from_dict(load_raw("two_node"), source=str(scenario_path("two_node")))


@pytest.fixture
def rlc_grid():
    return scenario_from_dict(load_raw("rlc_grid"), source=str(scenario_path("rlc_grid")))


@pytest.fixture
def toy_gain():
    return scenario_from_dict(load_raw("toy_gain"), source=str(scenario_path("toy_gain")))


def random_stable_lti(rng, dim: int, margin: float = 0.5) -> np.ndarray:
    """Random real system matrix with all eigenvalues strictly left of -margin."""
    a = rng.standard_normal((dim, dim))
    shift = np.max(np.linalg.eigvals(a).real)
    return a - (shift + margin) * np.eye(dim)


def lti_model(a, index_set, e=1.0, c=1.0, f=0.0, state_names=None):
    """Lift of the LTI model x' = A x + e w, y = c x + f w, on one
    disturbance port "w": every matrix is block diagonal."""
    a = np.atleast_2d(np.asarray(a))
    eye = np.eye(a.shape[0])
    names = state_names or tuple(f"x{i}" for i in range(a.shape[0]))
    return lift_ltp(
        {0: a}, {"w": {0: e * eye}}, {0: c * eye}, {"w": {0: f * eye}}, index_set, names
    )


def shifted_dense(model) -> np.ndarray:
    """Dense A - j*Omega of a model, built here from ``model.a`` and the
    frequencies 2*pi*f1*h of the h-major stacked state: an oracle that
    shares no code with the package's own construction."""
    a = model.a.toarray() if sp.issparse(model.a) else np.asarray(model.a)
    iset = model.index_set
    orders = np.arange(-iset.hmax, iset.hmax + 1)
    omega = 2 * np.pi * iset.f1 * np.repeat(orders, model.state_channels)
    return a - np.diag(1j * omega)
