import numpy as np
import pytest

from hss_stab import (
    HarmonicIndexSet,
    HssModel,
    ShapeError,
    eigen_decompose,
    evaluate_htf,
    hss_from_lti,
    match_eigenvalues,
)
from hss_stab.model import stack_models
from tests.conftest import random_stable_lti


def test_lti_lift_ladder():
    rng = np.random.default_rng(0)
    a = random_stable_lti(rng, 4)
    iset = HarmonicIndexSet(2, 50.0)
    model = hss_from_lti(a, {"w": np.eye(4)}, np.eye(4), {"w": np.zeros((4, 4))}, iset)
    sol = eigen_decompose(model)
    base = np.linalg.eigvals(a)
    expected = np.concatenate([base - 1j * 2 * np.pi * 50.0 * h for h in iset.orders])
    perm, _ = match_eigenvalues(sol.eigenvalues, expected)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(sol.eigenvalues - expected[perm])) <= 1e-8 * scale


def test_state_labels_h_major():
    iset = HarmonicIndexSet(1, 50.0)
    model = hss_from_lti(
        -np.eye(2), {"w": np.eye(2)}, np.eye(2), {"w": np.zeros((2, 2))}, iset,
        state_names=("x", "y"),
    )
    labels = model.state_labels()
    assert labels[0] == ("x", -1)
    assert labels[1] == ("y", -1)
    assert labels[2] == ("x", 0)
    assert labels[-1] == ("y", 1)


def test_stateless_model():
    # a pure feedthrough: no states, so no spectrum, and the HTF is F
    model = HssModel(
        HarmonicIndexSet(1, 50.0),
        np.zeros((0, 0)),
        {"w": np.zeros((0, 1))},
        np.zeros((1, 0)),
        {"w": np.ones((1, 1))},
        (),
    )
    sol = eigen_decompose(model)
    assert sol.eigenvalues.shape == (0,)
    assert sol.vectors.shape == (0, 0)
    assert sol.labels == ()
    assert np.array_equal(evaluate_htf(model, 1.0 + 2.0j), np.ones((1, 1)))


def test_port_consistency_checked():
    iset = HarmonicIndexSet(0, 50.0)
    with pytest.raises(ShapeError):
        HssModel(
            index_set=iset,
            a=np.zeros((1, 1), complex),
            e={"w": np.zeros((1, 2), complex)},
            c=np.zeros((1, 1), complex),
            f={"w": np.zeros((1, 3), complex)},  # width mismatch with E
            state_names=("x",),
        )


def bare_model(channels, triples=()):
    n = channels
    return HssModel(
        HarmonicIndexSet(0, 50.0),
        np.zeros((n, n)),
        {},
        np.zeros((0, n)),
        {},
        tuple(f"x{i}" for i in range(n)),
        triples,
    )


@pytest.mark.parametrize(
    "triples", [(-1,), (3,), (0, 2)], ids=["negative", "past-last-channel", "overlap"]
)
def test_phase_triples_validated(triples):
    with pytest.raises(ShapeError, match="phase triples"):
        bare_model(5, triples)


def test_stack_models_offsets_phase_triples():
    stacked = stack_models([bare_model(4, (1,)), bare_model(2), bare_model(3, (0,))])
    assert stacked.phase_triples == (1, 6)
    assert bare_model(6, (3, 0)).phase_triples == (0, 3)
