"""Correctness checks of hss-stab CLI outputs against computations done apart
from the program's analysis code.

The program supplies only the assembled closed-loop state matrix A (the
model under test); every spectrum, assignment and verdict used here is
computed by this file from that matrix with numpy and scipy:

- a Floquet oracle: the LTP series of A(t) is read from the central block
  row of A, the monodromy matrix is integrated over one period with a
  4th-order Magnus scheme, and the exponents are log(eig Phi) / T.  By the
  HSS-to-LTP correspondence (Wereley, MIT 1991) the truncated HSS
  eigenvalues approximate these exponents shifted by j*k*omega1;
- spectral identities every HSS spectrum of a real A(t) satisfies: the
  eigenvalue count, sum(lambda) = trace(A - j*Omega), and closure under
  conjugation;
- dense complex ``zgeev`` spectra of the nominal, perturbed and probe models,
  matched with this file's own ``linear_sum_assignment`` call, for the
  CDV/CDI/DI labels of ``classify`` (every classified parameter at every
  step of ``PERTURBATIONS``) and the flags of ``spurious``.

``build_oracle`` does the expensive part once per workload;
``check_output`` then checks one CLI output document against it and
returns the list of failed checks (empty when the output is correct).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack
from scipy.optimize import linear_sum_assignment

#: Magnus steps per period; the rightmost exponent of four_cider_six_node
#: moves by 1.7e-7 from 512 to 1024 steps and by 1e-8 from 1024 to 2048
MAGNUS_STEPS = 1024
#: relative tolerance of sum(lambda) against trace(A - j*Omega), per state
TRACE_TOL = 1e-12
#: relative tolerance (to the spectral radius) of spectrum identities:
#: conjugate pairs, the program's spectrum against zgeev
SPECTRUM_TOL = 1e-9
#: the rightmost non-rim eigenvalue against the rightmost Floquet exponent,
#: relative; the pair at |h| = hmax - 1 of four_cider_six_node sits 0.22%
#: right of the exponent at hmax 12 and 25 alike
REAL_PART_TOL = 1e-2
#: a ladder copy of the rightmost Floquet exponent must be in the spectrum
#: to this relative distance
EXPONENT_TOL = 1e-6
#: classify: relative steps applied to every control and hardware parameter,
#: those the classification is defined on
PERTURBATIONS = (-0.2, -0.1, 0.1, 0.2)
#: classify: a displacement within this share of epsilon may fall either side
#: of it, so its label is not checked
LABEL_BAND = 1e-3


@dataclass(frozen=True)
class Oracle:
    """What one workload's outputs are checked against."""

    command: str
    hmax: int
    channels: int
    f1: float
    margin: float
    trace: complex
    #: rightmost Floquet exponent (None when the workload has no Floquet check)
    exponent: complex | None = None
    #: classify: zgeev spectrum of the nominal model, the largest matched
    #: displacement of each of its eigenvalues over the control and over the
    #: hardware perturbations, and the label tolerance
    nominal: np.ndarray | None = None
    control: np.ndarray | None = None
    hardware: np.ndarray | None = None
    epsilon: float | None = None
    #: spurious: zgeev spectrum of the probe model and its order
    probe: np.ndarray | None = None
    hmax_probe: int | None = None
    delta_tol: float | None = None


# -- numerical building blocks ------------------------------------------------


def shifted(a: np.ndarray, hmax: int, f1: float) -> np.ndarray:
    """A - j*Omega for an h-major stacked state matrix."""
    count = 2 * hmax + 1
    channels = a.shape[0] // count
    omega = 2.0 * np.pi * f1 * np.repeat(np.arange(-hmax, hmax + 1), channels)
    return a - 1j * np.diag(omega)


def zgeev(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a complex matrix by LAPACK zgeev."""
    w, _, _, info = lapack.zgeev(np.asarray(m, complex), compute_vl=0, compute_vr=0)
    if info != 0:
        raise RuntimeError(f"zgeev failed with info={info}")
    return w


def match(lam: np.ndarray, other: np.ndarray) -> np.ndarray:
    """``perm`` minimising sum |lam[i] - other[perm[i]]| (equal sizes)."""
    rows, cols = linear_sum_assignment(np.abs(lam[:, None] - other[None, :]))
    perm = np.empty(lam.size, int)
    perm[rows] = cols
    return perm


def fold(lam: np.ndarray, f1: float) -> np.ndarray:
    """Translate by multiples of j*omega1 into Im in (-pi*f1, pi*f1]."""
    w1 = 2.0 * np.pi * f1
    return lam + 1j * w1 * np.floor((np.pi * f1 - lam.imag) / w1)


def strip_distance(x: np.ndarray, y: np.ndarray, f1: float) -> np.ndarray:
    """Distance between folded points, wrapping across the strip edges."""
    w1 = 2.0 * np.pi * f1
    d = np.abs(x - y)
    return np.minimum(d, np.minimum(np.abs(x - y + 1j * w1), np.abs(x - y - 1j * w1)))


def ltp_series(a: np.ndarray, hmax: int) -> np.ndarray:
    """Fourier coefficients A_q, q = -hmax..hmax, from the central block row.

    Block (i, k) of the h-major HSS matrix is A_{h_i - h_k}; the central
    row (h_i = 0) therefore holds A_q at column order -q.
    """
    count = 2 * hmax + 1
    channels = a.shape[0] // count
    row = a[hmax * channels : (hmax + 1) * channels].reshape(channels, count, channels)
    return np.stack([row[:, hmax - q, :] for q in range(-hmax, hmax + 1)])


def floquet_exponents(series: np.ndarray, f1: float, steps: int = MAGNUS_STEPS) -> np.ndarray:
    """Floquet exponents of x' = A(t) x, A(t) = sum_q A_q exp(j q omega1 t).

    The monodromy matrix is the product of 4th-order Magnus steps with two
    Gauss points (Blanes et al., Phys. Rep. 470, 2009).  Exponents are
    log(mu) / T with imaginary parts in (-pi*f1, pi*f1]; those of modes that
    decay by more than the double range in one period are not resolved, so
    only the rightmost ones are meaningful.
    """
    hmax = (series.shape[0] - 1) // 2
    period = 1.0 / f1
    dt = period / steps
    nodes = np.array([0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0])
    t = ((np.arange(steps)[:, None] + nodes[None, :]) * dt).ravel()
    phases = np.exp(2j * np.pi * f1 * np.outer(t, np.arange(-hmax, hmax + 1)))
    a_t = np.einsum("tq,qij->tij", phases, series).real
    a1, a2 = a_t[0::2], a_t[1::2]
    magnus = 0.5 * dt * (a1 + a2) + (np.sqrt(3.0) / 12.0) * dt**2 * (a2 @ a1 - a1 @ a2)
    phi = np.eye(series.shape[1])
    for step in scipy.linalg.expm(magnus):
        phi = step @ phi
    mu = np.linalg.eigvals(phi).astype(complex)
    with np.errstate(divide="ignore"):
        return fold(np.log(mu) / period, f1)


# -- oracle -------------------------------------------------------------------


def displacements(nominal: np.ndarray, perturbed) -> np.ndarray:
    """Largest distance of each nominal eigenvalue to its matched counterpart."""
    disp = np.zeros(nominal.size)
    for lam in perturbed:
        disp = np.maximum(disp, np.abs(nominal - lam[match(nominal, lam)]))
    return disp


def expected_labels(control: np.ndarray, hardware: np.ndarray, eps: float) -> np.ndarray:
    """CDV when control moves it beyond eps, else DI when hardware does not, else CDI."""
    return np.where(control > eps, "CDV", np.where(hardware > eps, "CDI", "DI"))


def build_oracle(command: str, scenario_path: str, hmax: int) -> Oracle:
    """Assemble the workload's model with the program and solve it apart from it."""
    from hss_stab import assemble_system, load_scenario

    scenario = load_scenario(scenario_path).with_hmax(hmax)

    def state_matrix(sc):
        return assemble_system(sc, state_only=True).model.a

    a = state_matrix(scenario)
    count = 2 * hmax + 1
    base = dict(
        command=command,
        hmax=hmax,
        channels=a.shape[0] // count,
        f1=scenario.f1,
        margin=scenario.analysis.stability_margin,
        # trace(A - j*Omega) = trace(A): the harmonic orders sum to zero
        trace=complex(np.trace(a)),
    )
    if command == "classify":
        nominal = zgeev(shifted(a, hmax, scenario.f1))

        def spectra(paths):
            for path in paths:
                value = scenario.resolve_parameter(path)
                for rel in PERTURBATIONS:
                    model = state_matrix(scenario.with_parameter(path, value * (1.0 + rel)))
                    yield zgeev(shifted(model, hmax, scenario.f1))

        eps = scenario.analysis.classification_tolerance
        eps = 1e-6 * float(np.max(np.abs(nominal))) if eps is None else float(eps)
        return Oracle(
            **base,
            nominal=nominal,
            control=displacements(nominal, spectra(scenario.analysis.control_parameters)),
            hardware=displacements(nominal, spectra(scenario.analysis.hardware_parameters)),
            epsilon=eps,
        )

    exponents = floquet_exponents(ltp_series(a, hmax), scenario.f1)
    exponent = complex(exponents[np.argmax(exponents.real)])
    if command == "eig":
        return Oracle(**base, exponent=exponent)
    del a
    probe_hmax = hmax + 3
    probe = zgeev(shifted(state_matrix(scenario.with_hmax(probe_hmax)), probe_hmax, scenario.f1))
    return Oracle(
        **base,
        exponent=exponent,
        probe=probe,
        hmax_probe=probe_hmax,
        delta_tol=scenario.analysis.spurious_tolerance,
    )


# -- checks -------------------------------------------------------------------


def _spectrum(doc) -> np.ndarray:
    return np.array([complex(r["re"], r["im"]) for r in doc["records"]])


def check_count(doc, oracle: Oracle) -> list[str]:
    expected = (2 * oracle.hmax + 1) * oracle.channels
    n = len(doc["records"])
    return [] if n == expected else [f"count: {n} eigenvalues, expected {expected}"]


def check_trace(doc, oracle: Oracle) -> list[str]:
    lam = _spectrum(doc)
    err = abs(lam.sum() - oracle.trace)
    tol = TRACE_TOL * lam.size * float(np.max(np.abs(lam)))
    return [] if err <= tol else [f"trace: |sum(lambda) - trace| = {err:.3e} > {tol:.3e}"]


def check_conjugation(doc, oracle: Oracle) -> list[str]:
    lam = _spectrum(doc)
    err = float(np.max(np.abs(lam - np.conj(lam)[match(lam, np.conj(lam))])))
    tol = SPECTRUM_TOL * float(np.max(np.abs(lam)))
    return [] if err <= tol else [f"conjugation: unpaired by {err:.3e} > {tol:.3e}"]


def check_floquet(doc, oracle: Oracle) -> list[str]:
    """Verdict and rightmost real part against the rightmost Floquet exponent."""
    failures = []
    mu = oracle.exponent
    stable = mu.real <= oracle.margin
    if doc["meta"]["stable"] != stable:
        failures.append(
            f"floquet verdict: CLI stable={doc['meta']['stable']}, rightmost exponent "
            f"{mu.real:.6g} against margin {oracle.margin:g}"
        )
    inner = [r["re"] for r in doc["records"] if abs(r["dominant_harmonic"]) != oracle.hmax]
    if not inner:
        return failures + ["floquet real part: every eigenvalue is a rim mode"]
    if abs(max(inner) - mu.real) > REAL_PART_TOL * abs(mu.real):
        failures.append(
            f"floquet real part: rightmost non-rim {max(inner):.9g}, exponent {mu.real:.9g}"
        )
    lam = fold(_spectrum(doc), oracle.f1)
    gap = float(np.min(strip_distance(lam, mu, oracle.f1)))
    if gap > EXPONENT_TOL * abs(mu):
        failures.append(f"floquet exponent {mu:.9g} has no ladder copy (nearest {gap:.3e})")
    return failures


def check_classify(doc, oracle: Oracle) -> list[str]:
    """Reported spectrum against zgeev, and every label against the displacements."""
    failures = []
    lam = _spectrum(doc)
    labels = np.array([r["classification"] for r in doc["records"]])
    scale = float(np.max(np.abs(oracle.nominal)))
    if abs(doc["meta"]["epsilon"] - oracle.epsilon) > 1e-9 * oracle.epsilon:
        failures.append(f"classify epsilon {doc['meta']['epsilon']} != {oracle.epsilon}")
    if lam.size != oracle.nominal.size:
        return failures + ["classify: spectrum size differs from zgeev"]
    perm = match(lam, oracle.nominal)
    err = float(np.max(np.abs(lam - oracle.nominal[perm])))
    if err > SPECTRUM_TOL * scale:
        failures.append(f"classify spectrum differs from zgeev by {err:.3e}")
    eps = oracle.epsilon
    control, hardware = oracle.control[perm], oracle.hardware[perm]
    expected = expected_labels(control, hardware, eps)
    near = (np.abs(control - eps) <= LABEL_BAND * eps) | (np.abs(hardware - eps) <= LABEL_BAND * eps)
    off = (labels != expected) & ~near
    wrong = Counter(zip(labels[off], expected[off]))
    if wrong:
        failures.append(
            "classify labels: "
            + ", ".join(f"{n} {got} where {want} is due" for (got, want), n in sorted(wrong.items()))
        )
    return failures


def check_spurious(doc, oracle: Oracle) -> list[str]:
    """Each spurious flag against the distance to the zgeev probe spectrum."""
    failures = []
    lam = _spectrum(doc)
    meta = doc["meta"]
    delta = oracle.delta_tol
    delta = 1e-4 * float(np.max(np.abs(lam))) if delta is None else float(delta)
    if meta["hmax_probe"] != oracle.hmax_probe or abs(meta["delta"] - delta) > 1e-9 * delta:
        failures.append(f"spurious: probe {meta['hmax_probe']} / delta {meta['delta']} unexpected")
    probe = fold(oracle.probe, oracle.f1)
    dist = np.array(
        [float(np.min(strip_distance(probe, x, oracle.f1))) for x in fold(lam, oracle.f1)]
    )
    flagged = np.array([r["spurious_flag"] == "spurious" for r in doc["records"]])
    # distances within rounding of delta may fall either side of it
    band = SPECTRUM_TOL * float(np.max(np.abs(oracle.probe)))
    wrong = (flagged & (dist < delta - band)) | (~flagged & (dist > delta + band))
    if wrong.any():
        failures.append(f"spurious: {int(wrong.sum())} flags disagree with the probe spectrum")
    if meta["n_spurious"] != int(flagged.sum()):
        failures.append("spurious: n_spurious does not count the flags")
    return failures


COMMAND_CHECKS = {
    "eig": (check_count, check_trace, check_conjugation, check_floquet),
    "classify": (check_count, check_trace, check_conjugation, check_classify),
    "spurious": (check_count, check_trace, check_conjugation, check_floquet, check_spurious),
}


def check_output(doc, oracle: Oracle) -> list[str]:
    """Every check of the oracle's command on one CLI output document."""
    if doc.get("meta", {}).get("command") != oracle.command:
        return [f"output is not a '{oracle.command}' result"]
    return [msg for check in COMMAND_CHECKS[oracle.command] for msg in check(doc, oracle)]
