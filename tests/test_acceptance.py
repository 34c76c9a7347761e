"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
"""

import itertools
import subprocess
import sys
import time

import numpy as np
import pytest

from hss_stab import (
    Branch,
    GridNode,
    GridTopology,
    HarmonicIndexSet,
    build_grid_state_space,
    classify_eigenvalues,
    detect_spurious,
    eigen_decompose,
    eigenvalues_only,
    evaluate_htf,
    load_scenario,
    match_eigenvalues,
    sweep_parameter,
    toeplitz_from_fourier,
)
from hss_stab.analysis import _labels_from_evidence
from hss_stab.pipeline import assemble_system
from tests.conftest import lti_model, random_stable_lti, scenario_path, shifted_dense
from tests.test_grid import random_topology
from tests.test_harmonic import sample_product_dft


def verdict(number: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{name}]: {status} {detail}".rstrip())
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def test_01_convolution_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(50):
        hmax = [3, 8, 25][trial % 3]
        iset = HarmonicIndexSet(hmax, 50.0)
        ha = int(rng.integers(0, hmax + 1))
        hx = int(rng.integers(0, hmax - ha + 1))
        series = {
            h: [[complex(*rng.standard_normal(2))]] for h in range(-ha, ha + 1)
        }
        coeffs = np.zeros(iset.count, dtype=complex)
        for h in range(-hx, hx + 1):
            coeffs[iset.order_index(h)] = complex(*rng.standard_normal(2))
        product = toeplitz_from_fourier(series, iset) @ coeffs
        oracle = sample_product_dft(series, coeffs, iset)
        worst = max(worst, float(np.max(np.abs(product - oracle))))
    elapsed = time.monotonic() - started
    verdict(
        1,
        "convolution-oracle",
        worst <= 1e-9 and elapsed < 5.0,
        f"(max err {worst:.2e}, {elapsed:.2f}s)",
    )


def test_02_lti_embedding_ladder():
    started = time.monotonic()
    rng = np.random.default_rng(7)
    worst_pair = 0.0
    worst_real = 0.0
    for trial in range(20):
        hmax = 2 if trial % 2 == 0 else 10
        dim = int(rng.integers(1, 9))
        a = random_stable_lti(rng, dim)
        iset = HarmonicIndexSet(hmax, 50.0)
        model = lti_model(a, iset)
        lam = eigenvalues_only(model).eigenvalues
        base = np.linalg.eigvals(a)
        expected = np.concatenate(
            [base - 1j * 2 * np.pi * 50.0 * h for h in iset.orders]
        )
        scale = np.max(np.abs(expected))
        perm, _ = match_eigenvalues(lam, expected)
        worst_pair = max(worst_pair, float(np.max(np.abs(lam - expected[perm])) / scale))
        # real-part multiset: each LTI real part repeated (2 hmax + 1) times
        reals = np.sort(lam.real)
        expected_reals = np.sort(np.repeat(np.sort(base.real), iset.count))
        rscale = max(1.0, np.max(np.abs(expected_reals)))
        worst_real = max(
            worst_real, float(np.max(np.abs(reals - expected_reals)) / rscale)
        )
    elapsed = time.monotonic() - started
    verdict(
        2,
        "lti-embedding-ladder",
        worst_pair <= 1e-8 and worst_real <= 1e-8 and elapsed < 10.0,
        f"(pair {worst_pair:.2e}, real {worst_real:.2e}, {elapsed:.2f}s)",
    )


def test_03_grid_analytics():
    r, l, c = 0.1, 1e-3, 1e-5
    top = GridTopology(
        (GridNode("s", "forming"), GridNode("r", "following")),
        (Branch("s", "r", r, l),),
        {"r": c},
    )
    lam = np.linalg.eigvals(build_grid_state_space(top).a)
    root = -r / (2 * l) + 1j * np.sqrt(1.0 / (l * c) - (r / (2 * l)) ** 2)
    expected = np.array([root, np.conj(root)] * 3)
    perm, _ = match_eigenvalues(lam, expected)
    closed_form_err = float(np.max(np.abs(lam - expected[perm])) / abs(root))

    rng = np.random.default_rng(11)
    worst_re = -np.inf
    for _ in range(20):
        topo = random_topology(rng, int(rng.integers(2, 7)))
        worst_re = max(
            worst_re, float(np.linalg.eigvals(build_grid_state_space(topo).a).real.max())
        )
    verdict(
        3,
        "grid-analytics",
        closed_form_err <= 1e-8 and worst_re <= 1e-9,
        f"(closed-form {closed_form_err:.2e}, max Re {worst_re:.2e})",
    )


def test_04_closed_loop_algebra():
    worst_det = 0.0
    for name, hmax in (("two_node", None), ("two_node", 8), ("toy_gain", None),
                       ("four_cider_six_node", 6)):
        scenario = load_scenario(scenario_path(name))
        if hmax is not None:
            scenario = scenario.with_hmax(hmax)
        system = assemble_system(scenario)
        f_gamma = system.open_loop.model.f["gamma"].toarray()
        j = system.interconnection
        sign, logdet = np.linalg.slogdet(
            np.eye(j.shape[0], dtype=complex) - j @ f_gamma
        )
        worst_det = max(worst_det, abs(float(sign.real) - 1.0), abs(float(logdet)))

    scenario = load_scenario(scenario_path("two_node"))
    system = assemble_system(scenario)
    ol = system.open_loop.model.dense()
    j = system.interconnection
    lam = eigenvalues_only(system.model).eigenvalues
    rng = np.random.default_rng(5)
    worst_fp = 0.0
    checked = 0
    while checked < 10:
        s = complex(rng.uniform(-200, 50), rng.uniform(-2500, 2500))
        if np.min(np.abs(lam - s)) < 1.0:
            continue
        checked += 1
        g_closed = evaluate_htf(system.model, s, ports=("sigma", "o"))
        n, ny = ol.state_dim, ol.output_dim
        resolvent = s * np.eye(n) - shifted_dense(ol)
        w = rng.standard_normal(ol.port_dim("sigma") + ol.port_dim("o"))
        e_w = np.hstack([ol.e["sigma"], ol.e["o"]])
        f_w = np.hstack([ol.f["sigma"], ol.f["o"]])
        x_of_y = np.linalg.solve(resolvent, ol.e["gamma"] @ j)
        rhs_x = np.linalg.solve(resolvent, e_w @ w)
        lhs = np.eye(ny) - ol.c @ x_of_y - ol.f["gamma"] @ j
        y = np.linalg.solve(lhs, ol.c @ rhs_x + f_w @ w)
        ref = g_closed @ w
        scale = max(1.0, float(np.max(np.abs(y))))
        worst_fp = max(worst_fp, float(np.max(np.abs(ref - y)) / scale))
    verdict(
        4,
        "closed-loop-algebra",
        worst_det <= 1e-9 and worst_fp <= 1e-8,
        f"(|det-1| {worst_det:.2e}, fixed-point {worst_fp:.2e})",
    )


def test_05_lap_exactness():
    started = time.monotonic()
    rng = np.random.default_rng(99)
    perm_cache = {
        n: np.array(list(itertools.permutations(range(n)))) for n in range(1, 8)
    }
    exact = True
    for _ in range(200):
        n = int(rng.integers(1, 8))
        lam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        other = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        _, cost = match_eigenvalues(lam, other)
        c = np.abs(lam[:, None] - other[None, :])
        perms = perm_cache[n]
        brute = float(c[np.arange(n)[None, :], perms].sum(axis=1).min())
        if abs(cost - brute) > 1e-12 * max(1.0, brute):
            exact = False
            break
    elapsed = time.monotonic() - started
    verdict(5, "lap-exactness", exact and elapsed < 2.0, f"({elapsed:.2f}s)")


def test_06_sweep_continuity():
    scenario = load_scenario(scenario_path("rlc_grid"))
    values = [0.05 + 0.01 * i for i in range(20)]
    trace = sweep_parameter(scenario, "grid.branches.0.r", values)
    l, c = 1e-3, 1e-5

    continuous = not trace.unresolved.any()
    steps = np.abs(np.diff(trace.traces, axis=1))
    for t in range(steps.shape[0]):
        for k in range(steps.shape[1]):
            others = np.delete(steps[t], k)
            med = float(np.median(others))
            if steps[t, k] >= 5.0 * med + 1e-9:
                continuous = False

    formula = 0.0
    for k, r in enumerate(values):
        root = -r / (2 * l) + 1j * np.sqrt(1.0 / (l * c) - (r / (2 * l)) ** 2)
        lam = trace.traces[:, k]
        for target in (root, np.conj(root)):
            dist = np.sort(np.abs(lam - target))[:3]  # triple degenerate per phase
            formula = max(formula, float(dist.max() / abs(root)))
    verdict(
        6,
        "sweep-continuity",
        continuous and formula <= 1e-8,
        f"(root-formula {formula:.2e})",
    )


def test_07_classification_soundness():
    grid_only = load_scenario(scenario_path("rlc_grid"))
    res = classify_eigenvalues(
        grid_only, ["analysis.stability_margin"], ["grid.branches.0.r"]
    )
    grid_cdi = all(label in ("CDI", "DI") for label in res.labels)

    toy = load_scenario(scenario_path("toy_gain"))
    res_toy = classify_eigenvalues(
        toy, ["ciders.0.control.0.d.0.0.0"], ["ciders.0.hardware.0.b.0.0.0"]
    )
    toy_cdv = "CDV" in res_toy.labels

    scenario = load_scenario(scenario_path("two_node")).with_hmax(3)
    res_dq = classify_eigenvalues(
        scenario,
        scenario.analysis.control_parameters,
        scenario.analysis.hardware_parameters,
    )
    radius = float(np.max(np.abs(res_dq.eigenvalues)))
    counts = []
    for eps_rel in (1e-5, 1e-7):
        labels = _labels_from_evidence(
            res_dq.control_displacements, res_dq.hardware_displacements, eps_rel * radius
        )
        counts.append(sum(1 for l in labels if l == "DI"))
    di_ok = counts[0] == counts[1] and counts[0] > 0
    verdict(
        7,
        "classification-soundness",
        grid_cdi and toy_cdv and di_ok,
        f"(grid CDI {grid_cdi}, toy CDV {toy_cdv}, DI counts {counts})",
    )


def test_08_spurious_detection():
    # rotating-frame coupled fixture at hmax 4, probed at hmax+3
    coupled = load_scenario(scenario_path("two_node")).with_hmax(4)
    report = detect_spurious(coupled, hmax_probe=7)
    flagged = report.spurious | report.boundary_suspect
    confined = bool(np.all(~flagged | report.boundary_suspect | report.spurious))
    nonempty = bool(report.boundary_suspect.any())
    # interior, probe-converged eigenvalues must stay unflagged
    interior_clean = bool(np.all(~(report.spurious & ~report.boundary_suspect)))

    lti = load_scenario(scenario_path("rlc_grid")).with_hmax(4)
    lti_report = detect_spurious(lti, hmax_probe=7)
    lti_clean = not lti_report.spurious.any()
    verdict(
        8,
        "spurious-detection",
        confined and nonempty and interior_clean and lti_clean,
        f"(flags {int(report.spurious.sum())}, boundary {int(report.boundary_suspect.sum())}, "
        f"lti flags {int(lti_report.spurious.sum())})",
    )


def test_09_determinism(tmp_path):
    outputs = []
    for k in range(2):
        out = tmp_path / f"det{k}.csv"
        res = subprocess.run(
            [
                sys.executable,
                "-m",
                "hss_stab.cli",
                "eig",
                "--scenario",
                str(scenario_path("two_node")),
                "--out",
                str(out),
                "--no-timestamp",
            ],
            capture_output=True,
        )
        assert res.returncode == 0, res.stderr.decode()
        outputs.append(out.read_bytes())
    verdict(9, "determinism", outputs[0] == outputs[1], f"({len(outputs[0])} bytes)")


def test_10_scale_sanity():
    started = time.monotonic()
    scenario = load_scenario(scenario_path("four_cider_six_node"))
    from hss_stab.runner import run_command

    results = run_command("eig", scenario)
    assert results.records
    res = classify_eigenvalues(
        scenario,
        scenario.analysis.control_parameters,
        scenario.analysis.hardware_parameters,
    )
    elapsed = time.monotonic() - started
    labelled = sum(1 for l in res.labels if l != "unresolved")
    verdict(
        10,
        "scale-sanity",
        elapsed < 600.0 and labelled == res.eigenvalues.size,
        f"({elapsed:.0f}s, {labelled} labelled)",
    )
