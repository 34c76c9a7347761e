"""Tests of the benchmark's correctness checks.

    python3 -m pytest perfbench

The Floquet oracle must reproduce a closed-form LTI spectrum, every check
must pass on a correct CLI output, and each check must reject an output
corrupted in the way it guards against.
"""

from __future__ import annotations

import copy
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from hss_stab import assemble_system, export_results, load_scenario, run_command  # noqa: E402

SCENARIOS = Path(__file__).resolve().parent / "scenarios"


def cli_output(command: str, scenario: str, hmax: int):
    """The document ``hss-stab <command> --format json`` writes, and its oracle."""
    path = str(SCENARIOS / f"{scenario}.json")
    buf = io.StringIO()
    export_results(run_command(command, load_scenario(path).with_hmax(hmax)), "json", buf, timestamp=False)
    return json.loads(buf.getvalue()), checks.build_oracle(command, path, hmax)


@pytest.fixture(scope="module")
def eig_output():
    return cli_output("eig", "two_node", 8)


@pytest.fixture(scope="module")
def classify_output():
    return cli_output("classify", "two_node", 3)


@pytest.fixture(scope="module")
def spurious_output():
    return cli_output("spurious", "two_node", 5)


def test_floquet_oracle_reproduces_lti_closed_form():
    scenario = load_scenario(SCENARIOS / "rlc_grid.json").with_hmax(3)
    a = assemble_system(scenario, state_only=True).model.a
    exponents = checks.floquet_exponents(checks.ltp_series(a, 3), scenario.f1)
    r, l, c = 0.1, 1e-3, 1e-5
    root = -r / (2 * l) + 1j * np.sqrt(1 / (l * c) - (r / (2 * l)) ** 2)
    expected = checks.fold(np.array([root, np.conj(root)] * 3), scenario.f1)
    gap = checks.strip_distance(exponents[checks.match(exponents, expected)], expected, scenario.f1)
    assert np.max(gap) <= 1e-8 * abs(root)


@pytest.mark.parametrize("fixture", ["eig_output", "classify_output", "spurious_output"])
def test_correct_output_passes(fixture, request):
    doc, oracle = request.getfixturevalue(fixture)
    assert checks.check_output(doc, oracle) == []


def corrupt(doc, edit):
    doc = copy.deepcopy(doc)
    edit(doc)
    return doc


def rightmost_inner(doc, hmax):
    return max(
        (r for r in doc["records"] if abs(r["dominant_harmonic"]) != hmax), key=lambda r: r["re"]
    )


def test_dropped_eigenvalue_rejected(eig_output):
    doc, oracle = eig_output
    bad = corrupt(doc, lambda d: d["records"].pop(len(d["records"]) // 2))
    failures = checks.check_output(bad, oracle)
    assert any(f.startswith("count") for f in failures)
    assert any(f.startswith("conjugation") for f in failures)


def test_moved_eigenvalue_rejected(eig_output):
    doc, oracle = eig_output
    bad = corrupt(doc, lambda d: d["records"][0].update(re=d["records"][0]["re"] - 1.0))
    failures = checks.check_output(bad, oracle)
    assert any(f.startswith("trace") for f in failures)
    assert any(f.startswith("conjugation") for f in failures)


def test_wrong_verdict_rejected(eig_output):
    doc, oracle = eig_output
    bad = corrupt(doc, lambda d: d["meta"].update(stable=not d["meta"]["stable"]))
    assert any(f.startswith("floquet verdict") for f in checks.check_output(bad, oracle))


def test_wrong_rightmost_real_part_rejected(eig_output):
    doc, oracle = eig_output

    def shift(d):
        rightmost_inner(d, oracle.hmax)["re"] *= 0.5

    assert any(f.startswith("floquet real part") for f in checks.check_output(corrupt(doc, shift), oracle))


def relabel(doc, old, new):
    """``doc`` with its first eigenvalue labelled ``old`` labelled ``new``."""

    def edit(d):
        next(r for r in d["records"] if r["classification"] == old)["classification"] = new

    return corrupt(doc, edit)


@pytest.mark.parametrize(
    "old, new",
    [("CDV", "CDI"), ("CDV", "DI"), ("CDI", "CDV"), ("DI", "CDV"), ("CDI", "DI"), ("DI", "CDI")],
)
def test_flipped_label_rejected(classify_output, old, new):
    doc, oracle = classify_output
    failures = checks.check_output(relabel(doc, old, new), oracle)
    assert failures == [f"classify labels: 1 {new} where {old} is due"]


def test_every_label_cdv_rejected(classify_output):
    doc, oracle = classify_output

    def inflate(d):
        for r in d["records"]:
            r["classification"] = "CDV"

    failures = checks.check_output(corrupt(doc, inflate), oracle)
    assert len(failures) == 1 and "CDV where DI is due" in failures[0]


def test_flipped_spurious_flag_rejected(spurious_output):
    doc, oracle = spurious_output

    def flip(d):
        d["records"][0]["spurious_flag"] = "spurious"
        d["meta"]["n_spurious"] += 1

    failures = checks.check_output(corrupt(doc, flip), oracle)
    assert failures == ["spurious: 1 flags disagree with the probe spectrum"]
