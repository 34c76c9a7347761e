"""Command dispatch and result export for the analysis pipeline."""

from __future__ import annotations

import datetime
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import (
    EigenSolution,
    classify_eigenvalues,
    detect_spurious,
    eigen_decompose,
    evaluate_htf,
    spectral_order,
    stability_verdict,
    sweep_parameter,
)
from .errors import ConfigurationError
from .model import component_labels
from .pipeline import assemble
from .scenario import Scenario

EIGEN_COLUMNS = (
    "index",
    "re",
    "im",
    "dominant_component",
    "dominant_harmonic",
    "classification",
    "spurious_flag",
)
TRACE_COLUMNS = ("param_value", "trace_id", "re", "im")
MATRIX_COLUMNS = ("row", "col", "re", "im")


@dataclass(frozen=True)
class ResultSet:
    kind: str  # "eigenvalues" | "traces" | "matrix"
    columns: tuple[str, ...]
    records: tuple[tuple, ...]
    meta: dict = field(default_factory=dict)


def _num(x) -> str:
    """17 significant digits: round-trip exact for doubles."""
    return f"{float(x):.17g}"


#: eigenvalues within this fraction of the spectral radius of each other
#: form one near-degenerate cluster
DEGENERATE_RTOL = 1e-10


def _close_pairs(lam: np.ndarray, tol: float) -> np.ndarray:
    """Index pairs (i, j), i < j, of the eigenvalues with |lam_i - lam_j| <= tol.

    Sort and sweep over Re: after sorting, the partners of each eigenvalue
    lie within the run of neighbours whose real parts are at most ``tol``
    further, so the k-th neighbours are compared for k = 1, 2, ... until
    no real part lies that close.
    """
    order = np.argsort(lam.real, kind="stable")
    re, z = lam.real[order], lam[order]
    pairs = [np.zeros((0, 2), int)]
    for k in range(1, lam.size):
        near = np.flatnonzero(re[k:] - re[:-k] <= tol)
        if near.size == 0:
            break
        near = near[np.abs(z[near + k] - z[near]) <= tol]
        pairs.append(np.column_stack((order[near], order[near + k])))
    pairs = np.sort(np.concatenate(pairs), axis=1)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def _clusters(lam: np.ndarray) -> np.ndarray:
    """Cluster label of each eigenvalue: the connected components of the
    pairs that lie within ``DEGENERATE_RTOL`` times max|lambda| of each other."""
    pairs = _close_pairs(lam, DEGENERATE_RTOL * float(np.max(np.abs(lam))))
    return component_labels(lam.size, pairs[:, 0], pairs[:, 1])


def _eigen_records(solution: EigenSolution, classification=None, flags=None):
    """One row per eigenpair, in the solution's order, with its dominant
    component and harmonic block from the eigenvector energy.

    Any unit vector of a (near) degenerate eigenspace is a valid
    eigenvector, so the dominant component is read from the energy summed
    over each cluster of ``_clusters`` and shared by its members.
    """
    lam = solution.eigenvalues
    if lam.size == 0:
        return ()
    orders = sorted({h for _, h in solution.labels})
    channels = len(solution.labels) // len(orders)
    names, comp_of_channel = np.unique(
        [name.split(".", 1)[0] for name, _ in solution.labels[:channels]], return_inverse=True
    )
    rows = np.arange(len(solution.labels))
    h_dom = np.argmax(solution.energy_by(rows // channels, len(orders)), axis=0)
    per_comp = solution.energy_by(comp_of_channel[rows % channels], len(names))
    cluster = _clusters(lam)
    per_cluster = np.stack([np.bincount(cluster, weights=e) for e in per_comp])
    comp_dom = np.argmax(per_cluster, axis=0)[cluster]
    return tuple(
        (
            i,
            lam[i].real,
            lam[i].imag,
            names[comp_dom[i]],
            orders[h_dom[i]],
            "" if classification is None else classification[i],
            "" if flags is None else flags[i],
        )
        for i in range(lam.size)
    )


def _eig(scenario: Scenario, **_) -> ResultSet:
    solution = eigen_decompose(assemble(scenario, state_only=True).model)
    solution = solution.reordered(spectral_order(solution.eigenvalues, descending=True))
    verdict = stability_verdict(solution.eigenvalues, scenario.analysis.stability_margin)
    records = _eigen_records(solution)
    meta = {
        "command": "eig",
        "stable": verdict.stable,
        "stability_margin": verdict.margin,
        "n_unstable": verdict.n_unstable,
        "worst_re": None if verdict.worst_eigenvalue is None else verdict.worst_eigenvalue.real,
    }
    return ResultSet("eigenvalues", EIGEN_COLUMNS, records, meta)


def _htf(scenario: Scenario, s=None, ports=None, **_) -> ResultSet:
    if s is None:
        raise ConfigurationError("htf needs a Laplace point (--s)")
    system = assemble(scenario)
    g = evaluate_htf(system.model, complex(s), ports)
    records = tuple(
        (i, k, g[i, k].real, g[i, k].imag)
        for i in range(g.shape[0])
        for k in range(g.shape[1])
    )
    meta = {"command": "htf", "s": str(complex(s)), "shape": list(g.shape)}
    return ResultSet("matrix", MATRIX_COLUMNS, records, meta)


def _sweep(scenario: Scenario, sweep_name=None, parameter=None, values=None, **_) -> ResultSet:
    if sweep_name:
        if sweep_name not in scenario.sweeps:
            raise ConfigurationError(
                f"scenario defines no sweep '{sweep_name}' (has {sorted(scenario.sweeps)})"
            )
        sweep = scenario.sweeps[sweep_name]
        parameter, values = sweep.path, sweep.values
    elif not parameter or values is None:
        raise ConfigurationError("sweep needs --sweep NAME or --param PATH --values ...")
    values = tuple(float(v) for v in values)
    trace = sweep_parameter(scenario, parameter, values)
    records = tuple(
        (trace.values[k], t, trace.traces[t, k].real, trace.traces[t, k].imag)
        for k in range(len(trace.values))
        for t in range(trace.traces.shape[0])
    )
    meta = {
        "command": "sweep",
        "parameter": parameter,
        "steps": len(trace.values),
        "unresolved_steps": int(trace.unresolved.any(axis=0).sum()),
    }
    return ResultSet("traces", TRACE_COLUMNS, records, meta)


def _classify(
    scenario: Scenario, control_parameters=None, hardware_parameters=None, epsilon=None, **_
) -> ResultSet:
    if control_parameters is None:
        control_parameters = scenario.analysis.control_parameters
    if hardware_parameters is None:
        hardware_parameters = scenario.analysis.hardware_parameters
    control, hardware = tuple(control_parameters), tuple(hardware_parameters)
    if epsilon is None:
        epsilon = scenario.analysis.classification_tolerance
    result = classify_eigenvalues(scenario, control, hardware, epsilon=epsilon)
    meta = {
        "command": "classify",
        "epsilon": result.epsilon,
        "control_parameters": list(control),
        "hardware_parameters": list(hardware),
        "counts": {
            label: int(sum(1 for l in result.labels if l == label))
            for label in ("CDV", "CDI", "DI", "unresolved")
        },
    }
    records = _eigen_records(result.solution, classification=result.labels)
    return ResultSet("eigenvalues", EIGEN_COLUMNS, records, meta)


def _spurious(scenario: Scenario, hmax_probe=None, delta=None, **_) -> ResultSet:
    if delta is None:
        delta = scenario.analysis.spurious_tolerance
    report = detect_spurious(scenario, hmax_probe=hmax_probe, delta=delta)
    verdict = stability_verdict(
        report.eigenvalues, scenario.analysis.stability_margin, spurious=report.spurious
    )
    flags = [
        "spurious" if bad else ("boundary" if rim else "ok")
        for bad, rim in zip(report.spurious, report.boundary_suspect)
    ]
    meta = {
        "command": "spurious",
        "hmax": report.hmax,
        "hmax_probe": report.hmax_probe,
        "delta": report.delta,
        "n_spurious": int(report.spurious.sum()),
        "n_boundary_suspect": int(report.boundary_suspect.sum()),
        "stable": verdict.stable,
    }
    records = _eigen_records(report.solution, flags=flags)
    return ResultSet("eigenvalues", EIGEN_COLUMNS, records, meta)


#: command name -> handler; each handler's keyword parameters are its options
COMMANDS = {"eig": _eig, "htf": _htf, "sweep": _sweep, "classify": _classify, "spurious": _spurious}


def run_command(command: str, scenario: Scenario, **options) -> ResultSet:
    """Assemble the scenario and run one analysis command; options that the
    command does not read are ignored."""
    if command not in COMMANDS:
        raise ConfigurationError(f"unknown command '{command}' (choose from {tuple(COMMANDS)})")
    return COMMANDS[command](scenario, **options)


def export_results(results: ResultSet, fmt: str, destination, timestamp: bool = True) -> None:
    """Write a result set as CSV or JSON; numbers round-trip exactly."""
    if fmt not in ("csv", "json"):
        raise ConfigurationError(f"unknown export format '{fmt}'")
    if not results.records:
        raise ConfigurationError("refusing to export an empty result set")
    text = _to_csv(results, timestamp) if fmt == "csv" else _to_json(results, timestamp)
    if hasattr(destination, "write"):
        destination.write(text)
        return
    try:
        Path(destination).write_text(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write '{destination}': {exc.strerror}") from None


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _num(value)
    return str(value)


def _to_csv(results: ResultSet, timestamp: bool) -> str:
    buf = io.StringIO()
    if timestamp:
        now = datetime.datetime.now(datetime.timezone.utc).isoformat()
        buf.write(f"# generated {now}\n")
    for key in sorted(results.meta):
        buf.write(f"# {key}={json.dumps(results.meta[key], sort_keys=True)}\n")
    buf.write(",".join(results.columns) + "\n")
    for rec in results.records:
        buf.write(",".join(_format_cell(v) for v in rec) + "\n")
    return buf.getvalue()


def _to_json(results: ResultSet, timestamp: bool) -> str:
    """``json.dumps(doc, indent=1, sort_keys=True)`` of the (non-empty)
    result set, byte for byte.  ``indent`` turns the C encoder off, so the
    records, the bulk of it, are encoded apart: each column becomes Python
    scalars in one ``tolist``, and each record, keys sorted, goes through
    the C encoder with separators that give the lines ``indent=1`` writes.
    "records" sorts last, so the records close the document.
    """
    doc = {
        "kind": results.kind,
        "meta": dict(sorted(results.meta.items())),
        "columns": list(results.columns),
        "records": [],
    }
    if timestamp:
        doc["generated"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    head, tail = json.dumps(doc, indent=1, sort_keys=True).rsplit('"records": []', 1)
    by_name = dict(zip(results.columns, zip(*results.records)))
    names = sorted(by_name)
    columns = [np.asarray(by_name[name]).tolist() for name in names]
    encode = json.JSONEncoder(separators=(",\n   ", ": ")).encode
    records = ",\n  ".join(
        "{\n   " + encode(dict(zip(names, row)))[1:-1] + "\n  }" for row in zip(*columns)
    )
    return f'{head}"records": [\n  {records}\n ]{tail}\n'
