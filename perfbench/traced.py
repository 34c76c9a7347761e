"""Run one hss-stab CLI command in process with a span around every layer call.

    python3 perfbench/traced.py SPANS.json [--memory] -- <hss-stab CLI arguments>

The program is not changed: the public functions named in ``LAYERS`` are
replaced, at every ``hss_stab`` module that binds them, by wrappers that
record a span (layer name, start, end, parent span) and a few counts.  The
spans are kept in memory and written to SPANS.json when the command ends,
with the cost of one span measured on a no-op function (``span_cost``).
Calls run on one thread (``--jobs`` stays 1), so the open spans form a stack.

With ``--memory`` tracemalloc runs too, and the spans of ``MEMORY_LAYERS``
record the peak traced allocation above the level at their start.  Those
layers never nest in one another, so resetting the peak at each start is
safe.  tracemalloc slows the Python-heavy layers, so a memory pass is a
run of its own and its timings are not used.

``layer_metrics`` turns the spans of a timing pass and of a memory pass into
the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc

#: (module, function or Class.method) -> layer name
LAYERS = {
    ("scenario", "load_scenario"): "scenario.load",
    ("scenario", "Scenario.with_parameter"): "scenario.derive",
    ("scenario", "Scenario.with_hmax"): "scenario.derive",
    ("harmonic", "toeplitz_from_fourier"): "harmonic.toeplitz",
    ("cider", "assemble_internal_response"): "cider.internal",
    ("cider", "assemble_cider_hss"): "cider.hss",
    ("references", "make_operating_point"): "references.operating_point",
    ("grid", "build_grid_state_space"): "grid.lift",
    ("grid", "lift_grid_to_hss"): "grid.lift",
    ("assembly", "stack_resources"): "assembly.stack",
    ("assembly", "build_open_loop"): "assembly.open_loop",
    ("assembly", "close_loop"): "assembly.close_loop",
    ("pipeline", "assemble_system"): "pipeline.assemble",
    ("analysis", "eigen_decompose"): "analysis.eig",
    ("analysis", "eigenvalues_only"): "analysis.eigvals",
    ("analysis", "match_eigenvalues"): "analysis.match",
    ("analysis", "fold_to_strip"): "analysis.fold",
    ("runner", "run_command"): "runner.run",
    ("runner", "export_results"): "runner.export",
}
MEMORY_LAYERS = {"pipeline.assemble", "analysis.eig", "analysis.eigvals"}
ROOT = "cli.main"

#: per-layer time metrics: metric name -> layer
TIME_METRICS = {
    "scenario.load_s": "scenario.load",
    "scenario.derive_s": "scenario.derive",
    "harmonic.toeplitz_s": "harmonic.toeplitz",
    "cider.internal_s": "cider.internal",
    "cider.hss_s": "cider.hss",
    "references.operating_point_s": "references.operating_point",
    "grid.lift_s": "grid.lift",
    "assembly.stack_s": "assembly.stack",
    "assembly.open_loop_s": "assembly.open_loop",
    "assembly.close_loop_s": "assembly.close_loop",
    "pipeline.assemble_s": "pipeline.assemble",
    "analysis.eig_s": "analysis.eig",
    "analysis.eigvals_s": "analysis.eigvals",
    "analysis.match_s": "analysis.match",
    "analysis.fold_s": "analysis.fold",
    "runner.self_s": "runner.run",
    "runner.export_s": "runner.export",
}
#: per-layer call counts: metric name -> layer
CALL_METRICS = {
    "scenario.derive_calls": "scenario.derive",
    "harmonic.toeplitz_calls": "harmonic.toeplitz",
    "pipeline.assemblies": "pipeline.assemble",
    "analysis.eig_calls": "analysis.eig",
    "analysis.eigvals_calls": "analysis.eigvals",
    "analysis.match_calls": "analysis.match",
}
MB = 2.0**20


def _closed_model_mb(system) -> float:
    if system.closed is None:
        return 0.0
    m = system.closed.model
    return (m.a.nbytes + m.c.nbytes + sum(x.nbytes for x in (*m.e.values(), *m.f.values()))) / MB


def _attributes(layer: str, args, kwargs, result) -> dict:
    if layer == "pipeline.assemble":
        state_only = kwargs.get("state_only", args[1] if len(args) > 1 else False)
        return {"full": not state_only, "closed_mb": _closed_model_mb(result)}
    if layer in ("analysis.eig", "analysis.eigvals"):
        return {"states": args[0].state_dim}
    return {}


class Tracer:
    """Spans of one traced command, kept in memory until it ends."""

    def __init__(self, memory: bool):
        self.memory = memory
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": layer, "parent": self.stack[-1] if self.stack else None}
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            tracked = self.memory and layer in MEMORY_LAYERS
            if tracked:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            if tracked:
                span["peak_alloc_mb"] = (tracemalloc.get_traced_memory()[1] - base) / MB
            span.update(_attributes(layer, args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of each ``LAYERS`` function in ``hss_stab``."""
        importlib.import_module("hss_stab")
        modules = [m for n, m in sys.modules.items() if n == "hss_stab" or n.startswith("hss_stab.")]
        for (module, qualname), layer in LAYERS.items():
            owner = importlib.import_module(f"hss_stab.{module}")
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, attr, self.wrap(layer, getattr(cls, attr)))
                continue
            original = getattr(owner, qualname)
            wrapped = self.wrap(layer, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)

    def run(self, main, argv) -> int:
        return self.wrap(ROOT, main)(argv)


def span_cost(repeats: int = 20000) -> float:
    """Seconds a span adds to one call, measured on a no-op function."""

    def noop():
        return None

    wrapped = Tracer(memory=False).wrap("noop", noop)
    start = time.perf_counter()
    for _ in range(repeats):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(repeats):
        wrapped()
    return (time.perf_counter() - start - bare) / repeats


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(timing, memory) -> dict[str, float]:
    """Per-layer metrics from a timing pass and a memory pass of one command."""
    spans, memory_spans = timing["spans"], memory["spans"]
    own = self_times(spans)
    metrics = {
        name: sum(t for s, t in zip(spans, own) if s["name"] == layer)
        for name, layer in TIME_METRICS.items()
    }
    for name, layer in CALL_METRICS.items():
        metrics[name] = sum(1 for s in spans if s["name"] == layer)
    assemblies = [s for s in spans if s["name"] == "pipeline.assemble"]
    metrics["pipeline.full_assemblies"] = sum(1 for s in assemblies if s["full"])
    metrics["assembly.closed_model_mb"] = max((s["closed_mb"] for s in assemblies), default=0.0)
    for layer in ("analysis.eig", "analysis.eigvals"):
        metrics[f"{layer}_states"] = sum(s["states"] for s in spans if s["name"] == layer)

    def peak(layers):
        return max((s["peak_alloc_mb"] for s in memory_spans if s["name"] in layers), default=0.0)

    metrics["pipeline.peak_alloc_mb"] = peak({"pipeline.assemble"})
    metrics["analysis.peak_alloc_mb"] = peak({"analysis.eig", "analysis.eigvals"})
    root = next(s for s in spans if s["name"] == ROOT)
    metrics["trace.main_s"] = root["end"] - root["start"]
    metrics["trace.layers_s"] = sum(t for s, t in zip(spans, own) if s["name"] != ROOT)
    metrics["trace.spans"] = len(spans)
    metrics["trace.overhead_s"] = len(spans) * timing["span_cost_s"]
    return metrics


def main(argv) -> int:
    out = argv[0]
    memory = "--memory" in argv[1 : argv.index("--")]
    cli_args = argv[argv.index("--") + 1 :]
    if memory:
        tracemalloc.start()
    tracer = Tracer(memory)
    tracer.install()
    from hss_stab import cli

    code = tracer.run(cli.main, cli_args)
    with open(out, "w") as fh:
        json.dump({"spans": tracer.spans, "span_cost_s": span_cost()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
