"""Spans around the public functions a convergence study calls, and their sums.

``Tracer.install`` replaces, in the ``enrfem.cli`` namespace only, each
function that ``run_convergence`` and ``main`` call with a wrapper that
records a span: name, start, end, parent span and study id.  Spans stay
in memory until the worker writes them out.  The program itself is not
changed; ``uninstall`` puts the originals back.

``layer_metrics`` turns the spans of one round into the per-layer metrics
of BENCHMARK.json.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# name of the span -> attribute of enrfem.cli it wraps
WRAPPED = {
    "cli.load_problem_file": "load_problem_file",
    "bench.catalog_problem": "catalog_problem",
    "mesh.build_mesh": "build_mesh",
    "femspace.space_for_problem": "space_for_problem",
    "assembly.assemble_system": "assemble_system",
    "assembly.solve_system": "solve_system",
    "analysis.compute_errors": "compute_errors",
    "assembly.condition_number": "condition_number",
    "analysis.observed_orders": "observed_orders",
    "cli.emit_report": "emit_report",
}
RESIDUAL_CHECK = "check.residual"
STUDY = "study"
EPS = sys.float_info.epsilon


class Tracer:
    """In-memory span recorder; one instance per worker process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._originals: dict[str, object] = {}
        self.study: str | None = None
        self.worst_residual = 0.0  # largest backward error of a solve, in units of n * eps

    @contextmanager
    def span(self, name: str):
        attrs: dict = {}
        parent = self._stack[-1] if self._stack else None
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id; filled when the span ends
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = {
                "id": span_id, "parent": parent, "study": self.study,
                "name": name, "start": start, "end": end, "attrs": attrs,
            }

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
            _note(self, name, attrs, args, result)
            return result
        return traced

    def install(self, cli_module) -> None:
        for name, attr in WRAPPED.items():
            original = getattr(cli_module, attr)
            self._originals[attr] = original
            setattr(cli_module, attr, self._wrap(name, original))

    def uninstall(self, cli_module) -> None:
        for attr, original in self._originals.items():
            setattr(cli_module, attr, original)
        self._originals.clear()


def _note(tracer: Tracer, name: str, attrs: dict, args, result) -> None:
    """Record work counts from a call's result; check every solve's residual."""
    if name == "mesh.build_mesh":
        attrs["elements"] = result.n_elements
    elif name == "femspace.space_for_problem":
        attrs["cut_elements"] = len(result.enrichments)
    elif name == "assembly.assemble_system":
        attrs["elements"] = result.space.mesh.n_elements
        attrs["free_dofs"] = result.matrix.shape[0]
        attrs["matrix_bytes"] = result.matrix.nbytes
    elif name == "analysis.compute_errors":
        attrs["elements"] = args[1].mesh.n_elements
    elif name == "assembly.solve_system":
        with tracer.span(RESIDUAL_CHECK):
            ratio = backward_error(args[0].matrix, result, args[0].rhs) / (len(result) * EPS)
            tracer.worst_residual = max(tracer.worst_residual, ratio)


def backward_error(matrix, x, rhs) -> float:
    """||Ax - b||_inf / (||A||_inf ||x||_inf + ||b||_inf), computed with numpy.

    A backward-stable solve keeps this near eps; LU with partial pivoting
    stays below n * eps unless its pivots grow.  Row sums are taken in
    blocks so a dense matrix is never copied whole.
    """
    import numpy as np

    residual = np.max(np.abs(matrix @ x - rhs))
    norm_a = max(float(np.abs(matrix[i:i + 256]).sum(axis=1).max()) for i in range(0, len(x), 256))
    return float(residual / (norm_a * np.max(np.abs(x)) + np.max(np.abs(rhs))))


def _total(spans, name):
    return sum((s["end"] - s["start"] for s in spans if s["name"] == name), 0.0)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced round of studies (sums over levels and studies)."""
    by_study: dict[str, list[dict]] = {}
    for s in spans:
        by_study.setdefault(s["study"], []).append(s)

    solve_finest = 0.0
    matrix_bytes = 0
    uncovered = 0.0
    for study_spans in by_study.values():
        solves = [s for s in study_spans if s["name"] == "assembly.solve_system"]
        if solves:
            solve_finest += solves[-1]["end"] - solves[-1]["start"]
        assembled = [s for s in study_spans if s["name"] == "assembly.assemble_system"]
        if assembled:
            matrix_bytes = max(matrix_bytes, assembled[-1]["attrs"]["matrix_bytes"])
        (root,) = [s for s in study_spans if s["name"] == STUDY]
        children = [s for s in study_spans if s["parent"] == root["id"]]
        uncovered += (root["end"] - root["start"]) - sum(s["end"] - s["start"] for s in children)

    def count(name, key):
        return sum(s["attrs"].get(key, 0) for s in spans if s["name"] == name)

    assemble_s = _total(spans, "assembly.assemble_system")
    errors_s = _total(spans, "analysis.compute_errors")
    return {
        "cli.load_s": _total(spans, "cli.load_problem_file") + _total(spans, "bench.catalog_problem"),
        "mesh.build_s": _total(spans, "mesh.build_mesh"),
        "femspace.build_s": _total(spans, "femspace.space_for_problem"),
        "assembly.assemble_s": assemble_s,
        "assembly.assemble_us_per_element":
            1e6 * assemble_s / max(count("assembly.assemble_system", "elements"), 1),
        "assembly.solve_s": _total(spans, "assembly.solve_system"),
        "assembly.solve_finest_s": solve_finest,
        "assembly.cond_s": _total(spans, "assembly.condition_number"),
        "assembly.matrix_mb": matrix_bytes / 1e6,
        "analysis.errors_s": errors_s,
        "analysis.errors_us_per_element":
            1e6 * errors_s / max(count("analysis.compute_errors", "elements"), 1),
        "cli.emit_s": _total(spans, "cli.emit_report"),
        "mesh.elements": count("mesh.build_mesh", "elements"),
        "femspace.cut_elements": count("femspace.space_for_problem", "cut_elements"),
        "assembly.free_dofs": count("assembly.assemble_system", "free_dofs"),
        "trace.uncovered_s": uncovered,
    }
