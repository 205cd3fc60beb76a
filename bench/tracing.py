"""Spans around the public gabp calls the CLI makes, recorded from outside.

A Tracer swaps each target function for a timing wrapper in every loaded
``gabp.*`` module namespace that refers to it, so calls through any module
global (``gabp.cli.run_bp``, ``gabp.analysis.run_bp``, ...) are seen. Spans
are kept in memory as (name, start, end, parent, op) and written out when
the benchmark ends. The library itself is not changed.

Span names are ``<module>.<function>``; the module is the layer.
"""

import contextlib
import csv
import functools
import importlib
import os
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "io", "model", "graph", "analysis", "numerics", "bp", "mrf")

# (module, function) pairs on the CLI path of the benchmark's operations.
TARGETS = (
    ("io", "load_model"), ("io", "save_model"), ("io", "load_mrf"),
    ("io", "write_beliefs_csv"), ("io", "write_trajectory_csv"),
    ("model", "validate_model"), ("model", "centralized_solve"),
    ("graph", "build_factor_graph"), ("graph", "classify_topology"),
    ("analysis", "certify"), ("analysis", "compute_bounds"),
    ("analysis", "information_fixed_point"), ("analysis", "assemble_q"),
    ("analysis", "two_phase_mean_recursion"), ("analysis", "fit_contraction_rate"),
    ("numerics", "spectral_radius"), ("numerics", "part_metric"),
    ("numerics", "psd_compare"),
    ("bp", "run_bp"), ("bp", "make_init"), ("bp", "compute_beliefs"),
    ("mrf", "normalize_mrf"), ("mrf", "check_walk_summability"),
    ("mrf", "mrf_to_linear_gaussian"), ("mrf", "factor_width_two"),
)


@contextlib.contextmanager
def patched(replacements):
    """Replace functions by identity in every loaded gabp module, then restore.

    replacements maps an original function to its stand-in.
    """
    by_id = {id(fn): (fn, stand_in) for fn, stand_in in replacements.items()}
    undo = []
    try:
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "gabp" or name.startswith("gabp.")):
                continue
            namespace = vars(mod)
            for attr, value in list(namespace.items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[attr] = hit[1]
                    undo.append((namespace, attr, value))
        yield
    finally:
        for namespace, attr, value in reversed(undo):
            namespace[attr] = value


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _file_size(path):
    return os.path.getsize(path) if path and os.path.exists(path) else 0


def _probe_run_bp(counts, args, kwargs, result):
    model = args[0]
    edges = 2 * sum(len(f.scope) for f in model.factors)
    counts["bp.calls"] += 1
    counts["bp.iters"] += result.iterations
    counts["bp.edge_updates"] += result.iterations * edges
    counts["bp.converged"] += result.status == "converged"
    counts["bp.trajectory_rows"] += len(result.trajectory.rows)


def _probe_assemble_q(counts, args, kwargs, result):
    dim = result.q.shape[0]
    if dim >= counts["analysis.q_dim"]:
        counts["analysis.q_dim"] = dim
        counts["analysis.q_nnz"] = int((result.q != 0).sum())


def _probe_fixed_point(counts, args, kwargs, result):
    counts["analysis.fixed_point_iters"] += result.iterations


def _probe_mean_recursion(counts, args, kwargs, result):
    counts["analysis.mean_recursion_iters"] += result.iterations


def _probe_load_model(counts, args, kwargs, result):
    counts["io.model_bytes"] += _file_size(_arg(args, kwargs, 0, "path"))


def _probe_write_trajectory(counts, args, kwargs, result):
    counts["io.trajectory_bytes"] += _file_size(_arg(args, kwargs, 1, "path"))


def _probe_convert(counts, args, kwargs, result):
    counts["mrf.columns"] += result[1].columns


PROBES = {
    "bp.run_bp": _probe_run_bp,
    "analysis.assemble_q": _probe_assemble_q,
    "analysis.information_fixed_point": _probe_fixed_point,
    "analysis.two_phase_mean_recursion": _probe_mean_recursion,
    "io.load_model": _probe_load_model,
    "io.write_trajectory_csv": _probe_write_trajectory,
    "mrf.mrf_to_linear_gaussian": _probe_convert,
}


class Tracer:
    """In-memory span recorder; use ``with tracer.installed():`` around ops."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.op = -1
        self._stack = []

    def _wrap(self, name, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.op)
            if probe is not None:
                probe(self.counts, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        # Every layer, cli included, is imported before patching, so that no
        # module binds a wrapper at import time and keeps it after restore.
        modules = {layer: importlib.import_module(f"gabp.{layer}") for layer in LAYERS}
        replacements = {}
        for layer, func in TARGETS:
            fn = getattr(modules[layer], func)
            replacements[fn] = self._wrap(f"{layer}.{func}", fn)
        with patched(replacements):
            yield

    @contextlib.contextmanager
    def operation(self, op):
        """Root span ``cli.main`` for one CLI call; children attach to it."""
        self.op = op
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = ("cli.main", start, end, -1, op)

    def summarize(self):
        """Inclusive and self time per span name, and self time per layer."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        for k, (name, start, end, parent, _op) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child_time[k]
            calls[name] += 1
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, value in own.items():
            layer_self[name.split(".", 1)[0]] += value
        reference = sum(end - start for name, start, end, parent, _op in self.spans
                        if name == "numerics.part_metric" and parent >= 0
                        and self.spans[parent][0] == "bp.run_bp")
        return {"total": dict(total), "self": dict(own), "calls": dict(calls),
                "layer_self": layer_self, "reference_metric": reference}

    def write(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "name", "start", "end", "parent", "op"])
            for k, (name, start, end, parent, op) in enumerate(self.spans):
                writer.writerow([k, name, repr(start), repr(end), parent, op])
