"""Independent checks of what the CLI wrote.

Model files are read here with plain json and numpy, and the exact answer
is one dense solve of W^-1 + A^T R^-1 A built block by block, so neither
depends on gabp's own loader or its centralized_solve. The one exception
is the rho check: it takes the Q that gabp assembles and compares the
reported spectral radius with dense numpy eigenvalues of that same Q, so
it checks the radius step and not the assembly.

Each check returns (name, passed, error). Names are the per-check
breakdown reported by the benchmark.
"""

import csv
import hashlib
import json
import math
import os
import sys

import numpy as np

CHECKS = ("exit_code", "outputs", "means", "rho", "bounds", "mean_error",
          "mrf_means", "mrf_precision")

MEANS_TOL = 1e-6        # BP means against the dense solve, relative to max(1, |x|)
RHO_TOL = 1e-8          # reported rho against dense eigvals, relative to max(1, rho)
MEAN_ERROR_TOL = 1e-6   # the report's own max_mean_error
PRECISION_TOL = 1e-8    # converted model's precision and potential against J and h


def _matrix(obj):
    return np.array(obj["data"], dtype=float).reshape(obj["rows"], obj["cols"])


def dense_system(path):
    """(precision, information, offsets) of a model file, assembled from its blocks."""
    with open(path) as fh:
        obj = json.load(fh)
    variables = sorted(obj["variables"], key=lambda v: v["id"])
    offsets = {}
    pos = 0
    for v in variables:
        offsets[v["id"]] = (pos, v["dim"])
        pos += v["dim"]
    precision = np.zeros((pos, pos))
    information = np.zeros(pos)
    for v in variables:
        s, d = offsets[v["id"]]
        precision[s:s + d, s:s + d] += np.linalg.inv(_matrix(v["prior_cov"]))
    for f in obj["factors"]:
        ids = [int(k) for k in f["coeff"]]
        a = np.hstack([_matrix(f["coeff"][str(i)]) for i in ids])
        cols = np.concatenate([np.arange(offsets[i][0], offsets[i][0] + offsets[i][1])
                               for i in ids])
        r = _matrix(f["noise_cov"])
        rinv_a = np.linalg.solve(r, a)
        precision[np.ix_(cols, cols)] += a.T @ rinv_a
        information[cols] += rinv_a.T @ np.array(f["obs"], dtype=float)
    return precision, information, offsets


def read_belief_means(path):
    """{(agent, component): mean} from a beliefs CSV."""
    with open(path, newline="") as fh:
        return {(int(row["agent"]), int(row["component"])): float(row["mean"])
                for row in csv.DictReader(fh)}


def stacked_means(beliefs, offsets):
    out = np.full(sum(d for _, d in offsets.values()), math.nan)
    for (agent, comp), value in beliefs.items():
        start, dim = offsets[agent]
        if 1 <= comp <= dim:
            out[start + comp - 1] = value
    return out


def max_rel_error(got, want):
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return math.inf
    if got.size == 0:
        return 0.0
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha1(fh.read()).hexdigest()


def assembled_q(path):
    """The Q that gabp assembles for the model file, without gabp's radius."""
    from gabp import analysis
    from gabp.graph import build_factor_graph
    from gabp.io import load_model
    from tracing import patched

    model = load_model(path)
    graph = build_factor_graph(model)
    fixed_point = analysis.information_fixed_point(model, graph)
    # assemble_q would run gabp's own radius on Q; that is the step under test.
    with patched({analysis.spectral_radius: lambda q: math.nan}):
        return analysis.assemble_q(model, graph, fixed_point).q


def dense_radius(q):
    """Spectral radius from dense numpy eigenvalues."""
    return float(np.max(np.abs(np.linalg.eigvals(q)))) if q.size else 0.0


def dense_rho(path):
    """Dense eigvals radius of the Q that gabp assembles for the model file."""
    return dense_radius(assembled_q(path))


class References:
    """Exact answers per model file, cached by file content."""

    def __init__(self):
        self._means = {}
        self._rho = {}

    def means(self, path):
        key = file_digest(path)
        if key not in self._means:
            precision, information, offsets = dense_system(path)
            self._means[key] = (np.linalg.solve(precision, information), offsets)
        return self._means[key]

    def rho(self, path):
        key = file_digest(path)
        if key not in self._rho:
            self._rho[key] = dense_rho(path)
        return self._rho[key]


def check_beliefs(path, refs, model_path, mrf=None):
    exact, offsets = refs.means(model_path)
    got = stacked_means(read_belief_means(path), offsets)
    err = max_rel_error(got, exact)
    out = [("means", err <= MEANS_TOL, err)]
    if mrf is not None:
        j, h = mrf
        err = max_rel_error(got, np.linalg.solve(j, h))
        out.append(("mrf_means", err <= MEANS_TOL, err))
    return out


def check_report(path, refs, model_path):
    with open(path) as fh:
        report = json.load(fh)
    rho = refs.rho(model_path)
    rho_err = abs(float(report["rho_q"]) - rho)
    mean_err = report.get("max_mean_error")
    mean_ok = (report.get("bp_status") == "converged" and mean_err is not None
               and mean_err <= MEAN_ERROR_TOL)
    return [("rho", rho_err <= RHO_TOL * max(1.0, rho), rho_err),
            ("bounds", report.get("bounds_hold") is True, 0.0),
            ("mean_error", mean_ok, math.inf if mean_err is None else float(mean_err))]


def check_conversion(path, j, h):
    """Converted model's precision W^-1 + A^T R^-1 A against J, information against h."""
    precision, information, offsets = dense_system(path)
    order = np.concatenate([np.arange(s, s + d) for _, (s, d) in sorted(offsets.items())])
    if len(order) != j.shape[0]:
        return [("mrf_precision", False, math.inf)]
    err = max(float(np.max(np.abs(precision[np.ix_(order, order)] - j))),
              float(np.max(np.abs(information[order] - h))))
    return [("mrf_precision", err <= PRECISION_TOL, err)]


def check_trajectory(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = sum(1 for _ in reader)
    ok = header is not None and header[0] == "iter" and rows > 0
    return [("outputs", ok, 0.0)]


def check_op(op, rc, refs):
    """All checks for one executed operation.

    Every operation of the workloads is expected to exit 0; a missing or
    unreadable output fails 'outputs'.
    """
    results = [("exit_code", rc == 0, 0.0)]
    try:
        if op.kind == "convert":
            results += check_conversion(op.out, *op.mrf)
        elif op.kind == "run":
            results += check_beliefs(op.out, refs, op.model, op.mrf)
            if op.trajectory:
                results += check_trajectory(op.trajectory)
        elif op.kind == "certify":
            results += check_report(op.out, refs, op.model)
    except (OSError, ValueError, KeyError, TypeError, np.linalg.LinAlgError) as exc:
        results.append(("outputs", False, math.inf))
        print(f"oracle: {op.kind} {os.path.basename(op.out)}: {exc!r}", file=sys.stderr)
    return results
