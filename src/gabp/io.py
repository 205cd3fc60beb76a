"""JSON model files, MRF files, custom message files, CSV and DOT writers.

Matrices are stored as {"rows": r, "cols": c, "data": [...]} with data in
row-major order. Structural problems in input files raise
InputFormatError; semantic problems (a prior that is not pd, rank
deficiency) are left to validate_model so they surface as DomainError.
"""

import csv
import json

import numpy as np

from gabp.bp import Message
from gabp.errors import InputFormatError
from gabp.graph import to_dot
from gabp.model import FactorSpec, LinearGaussianModel, VariableSpec


def fmt(x):
    return "%.17g" % float(x)


def matrix_to_json(a):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    return {"rows": a.shape[0], "cols": a.shape[1], "data": [float(x) for x in a.ravel()]}


def _integer(x, what):
    """An int, integral float or integer string as an int, never truncated; else InputFormatError."""
    try:
        if not isinstance(x, bool) and (not isinstance(x, float) or x.is_integer()):
            return int(x)
    except (TypeError, ValueError):
        pass
    raise InputFormatError(f"{what} must be an integer, got {x!r}")


def _floats(values, what):
    """A list of JSON numbers as a float array; InputFormatError unless every entry is an int or a float.

    Booleans and numeric strings are not numbers here. The types are checked in one pass.
    """
    if not set(map(type, values)) <= {int, float}:
        raise InputFormatError(f"{what} must be numeric")
    try:
        return np.array(values, dtype=float)
    except OverflowError as exc:
        raise InputFormatError(f"{what} must be numeric: {exc}") from exc


def matrix_from_json(obj, what="matrix"):
    if not isinstance(obj, dict):
        raise InputFormatError(f"{what}: expected an object with rows/cols/data")
    if not {"rows", "cols", "data"} <= obj.keys():
        raise InputFormatError(f"{what}: expected rows/cols/data, got {sorted(obj)}")
    rows, cols = _integer(obj["rows"], f"{what} rows"), _integer(obj["cols"], f"{what} cols")
    data = obj["data"]
    if rows < 0 or cols < 0:
        raise InputFormatError(f"{what}: rows and cols must be non-negative, got {rows}x{cols}")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise InputFormatError(
            f"{what}: data length {len(data) if isinstance(data, list) else '?'} "
            f"does not match {rows}x{cols}"
        )
    return _floats(data, f"{what}: data").reshape(rows, cols)


def _vector_from_json(obj, what):
    if not isinstance(obj, list):
        raise InputFormatError(f"{what}: expected a list of numbers")
    if any(isinstance(x, list) for x in obj):
        raise InputFormatError(f"{what}: expected a flat list of numbers")
    return _floats(obj, f"{what}: entries")


def model_to_json(model):
    out = {
        "variables": [
            {"id": v.id, "dim": v.dim, "prior_cov": matrix_to_json(v.prior_cov)}
            for v in model.variables
        ],
        "factors": [
            {
                "id": f.id,
                "scope": list(f.scope),
                "coeff": {str(j): matrix_to_json(a) for j, a in sorted(f.coeff.items())},
                "noise_cov": matrix_to_json(f.noise_cov),
                "obs": [float(x) for x in f.obs],
            }
            for f in model.factors
        ],
    }
    if model.meta:
        out["provenance"] = dict(model.meta)
    return out


def model_from_json(obj):
    if not isinstance(obj, dict):
        raise InputFormatError("model file: top level must be an object")
    for key in ("variables", "factors"):
        if key not in obj or not isinstance(obj[key], list):
            raise InputFormatError(f"model file: missing or malformed '{key}' list")
    variables = []
    for idx, entry in enumerate(obj["variables"]):
        if not isinstance(entry, dict):
            raise InputFormatError(f"variable #{idx}: expected an object")
        if not {"id", "dim"} <= entry.keys():
            raise InputFormatError(f"variable #{idx}: needs integer id and dim")
        vid, dim = (_integer(entry[k], f"variable #{idx} {k}") for k in ("id", "dim"))
        prior = matrix_from_json(entry.get("prior_cov"), f"variable {vid} prior_cov")
        variables.append(VariableSpec(id=vid, dim=dim, prior_cov=prior))
    factors = []
    for idx, entry in enumerate(obj["factors"]):
        if not isinstance(entry, dict):
            raise InputFormatError(f"factor #{idx}: expected an object")
        if not {"id", "scope"} <= entry.keys() or not isinstance(entry["scope"], list):
            raise InputFormatError(f"factor #{idx}: needs integer id and scope list")
        fid = _integer(entry["id"], f"factor #{idx} id")
        scope = tuple(_integer(j, f"factor #{idx} scope entry") for j in entry["scope"])
        coeff_obj = entry.get("coeff")
        if not isinstance(coeff_obj, dict):
            raise InputFormatError(f"factor {fid}: 'coeff' must map variable id to matrix")
        coeff = {}
        for key, mat in coeff_obj.items():
            j = _integer(key, f"factor {fid} coeff key")
            coeff[j] = matrix_from_json(mat, f"factor {fid} coeff[{j}]")
        noise = matrix_from_json(entry.get("noise_cov"), f"factor {fid} noise_cov")
        obs = _vector_from_json(entry.get("obs"), f"factor {fid} obs")
        factors.append(FactorSpec(id=fid, scope=scope, coeff=coeff, noise_cov=noise, obs=obs))
    meta = obj.get("provenance", {})
    if not isinstance(meta, dict):
        raise InputFormatError("model file: 'provenance' must be an object")
    return LinearGaussianModel(variables=variables, factors=factors, meta=dict(meta))


def save_model(model, path):
    with open(path, "w") as fh:
        json.dump(model_to_json(model), fh, indent=2)
        fh.write("\n")


def _load_json(path, what):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {what} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc


def load_model(path):
    return model_from_json(_load_json(path, "model"))


def save_mrf(j, h, path, provenance=None):
    obj = {"J": matrix_to_json(j)}
    if h is not None:
        obj["h"] = [float(x) for x in np.asarray(h).ravel()]
    if provenance:
        obj["provenance"] = dict(provenance)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def load_mrf(path):
    obj = _load_json(path, "mrf")
    if not isinstance(obj, dict) or "J" not in obj:
        raise InputFormatError("mrf file: expected an object with 'J' and 'h'")
    j = matrix_from_json(obj["J"], "J")
    if j.shape[0] != j.shape[1]:
        raise InputFormatError(f"J must be square, got {j.shape[0]}x{j.shape[1]}")
    if not j.size:
        raise InputFormatError("J has no rows: a field needs at least one variable")
    h = obj.get("h")
    if h is None:
        h = np.zeros(j.shape[0])
    else:
        h = _vector_from_json(h, "h")
        if h.shape != (j.shape[0],):
            raise InputFormatError(f"h has length {h.shape[0]}, J is {j.shape[0]}x{j.shape[0]}")
    meta = obj.get("provenance", {})
    if not isinstance(meta, dict):
        raise InputFormatError("mrf file: 'provenance' must be an object")
    return j, h, dict(meta)


def load_custom_init(path):
    """Read factor-to-variable starting messages: {"f2v": [records]}.

    Each record holds factor, variable, J (matrix) and v (vector).
    Coverage and psd-ness are checked later against the actual graph.
    """
    obj = _load_json(path, "init")
    if not isinstance(obj, dict) or not isinstance(obj.get("f2v"), list):
        raise InputFormatError("init file: expected an object with an 'f2v' list")
    out = {}
    for idx, rec in enumerate(obj["f2v"]):
        if not isinstance(rec, dict):
            raise InputFormatError(f"init record #{idx}: expected an object")
        if not {"factor", "variable"} <= rec.keys():
            raise InputFormatError(f"init record #{idx}: needs factor and variable ids")
        n, i = (_integer(rec[k], f"init record #{idx} {k}") for k in ("factor", "variable"))
        jmat = matrix_from_json(rec.get("J"), f"init ({n}->{i}) J")
        v = _vector_from_json(rec.get("v"), f"init ({n}->{i}) v")
        if (n, i) in out:
            raise InputFormatError(f"init file: duplicate record for factor {n} -> variable {i}")
        out[(n, i)] = Message(J=jmat, v=v)
    return out


TRAJECTORY_HEADER = ["iter", "edge_kind", "from", "to", "dJ_fro", "dv_inf", "part_metric_to_ref"]
BELIEF_HEADER = ["agent", "component", "mean", "variance"]


def write_trajectory_csv(rows, path):
    """Write a run's TrajectoryRows as CSV, one row's text at a time.

    The fields are those csv.writer gives: %.17g floats, an empty part
    metric where a row has none, CRLF line ends. Each block row gets one
    format string, built once; its %.0s consumes an absent part metric
    and prints nothing. Only one row's floats and text exist at a time.
    """
    line = "%%d,%s,%s,%s,%%.17g,%%.17g,%s\r\n"
    lines = [line % (*rows.label(r), "%.0s" if r < rows.metric_from else "%.17g")
             for r in range(rows.width)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRAJECTORY_HEADER) + "\r\n")
        for it, block in enumerate(rows.blocks, 1):
            for template, row in zip(lines, block):
                fh.write(template % (it, *row.tolist()))


def belief_rows(beliefs):
    """(agent id, component from 1, fmt(mean), fmt(variance)) per belief component, by ascending id."""
    for vid in sorted(beliefs):
        b = beliefs[vid]
        var = np.diag(b.cov)
        for c in range(len(b.mean)):
            yield vid, c + 1, fmt(b.mean[c]), fmt(var[c])


def write_dot(graph, path):
    with open(path, "w") as fh:
        fh.write(to_dot(graph))


def write_beliefs_csv(beliefs, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BELIEF_HEADER)
        writer.writerows(belief_rows(beliefs))
