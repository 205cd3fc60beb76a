"""JSON model files, MRF files, custom message files, CSV and DOT writers.

Matrices are stored as {"rows": r, "cols": c, "data": [...]} with data in
row-major order. Structural problems in input files raise
InputFormatError; semantic problems (a prior that is not pd, rank
deficiency) are left to validate_model so they surface as DomainError.
Every matrix and vector of a model, MRF or init file goes through one
parser, _Numbers: each is checked in file order, so a file reports its
first error, and the numbers become floats in one array per shape, of
which the loaded specs hold views.
"""

import csv
import gc
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
    if type(x) is int:
        return x
    try:
        if not isinstance(x, bool) and (not isinstance(x, float) or x.is_integer()):
            return int(x)
    except (TypeError, ValueError):
        pass
    raise InputFormatError(f"{what} must be an integer, got {x!r}")


class _Numbers:
    """The number lists of one input file, each checked in file order, made floats once per shape.

    matrix() and vector() check an entry, structure first, then content:
    JSON numbers, that is ints within float range and floats, not booleans
    or numeric strings. arrays() makes one float array per shape and
    returns each entry's view of it, in the order they were queued.
    """

    def __init__(self):
        self.data, self.groups = [], {}  # each entry's list, and the entry indices by shape

    def _queue(self, what, shape, data):
        types = set(map(type, data))
        if not types <= {int, float}:
            raise InputFormatError(f"{what} must be numeric")
        if int in types:
            try:
                list(map(float, data))
            except OverflowError as exc:
                raise InputFormatError(f"{what} must be numeric: {exc}") from exc
        self.groups.setdefault(shape, []).append(len(self.data))
        self.data.append(data)

    def matrix(self, obj, what):
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
        self._queue(f"{what}: data", (rows, cols), data)
        return rows, cols

    def vector(self, obj, what):
        if not isinstance(obj, list):
            raise InputFormatError(f"{what}: expected a list of numbers")
        if any(isinstance(x, list) for x in obj):
            raise InputFormatError(f"{what}: expected a flat list of numbers")
        self._queue(f"{what}: entries", (len(obj),), obj)

    def arrays(self):
        out = [None] * len(self.data)
        for shape, idx in self.groups.items():
            stack = np.array([self.data[k] for k in idx], dtype=float)
            for k, x in zip(idx, stack.reshape((len(idx),) + shape)):
                out[k] = x
        return out


def matrix_from_json(obj, what="matrix"):
    numbers = _Numbers()
    numbers.matrix(obj, what)
    return numbers.arrays()[0]


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
    numbers, variables, factors = _Numbers(), [], []
    for idx, entry in enumerate(obj["variables"]):
        if not isinstance(entry, dict):
            raise InputFormatError(f"variable #{idx}: expected an object")
        if not {"id", "dim"} <= entry.keys():
            raise InputFormatError(f"variable #{idx}: needs integer id and dim")
        vid, dim = (_integer(entry[k], f"variable #{idx} {k}") for k in ("id", "dim"))
        numbers.matrix(entry.get("prior_cov"), f"variable {vid} prior_cov")
        variables.append((vid, dim))
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
        keys = {}  # a dict, to keep the keys' order
        for key, mat in coeff_obj.items():
            j = _integer(key, f"factor {fid} coeff key")
            if j in keys:
                raise InputFormatError(f"factor {fid}: coeff names variable {j} twice")
            keys[j] = None
            numbers.matrix(mat, f"factor {fid} coeff[{j}]")
        numbers.matrix(entry.get("noise_cov"), f"factor {fid} noise_cov")
        numbers.vector(entry.get("obs"), f"factor {fid} obs")
        factors.append((fid, scope, keys))
    meta = obj.get("provenance", {})
    if not isinstance(meta, dict):
        raise InputFormatError("model file: 'provenance' must be an object")
    arrays = iter(numbers.arrays())  # in the order the loops above queued them
    variables = [VariableSpec(id=vid, dim=dim, prior_cov=next(arrays)) for vid, dim in variables]
    factors = [FactorSpec(id=fid, scope=scope, coeff={j: next(arrays) for j in keys},
                          noise_cov=next(arrays), obs=next(arrays)) for fid, scope, keys in factors]
    return LinearGaussianModel(variables=variables, factors=factors, meta=dict(meta))


def write_json(obj, path):
    """Write obj as JSON indented by 2, with a final newline: every JSON file gabp writes."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def save_model(model, path):
    write_json(model_to_json(model), path)


def _load_json(path, what, parse):
    """parse(the JSON in path) with the cyclic garbage collector paused: a parse makes many containers, no cycles."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except OSError as exc:
        raise InputFormatError(f"cannot read {what} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc
    finally:
        if enabled:
            gc.enable()


def load_model(path):
    return _load_json(path, "model", model_from_json)


def save_mrf(j, h, path, provenance=None):
    obj = {"J": matrix_to_json(j)}
    if h is not None:
        obj["h"] = [float(x) for x in np.asarray(h).ravel()]
    if provenance:
        obj["provenance"] = dict(provenance)
    write_json(obj, path)


def load_mrf(path):
    return _load_json(path, "mrf", _mrf_from_json)


def _mrf_from_json(obj):
    if not isinstance(obj, dict) or "J" not in obj:
        raise InputFormatError("mrf file: expected an object with 'J' and 'h'")
    numbers = _Numbers()
    rows, cols = numbers.matrix(obj["J"], "J")
    if rows != cols:
        raise InputFormatError(f"J must be square, got {rows}x{cols}")
    if not rows:
        raise InputFormatError("J has no rows: a field needs at least one variable")
    h = obj.get("h")
    if h is not None:
        numbers.vector(h, "h")
        if len(h) != rows:
            raise InputFormatError(f"h has length {len(h)}, J is {rows}x{rows}")
    meta = obj.get("provenance", {})
    if not isinstance(meta, dict):
        raise InputFormatError("mrf file: 'provenance' must be an object")
    j, *h = numbers.arrays()
    return j, h[0] if h else np.zeros(rows), dict(meta)


def load_custom_init(path):
    """Read factor-to-variable starting messages: {"f2v": [records]}.

    Each record holds factor, variable, J (matrix) and v (vector).
    Coverage and psd-ness are checked later against the actual graph.
    """
    return _load_json(path, "init", _init_from_json)


def _init_from_json(obj):
    if not isinstance(obj, dict) or not isinstance(obj.get("f2v"), list):
        raise InputFormatError("init file: expected an object with an 'f2v' list")
    numbers, edges = _Numbers(), {}
    for idx, rec in enumerate(obj["f2v"]):
        if not isinstance(rec, dict):
            raise InputFormatError(f"init record #{idx}: expected an object")
        if not {"factor", "variable"} <= rec.keys():
            raise InputFormatError(f"init record #{idx}: needs factor and variable ids")
        n, i = (_integer(rec[k], f"init record #{idx} {k}") for k in ("factor", "variable"))
        numbers.matrix(rec.get("J"), f"init ({n}->{i}) J")
        numbers.vector(rec.get("v"), f"init ({n}->{i}) v")
        if (n, i) in edges:
            raise InputFormatError(f"init file: duplicate record for factor {n} -> variable {i}")
        edges[n, i] = None  # a dict, to keep the records' order
    arrays = iter(numbers.arrays())  # each record's J, then its v
    return {edge: Message(J=next(arrays), v=next(arrays)) for edge in edges}


TRAJECTORY_HEADER = ["iter", "edge_kind", "from", "to", "dJ_fro", "dv_inf", "part_metric_to_ref"]
BELIEF_HEADER = ["agent", "component", "mean", "variance"]


def write_trajectory_csv(trajectory, path):
    """Write a recorded run's per-edge rows (BpTrajectory.rows) as CSV, one row's text at a time.

    The fields are those csv.writer gives: %.17g floats, an empty part
    metric where a row has none, CRLF line ends. Each block row gets one
    format string, built once from the trajectory's edge labels; its %.0s
    consumes an absent part metric and prints nothing. Only one row's
    floats and text exist at a time.
    """
    labels = [("v2f", *e) for e in trajectory.v2f_edges] + [("f2v", *e) for e in trajectory.f2v_edges]
    lines = ["%%d,%s,%s,%s,%%.17g,%%.17g,%s\r\n" % (*label, "%.0s" if r < trajectory.metric_from else "%.17g")
             for r, label in enumerate(labels)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRAJECTORY_HEADER) + "\r\n")
        for it, block in enumerate(trajectory.rows.reshape(-1, len(lines), 3) if lines else (), 1):
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


def write_beliefs_csv(rows, path):
    """Write belief_rows as CSV under BELIEF_HEADER."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BELIEF_HEADER)
        writer.writerows(rows)
