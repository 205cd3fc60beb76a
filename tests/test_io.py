import csv
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import quartet_model
from corpus import SHOWCASE_DIVERGENT, cli_mixed_models, frustrated_model, grid_field, mixed_corpus
from gabp.analysis import information_fixed_point
from gabp.bp import Belief, BpOptions, run_bp
from gabp.cli import main
from gabp.errors import InputFormatError, IterationBudgetError
from gabp.graph import build_factor_graph
from gabp.io import (belief_rows, fmt, load_custom_init, load_model, load_mrf,
                     matrix_from_json, matrix_to_json, model_from_json,
                     model_to_json, save_model, save_mrf, write_beliefs_csv,
                     write_trajectory_csv)
from gabp.model import random_model, validate_model
from gabp.mrf import mrf_to_linear_gaussian


def test_fmt_round_trips_doubles():
    for x in (1 / 3, 1e-17, -2.5, 6.02e23, 0.1 + 0.2):
        assert float(fmt(x)) == x


def test_matrix_json_round_trip():
    a = np.array([[1.5, -2.0, 1 / 3], [0.0, 7.0, 1e-12]])
    b = matrix_from_json(matrix_to_json(a))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("obj", [
    None,
    [],
    {"rows": 2, "cols": 2},
    {"rows": 2, "cols": 2, "data": [1.0, 2.0, 3.0]},
    {"rows": 2, "cols": 2, "data": [1.0, 2.0, "x", 4.0]},
    {"rows": "a", "cols": 2, "data": []},
])
def test_matrix_from_json_rejects_malformed(obj):
    with pytest.raises(InputFormatError):
        matrix_from_json(obj)


@pytest.mark.parametrize("obj", [
    {"rows": -2, "cols": -2, "data": [1.0, 2.0, 3.0, 4.0]},
    {"rows": -1, "cols": 0, "data": []},
])
def test_matrix_from_json_names_negative_sizes(obj):
    with pytest.raises(InputFormatError, match="rows and cols must be non-negative"):
        matrix_from_json(obj)


def test_model_file_round_trip(tmp_path):
    m = random_model(seed=9, n_agents=5, topology="multi_loop")
    m.meta["note"] = "round-trip"
    models = [m, *(model for _, model in cli_mixed_models()),
              random_model(seed=1, n_agents=480, topology="multi_loop"),
              mrf_to_linear_gaussian(grid_field(10), np.linspace(-1.0, 1.0, 100))[0]]
    path = tmp_path / "model.json"
    for m in models:
        save_model(m, path)
        back = load_model(path)
        assert validate_model(back) == []
        assert back.meta == m.meta
        assert [v.id for v in back.variables] == [v.id for v in m.variables]
        for fa, fb in zip(m.factors, back.factors):
            assert fa.scope == fb.scope
            assert np.array_equal(fa.noise_cov, fb.noise_cov)
            assert np.array_equal(fa.obs, fb.obs)
            for i in fa.scope:
                assert np.array_equal(fa.coeff[i], fb.coeff[i])
        for va, vb in zip(m.variables, back.variables):
            assert np.array_equal(va.prior_cov, vb.prior_cov)
    assert models[0].meta == {"note": "round-trip"}


def test_model_json_coeff_keys_are_strings(quartet):
    obj = model_to_json(quartet)
    for f in obj["factors"]:
        assert all(isinstance(k, str) for k in f["coeff"])
    again = model_from_json(json.loads(json.dumps(obj)))
    assert [f.scope for f in again.factors] == [f.scope for f in quartet.factors]


_UNIT = {"rows": 1, "cols": 1, "data": [1.0]}
MALFORMED_MODELS = [
    ([], "model file: top level must be an object"),
    ({"variables": []}, "model file: missing or malformed 'factors' list"),
    ({"variables": [], "factors": {}}, "model file: missing or malformed 'factors' list"),
    ({"variables": [{"id": 1}], "factors": []}, "variable #0: needs integer id and dim"),
    ({"variables": [], "factors": [], "provenance": 7}, "model file: 'provenance' must be an object"),
    ({"variables": [7], "factors": []}, "variable #0: expected an object"),
    ({"variables": [], "factors": ["f"]}, "factor #0: expected an object"),
    ({"variables": [], "factors": [{"id": 4, "scope": [1], "coeff": [_UNIT]}]},
     "factor 4: 'coeff' must map variable id to matrix"),
    ({"variables": [], "factors": [{"id": 4, "scope": [1], "coeff": {"1": _UNIT}, "noise_cov": _UNIT, "obs": 1.0}]},
     "factor 4 obs: expected a list of numbers"),
    # "1" and "01" name one variable; the second block used to replace the first with no error
    ({"variables": [], "factors": [{"id": 4, "scope": [1], "coeff": {"1": _UNIT, "01": _UNIT}}]},
     "factor 4: coeff names variable 1 twice"),
]


@pytest.mark.parametrize("obj, message", MALFORMED_MODELS, ids=[f"obj{k}" for k in range(len(MALFORMED_MODELS))])
def test_model_from_json_rejects_malformed(obj, message, tmp_path, capsys):
    with pytest.raises(InputFormatError, match=re.escape(message)):
        model_from_json(obj)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_model_from_json_rejects_a_nested_obs_list(quartet):
    obj = model_to_json(quartet)
    obj["factors"][0]["obs"] = [[1.0, 2.0]]
    with pytest.raises(InputFormatError, match="factor 1 obs: expected a flat list"):
        model_from_json(obj)


def test_load_model_missing_file(tmp_path):
    with pytest.raises(InputFormatError):
        load_model(tmp_path / "absent.json")


def test_load_model_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(InputFormatError):
        load_model(p)


def test_loaders_pause_the_collector_and_restore_its_state(tmp_path, quartet, monkeypatch):
    import gc

    import gabp.io

    good, bad = tmp_path / "m.json", tmp_path / "bad.json"
    save_model(quartet, good)
    save_mrf(np.eye(2), None, tmp_path / "f.json")
    bad.write_text('{"f2v": 1}')
    seen = []

    def spy(real):
        return lambda *args: seen.append(gc.isenabled()) or real(*args)

    monkeypatch.setattr(gabp.io.json, "load", spy(json.load))
    for name in ("model_from_json", "_mrf_from_json", "_init_from_json"):
        monkeypatch.setattr(gabp.io, name, spy(getattr(gabp.io, name)))
    enabled = gc.isenabled()
    try:
        for state in (True, False):
            (gc.enable if state else gc.disable)()
            load_model(good)
            load_mrf(tmp_path / "f.json")
            with pytest.raises(InputFormatError):
                load_custom_init(bad)
            assert gc.isenabled() is state
    finally:
        (gc.enable if enabled else gc.disable)()
    # json.load and the parse of each of the three files, twice
    assert seen == [False] * 12


def test_mrf_file_round_trip(tmp_path):
    j = np.array([[1.0, -0.4], [-0.4, 1.0]])
    h = np.array([0.5, -0.25])
    path = tmp_path / "field.json"
    save_mrf(j, h, path, provenance={"origin": "test"})
    j2, h2, meta = load_mrf(path)
    np.testing.assert_array_equal(j, j2)
    np.testing.assert_array_equal(h, h2)
    assert meta == {"origin": "test"}


def test_mrf_defaults_and_malformed(tmp_path, capsys):
    p = tmp_path / "nohat.json"
    p.write_text(json.dumps({"J": {"rows": 2, "cols": 2, "data": [1, 0, 0, 1]}}))
    j, h, meta = load_mrf(p)
    np.testing.assert_array_equal(h, np.zeros(2))
    assert meta == {}

    # saving without a potential omits the key and loads back as zeros
    p0 = tmp_path / "noh.json"
    save_mrf(np.eye(2), None, p0)
    assert "h" not in json.loads(p0.read_text())
    _, h0, _ = load_mrf(p0)
    np.testing.assert_array_equal(h0, np.zeros(2))

    p2 = tmp_path / "rect.json"
    p2.write_text(json.dumps({"J": {"rows": 1, "cols": 2, "data": [1, 0]}}))
    with pytest.raises(InputFormatError):
        load_mrf(p2)

    p3 = tmp_path / "hlen.json"
    p3.write_text(json.dumps({"J": {"rows": 2, "cols": 2, "data": [1, 0, 0, 1]},
                              "h": [1.0]}))
    with pytest.raises(InputFormatError):
        load_mrf(p3)

    for obj, message in [([_UNIT], "mrf file: expected an object with 'J' and 'h'"),
                         ({"h": [1.0]}, "mrf file: expected an object with 'J' and 'h'"),
                         ({"J": _UNIT, "provenance": ["x"]}, "mrf file: 'provenance' must be an object")]:
        p3.write_text(json.dumps(obj))
        with pytest.raises(InputFormatError, match=re.escape(message)):
            load_mrf(p3)
        assert main(["convert-mrf", str(p3)]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"


def test_custom_init_loader(tmp_path, capsys):
    rec = {"factor": 1, "variable": 2,
           "J": {"rows": 1, "cols": 1, "data": [0.5]}, "v": [0.1]}
    p = tmp_path / "init.json"
    p.write_text(json.dumps({"f2v": [rec]}))
    msgs = load_custom_init(p)
    assert set(msgs) == {(1, 2)}
    assert msgs[(1, 2)].J[0, 0] == 0.5
    assert msgs[(1, 2)].v[0] == 0.1

    p.write_text(json.dumps({"f2v": [rec, rec]}))
    with pytest.raises(InputFormatError):
        load_custom_init(p)

    p.write_text(json.dumps({"f2v": [{"factor": 1, "variable": 2, "v": [0.1]}]}))
    with pytest.raises(InputFormatError):
        load_custom_init(p)

    p.write_text(json.dumps({"messages": []}))
    with pytest.raises(InputFormatError):
        load_custom_init(p)

    model = tmp_path / "quartet.json"
    save_model(quartet_model(), model)
    no_variable = {k: rec[k] for k in ("factor", "J", "v")}
    for records, message in [([7], "init record #0: expected an object"),
                             ([rec, no_variable], "init record #1: needs factor and variable ids")]:
        p.write_text(json.dumps({"f2v": records}))
        with pytest.raises(InputFormatError, match=re.escape(message)):
            load_custom_init(p)
        assert main(["run", str(model), "--init", f"custom:{p}"]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"


def test_trajectory_csv(tmp_path, quartet):
    g = build_factor_graph(quartet)
    res = run_bp(quartet, g, options=BpOptions(record_messages=True))
    assert len(res.trajectory.rows) == res.iterations * (len(g.f2v_edges) + len(g.v2f_edges))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(res.trajectory, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "edge_kind", "from", "to",
                       "dJ_fro", "dv_inf", "part_metric_to_ref"]
    assert len(rows) == 1 + len(res.trajectory.rows)
    # iteration-one variable rows carry nan deltas and an empty metric
    first_v2f = next(r for r in rows[1:] if r[1] == "v2f")
    assert math.isnan(float(first_v2f[4]))
    assert first_v2f[6] == ""
    # every numeric field round-trips
    for r in rows[1:]:
        float(r[4]), float(r[5])


def csv_module_trajectory(rows, graph, with_reference, path):
    """The csv-module writer over the rows, labelled from the graph, an independent transcription.

    Block row r is the v2f edge graph.v2f_edges[r], then the f2v edges;
    only f2v rows of a run with a reference carry a part metric.
    """
    labels = [("v2f", *e) for e in graph.v2f_edges] + [("f2v", *e) for e in graph.f2v_edges]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "edge_kind", "from", "to", "dJ_fro", "dv_inf", "part_metric_to_ref"])
        for k, (dj, dv, pm) in enumerate(rows.tolist()):
            it, (kind, src, dst) = k // len(labels) + 1, labels[k % len(labels)]
            writer.writerow([it, kind, src, dst, "%.17g" % dj, "%.17g" % dv,
                             "%.17g" % pm if with_reference and kind == "f2v" else ""])


def trajectory_cases():
    n, n_extra, gain, seed = SHOWCASE_DIVERGENT
    yield from ((name, model, 15) for name, model in mixed_corpus())
    yield "divergent", frustrated_model(seed, n=n, gain=gain, n_extra=n_extra), 10_000
    yield "grid-10", mrf_to_linear_gaussian(grid_field(10), np.linspace(-1.0, 1.0, 100))[0], 10_000


def test_trajectory_csv_is_the_csv_modules_bytes_with_and_without_a_reference(tmp_path):
    ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
    kinds = set()
    for name, model, max_iters in trajectory_cases():
        g = build_factor_graph(model)
        try:
            references = [None, information_fixed_point(model, g)]
        except IterationBudgetError:
            references = [None]
        for ref in references:
            res = run_bp(model, g, init="lower", reference=ref,
                         options=BpOptions(max_iters=max_iters, record_messages=True))
            write_trajectory_csv(res.trajectory, ours)
            csv_module_trajectory(res.trajectory.rows, g, ref is not None, theirs)
            assert ours.read_bytes() == theirs.read_bytes(), (name, ref is None)
            kinds.add((res.status, ref is None))
    # nan and inf fields of a diverged run are among the rows compared
    assert {("diverged", True), ("diverged", False), ("converged", False)} <= kinds


def test_writing_a_grid_trajectory_adds_under_200_kb_of_traced_peak(tmp_path):
    # the writer holds one row's floats and text at a time; converting all
    # 17,480 rows to Python floats at once peaked about 3 MB higher
    model = mrf_to_linear_gaussian(grid_field(10), np.linspace(-1.0, 1.0, 100))[0]
    g = build_factor_graph(model)
    res = run_bp(model, g, init="lower", reference=information_fixed_point(model, g),
                 options=BpOptions(record_messages=True))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(res.trajectory, path)  # lazy imports are not the writer's
    tracemalloc.start()
    try:
        write_trajectory_csv(res.trajectory, path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(res.trajectory.rows) > 10_000
    assert peak - retained < 200e3, (retained, peak)


@pytest.mark.parametrize("where", ["prior", "coeff", "noise", "obs", "early", "late", "last"])
@pytest.mark.parametrize("entry", [True, False, "2.5", None, [1.0]])
def test_model_matrix_and_vector_entries_must_be_numbers(quartet, where, entry):
    obj = json.loads(json.dumps(model_to_json(quartet)))
    var, factor = obj["variables"][0], obj["factors"][0]
    if where in ("early", "late", "last"):
        # a file of several shapes, whose numbers are converted one shape at a time, reports the
        # error it meets first: a bad entry, or a length mismatch in a matrix of another shape
        obj = json.loads(json.dumps(model_to_json(random_model(seed=5, n_agents=6, dims=(1, 3)))))
        prior, factor = obj["variables"][0]["prior_cov"], obj["factors"][-1]
        noise, (key, coeff) = factor["noise_cov"], list(factor["coeff"].items())[-1]
        assert (prior["rows"], prior["cols"]) != (noise["rows"], noise["cols"])
        if where == "last":
            coeff["data"][0] = entry
            message = f"factor {factor['id']} coeff[{key}]: data must be numeric"
        else:
            bad, short = (prior, noise) if where == "early" else (noise, prior)
            bad["data"][0] = entry
            short["data"].pop()
            message = "variable 1 prior_cov: " + ("data must be numeric" if where == "early" else
                                                  f"data length {len(prior['data'])} does not match "
                                                  f"{prior['rows']}x{prior['cols']}")
        with pytest.raises(InputFormatError) as exc:
            model_from_json(obj)
        assert str(exc.value) == message
        return
    target = {"prior": var["prior_cov"]["data"], "coeff": next(iter(factor["coeff"].values()))["data"],
              "noise": factor["noise_cov"]["data"], "obs": factor["obs"]}[where]
    target[0] = entry
    message = "expected a flat list" if where == "obs" and isinstance(entry, list) else "must be numeric"
    with pytest.raises(InputFormatError, match=message):
        model_from_json(obj)


def test_integral_json_numbers_are_still_numbers(quartet):
    obj = json.loads(json.dumps(model_to_json(quartet)))
    obj["variables"][0]["prior_cov"]["data"] = [2]
    obj["factors"][0]["obs"] = [0, -1]
    back = model_from_json(obj)
    assert back.variables[0].prior_cov.dtype == float and back.variables[0].prior_cov[0, 0] == 2.0
    np.testing.assert_array_equal(back.factors[0].obs, [0.0, -1.0])


def test_a_json_integer_beyond_float_range_is_an_input_error():
    with pytest.raises(InputFormatError, match="must be numeric"):
        matrix_from_json({"rows": 1, "cols": 1, "data": [10 ** 400]})


@pytest.mark.parametrize("entry", [True, "0.5"])
@pytest.mark.parametrize("where", ["J", "h"])
def test_mrf_entries_must_be_numbers(tmp_path, where, entry):
    obj = {"J": {"rows": 2, "cols": 2, "data": [1.0, 0.1, 0.1, 1.0]}, "h": [0.5, -0.5]}
    (obj["J"]["data"] if where == "J" else obj["h"])[1] = entry
    p = tmp_path / "field.json"
    p.write_text(json.dumps(obj))
    with pytest.raises(InputFormatError, match=f"{where}: .*must be numeric"):
        load_mrf(p)


@pytest.mark.parametrize("entry", [True, "0.5"])
@pytest.mark.parametrize("where", ["J", "v"])
def test_custom_init_entries_must_be_numbers(tmp_path, where, entry):
    rec = {"factor": 1, "variable": 2, "J": {"rows": 1, "cols": 1, "data": [0.5]}, "v": [0.1]}
    (rec["J"]["data"] if where == "J" else rec["v"])[0] = entry
    p = tmp_path / "init.json"
    p.write_text(json.dumps({"f2v": [rec]}))
    with pytest.raises(InputFormatError, match=rf"init \(1->2\) {where}: .*must be numeric"):
        load_custom_init(p)


def test_beliefs_csv(tmp_path):
    beliefs = {
        2: Belief(mean=np.array([1 / 3]), cov=np.array([[0.25]])),
        1: Belief(mean=np.array([0.5, -0.5]), cov=np.diag([1.0, 2.0])),
    }
    path = tmp_path / "beliefs.csv"
    write_beliefs_csv(belief_rows(beliefs), path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["agent", "component", "mean", "variance"]
    assert [r[:2] for r in rows[1:]] == [["1", "1"], ["1", "2"], ["2", "1"]]
    assert float(rows[3][2]) == 1 / 3
    assert float(rows[2][3]) == 2.0
