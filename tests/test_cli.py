import csv
import json
from collections import Counter

import numpy as np
import pytest

from conftest import QUARTET_J, ill_conditioned_noise_model, quartet_model, stack_global, vague_prior_model
from corpus import SHOWCASE_DIVERGENT, cli_mixed_models, frustrated_model, grid_field, mixed_corpus, relabelled
from gabp.analysis import certify
from gabp.bp import BpOptions, run_bp
from gabp.cli import main
from gabp.errors import ExistenceViolation
from gabp.graph import build_factor_graph
from gabp.io import matrix_to_json, model_to_json, save_model, save_mrf
from gabp.model import FactorSpec, LinearGaussianModel, VariableSpec, validate_model


@pytest.fixture
def quartet_file(tmp_path):
    path = tmp_path / "quartet.json"
    save_model(quartet_model(), path)
    return str(path)


@pytest.fixture
def divergent_file(tmp_path):
    n, n_extra, gain, seed = SHOWCASE_DIVERGENT
    path = tmp_path / "divergent.json"
    save_model(frustrated_model(seed, n=n, gain=gain, n_extra=n_extra), path)
    return str(path)


def test_validate_ok(quartet_file, capsys):
    assert main(["validate", quartet_file]) == 0
    out = capsys.readouterr().out
    assert "ok: 4 agents, 3 factors" in out
    assert "single_loop_plus_forest" in out


def test_validate_reports_problems(tmp_path, capsys):
    bad = {
        "variables": [{"id": 1, "dim": 1,
                       "prior_cov": {"rows": 1, "cols": 1, "data": [-1.0]}}],
        "factors": [],
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    assert main(["validate", str(p)]) == 1
    out = capsys.readouterr().out
    assert "not positive definite" in out


def test_validate_reports_an_empty_scope(tmp_path, capsys):
    unit = matrix_to_json(np.eye(1))
    model = {"variables": [{"id": 1, "dim": 1, "prior_cov": unit}],
             "factors": [{"id": 3, "scope": [], "coeff": {}, "noise_cov": unit, "obs": [0.0]}]}
    p = tmp_path / "empty_scope.json"
    p.write_text(json.dumps(model))
    assert main(["validate", str(p)]) == 1
    assert capsys.readouterr().out == "problem: factor 3: empty scope\ninvalid: 1 problem(s)\n"


def _poison_obs(model):
    model.factors[0].obs[0] = np.nan


def _poison_coeff(model):
    f = model.factors[0]
    f.coeff[f.scope[0]][0, 0] = np.inf


def _poison_prior(model):
    model.variables[0].prior_cov[0, 0] = np.nan


@pytest.mark.parametrize("poison", [_poison_obs, _poison_coeff, _poison_prior])
def test_non_finite_input_is_a_named_problem(poison, tmp_path, capsys):
    model = quartet_model()
    poison(model)
    path = str(tmp_path / "bad.json")
    save_model(model, path)
    assert main(["validate", path]) == 1
    problems = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("problem:")]
    assert len(problems) == 1 and "not finite" in problems[0]
    assert main(["run", path]) == 1
    assert "not finite" in capsys.readouterr().err
    assert main(["analyze", path, "--certify"]) == 1
    assert "not finite" in capsys.readouterr().err


@pytest.fixture
def nested_obs_file(tmp_path):
    obj = model_to_json(quartet_model())
    obj["factors"][0]["obs"] = [[1.0, 2.0]]
    path = tmp_path / "nested_obs.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("cmd", [["validate"], ["solve"], ["run"], ["analyze", "--certify"]])
def test_a_nested_obs_list_is_an_input_error(cmd, nested_obs_file, capsys):
    assert main(cmd + [nested_obs_file]) == 2
    assert "input error: factor 1 obs: expected a flat list" in capsys.readouterr().err


def test_solve_rejects_booleans_and_numeric_strings_as_entries(tmp_path, capsys):
    # each of these entries alone let solve exit 0 with a solution
    model = {"variables": [{"id": 1, "dim": 1, "prior_cov": {"rows": 1, "cols": 1, "data": [1.0]}}],
             "factors": [{"id": 1, "scope": [1], "coeff": {"1": {"rows": 1, "cols": 1, "data": [2.5]}},
                          "noise_cov": {"rows": 1, "cols": 1, "data": [1.0]}, "obs": [0.5]}]}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    assert main(["solve", str(path)]) == 0
    factor = model["factors"][0]
    for target, entry, what in ((model["variables"][0]["prior_cov"]["data"], True, "variable 1 prior_cov"),
                                (factor["coeff"]["1"]["data"], "2.5", "factor 1 coeff[1]"),
                                (factor["noise_cov"]["data"], True, "factor 1 noise_cov"),
                                (factor["obs"], False, "factor 1 obs")):
        good, target[0] = target[0], entry
        path.write_text(json.dumps(model))
        capsys.readouterr()
        assert main(["solve", str(path)]) == 2, what
        assert f"input error: {what}: " in capsys.readouterr().err
        target[0] = good


def test_missing_file_is_input_error(capsys):
    assert main(["validate", "/nonexistent/model.json"]) == 2
    assert "input error" in capsys.readouterr().err


def test_malformed_json_is_input_error(tmp_path, capsys):
    p = tmp_path / "garbage.json"
    p.write_text("][")
    assert main(["run", str(p)]) == 2


def test_solve_prints_and_writes(quartet_file, tmp_path, capsys):
    out_csv = str(tmp_path / "sol.csv")
    assert main(["solve", quartet_file, "--out", out_csv]) == 0
    out = capsys.readouterr().out
    assert "agent 1 component 1" in out
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 5  # header + 4 scalar agents


def test_solve_writes_the_dense_oracles_means_and_variances(tmp_path):
    for label, model in cli_mixed_models():
        path, out = str(tmp_path / f"{label}.json"), str(tmp_path / f"{label}.csv")
        save_model(model, path)
        assert main(["solve", path, "--out", out]) == 0, label
        a, r, w, y = stack_global(model)
        rinv_a = np.linalg.solve(r, a)
        cov = np.linalg.inv(np.linalg.inv(w) + a.T @ rinv_a)
        mean = cov @ (rinv_a.T @ y)
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        # rows by agent id, then component: the stacked order
        assert [(int(row["agent"]), int(row["component"])) for row in rows] == \
            [(v.id, c + 1) for v in model.variables for c in range(v.dim)], label
        got = np.array([[float(row["mean"]), float(row["variance"])] for row in rows])
        np.testing.assert_allclose(got[:, 0], mean, rtol=0.0, atol=1e-12 * np.max(np.abs(mean)),
                                   err_msg=label)
        np.testing.assert_allclose(got[:, 1], np.diag(cov), rtol=1e-12, atol=0.0, err_msg=label)


def test_run_converges_and_writes_artifacts(quartet_file, tmp_path, capsys):
    bel = str(tmp_path / "beliefs.csv")
    traj = str(tmp_path / "traj.csv")
    code = main(["run", quartet_file, "--init", "lower",
                 "--trajectory", traj, "--out", bel])
    assert code == 0
    out = capsys.readouterr().out
    assert "status: converged" in out
    with open(traj) as fh:
        header = fh.readline().strip().split(",")
    assert header == ["iter", "edge_kind", "from", "to",
                      "dJ_fro", "dv_inf", "part_metric_to_ref"]
    with open(bel) as fh:
        assert len(fh.readlines()) == 5

    # one row per edge per iteration, and the run itself is the plain run
    g = build_factor_graph(quartet_model())
    iterations = int(out.split(" after ")[1].split()[0])
    with open(traj) as fh:
        assert len(fh.readlines()) == 1 + iterations * (len(g.f2v_edges) + len(g.v2f_edges))
    plain = str(tmp_path / "plain.csv")
    assert main(["run", quartet_file, "--init", "lower", "--out", plain]) == 0
    assert capsys.readouterr().out == out.replace(f"wrote {traj}\n", "").replace(bel, plain)
    with open(bel) as fh, open(plain) as plain_fh:
        assert fh.read() == plain_fh.read()


def test_run_budget_exhaustion(quartet_file):
    assert main(["run", quartet_file, "--max-iters", "2"]) == 3


@pytest.fixture
def ill_conditioned_file(tmp_path):
    path = tmp_path / "ill_conditioned.json"
    save_model(ill_conditioned_noise_model(), path)
    return str(path)


def test_analyze_exits_3_when_the_information_recursion_runs_out_of_budget(ill_conditioned_file, capsys):
    # FIXED_POINT_TOL is absolute, so this valid model never meets it (the
    # FOUND line in CHANGES.md); ROADMAP item 5's relative stop changes
    # this expectation.
    assert main(["analyze", ill_conditioned_file]) == 3
    assert capsys.readouterr().err.startswith(
        "budget exhausted: information recursion did not reach tol=1e-12 within 10000 iterations")


def test_run_trajectory_without_a_fixed_point_leaves_the_part_metric_empty(ill_conditioned_file, tmp_path,
                                                                           caplog):
    traj = tmp_path / "traj.csv"
    with caplog.at_level("WARNING", logger="gabp"):
        assert main(["run", ill_conditioned_file, "--trajectory", str(traj), "--max-iters", "3"]) == 3
    assert "fixed point not found within budget" in caplog.text
    with open(traj) as fh:
        rows = list(csv.reader(fh))[1:]
    n_edges = len(build_factor_graph(ill_conditioned_noise_model()).f2v_edges)
    assert len(rows) == 3 * 2 * n_edges
    assert {r[6] for r in rows} == {""}


def test_run_divergence_exit_code(divergent_file, capsys):
    assert main(["run", divergent_file]) == 4
    assert "divergence guard" in capsys.readouterr().err


def test_run_custom_init(quartet_file, tmp_path, capsys):
    g = build_factor_graph(quartet_model())
    recs = [{"factor": n, "variable": i,
             "J": {"rows": 1, "cols": 1, "data": [0.2]}, "v": [0.0]}
            for (n, i) in g.f2v_edges]
    p = tmp_path / "init.json"
    p.write_text(json.dumps({"f2v": recs}))
    assert main(["run", quartet_file, "--init", f"custom:{p}"]) == 0
    assert main(["run", quartet_file, "--init", "custom:"]) == 2
    assert main(["run", quartet_file, "--init", "upside-down"]) == 2
    for key, value in (("J", {"rows": 1, "cols": 1, "data": [float("inf")]}), ("v", [float("nan")])):
        poisoned = [dict(recs[0], **{key: value})] + recs[1:]
        p.write_text(json.dumps({"f2v": poisoned}))
        assert main(["run", quartet_file, "--init", f"custom:{p}"]) == 1
        assert "is not finite" in capsys.readouterr().err


def test_run_strict_flag(quartet_file):
    assert main(["run", quartet_file, "--strict"]) == 0


def test_run_strict_exits_5_on_a_non_pd_incoming_message(tmp_path, capsys):
    path = str(tmp_path / "vague.json")
    save_model(vague_prior_model(), path)
    assert main(["run", path]) == 0
    assert main(["run", path, "--strict"]) == 5
    assert "variable-to-factor message (1 -> 1) not pd at iteration 1" in capsys.readouterr().err


def test_run_rejects_a_negative_seed(quartet_file, capsys):
    for schedule in ("sync", "random"):
        assert main(["run", quartet_file, "--schedule", schedule, "--seed", "-1"]) == 1
        assert "seed must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--tol-j", "nan"), ("--tol-j", "0"), ("--tol-v", "-1"),
                                         ("--max-iters", "-3")])
def test_run_rejects_invalid_tolerances_and_budgets(quartet_file, flag, value, capsys):
    assert main(["run", quartet_file, flag, value]) == 1
    assert "must be" in capsys.readouterr().err


def test_model_without_factors_runs_and_certifies(tmp_path):
    path, solved, ran, report = (str(tmp_path / f) for f in
                                 ("model.json", "solved.csv", "ran.csv", "report.json"))
    save_model(LinearGaussianModel(
        variables=[VariableSpec(1, 2, np.array([[2.0, 0.5], [0.5, 1.0]])),
                   VariableSpec(2, 1, np.array([[3.0]]))],
        factors=[]), path)
    assert main(["solve", path, "--out", solved]) == 0
    assert main(["run", path, "--out", ran]) == 0
    assert main(["analyze", "--certify", path, "--out", report]) == 0
    np.testing.assert_array_equal(np.loadtxt(ran, delimiter=",", skiprows=1),
                                  np.loadtxt(solved, delimiter=",", skiprows=1))
    with open(report) as fh:
        assert json.load(fh)["max_mean_error"] == 0.0


BIG = 2 ** 70


@pytest.mark.parametrize("label,model", cli_mixed_models())
def test_ids_past_64_bits_change_no_result(label, model):
    # ids are Python ints throughout: moving every one past 2^64, in order, changes no number
    big = relabelled(model, BIG)
    for schedule in ("sync", "seq", "random"):
        opts = BpOptions(schedule=schedule, seed=5)
        want, got = run_bp(model, options=opts), run_bp(big, options=opts)
        assert (got.status, got.iterations) == (want.status, want.iterations), (label, schedule)
        assert list(got.beliefs) == [i + BIG for i in want.beliefs]
        for i, b in want.beliefs.items():
            np.testing.assert_array_equal(got.beliefs[i + BIG].mean, b.mean)
            np.testing.assert_array_equal(got.beliefs[i + BIG].cov, b.cov)
    assert json.dumps(certify(big).to_dict()) == json.dumps(certify(model).to_dict())


def test_run_and_certify_accept_ids_past_64_bits(tmp_path, capsys):
    path = str(tmp_path / "big_ids.json")
    save_model(relabelled(cli_mixed_models()[1][1], BIG), path)
    assert main(["run", path]) == 0
    assert f"agent {BIG + 1} component 1: mean" in capsys.readouterr().out
    assert main(["analyze", "--certify", path]) == 0


def test_malformed_inputs_end_in_a_named_error(quartet_file, tmp_path, capsys):
    # asymmetric matrices, an init edge outside the graph and non-integral
    # integer fields: each once ended in a traceback or was accepted
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    def mrf(diagonal):
        return write(f"mrf{diagonal}.json", {"J": {"rows": 2, "cols": 2, "data": [diagonal, 0.3, 0.1, 1.0]},
                                             "h": [1.0, 2.0]})

    eye = np.eye(2)
    plane_model = LinearGaussianModel(variables=[VariableSpec(1, 2, eye)],
                                      factors=[FactorSpec(1, (1,), {1: eye}, eye, np.zeros(2))])
    plane = str(tmp_path / "plane.json")
    save_model(plane_model, plane)

    def with_variable(**fields):
        # each of these once read as the valid plane model, truncated
        obj = model_to_json(plane_model)
        obj["variables"][0].update(fields)
        return write(f"variable{len(list(tmp_path.iterdir()))}.json", obj)

    skew = write("skew.json", {"f2v": [{"factor": 1, "variable": 1, "v": [0.0, 0.0],
                                        "J": {"rows": 2, "cols": 2, "data": [1.0, 0.5, 0.0, 1.0]}}]})
    recs = [{"factor": n, "variable": i, "J": {"rows": 1, "cols": 1, "data": [0.2]}, "v": [0.0]}
            for n, i in build_factor_graph(quartet_model()).f2v_edges]
    extra = write("extra.json", {"f2v": recs + [{"factor": 99, "variable": 1, "v": [0.0],
                                                 "J": {"rows": 1, "cols": 1, "data": [-5.0]}}]})
    cases = [
        (["convert-mrf", mrf(1.0)], 1, "domain error: J is not symmetric"),
        (["convert-mrf", mrf(2.0)], 1, "domain error: J is not symmetric"),
        (["run", plane, "--init", f"custom:{skew}"], 1,
         "domain error: init edge (1, 1) has an asymmetric information matrix"),
        (["run", quartet_file, "--init", f"custom:{extra}"], 1,
         "domain error: init edge (99, 1) is not in the factor graph"),
        (["validate", with_variable(dim=2.7)], 2, "input error: variable #0 dim must be an integer, got 2.7"),
        (["validate", with_variable(dim=True)], 2, "input error: variable #0 dim must be an integer, got True"),
        (["validate", with_variable(prior_cov={"rows": 2.5, "cols": 2, "data": [1.0, 0.0, 0.0, 1.0]})], 2,
         "rows must be an integer, got 2.5"),
        (["validate", with_variable(id=1.5)], 2, "input error: variable #0 id must be an integer, got 1.5"),
    ]
    for argv, code, message in cases:
        assert main(argv) == code, argv
        assert message in capsys.readouterr().err, argv


@pytest.mark.parametrize("cmd", ["validate", "run"])
def test_a_scope_that_is_not_a_list_or_repeats_an_entry_is_refused(cmd, quartet_file, tmp_path, capsys):
    obj = json.loads(open(quartet_file).read())
    scope = obj["factors"][0]["scope"]
    assert len(scope) > 1 and max(scope) < 10
    text, repeated = (tmp_path / "text.json"), (tmp_path / "repeated.json")
    # "134" once loaded as the scope (1, 3, 4), and [a, b, a] as (a, b)
    obj["factors"][0]["scope"] = "".join(map(str, scope))
    text.write_text(json.dumps(obj))
    obj["factors"][0]["scope"] = scope + scope[:1]
    repeated.write_text(json.dumps(obj))
    assert main([cmd, str(text)]) == 2
    assert "input error: factor #0: needs integer id and scope list" in capsys.readouterr().err
    assert main([cmd, str(repeated)]) == 1
    assert f"factor 1: scope repeats variables [{scope[0]}]" in "".join(capsys.readouterr())


def test_two_main_calls_in_a_row_share_no_options(quartet_file, monkeypatch):
    import gabp.cli as cli

    schedules = []
    real = cli.run_bp
    monkeypatch.setattr(cli, "run_bp", lambda *args, **kwargs:
                        schedules.append(kwargs["options"].schedule) or real(*args, **kwargs))
    assert main(["run", quartet_file, "--schedule", "seq"]) == 0
    assert main(["run", quartet_file]) == 0
    assert schedules == ["seq", "sync"]


def test_existence_violation_maps_to_exit_5(quartet_file, monkeypatch, capsys):
    import gabp.cli as cli

    def boom(*args, **kwargs):
        raise ExistenceViolation("synthetic failure for the exit-code path")

    monkeypatch.setattr(cli, "run_bp", boom)
    assert main(["run", quartet_file]) == 5
    assert "existence violation" in capsys.readouterr().err


def test_analyze_verdict_and_report(quartet_file, tmp_path, capsys):
    report = str(tmp_path / "report.json")
    assert main(["analyze", quartet_file, "--certify", "--out", report]) == 0
    out = capsys.readouterr().out
    assert "verdict: guaranteed_by_topology" in out
    assert "cross-check: converged" in out
    with open(report) as fh:
        data = json.load(fh)
    assert data["verdict"] == "guaranteed_by_topology"
    assert data["bounds_hold"] is True
    assert data["max_mean_error"] < 1e-8


def test_analyze_certify_validates_the_model_once(quartet_file, monkeypatch):
    import gabp.model

    calls = []
    real = gabp.model.validate_model
    monkeypatch.setattr(gabp.model, "validate_model", lambda m: calls.append(1) or real(m))
    assert main(["analyze", quartet_file, "--certify"]) == 0
    assert len(calls) == 1


def test_analyze_divergent_exit_code(divergent_file, capsys):
    assert main(["analyze", divergent_file]) == 4
    assert "diverges_rho_ge_1" in capsys.readouterr().out


def test_analyze_certify_on_a_divergent_model_reports_and_exits_4(divergent_file, tmp_path, capsys):
    report = str(tmp_path / "report.json")
    assert main(["analyze", divergent_file, "--certify", "--out", report]) == 4
    out = capsys.readouterr().out
    assert "cross-check: diverged after" in out and "max mean error" not in out
    with open(report) as fh:
        data = json.load(fh)
    assert data["bp_status"] == "diverged" and data["max_mean_error"] is None


def test_every_command_returns_a_documented_exit_code(divergent_file, quartet_file, nested_obs_file,
                                                      tmp_path):
    paths = [divergent_file, quartet_file, nested_obs_file]
    for label, model in mixed_corpus():
        paths.append(str(tmp_path / f"{label}.json"))
        save_model(model, paths[-1])
    budget = ["--max-iters", "200"]
    commands = [["validate"], ["solve"], ["run"] + budget, ["run", "--schedule", "seq"] + budget,
                ["analyze"], ["analyze", "--certify"]]
    codes = Counter(main(cmd + [path]) for path in paths for cmd in commands)
    assert set(codes) <= set(range(6)) and all(type(c) is int for c in codes)
    assert codes[0] and codes[3] and codes[4]
    # a model with no variables passes validate, so every command handles it
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"variables": [], "factors": []}))
    assert [main(cmd + [str(empty)]) for cmd in commands] == [0] * len(commands)


def test_analyze_writes_dot(quartet_file, tmp_path):
    dot = str(tmp_path / "graph.dot")
    assert main(["analyze", quartet_file, "--dot", dot]) == 0
    text = open(dot).read()
    assert text.count("shape=circle") == 4
    assert text.count("shape=square") == 3


def test_convert_mrf_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(12)
    r = rng.standard_normal((5, 5))
    r = (r + r.T) / 2
    np.fill_diagonal(r, 0.0)
    r *= 0.6 / np.max(np.abs(np.linalg.eigvalsh(np.abs(r))))
    j = np.eye(5) - r
    h = rng.standard_normal(5)
    src = tmp_path / "field.json"
    src.write_text(json.dumps({"J": matrix_to_json(j), "h": list(h)}))
    dst = str(tmp_path / "model.json")
    assert main(["convert-mrf", str(src), "--out", dst]) == 0
    out = capsys.readouterr().out
    assert "walk-summable: yes" in out

    from gabp.io import load_model
    model = load_model(dst)
    assert validate_model(model) == []
    assert model.meta["source"] == "mrf"
    assert "omega" in model.meta


def test_convert_mrf_normalizes_raw_input(tmp_path, capsys):
    j = np.array([[4.0, -0.8], [-0.8, 1.0]])
    src = tmp_path / "raw.json"
    src.write_text(json.dumps({"J": matrix_to_json(j), "h": [1.0, 0.0]}))
    dst = str(tmp_path / "model.json")
    assert main(["convert-mrf", str(src), "--out", dst]) == 0
    from gabp.io import load_model
    model = load_model(dst)
    assert "scale" in model.meta


def test_convert_mrf_rejects_an_empty_field(tmp_path, capsys):
    src = tmp_path / "empty.json"
    src.write_text(json.dumps({"J": {"rows": 0, "cols": 0, "data": []}}))
    dst = tmp_path / "model.json"
    assert main(["convert-mrf", str(src), "--out", str(dst)]) == 2
    assert "input error: J has no rows" in capsys.readouterr().err
    assert not dst.exists()


def test_convert_mrf_rejects_non_walk_summable(tmp_path, capsys):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps({"J": matrix_to_json(QUARTET_J)}))
    assert main(["convert-mrf", str(src)]) == 1
    err = capsys.readouterr()
    assert "walk-summable: no" in err.out
    assert "domain error" in err.err


def test_convert_mrf_eigendecomposes_once_per_walk_summability_check(tmp_path, monkeypatch):
    # the one check inside factor_width_two; the command prints its min_eig
    src = str(tmp_path / "grid.json")
    save_mrf(grid_field(6), np.linspace(-1.0, 1.0, 36), src)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    assert main(["convert-mrf", src, "--out", str(tmp_path / "model.json")]) == 0
    assert len(calls) == 1


def _field(j, h, bad=None):
    j, h = j.copy(), h.copy()
    if bad == "J":
        j[0, 1] = j[1, 0] = np.nan
    if bad == "h":
        h[3] = np.nan
    return {"J": matrix_to_json(j), "h": list(h)}


GRID_LINE = "walk-summable: yes (min eigenvalue of I - |R|: 0.61406848877975739)\n"


@pytest.mark.parametrize("field,flags,out,err", [
    ({"J": matrix_to_json(QUARTET_J)}, [],
     "walk-summable: no (min eigenvalue of I - |R|: -0.075366260062251153)\n",
     "domain error: not walk-summable: min eigenvalue of I - |R| is -0.0753663\n"),
    (_field(grid_field(3), np.linspace(-1.0, 1.0, 9)), ["--omega", "5"],
     GRID_LINE, "domain error: omega must lie in (0, 0.614068), got 5\n"),
    (_field(grid_field(3), np.linspace(-1.0, 1.0, 9), bad="h"), [],
     GRID_LINE, "domain error: h is not finite\n"),
    (_field(grid_field(3), np.linspace(-1.0, 1.0, 9), bad="J"), [],
     "", "domain error: J is not finite\n"),
], ids=["not-walk-summable", "omega-5", "non-finite-h", "non-finite-J"])
def test_convert_mrf_prints_the_verdict_before_a_domain_error(field, flags, out, err, tmp_path, capsys):
    # the walk-summability line is printed whenever the field has a verdict
    src = tmp_path / "field.json"
    src.write_text(json.dumps(field))
    dst = tmp_path / "model.json"
    assert main(["convert-mrf", str(src), *flags, "--out", str(dst)]) == 1
    assert capsys.readouterr() == (out, err)
    assert not dst.exists()


def _poison_coupling(j, h):
    j[0, 1] = j[1, 0] = np.nan


def _poison_diagonal(j, h):
    j[2, 2] = np.inf


def _poison_potential(j, h):
    h[3] = np.nan


@pytest.mark.parametrize("poison,what", [
    (_poison_coupling, "J"), (_poison_diagonal, "J"), (_poison_potential, "h"),
])
def test_convert_mrf_rejects_non_finite_input(poison, what, tmp_path, capsys):
    j, h = grid_field(3), np.ones(9)
    poison(j, h)
    src = tmp_path / "field.json"
    src.write_text(json.dumps({"J": matrix_to_json(j), "h": list(h)}))
    dst = tmp_path / "model.json"
    assert main(["convert-mrf", str(src), "--out", str(dst)]) == 1
    assert f"domain error: {what} is not finite" in capsys.readouterr().err
    assert not dst.exists()


@pytest.mark.parametrize("cmd", [
    ["validate", "{model}", "--dot"], ["solve", "{model}", "--out"], ["run", "{model}", "--out"],
    ["run", "{model}", "--trajectory"], ["analyze", "{model}", "--out"],
    ["analyze", "{model}", "--dot"], ["convert-mrf", "{field}", "--out"],
    ["gen", "--out"], ["gen", "--dot"],
], ids=lambda cmd: f"{cmd[0]} {cmd[-1]}")
def test_an_unwritable_output_path_exits_2_with_one_line(cmd, quartet_file, tmp_path, capsys):
    field = tmp_path / "field.json"
    save_mrf(grid_field(3), np.ones(9), str(field))
    target = tmp_path / "missing" / "out.txt"
    argv = [a.format(model=quartet_file, field=field) for a in cmd] + [str(target)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and str(target) in err and err.count("\n") == 1
    assert not target.parent.exists()


def test_gen_deterministic(tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    assert main(["gen", "--seed", "6", "--agents", "7",
                 "--topology", "forest", "--out", a]) == 0
    assert main(["gen", "--seed", "6", "--agents", "7",
                 "--topology", "forest", "--out", b]) == 0
    assert open(a).read() == open(b).read()
    from gabp.io import load_model
    assert validate_model(load_model(a)) == []


def test_gen_prints_the_topology_it_generated_and_classifies_once(tmp_path, monkeypatch, capsys):
    import gabp.cli
    import gabp.graph
    import gabp.model
    from gabp.graph import classify_topology, leaf_peel
    from gabp.io import load_model

    # random_model classifies once, from the graph's peel; gen classifies nothing again
    calls = []
    monkeypatch.setattr(gabp.graph, "leaf_peel", lambda graph: calls.append("peel") or leaf_peel(graph))
    for module in (gabp.graph, gabp.model, gabp.cli):
        monkeypatch.setattr(module, "classify_topology",
                            lambda graph: calls.append("classify") or classify_topology(graph))
    for topology in ("forest", "single_loop", "multi_loop"):
        path = str(tmp_path / f"{topology}.json")
        calls.clear()
        assert main(["gen", "--seed", "4", "--agents", "6", "--topology", topology, "--out", path]) == 0
        assert calls == ["classify", "peel"], topology
        model = load_model(path)
        topo = classify_topology(build_factor_graph(model))
        assert capsys.readouterr().out == (f"generated {len(model.variables)} agents, "
                                           f"{len(model.factors)} factors, topology {topo.overall}\n"
                                           f"wrote {path}\n")


def test_gen_rejects_a_negative_seed(tmp_path, capsys):
    assert main(["gen", "--seed", "-1", "--out", str(tmp_path / "m.json")]) == 1
    assert "seed must be non-negative, got -1" in capsys.readouterr().err


def test_gen_rejects_a_max_dim_below_one(tmp_path, capsys):
    assert main(["gen", "--max-dim", "0", "--out", str(tmp_path / "m.json")]) == 1
    assert "dims" in capsys.readouterr().err


def test_gen_writes_dot(tmp_path):
    dot = str(tmp_path / "g.dot")
    assert main(["gen", "--seed", "1", "--agents", "4",
                 "--topology", "single_loop", "--dot", dot]) == 0
    assert "graph factor_graph" in open(dot).read()


def test_log_env_var(quartet_file, monkeypatch, capsys):
    monkeypatch.setenv("GABP_LOG", "DEBUG")
    import logging
    root = logging.getLogger()
    old_level, old_handlers = root.level, list(root.handlers)
    try:
        assert main(["run", quartet_file]) == 0
    finally:
        root.setLevel(old_level)
        root.handlers[:] = old_handlers
    # debug logging lands on stderr via basicConfig
    assert "bp iter" in capsys.readouterr().err


def test_log_env_var_bad_level(quartet_file, monkeypatch, capsys):
    monkeypatch.setenv("GABP_LOG", "NOISY")
    import logging
    root = logging.getLogger()
    old_level, old_handlers = root.level, list(root.handlers)
    try:
        assert main(["validate", quartet_file]) == 0
    finally:
        root.setLevel(old_level)
        root.handlers[:] = old_handlers
    assert "unknown GABP_LOG level" in capsys.readouterr().err
