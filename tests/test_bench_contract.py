"""The benchmark's tracer wraps gabp functions by name, and its probes read their results."""

import importlib
import importlib.util
import inspect
from collections import defaultdict
from pathlib import Path

import numpy as np

from conftest import quartet_model
from corpus import cli_mixed_models, grid_field, loopy_corpus
from gabp.analysis import certify
from gabp.bp import BpOptions, run_bp
from gabp.cli import main
from gabp.graph import build_factor_graph
from gabp.io import save_model, write_trajectory_csv
from gabp.mrf import mrf_to_linear_gaussian

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_target_is_a_gabp_function():
    # Tracer.installed getattr's each target, so a deleted one breaks `bench/run.py --trace 1`
    tracing = load_tracing()
    assert tracing.TARGETS
    for layer, func in tracing.TARGETS:
        assert layer in tracing.LAYERS, layer
        fn = getattr(importlib.import_module(f"gabp.{layer}"), func, None)
        assert callable(fn), f"gabp.{layer}.{func}"


def test_the_probes_read_rows_trajectory_bytes_and_columns(tmp_path):
    # bp.trajectory_rows, io.trajectory_bytes and mrf.columns would read 0 if these moved
    tracing = load_tracing()
    model = quartet_model()
    g = build_factor_graph(model)
    res = run_bp(model, g, options=BpOptions(record_messages=True))
    counts = defaultdict(int)
    tracing.PROBES["bp.run_bp"](counts, (model, g), {}, res)
    assert counts["bp.trajectory_rows"] == len(res.trajectory.rows) == \
        res.iterations * (len(g.f2v_edges) + len(g.v2f_edges)) > 0

    params = list(inspect.signature(write_trajectory_csv).parameters.values())
    assert params[1].kind == inspect.Parameter.POSITIONAL_OR_KEYWORD
    path = tmp_path / "traj.csv"
    write_trajectory_csv(res.trajectory, str(path))
    tracing.PROBES["io.write_trajectory_csv"](counts, (res.trajectory, str(path)), {}, None)
    assert counts["io.trajectory_bytes"] == path.stat().st_size > 0

    result = mrf_to_linear_gaussian(grid_field(4), np.ones(16))
    tracing.PROBES["mrf.mrf_to_linear_gaussian"](counts, (grid_field(4),), {}, result)
    info = result[1]
    assert counts["mrf.columns"] == info.columns == info.pair_columns + info.folded_columns == 40


def test_certify_records_its_exact_mean_check_as_a_centralized_solve_span(tmp_path, capsys):
    # model.centralized_solve_s sums these spans, so it times certify's mean check
    tracing = load_tracing()
    path = str(tmp_path / "model.json")
    save_model(cli_mixed_models()[0][1], path)
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.operation(0):
        assert main(["analyze", "--certify", path]) == 0
    assert "gabp cross-check: converged" in capsys.readouterr().out
    names = [name for name, *_ in tracer.spans]
    solves = [parent for name, _, _, parent, _ in tracer.spans if name == "model.centralized_solve"]
    assert len(solves) == 1 and names[solves[0]] == "analysis.certify"


def test_the_rho_oracle_reads_the_radius_certify_reports(tmp_path, monkeypatch):
    # the benchmark's rho check takes dense eigvals of assemble_q(...).q against the reported rho
    monkeypatch.syspath_prepend(str(TRACING.parent))
    oracles = importlib.import_module("oracles")
    for label, model in [cli_mixed_models()[2], ("loopy-30", loopy_corpus()[30])]:
        path = str(tmp_path / f"{label}.json")
        save_model(model, path)
        rho = certify(model).rho_q
        assert rho > 0.0, label
        got = oracles.dense_radius(oracles.assembled_q(path))
        assert abs(got - rho) <= oracles.RHO_TOL * max(1.0, rho), label


def test_run_and_certify_load_and_validate_the_model_once(tmp_path, capsys):
    # io.load_model_s and model.validate_s read 0 if a command stops calling the wrapped functions
    tracing = load_tracing()
    path = str(tmp_path / "model.json")
    save_model(cli_mixed_models()[0][1], path)
    for argv in (["run", path, "--init", "lower"], ["analyze", "--certify", path]):
        tracer = tracing.Tracer()
        with tracer.installed(), tracer.operation(0):
            assert main(argv) == 0
        names = [name for name, *_ in tracer.spans]
        assert names.count("io.load_model") == names.count("model.validate_model") == 1, argv
