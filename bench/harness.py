"""One benchmark run: set up, time rounds of CLI operations, check, report.

A round executes every operation of the workload in order. Untraced runs
repeat full rounds within ``seconds`` and give the end-to-end metrics over
each operation's median sample. Traced runs make one untraced and one
traced round and give the per-layer metrics; the difference of the two
round times is the tracing overhead. Traced runs also measure the
workload's known defect on its own input, outside the timed rounds.
"""

import contextlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

import numpy as np
import scipy
from gabp.cli import main as gabp_main

import oracles
import workloads
from tracing import LAYERS, Tracer

SETUP_REPEATS = 3
# Calibration: a fixed kernel is timed every CAL_INTERVAL_S of wall time
# while the rounds run. The host's speed changes within seconds and drifts
# by 20-50 % over minutes, and the kernel's time follows it; operation
# times are scaled to the speed at which the mean sample takes
# CAL_REFERENCE_S (see bench/DESIGN.md).
CAL_INTERVAL_S = 0.2
CAL_REFERENCE_S = 0.002


@contextlib.contextmanager
def captured_output():
    """Capture the CLI's printing so the benchmark's stdout stays its own."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        yield sink


def call_cli(argv):
    """Exit code of one in-process CLI call; None if it raised."""
    try:
        return gabp_main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception:  # a crashing operation is a failed operation, not the end of the run
        print(f"operation {' '.join(argv)} crashed:", file=sys.__stderr__)
        traceback.print_exc(file=sys.__stderr__)
        return None


def _time_import(root):
    """Wall time of a fresh interpreter that imports gabp."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import gabp"], env=env, cwd=root,
                   check=True, timeout=120)
    return time.perf_counter() - start


def set_up(name, seed, workdir, root, scale):
    """Import and input generation, repeated; returns (inputs, setup times)."""
    times = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        elapsed = _time_import(root)
        start = time.perf_counter()
        inputs = workloads.generate(name, seed, workdir, scale)
        times.append(elapsed + time.perf_counter() - start)
    return inputs, times


def calibration_sample():
    """Seconds of a fixed mix of dict updates, integer arithmetic and 3x3 solves.

    The mix is that of the engine: Python bookkeeping around small numpy
    calls. It calls no gabp code, so a change to gabp cannot move it.
    """
    start = time.perf_counter()
    table = {}
    total = 0
    for k in range(7500):
        table[k % 101] = total
        total += k * k
    a = np.arange(9.0).reshape(3, 3) + 10.0 * np.eye(3)
    for _ in range(75):
        np.linalg.solve(a, a[0])
    return time.perf_counter() - start


class Calibration:
    """Kernel samples taken from a SIGALRM handler at a fixed wall-time pace.

    The samples are spread evenly over the time the operations run, inside
    them as well as between them. ``spent`` is the wall time the handler
    took, which run_round takes off the operation it interrupted.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, _signum, _frame):
        start = time.perf_counter()
        self.samples.append(calibration_sample())
        self.spent += time.perf_counter() - start

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def run_round(ops, tracer=None, cal=None):
    """Execute [(index, op)] in order; returns [(index, op, exit code, seconds)], wall time."""
    records = []
    start = time.perf_counter()
    for k, op in ops:
        os.makedirs(os.path.dirname(op.out), exist_ok=True)
        span = tracer.operation(k) if tracer else contextlib.nullcontext()
        with captured_output():
            spent = cal.spent if cal else 0.0
            t0 = time.perf_counter()
            with span:
                rc = call_cli(op.argv)
            dt = time.perf_counter() - t0 - ((cal.spent - spent) if cal else 0.0)
        records.append((k, op, rc, dt))
    return records, time.perf_counter() - start


def run_rounds(name, inputs, workdir, seconds):
    """Untraced full rounds within ``seconds``, at least one.

    A round starts only if it would end in time at the pace of the slowest
    round so far, so a run measures at most ``seconds`` unless its first
    round alone is longer. Returns every record, the number of rounds, the
    calibration samples and the peak memory after the first round: later
    rounds raise the peak a little, and their number varies with the
    host's speed.
    """
    records = []
    cal = Calibration()
    rounds = 0
    slowest = 0.0
    started = time.perf_counter()
    with cal.running():
        while rounds == 0 or time.perf_counter() - started + slowest <= seconds:
            ops = workloads.operations(name, inputs, os.path.join(workdir, f"round{rounds}"))
            got, wall = run_round(list(enumerate(ops)), cal=cal)
            records += got
            slowest = max(slowest, wall)
            if rounds == 0:
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            rounds += 1
    return records, rounds, cal.samples, rss_mb


def check_all(records):
    """Oracle results over every executed operation."""
    refs = oracles.References()
    failed_ops = 0
    failed_checks = Counter()
    worst = Counter()
    for _k, op, rc, _dt in records:
        results = oracles.check_op(op, rc, refs)
        bad = [name for name, ok, _err in results if not ok]
        failed_ops += bool(bad)
        failed_checks.update(bad)
        for name, _ok, err in results:
            if math.isfinite(err):  # unreadable outputs are counted under "outputs"
                worst[name] = max(worst[name], err)
        if bad:
            print(f"failed: {' '.join(op.argv[:1])} {os.path.basename(op.out)}: "
                  f"{', '.join(bad)}", file=sys.stderr)
    return failed_ops, failed_checks, worst


def end_to_end(records, setup_times, rss_mb, speed=1.0):
    """Metrics over each operation's median sample; wall_s sums them into one round.

    The median, unlike the minimum, does not drift with the number of rounds,
    which varies with the host's speed and with the speed of the code.
    Operation times are multiplied by ``speed``, in reference seconds;
    set-up time is reported as measured.
    """
    samples = {}
    kind = {}
    for k, op, _rc, dt in records:
        samples.setdefault(k, []).append(dt)
        kind[k] = op.kind
    per_op = {k: speed * statistics.median(v) for k, v in samples.items()}
    times = list(per_op.values())
    by_kind = {name: [t for k, t in per_op.items() if kind[k] == name]
               for name in ("run", "certify")}
    return {
        "wall_s": (sum(times), "ref_s"),
        "op_p50_s": (statistics.median(times), "ref_s"),
        "op_p90_s": (float(np.percentile(times, 90)), "ref_s"),
        "run_p50_s": (statistics.median(by_kind["run"]), "ref_s"),
        "certify_p50_s": (statistics.median(by_kind["certify"]), "ref_s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def measure_defects(name, seed, workdir, scale):
    """Size of the known defect on the workload's defect input, outside timing.

    Returns {metric: (value, unit)} for every defect metric; a workload
    without the defect's input reports 0 for it.
    """
    values = {"defect.power_iteration_s": (0.0, "s"),
              "defect.power_iteration_rho_abs_err": (0.0, "1"),
              "defect.width_two_precision_abs_err": (0.0, "1")}
    inputs = workloads.defect_inputs(name, seed, workdir, scale)
    if name == "certify-large":
        from gabp.numerics import spectral_radius

        q = oracles.assembled_q(inputs["model"])
        start = time.perf_counter()
        rho = spectral_radius(q)
        elapsed = time.perf_counter() - start
        values["defect.power_iteration_s"] = (elapsed, "s")
        values["defect.power_iteration_rho_abs_err"] = (abs(rho - oracles.dense_radius(q)), "1")
    elif name == "cli-mixed":
        converted = os.path.join(workdir, "defect_field_model.json")
        with captured_output():
            rc = call_cli(["convert-mrf", inputs["field"], "--out", converted])
        err = oracles.check_conversion(converted, *inputs["mrf"])[0][2] if rc == 0 else math.inf
        values["defect.width_two_precision_abs_err"] = (err, "1")
    return values


def per_layer(tracer, n_ops, traced_wall, untraced_wall, failed_ops, attempted,
              failed_checks, worst):
    """{name: (value, unit)} from the traced pass and the oracle results."""
    s = tracer.summarize()
    total, own, counts = s["total"], s["self"], tracer.counts

    def t(*names):
        return (sum(total.get(name, 0.0) for name in names), "s")

    q_dim = counts["analysis.q_dim"]
    edge_updates = counts["bp.edge_updates"]
    values = {
        "numerics.spectral_radius_s": t("numerics.spectral_radius"),
        "numerics.rho_abs_err": (worst["rho"], "1"),
        "analysis.assemble_q_self_s": (own.get("analysis.assemble_q", 0.0), "s"),
        "analysis.q_dim": (q_dim, "count"),
        "analysis.q_nnz_frac": (counts["analysis.q_nnz"] / q_dim ** 2 if q_dim else 0.0, "1"),
        "analysis.q_dense_bytes": (q_dim * q_dim * 8, "B"),
        "analysis.compute_bounds_s": t("analysis.compute_bounds"),
        "analysis.fixed_point_s": t("analysis.information_fixed_point"),
        "analysis.fixed_point_iters": (counts["analysis.fixed_point_iters"], "count"),
        "analysis.mean_recursion_s": t("analysis.two_phase_mean_recursion"),
        "analysis.mean_recursion_iters": (counts["analysis.mean_recursion_iters"], "count"),
        "analysis.fit_rate_s": t("analysis.fit_contraction_rate"),
        "bp.run_s": t("bp.run_bp"),
        "bp.iters": (counts["bp.iters"], "count"),
        "bp.edge_updates": (edge_updates, "count"),
        "bp.us_per_edge_update": (1e6 * own.get("bp.run_bp", 0.0) / edge_updates
                                  if edge_updates else 0.0, "us"),
        "bp.converged_ratio": (counts["bp.converged"] / counts["bp.calls"]
                               if counts["bp.calls"] else 0.0, "1"),
        "bp.reference_metric_s": (s["reference_metric"], "s"),
        "bp.trajectory_rows": (counts["bp.trajectory_rows"], "count"),
        "io.trajectory_bytes": (counts["io.trajectory_bytes"], "B"),
        "graph.build_s": t("graph.build_factor_graph"),
        "graph.classify_topology_s": t("graph.classify_topology"),
        "io.load_model_s": t("io.load_model"),
        "io.save_model_s": t("io.save_model"),
        "io.write_csv_s": t("io.write_beliefs_csv", "io.write_trajectory_csv"),
        "io.model_bytes": (counts["io.model_bytes"], "B"),
        "model.validate_s": t("model.validate_model"),
        "model.centralized_solve_s": t("model.centralized_solve"),
        "mrf.walk_summability_s": t("mrf.check_walk_summability"),
        "mrf.convert_s": t("mrf.mrf_to_linear_gaussian"),
        "mrf.columns": (counts["mrf.columns"], "count"),
        "mrf.precision_abs_err": (worst["mrf_precision"], "1"),
        "cli.other_s": (own.get("cli.main", 0.0), "s"),
        "cli.ops": (n_ops, "count"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.spans": (len(tracer.spans), "count"),
        "fail_ratio": (failed_ops / attempted, "1"),
        "oracle.means_max_err": (worst["means"], "1"),
        "oracle.mrf_means_max_err": (worst["mrf_means"], "1"),
    }
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = (s["layer_self"][layer], "s")
    for check in oracles.CHECKS:
        values[f"oracle.{check}_failed"] = (failed_checks[check], "count")
    return values, s


def environment(seed, blas_threads):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": openblas, "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)), "blas_threads": blas_threads,
        "seed": seed,
    }


def run_workload(name, seed, seconds, trace, root, blas_threads, scale="full"):
    """Run one workload; returns the result object printed as the last line."""
    workdir = os.path.join(root, ".bench_work", f"{name}-seed{seed}-pid{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        inputs, setup_times = set_up(name, seed, workdir, root, scale)
        if trace:
            every_op = [
                list(enumerate(workloads.operations(name, inputs, os.path.join(workdir, label))))
                for label in ("untraced", "traced")]
            records, untraced_wall = run_round(every_op[0])
            rounds = 1
            tracer = Tracer()
            with tracer.installed():
                got, traced_wall = run_round(every_op[1], tracer)
            untraced_ops = len(records)
            records += got
            defects = measure_defects(name, seed, workdir, scale)
            cal = []
        else:
            records, rounds, cal, rss_mb = run_rounds(name, inputs, workdir, seconds)
            untraced_ops = len(records)
        failed_ops, failed_checks, worst = check_all(records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(records)
    if trace:
        metrics, summary = per_layer(tracer, len(got), traced_wall, untraced_wall,
                                     failed_ops, attempted, failed_checks, worst)
        metrics.update(defects)
    else:
        speed = CAL_REFERENCE_S / statistics.fmean(cal)
        metrics = end_to_end(records, setup_times, rss_mb, speed)
        measured = end_to_end(records, setup_times, rss_mb)
    result = {
        "correct": failed_ops == 0,
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": {k: {"value": float(v), "unit": unit} for k, (v, unit) in metrics.items()},
    }
    details = {
        "workload": name, "seconds": seconds, "trace": trace,
        "environment": environment(seed, blas_threads),
        "rounds": rounds, "setup_s": setup_times, "op_samples_untraced": untraced_ops,
        "failed_checks": dict(failed_checks), "max_errors": dict(worst),
        "op_times_s": [[k, op.kind, os.path.basename(op.out), dt] for k, op, _rc, dt in records],
        "result": result, "calibration_s": cal,
    }
    if not trace:
        details.update(speed=speed, measured={k: v for k, (v, _unit) in measured.items()})
    results_dir = os.path.join(root, ".bench_work", "results")
    os.makedirs(results_dir, exist_ok=True)
    tag = f"{name}-seed{seed}" + ("-trace" if trace else "")
    if scale != "full":
        tag += f"-{scale}"
    if trace:
        layers = sorted(summary["layer_self"].items(), key=lambda kv: -kv[1])
        details.update(layer_self_s=dict(layers), span_totals_s=summary["total"],
                       span_self_s=summary["self"], span_calls=summary["calls"])
        tracer.write(os.path.join(results_dir, f"SPANS_{tag}.csv"))
    with open(os.path.join(results_dir, f"BENCH_{tag}.json"), "w") as fh:
        json.dump(details, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print("env: " + json.dumps(details["environment"], sort_keys=True))
    print(f"operations: {attempted} ({untraced_ops} untraced in {rounds} round(s)), "
          f"failed: {failed_ops}, failed checks: {dict(failed_checks) or 'none'}")
    if not trace:
        print(f"calibration: mean of {len(cal)} samples {statistics.fmean(cal) * 1e3:.3f} ms, "
              f"reference {CAL_REFERENCE_S * 1e3:.3f} ms; operation times as measured: "
              + ", ".join(f"{k} {measured[k][0]:.4f} s" for k in metrics if k.endswith("_s")
                          and k != "setup_s"))
    if trace:
        print("self time by layer: " + ", ".join(f"{layer} {sec:.3f} s" for layer, sec in layers)
              + f" (traced round {traced_wall:.3f} s)")
    return result
