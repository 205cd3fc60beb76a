"""Self-check of the benchmark at tiny sizes (not part of the test suite).

    python3 bench/selfcheck.py

1. Every workload, untraced and traced, emits exactly the metrics that
   BENCHMARK.json names, each with its unit and a finite value.
2. Each oracle accepts a correct output and flags a corrupted one: a
   perturbed beliefs CSV, a wrong rho_q in a certify report, and a
   converted model with one altered prior.

Exits 0 when every check holds, 1 otherwise.
"""

import contextlib
import io
import json
import math
import os
import shutil
import sys

import run


def expect(failures, cond, what):
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        failures.append(what)


def check_metrics(failures, harness, spec, threads):
    for workload in run.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            with contextlib.redirect_stdout(io.StringIO()):
                result = harness.run_workload(workload, 1, 0, trace, run.ROOT, threads,
                                              scale="tiny")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            label = f"{workload} trace={int(trace)}"
            expect(failures, got == want, f"{label}: {key} metric names and units")
            expect(failures, all(math.isfinite(m["value"]) for m in result["metrics"].values()),
                   f"{label}: metric values finite")
            expect(failures, set(result) == {"correct", "attempted", "failed", "metrics"}
                   and result["attempted"] >= 1, f"{label}: result keys and attempted")


def rewrite_json(path, change):
    with open(path) as fh:
        obj = json.load(fh)
    change(obj)
    with open(path, "w") as fh:
        json.dump(obj, fh)


def failed(results):
    return {name for name, ok, _err in results if not ok}


def check_oracles(failures, workdir):
    import oracles
    import workloads
    from harness import call_cli, captured_output

    refs = oracles.References()
    inputs = workloads.generate("cli-mixed", 1, workdir, "tiny")
    model = inputs["models"][-1]

    beliefs = os.path.join(workdir, "beliefs.csv")
    with captured_output():
        rc = call_cli(["run", model, "--init", "lower", "--out", beliefs])
    expect(failures, rc == 0 and not failed(oracles.check_beliefs(beliefs, refs, model)),
           "means oracle accepts the run's beliefs")
    with open(beliefs) as fh:
        lines = fh.read().splitlines()
    fields = lines[1].split(",")
    fields[2] = repr(float(fields[2]) + 1e-3)
    lines[1] = ",".join(fields)
    with open(beliefs, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    expect(failures, "means" in failed(oracles.check_beliefs(beliefs, refs, model)),
           "means oracle flags a perturbed beliefs CSV")

    report = os.path.join(workdir, "report.json")
    with captured_output():
        rc = call_cli(["analyze", "--certify", model, "--out", report])
    expect(failures, rc == 0 and not failed(oracles.check_report(report, refs, model)),
           "report oracles accept the certify report")
    rewrite_json(report, lambda r: r.update(rho_q=r["rho_q"] + 0.01))
    expect(failures, failed(oracles.check_report(report, refs, model)) == {"rho"},
           "rho oracle flags a wrong rho_q")

    converted = os.path.join(workdir, "field_model.json")
    with captured_output():
        rc = call_cli(["convert-mrf", inputs["field"], "--out", converted])
    ok = not failed(oracles.check_conversion(converted, *inputs["mrf"]))
    expect(failures, rc == 0 and ok, "precision oracle accepts the converted model")

    def alter_prior(obj):
        obj["variables"][0]["prior_cov"]["data"][0] *= 1.1

    rewrite_json(converted, alter_prior)
    flagged = failed(oracles.check_conversion(converted, *inputs["mrf"]))
    expect(failures, "mrf_precision" in flagged,
           "precision oracle flags a converted model with one altered prior")


def main():
    threads = run.pin_blas_threads()
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import harness

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workdir = os.path.join(run.ROOT, ".bench_work", f"selfcheck-pid{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    failures = []
    try:
        check_metrics(failures, harness, spec, threads)
        check_oracles(failures, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
