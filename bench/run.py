"""Benchmark of the gabp CLI: ``analyze --certify``, ``run`` and ``convert-mrf``.

Run from the repository root:

    python3 bench/run.py --workload cli-mixed --seed 1 --seconds 45 --trace 0

Workloads: certify-large and cli-mixed (see bench/DESIGN.md). The
operations are ``gabp.cli.main([...])`` calls made in this process on files
generated from ``--seed``. Every output is checked against independent
oracles. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced pass with ``--trace 1``.
Details and spans go to ``.bench_work/results/``.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("certify-large", "cli-mixed")
# One BLAS thread. The timed operations are bound by Python and small
# numpy calls, and take the same time with two threads; one thread keeps
# a run off the second CPU, where other load makes timings drift. Only
# the power-iteration defect measurement slows, from about 12 s to 25-31 s.
MAX_BLAS_THREADS = 1


def pin_blas_threads():
    """Fix the BLAS thread count; must run before numpy is imported."""
    threads = max(1, min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    os.environ.pop("GABP_LOG", None)
    return threads


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gabp", "cli.py")):
        print(f"error: no gabp sources under {src}", file=sys.stderr)
        return 2
    threads = pin_blas_threads()
    sys.path.insert(0, src)

    import harness

    result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  ROOT, threads)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
