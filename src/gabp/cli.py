"""Command line front end.

Exit codes: 0 success (and converged, for iterative commands), 1 domain
problem (invalid model, non walk-summable field), 2 unreadable or
malformed input or an output path that cannot be written, 3 iteration
budget exhausted, 4 divergence detected, 5 existence violation in
strict mode.

Set GABP_LOG=DEBUG (or INFO, WARNING, ...) to see progress logging.
"""

import argparse
import functools
import logging
import os
import sys

from gabp.analysis import certify, information_fixed_point
from gabp.bp import Belief, BpOptions, run_bp
from gabp.errors import (DomainError, ExistenceViolation, InputFormatError,
                         IterationBudgetError)
from gabp.graph import build_factor_graph, classify_topology
from gabp.io import (belief_rows, fmt, load_custom_init, load_model, load_mrf, save_model,
                     write_beliefs_csv, write_dot, write_json, write_trajectory_csv)
from gabp.model import centralized_solve, random_model, require_valid, validate_model
from gabp.mrf import check_walk_summability, is_normalized, mrf_to_linear_gaussian, normalize_mrf

log = logging.getLogger("gabp")


def _setup_logging():
    level_name = os.environ.get("GABP_LOG")
    if not level_name:
        return
    level = getattr(logging, level_name.upper(), None)
    if not isinstance(level, int):
        print(f"warning: unknown GABP_LOG level {level_name!r}", file=sys.stderr)
        level = logging.INFO
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s",
                        force=True)


def _print_beliefs(rows):
    for row in rows:
        print("agent %s component %s: mean %s variance %s" % row)


def _write(write, obj, path):
    write(obj, path)
    print(f"wrote {path}")


def _print_walk_summability(walk_summable, min_eig):
    print(f"walk-summable: {'yes' if walk_summable else 'no'} "
          f"(min eigenvalue of I - |R|: {fmt(min_eig)})")


def _parse_init(value):
    """The --init strategy name, or the messages loaded from custom:<path>."""
    if value.startswith("custom:"):
        path = value[len("custom:"):]
        if not path:
            raise InputFormatError("--init custom: needs a file path after the colon")
        return load_custom_init(path)
    if value in ("zero", "lower", "upper"):
        return value
    raise InputFormatError(
        f"--init must be zero, lower, upper or custom:<path>, got {value!r}")


def cmd_validate(args):
    model = load_model(args.model)
    problems = validate_model(model)
    if problems:
        for p in problems:
            print(f"problem: {p}")
        print(f"invalid: {len(problems)} problem(s)")
        return 1
    graph = build_factor_graph(model)
    topo = classify_topology(graph)
    print(f"ok: {len(model.variables)} agents, {len(model.factors)} factors, "
          f"topology {topo.overall}, diameter {topo.diameter}")
    if args.dot:
        _write(write_dot, graph, args.dot)
    return 0


def cmd_solve(args):
    model = load_model(args.model)
    require_valid(model)
    sol = centralized_solve(model)
    rows = list(belief_rows({vid: Belief(mean=sol.means[vid], cov=sol.covs[vid]) for vid in sol.means}))
    _print_beliefs(rows)
    if args.out:
        _write(write_beliefs_csv, rows, args.out)
    return 0


def cmd_run(args):
    model = load_model(args.model)
    require_valid(model)
    graph = build_factor_graph(model)
    init = _parse_init(args.init)
    opts = BpOptions(tol_j=args.tol_j, tol_v=args.tol_v, max_iters=args.max_iters,
                     schedule=args.schedule, seed=args.seed, strict=args.strict,
                     record_messages=bool(args.trajectory))

    reference = None
    if args.trajectory:
        try:
            reference = information_fixed_point(model, graph)
        except IterationBudgetError:
            log.warning("fixed point not found within budget; "
                        "trajectory part-metric column left empty")

    result = run_bp(model, graph, init=init, options=opts, reference=reference)
    print(f"status: {result.status} after {result.iterations} iteration(s)")
    rows = [] if result.beliefs is None else list(belief_rows(result.beliefs))
    _print_beliefs(rows)
    if args.trajectory:
        _write(write_trajectory_csv, result.trajectory, args.trajectory)
    if args.out and result.beliefs is not None:
        _write(write_beliefs_csv, rows, args.out)
    if result.status == "converged":
        return 0
    if result.status == "diverged":
        print("message means grew past the divergence guard", file=sys.stderr)
        return 4
    print("iteration budget exhausted before convergence", file=sys.stderr)
    return 3


def cmd_analyze(args):
    model = load_model(args.model)
    report = certify(model, cross_check=args.certify)
    print(f"topology: {report.topology} ({len(report.components)} component(s), "
          f"diameter {report.diameter})")
    print(f"fixed point: {report.fixed_point_iterations} iteration(s), "
          f"bounds {'hold' if report.bounds_hold else 'VIOLATED'}")
    print(f"rho(Q): {fmt(report.rho_q)}")
    print(f"verdict: {report.verdict}")
    print(f"mean recursion: {report.mean_recursion_status} "
          f"after {report.mean_recursion_iterations} iteration(s)")
    if args.certify:
        # a cross-check that did not converge has no mean error
        error = "" if report.max_mean_error is None else \
            f", max mean error {fmt(report.max_mean_error)}"
        print(f"gabp cross-check: {report.bp_status} "
              f"after {report.bp_iterations} iteration(s){error}")
        if report.fitted_rate is not None:
            print(f"fitted contraction rate: {fmt(report.fitted_rate)}")
    for note in report.notes:
        print(f"note: {note}")
    if args.out:
        _write(write_json, report.to_dict(), args.out)
    if args.dot:
        _write(write_dot, build_factor_graph(model), args.dot)
    if report.verdict == "diverges_rho_ge_1":
        return 4
    return 0


def cmd_convert_mrf(args):
    j, h, _meta = load_mrf(args.mrf)
    scale = None
    if not is_normalized(j):
        j, h, scale = normalize_mrf(j, h)
        log.info("rescaled input to unit diagonal")
    try:
        model, fw = mrf_to_linear_gaussian(j, h, omega=args.omega)
    except DomainError:
        # the verdict before the error; a J that has none raises the same error again
        ws = check_walk_summability(j)
        _print_walk_summability(ws.walk_summable, ws.min_eig)
        raise
    _print_walk_summability(True, fw.min_eig)
    if scale is not None:
        model.meta["scale"] = [float(x) for x in scale]
    print(f"omega: {fmt(fw.omega)}")
    print(f"columns: {fw.columns} ({fw.pair_columns} pair, "
          f"{fw.folded_columns} folded into priors)")
    if args.out:
        _write(save_model, model, args.out)
    return 0


def cmd_gen(args):
    model = random_model(seed=args.seed, n_agents=args.agents,
                         dims=(1, args.max_dim), topology=args.topology,
                         coeff_scale=args.coeff_scale, noise_scale=args.noise_scale)
    # random_model has checked that the graph classifies as the request
    topology = "single_loop_plus_forest" if args.topology == "single_loop" else args.topology
    print(f"generated {len(model.variables)} agents, {len(model.factors)} factors, "
          f"topology {topology}")
    if args.out:
        _write(save_model, model, args.out)
    if args.dot:
        _write(write_dot, build_factor_graph(model), args.dot)
    return 0


@functools.cache
def _parser():
    """The argument parser, built once per process: parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="gabp",
        description="Gaussian belief propagation for distributed linear models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model file")
    p.add_argument("model")
    p.add_argument("--dot", help="write the factor graph in DOT format")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="centralized joint estimate")
    p.add_argument("model")
    p.add_argument("--out", help="belief CSV path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("run", help="run message passing")
    p.add_argument("model")
    p.add_argument("--init", default="zero",
                   help="zero, lower, upper or custom:<path> (default zero)")
    defaults = BpOptions()
    p.add_argument("--schedule", default=defaults.schedule, choices=["sync", "seq", "random"])
    p.add_argument("--tol-j", type=float, default=defaults.tol_j)
    p.add_argument("--tol-v", type=float, default=defaults.tol_v)
    p.add_argument("--max-iters", type=int, default=defaults.max_iters)
    p.add_argument("--seed", type=int, default=defaults.seed,
                   help="permutation seed for the random schedule")
    p.add_argument("--strict", action="store_true",
                   help="stop on any existence violation or non-pd message")
    p.add_argument("--out", help="belief CSV path")
    p.add_argument("--trajectory", help="per-edge trajectory CSV path")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("analyze", help="convergence analysis")
    p.add_argument("model")
    p.add_argument("--certify", action="store_true",
                   help="also run message passing and cross-check the means")
    p.add_argument("--out", help="report JSON path")
    p.add_argument("--dot", help="write the factor graph in DOT format")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("convert-mrf", help="turn a scalar MRF into a model file")
    p.add_argument("mrf")
    p.add_argument("--omega", type=float, default=None,
                   help="diagonal shift (default half the walk-summability margin)")
    p.add_argument("--out", help="model JSON path")
    p.set_defaults(func=cmd_convert_mrf)

    p = sub.add_parser("gen", help="generate a random model file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--agents", type=int, default=8)
    p.add_argument("--topology", default="multi_loop",
                   choices=["forest", "single_loop", "multi_loop"])
    p.add_argument("--max-dim", type=int, default=3)
    p.add_argument("--coeff-scale", type=float, default=1.0)
    p.add_argument("--noise-scale", type=float, default=1.0)
    p.add_argument("--out", help="model JSON path")
    p.add_argument("--dot", help="write the factor graph in DOT format")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None):
    _setup_logging()
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ExistenceViolation as exc:
        print(f"existence violation: {exc}", file=sys.stderr)
        return 5
    except IterationBudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
