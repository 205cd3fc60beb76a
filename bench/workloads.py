"""The benchmark's workloads: input generation and the CLI operations of a round.

The model structure of every workload is fixed, so each run does the same
amount of work; ``--seed`` draws the numbers that do not change the work:
the observations of the random models and the potential h of the grid
field. (A, R, W), and with them J*, Q and rho(Q), are the same for every
seed.

Every timed operation is one the seed code answers correctly. The two
known defects are kept in view by the defect inputs below, which traced
runs measure outside the timed operations (see ``defect_inputs``).

``scale="tiny"`` shrinks every workload for the self-check.
"""

import os
from dataclasses import dataclass

import numpy as np

from gabp.io import save_model, save_mrf
from gabp.model import random_model

# Random-model seed of certify-large: Q has dimension 1990 at 480 agents,
# just below gabp's dense eigensolver limit of 2000, and 2117 at 520
# agents, the size of the power-iteration defect input.
CERTIFY_MODEL_SEED = 1
# Coupling seed of the grid fields. At side 20 it is the field the
# width-two defect was sized on: min eigenvalue of I - |R| 0.458,
# omega 0.229, 50 of 400 surplus rows dropped. At side 10 the
# conversion is exact.
GRID_COUPLING_SEED = 0
GRID_COUPLING = 0.22
TOPOLOGIES = ("forest", "single_loop", "multi_loop")

SIZES = {
    "full": {"certify_agents": 480, "mixed_models": 18, "mixed_agents": (8, 24),
             "grid_side": 10, "defect_agents": 520, "defect_grid_side": 20},
    "tiny": {"certify_agents": 12, "mixed_models": 3, "mixed_agents": (4, 7),
             "grid_side": 3, "defect_agents": 14, "defect_grid_side": 4},
}


@dataclass
class Op:
    """One ``gabp.cli.main`` call and what its outputs are checked against."""

    kind: str             # "run", "certify" or "convert"
    argv: list
    out: str              # beliefs CSV, report JSON or converted model
    model: str = None     # model file the operation reads
    trajectory: str = None
    mrf: tuple = None     # (J, h) of the source field, for the grid operations


def _redraw_obs(model, rng):
    for f in model.factors:
        f.obs = rng.standard_normal(f.obs_dim)


def grid_field(side, seed):
    """Unit-diagonal 4-neighbour grid J with couplings uniform in +-0.22, and h."""
    n = side * side
    j = np.eye(n)
    rng = np.random.default_rng(GRID_COUPLING_SEED)
    for r in range(side):
        for c in range(side):
            i = r * side + c
            for k in ((i + side) if r + 1 < side else None,
                      (i + 1) if c + 1 < side else None):
                if k is not None:
                    j[i, k] = j[k, i] = rng.uniform(-GRID_COUPLING, GRID_COUPLING)
    h = np.random.default_rng(seed).standard_normal(n)
    return j, h


def generate(name, seed, workdir, scale="full"):
    """Write the workload's input files into workdir; return what ops need."""
    size = SIZES[scale]
    rng = np.random.default_rng(seed)
    if name == "certify-large":
        model = random_model(seed=CERTIFY_MODEL_SEED, n_agents=size["certify_agents"],
                             topology="multi_loop")
        _redraw_obs(model, rng)
        path = os.path.join(workdir, "model.json")
        save_model(model, path)
        return {"model": path}
    if name == "cli-mixed":
        count = size["mixed_models"]
        lo, hi = size["mixed_agents"]
        paths = []
        for k in range(count):
            agents = lo + round((hi - lo) * k / max(1, count - 1))
            model = random_model(seed=k + 1, n_agents=agents,
                                 dims=(1, 1 + (k // 3) % 3), topology=TOPOLOGIES[k % 3])
            _redraw_obs(model, rng)
            path = os.path.join(workdir, f"model{k:02d}.json")
            save_model(model, path)
            paths.append(path)
        j, h = grid_field(size["grid_side"], seed)
        field = os.path.join(workdir, "field.json")
        save_mrf(j, h, field)
        return {"models": paths, "field": field, "mrf": (j, h)}
    raise ValueError(f"unknown workload {name!r}")


def defect_inputs(name, seed, workdir, scale="full"):
    """Inputs of the known defect a traced run measures, or None.

    certify-large: the model whose Q (dimension 2117) is just above the
    dense limit, where gabp's power iteration returns 0.2410 against 0.2255.
    cli-mixed: the 20x20 grid field whose width-two conversion drops the
    diagonal surplus on 50 of 400 rows.
    """
    size = SIZES[scale]
    if name == "certify-large":
        model = random_model(seed=CERTIFY_MODEL_SEED, n_agents=size["defect_agents"],
                             topology="multi_loop")
        path = os.path.join(workdir, "defect_model.json")
        save_model(model, path)
        return {"model": path}
    if name == "cli-mixed":
        j, h = grid_field(size["defect_grid_side"], seed)
        path = os.path.join(workdir, "defect_field.json")
        save_mrf(j, h, path)
        return {"field": path, "mrf": (j, h)}
    return None


def operations(name, inputs, outdir):
    """The operations of one round, writing into outdir."""
    def out(fname):
        return os.path.join(outdir, fname)

    if name == "certify-large":
        model = inputs["model"]
        return [
            Op("run", ["run", model, "--init", "lower", "--out", out("beliefs.csv")],
               out("beliefs.csv"), model=model),
            Op("certify", ["analyze", "--certify", model, "--out", out("report.json")],
               out("report.json"), model=model),
        ]
    if name == "cli-mixed":
        models = inputs["models"]
        # Models run in a fixed shuffled order, not by size, so that the
        # operations near any percentile are spread over the whole run.
        ops = []
        for k in np.random.default_rng(0).permutation(len(models)):
            model = models[k]
            ops += [
                Op("run", ["run", model, "--init", "lower", "--out", out(f"sync{k:02d}.csv")],
                   out(f"sync{k:02d}.csv"), model=model),
                Op("run", ["run", model, "--init", "lower", "--schedule", "seq",
                           "--out", out(f"seq{k:02d}.csv")],
                   out(f"seq{k:02d}.csv"), model=model),
                Op("certify", ["analyze", "--certify", model,
                               "--out", out(f"report{k:02d}.json")],
                   out(f"report{k:02d}.json"), model=model),
            ]
        mrf = inputs["mrf"]
        grid = out("field_model.json")
        # A plain run of the grid is left out: it repeats the BP work of the
        # trajectory run, and a round has no room for it.
        return ops + [
            Op("convert", ["convert-mrf", inputs["field"], "--out", grid], grid, mrf=mrf),
            Op("run", ["run", grid, "--init", "lower", "--trajectory", out("traj.csv"),
                       "--out", out("grid_traj.csv")],
               out("grid_traj.csv"), model=grid, trajectory=out("traj.csv"), mrf=mrf),
        ]
    raise ValueError(f"unknown workload {name!r}")
