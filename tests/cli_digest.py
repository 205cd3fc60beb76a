"""One sha256 per gabp CLI command over a fixed set of model files.

Run from the repository root:

    python tests/cli_digest.py digests.json [--src DIR]

Each digest covers the command's exit code, stdout, stderr and every file
it writes, so two source trees that give the same digests for a command
answer it byte for byte alike. --src picks the gabp sources (default: the
src directory next to tests/); the corpora come from tests/corpus.py. The
commands run in this process, in a temporary directory, on relative paths,
with one BLAS thread. A command that raises is digested by the
exception's type and message in place of an exit code.

Commands per model: validate; solve --out; run with --trajectory and
--out under --init lower, --schedule seq, --schedule random --seed 5 and
--strict; analyze --certify --out. Models: the 18 cli-mixed models, the
480-agent model, the mixed corpus, the converted 10x10 grid, the
cli-mixed models with every id moved up by 2^70, and one file whose
coefficient keys name a variable twice.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GABP_LOG", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

TESTS = os.path.dirname(os.path.abspath(__file__))
RUNS = {"run-lower": ["--init", "lower"], "run-seq": ["--schedule", "seq"],
        "run-random": ["--schedule", "random", "--seed", "5"], "run-strict": ["--strict"]}


def model_files(where):
    """Write the models into where; returns their file names in a fixed order."""
    import numpy as np

    from corpus import cli_mixed_models, grid_field, mixed_corpus, relabelled
    from gabp.io import model_to_json, save_model
    from gabp.model import random_model
    from gabp.mrf import mrf_to_linear_gaussian

    models = cli_mixed_models() + [("bench-480", random_model(seed=1, n_agents=480, topology="multi_loop"))]
    models += list(mixed_corpus())
    models.append(("grid-10", mrf_to_linear_gaussian(grid_field(10), np.linspace(-1.0, 1.0, 100))[0]))
    models += [(f"{label}-ids-2^70", relabelled(m, 2 ** 70)) for label, m in cli_mixed_models()]
    names = []
    for label, model in models:
        names.append(f"{label}.json")
        save_model(model, os.path.join(where, names[-1]))
    dup = model_to_json(models[0][1])
    coeff = dup["factors"][0]["coeff"]
    key = next(iter(coeff))
    coeff["0" + key] = dict(coeff[key], data=[2.0 * x for x in coeff[key]["data"]])  # the same id again
    names.append("duplicate-coeff-key.json")
    with open(os.path.join(where, names[-1]), "w") as fh:
        json.dump(dup, fh)
    return names


def digest(argv):
    """sha256 over main(argv)'s exit code (or exception), stdout, stderr and the files it wrote."""
    from gabp.cli import main

    before = set(os.listdir("."))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = repr(main(argv))
        except Exception as exc:  # a crash is a result to compare, not a reason to stop
            code = f"{type(exc).__name__}: {exc}"
    h = hashlib.sha256()
    for part in (code, out.getvalue(), err.getvalue()):
        h.update(part.encode() + b"\0")
    for name in sorted(set(os.listdir(".")) - before):
        with open(name, "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read() + b"\0")
        os.remove(name)
    return h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="JSON file of digests by command")
    parser.add_argument("--src", default=os.path.join(os.path.dirname(TESTS), "src"))
    args = parser.parse_args(argv)
    out = os.path.abspath(args.out)
    sys.path[:0] = [os.path.abspath(args.src), TESTS]

    digests = {}
    with tempfile.TemporaryDirectory() as models, tempfile.TemporaryDirectory() as work:
        names = model_files(models)
        os.chdir(work)
        for name in names:
            os.symlink(os.path.join(models, name), name)
            commands = {"validate": ["validate", name], "solve": ["solve", name, "--out", "beliefs.csv"],
                        "analyze": ["analyze", name, "--certify", "--out", "report.json"]}
            commands.update({label: ["run", name, *flags, "--trajectory", "trajectory.csv", "--out", "beliefs.csv"]
                             for label, flags in RUNS.items()})
            for label, command in commands.items():
                digests[f"{name} {label}"] = digest(command)
            os.remove(name)
    with open(out, "w") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
