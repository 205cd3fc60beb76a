"""sha256 digests of gabp CLI commands over a fixed set of model files.

Run from the repository root:

    python tests/cli_digest.py digests.json [--src DIR] [--compare OLD.json]

Each command gets one digest of its console part (exit code, stdout and
stderr) and one of each file it writes; a CSV file also gets one per
column and a JSON object file one per top-level key, so two source trees
whose digests agree answer a command byte for byte alike, and where they
differ the keys say which output, column or field moved. Keys read
"<model file> <command> console", "<model file> <command> <file>" and
"<model file> <command> <file>:<column or key>". --src picks the gabp
sources (default: the src directory next to tests/); the corpora come
from tests/corpus.py. --compare prints every key whose digest differs
from OLD.json's, or that only one of the two has, and a count, and
exits 1 if any differs. The commands run in this process, in a
temporary directory, on relative paths, with one BLAS thread. A
command that raises is digested by the exception's type and message in
place of an exit code.

Commands per model: validate; solve --out; run with --trajectory and
--out under --init lower, --schedule seq, --schedule random --seed 5,
--strict and --strict --schedule seq; analyze --certify --out. Models:
the 18 cli-mixed models, the 480-agent model, the mixed corpus, the
converted 10x10 grid, the cli-mixed models with every id moved up by
2^70, conftest's vague-prior model (strict runs exit 5 at iteration 1)
and ill-conditioned-noise model (its fixed point runs out of budget),
and one file whose coefficient keys name a variable twice.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GABP_LOG", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

TESTS = os.path.dirname(os.path.abspath(__file__))
RUNS = {"run-lower": ["--init", "lower"], "run-seq": ["--schedule", "seq"],
        "run-random": ["--schedule", "random", "--seed", "5"], "run-strict": ["--strict"],
        "run-strict-seq": ["--strict", "--schedule", "seq"]}


def model_files(where):
    """Write the models into where; returns their file names in a fixed order."""
    import numpy as np

    from conftest import ill_conditioned_noise_model, vague_prior_model
    from corpus import cli_mixed_models, grid_field, mixed_corpus, relabelled
    from gabp.io import model_to_json, save_model
    from gabp.model import random_model
    from gabp.mrf import mrf_to_linear_gaussian

    models = cli_mixed_models() + [("bench-480", random_model(seed=1, n_agents=480, topology="multi_loop"))]
    models += list(mixed_corpus())
    models.append(("grid-10", mrf_to_linear_gaussian(grid_field(10), np.linspace(-1.0, 1.0, 100))[0]))
    models += [(f"{label}-ids-2^70", relabelled(m, 2 ** 70)) for label, m in cli_mixed_models()]
    models += [("vague-prior", vague_prior_model()), ("ill-conditioned-noise", ill_conditioned_noise_model())]
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


def _sha(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update((part if isinstance(part, bytes) else part.encode()) + b"\0")
    return h.hexdigest()


def _file_parts(name, data):
    """(suffix, bytes) of the parts a written file is digested by: the whole file, then its columns or keys."""
    yield "", data
    if name.endswith(".csv"):
        rows = list(csv.reader(data.decode().splitlines()))
        for k, column in enumerate(rows[0] if rows else []):
            yield f":{column}", "\n".join(row[k] if k < len(row) else "" for row in rows[1:]).encode()
    elif name.endswith(".json"):
        obj = json.loads(data)
        for key, value in obj.items() if isinstance(obj, dict) else ():
            yield f":{key}", json.dumps(value, sort_keys=True).encode()


def digest(argv):
    """sha256 by part of main(argv): its exit code (or exception), stdout and stderr, then each file it wrote."""
    from gabp.cli import main

    before = set(os.listdir("."))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = repr(main(argv))
        except Exception as exc:  # a crash is a result to compare, not a reason to stop
            code = f"{type(exc).__name__}: {exc}"
    digests = {"console": _sha(code, out.getvalue(), err.getvalue())}
    for name in sorted(set(os.listdir(".")) - before):
        with open(name, "rb") as fh:
            data = fh.read()
        digests.update({name + suffix: _sha(part) for suffix, part in _file_parts(name, data)})
        os.remove(name)
    return digests


def compare(old, new):
    """The keys whose digests differ between two digest dicts, or that only one has, in sorted order."""
    return sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="JSON file of digests by command")
    parser.add_argument("--src", default=os.path.join(os.path.dirname(TESTS), "src"))
    parser.add_argument("--compare", metavar="OLD.json", help="print the keys whose digests differ from OLD.json's")
    args = parser.parse_args(argv)
    out = os.path.abspath(args.out)
    old = None
    if args.compare:
        with open(args.compare) as fh:
            old = json.load(fh)
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
                digests.update({f"{name} {label} {part}": h for part, h in digest(command).items()})
            os.remove(name)
    with open(out, "w") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
    if old is None:
        return 0
    moved = compare(old, digests)
    for key in moved:
        print(key)
    print(f"{len(moved)} of {len(old.keys() | digests.keys())} digests differ")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
