"""The statements of rgflow that no program path runs: a line trace.

    python scripts/program_paths.py [<src>]

Imports rgflow from <src>/src (default: this checkout) under a line tracer,
sys.settrace and threading.settrace in one process, and runs:

* every `rgflow` subcommand on small inputs, in process through
  rgflow.cli.main: train on both data kinds (flags and a config file), each
  restore mode (also on malformed input), schedule-dump, traj, simulate,
  bench, and sweep with --model, --oracle gaussian and --oracle cheat, and
  at delta 0 alone;
* every `verify` check except training-progress, whose calls the train runs
  above make;
* perfbench's call shapes: restore_batch per mode on a multi-block batch, a
  one-point restore with an rng, train, and dataset and checkpoint I/O.

It then prints, for each module, every statement that no run executed,
skipping `raise` statements and `except` clauses that only raise (safety
code), and the count.  A statement counts as run when any line of its own
code, not of a nested statement, ran.
"""

import ast
import contextlib
import io
import json
import math
import os
import sys
import tempfile
import threading
import types
from pathlib import Path

# One BLAS thread, as perfbench and the equivalence dump run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

MODES = {  # perfbench's three restore modes: (path, delta, n_steps, eta)
    "disi-r": ("regression", 0.0, 1, 0.0),
    "disi-g": ("elliptical", math.pi / 8.0, 10, 0.0),
    "eta05": ("elliptical", math.pi / 8.0, 15, 0.5),
}
MALFORMED = {"empty": "", "header-only": "x1_1,x1_2\n", "non-numeric": "x1_1,x1_2\n0.5,abc\n",
             "nan-cell": "x1_1,x1_2\n0.5,nan\n0.25,0.75\n", "three-columns": "a,b,c\n1,2,3\n"}


def _cli_runs(main) -> None:
    """Each subcommand, in a scratch directory; exit codes are not checked,
    since the malformed inputs exit 2 by design."""
    restore = ["restore", "--model", "ck.json", "--input", "data.csv"]
    runs = [
        ["train", "--n", "300", "--steps", "70", "--hidden", "16", "--emb-dim", "8",
         "--ema-decay", "0.9", "--seed", "2", "--trace", "trace.csv", "--save-data", "data.csv",
         "--out", "ck.json"],
        ["train", "--config", "conf.json", "--out", "ck2.json"],
        ["train", "--data", "gaussian", "--dim", "3", "--n", "200", "--steps", "20",
         "--hidden", "8", "--emb-dim", "4", "--adaptive-weighting", "0",
         "--time-sampler", "lognorm2", "--out", "ck3.json"],
        [*restore, "--mode", "disi-r", "--out", "r.csv"],
        [*restore, "--mode", "disi-g", "--seed", "5", "--out", "g.csv"],
        [*restore, "--mode", "disi-g", "--steps", "15", "--eta", "0.5", "--no-ema",
         "--out", "e.csv"],
        [*restore, "--out", "d.csv"],
        [*restore, "--traj", "linear", "--delta", "pi/8", "--eta", "1", "--out", "k.csv"],
        ["restore", "--oracle", "gaussian", "--rho", "0.5", "--sigma-d", "0.8",
         "--input", "data.csv", "--mode", "disi-g", "--out", "o.csv"],
        *([*restore[:4], f"{name}.csv", "--mode", "disi-g", "--out", "x.csv"]
          for name in MALFORMED),
        ["schedule-dump", "--rho", "0.6", "--grid", "9", "--out", "sched.csv"],
        *(["traj", "--kind", kind, "--steps", "20", "--out", "traj.csv"]
          for kind in ("elliptical", "linear", "regression", "bezier")),
        ["traj", "--kind", "vpath", "--delta", "pi/8", "--p", "2", "--steps", "20",
         "--out", "traj.csv"],
        ["simulate", "--traj", "elliptical", "--delta", "pi/4", "--pairs", "data.csv",
         "--steps", "20", "--seed", "3", "--out", "sim.csv"],
        ["bench", "--euler-steps", "300", "--sampler-steps", "5,10", "--trials", "20",
         "--out", "bench.csv"],
        ["sweep", "--data", "data.csv", "--model", "ck.json", "--deltas", "0,pi/8",
         "--etas", "0,1", "--nfes", "1,2,5", "--out", "sweep.csv"],
        ["sweep", "--data", "data.csv", "--oracle", "gaussian", "--deltas", "pi/4",
         "--etas", "0.5", "--nfes", "3", "--boot-epsilon", "0.01", "--out", "sweep_o.csv"],
        ["sweep", "--data", "data.csv", "--oracle", "cheat", "--deltas", "0,pi/4",
         "--etas", "0,0.5", "--nfes", "1,3", "--out", "sweep_c.csv"],
        ["sweep", "--data", "data.csv", "--oracle", "gaussian", "--deltas", "0", "--nfes", "1,2",
         "--out", "sweep_0.csv"],
    ]
    Path("conf.json").write_text(json.dumps({"n": 200, "steps": 20, "hidden": 8, "emb_dim": 4,
                                             "data": "scurve", "strength": 0.8, "seed": 1}))
    for name, text in MALFORMED.items():
        Path(f"{name}.csv").write_text(text)
    for argv in runs:
        main(argv)
    from rgflow.verify import CHECKS

    for name, _ in CHECKS:
        if name != "training-progress":
            main(["verify", "--only", name, "--json", "verify.json"])


def _perfbench_shapes() -> None:
    """The calls perfbench's workloads make, at smaller sizes."""
    import numpy as np
    from rgflow import denoiser, sampler, toydata, training
    from rgflow.schedule import GvpSchedule
    from rgflow.trajectory import Elliptical, Regression

    ds = toydata.make_scurve_dataset(600, seed=1)
    toydata.save_dataset(ds, "bench.csv")
    holdout = toydata.load_dataset("bench.csv")
    result = training.train(ds, training.TrainConfig(n_steps=50, ema_decay=0.99, seed=1))
    denoiser.save_checkpoint("bench.json", result.denoiser, rho=ds.rho_hat,
                             ema_params=result.ema_denoiser.params)
    net = denoiser.load_checkpoint("bench.json").denoiser()
    sched = GvpSchedule(rho=ds.rho_hat, sigma_d=net.sigma_d)
    for path, delta, n_steps, eta in MODES.values():
        traj = Regression(phi=sched.phi) if path == "regression" else Elliptical(sched.phi, delta)
        cfg = sampler.SamplerConfig(trajectory=traj, n_steps=n_steps, eta=eta, seed=1)
        sampler.restore_batch(sched, net, holdout.x1, cfg)
        sampler.restore(sched, net, holdout.x1[3], cfg, rng=np.random.default_rng([1, 3]))


def _code_lines(code: types.CodeType) -> set[int]:
    """The lines that hold bytecode in `code` and the code nested in it."""
    lines, stack = set(), [code]
    while stack:
        c = stack.pop()
        lines.update(line for _, _, line in c.co_lines() if line is not None)
        stack.extend(k for k in c.co_consts if isinstance(k, types.CodeType))
    return lines


def _safety(node: ast.AST) -> bool:
    """A raise, or an except clause whose body only raises."""
    if isinstance(node, ast.ExceptHandler):
        return all(isinstance(s, ast.Raise) for s in node.body)
    return isinstance(node, ast.Raise)


def not_run(path: Path, hit: set[int]) -> list[tuple[int, str]]:
    """(line, source) of each statement of the file at `path` that owns a
    line of code and had none of them run, safety code apart."""
    source = path.read_text()
    tree = ast.parse(source)
    nodes = [n for n in ast.walk(tree) if isinstance(n, (ast.stmt, ast.ExceptHandler))]
    owner = {}  # line -> the innermost statement spanning it
    for node in sorted(nodes, key=lambda n: n.end_lineno - n.lineno, reverse=True):
        for line in range(node.lineno, node.end_lineno + 1):
            owner[line] = node
    owned: dict[ast.AST, set[int]] = {}
    for line in _code_lines(compile(source, str(path), "exec")):
        if line in owner:
            owned.setdefault(owner[line], set()).add(line)
    text = source.splitlines()
    return sorted((node.lineno, text[node.lineno - 1].strip())
                  for node, lines in owned.items() if not lines & hit and not _safety(node))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    package = root / "src" / "rgflow"
    prefix = str(package)
    hits: dict[str, set[int]] = {}

    def trace(frame, event, arg):
        file = frame.f_code.co_filename
        if not file.startswith(prefix):
            return None
        lines = hits.setdefault(file, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    sys.path.insert(0, str(root / "src"))
    home = os.getcwd()
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            os.chdir(tmp)
            try:
                from rgflow.cli import main as cli_main

                _cli_runs(cli_main)
                _perfbench_shapes()
            finally:
                os.chdir(home)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path in sorted(package.glob("*.py")):
        missed = not_run(path, hits.get(str(path), set()))
        total += len(missed)
        print(f"{path.relative_to(root)}: {len(missed)} statements not run")
        for line, text in missed:
            print(f"  {line:4d}  {text[:90]}")
    print(f"{total} statements not run, raises apart")
    return 0


if __name__ == "__main__":
    sys.exit(main())
