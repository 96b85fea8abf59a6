"""Workloads, set-up, checks and metrics of rgflow's performance benchmark.

A run sets up (datasets, a short-trained restore model, its checkpoint, a
warm-up) several times, then drives one workload's operations in whole
rounds for a fixed time, closed loop with a single caller.  A fixed side
load of the other kinds of operation is spread evenly between them, so that
every run reports every end-to-end metric.  A host-speed probe runs between
operations throughout, and times are reported scaled to a host of fixed
speed.  Outputs are checked against the reference restorer in reference.py
and against the method's properties, never against stored output.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from reference import MODES, ReferenceModel
from rgflow import denoiser, sampler, toydata, training
from rgflow.sampler import SamplerConfig
from rgflow.schedule import GvpSchedule
from rgflow.trajectory import Elliptical, Regression
from tracer import Tracer, install

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# One BLAS thread: the matrices are small (2000 x 68 by 68 x 128 at most) and
# a single thread keeps run-to-run spread low on a shared 2-core machine.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

WORKLOADS = ("restore-bulk", "restore-single", "train", "cli")

END_TO_END = {
    "setup_s": "s",
    "disi_r_points_per_s": "points/s",
    "disi_g_points_per_s": "points/s",
    "eta05_points_per_s": "points/s",
    "restore_ms_p50": "ms",
    "restore_ms_p99": "ms",
    "train_steps_per_s": "steps/s",
    "cli_restore_s": "s",
    "cli_train_s": "s",
    "peak_rss_mb": "MB",
}

_TIMED_LAYERS = (
    "sampler.hybrid_step", "sampler.boot_step", "sampler.regression_step",
    "sampler.kappa", "schedule.coeffs", "trajectory.discretize", "trajectory.point",
)

PER_LAYER = {
    "denoiser.predict.calls": "count",
    "denoiser.predict.rows": "count",
    "denoiser.predict.s": "s",
    "denoiser.features.s": "s",
    "denoiser.core_s": "s",
    "denoiser.flops": "FLOP",
    "denoiser.gflops_per_s": "GFLOP/s",
    "sampler.rng.constructed": "count",
    "sampler.rng.construct_s": "s",
    "sampler.rng.used_ratio": "ratio",
    "sampler.noise.draws": "count",
    "sampler.noise.draw_s": "s",
    "sampler.restore_batch.self_s": "s",
    "sampler.restore.self_s": "s",
    **{f"{layer}.{what}": unit for layer in _TIMED_LAYERS for what, unit in (("calls", "count"), ("s", "s"))},
    "denoiser.forward_batch.s": "s",
    "denoiser.backward_batch.s": "s",
    "training.adamw.calls": "count",
    "training.adamw.s": "s",
    "training.adaptive_weight.s": "s",
    "training.sample_batch.s": "s",
    "training.train.self_s": "s",
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "cli.output_bytes": "B",
    "denoiser.load_checkpoint.s": "s",
    "denoiser.save_checkpoint.s": "s",
    "denoiser.checkpoint_bytes": "B",
    "toydata.make_scurve_dataset.s": "s",
    "toydata.save_dataset.s": "s",
    "toydata.load_dataset.s": "s",
    "process.calls": "count",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}


@dataclass(frozen=True)
class Sizes:
    """Input sizes and operation counts of a run; the tests shrink them."""

    points: int = 2000  # training pairs, held-out points, CLI input rows
    setup_repeats: int = 3
    cli_train_steps: int = 100
    latency_samples: int = 2200  # one-point requests: >= 10 beyond p99
    side_train_calls: int = 16
    side_cli_pairs: int = 5  # one `rgflow train` and one `rgflow restore` each
    calibration_reps: int = 6  # traced and untraced, interleaved


FULL = Sizes()
TINY = Sizes(
    points=300, setup_repeats=1, cli_train_steps=50, latency_samples=30,
    side_train_calls=1, side_cli_pairs=1, calibration_reps=1,
)

SETUP_TRAIN_STEPS = 600  # restore model, EMA decay SETUP_EMA_DECAY
TRAIN_STEPS = 50  # per timed train() call
CHECK_STEPS = 300  # the longer same-seed call whose loss must fall
REFERENCE_ITEMS = 4  # per mode and output checked against the reference
LATENCY_PIECE = 150  # one-point requests per side-load piece

# A shared machine's speed swings by half within a second and drifts by a
# third over minutes, on each CPU apart.  A fixed probe kernel runs before
# each operation, once for each PROBE_EVERY_S since the last probe, and every
# timed sample is divided by the host's slowdown around it: the fastest tenth
# of the PROBE_NEIGHBOURS probes nearest in time, over PROBE_REF_S.  Figures
# thus read as on a host where the probe takes PROBE_REF_S.  Other tenants
# only ever add time, so operation times are then summarised by their fastest
# tenth, and so is the median request latency, taken in windows of P50_WINDOW
# consecutive requests (whole rounds of the three modes).  A window holding
# ten requests beyond p99 would span most of the run, so p99 is taken over
# all requests.
FAST_PERCENTILE = 10
P50_WINDOW = 21
PROBE_EVERY_S = 0.02
PROBE_NEIGHBOURS = 10
PROBE_REF_S = 0.5e-3
_PROBE_M = np.random.default_rng(0).normal(size=(64, 64)) / 8.0


def host_probe() -> float:
    """Seconds taken by fixed interpreter and small-array numpy work, apart from rgflow."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(3000):
        acc += i * 0.5
    m = _PROBE_M
    for _ in range(20):
        m = np.tanh(m @ _PROBE_M)
    return perf_counter() - t0


SCURVE = {"jitter": 0.05, "strength": 1.0, "noise": 0.25}
SETUP_EMA_DECAY = 0.99

# Inputs that `rgflow restore` must reject with exit 2 or 3 and one error
# line.  The first four fail that today and count as failed operations; the
# three-column file, a dimension mismatch against the 2-D checkpoint, is the
# control: if it is not rejected, the run is incorrect.
CONTROL = "three-columns"
MALFORMED = {
    "empty": "",
    "header-only": "x1_1,x1_2\n",
    "non-numeric": "x1_1,x1_2\n0.5,abc\n",
    "nan-cell": "x1_1,x1_2\n0.5,nan\n0.25,0.75\n",
    "three-columns": "a,b,c\n1,2,3\n",
}


def subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("RGFLOW_THREADS", None)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


@dataclass
class Fixture:
    """What set-up leaves for the operations."""

    seed: int
    train_set: toydata.ToyDataset
    x0: np.ndarray  # held-out clean points
    x1: np.ndarray  # held-out degraded points, the restore input
    sched: GvpSchedule
    net: denoiser.MlpDenoiser
    cfgs: dict[str, SamplerConfig]
    model_path: Path
    input_path: Path


def sampler_configs(phi: float, seed: int) -> dict[str, SamplerConfig]:
    out = {}
    for name, m in MODES.items():
        traj = Regression(phi=phi) if m.path == "regression" else Elliptical(phi=phi, delta=m.delta)
        out[name] = SamplerConfig(
            trajectory=traj, n_steps=m.n_steps, eta=m.eta, boot_epsilon=m.boot_epsilon, seed=seed
        )
    return out


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, workdir: Path,
                 sizes: Sizes = FULL) -> None:
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.sizes, self.workdir = sizes, workdir
        self.tracer: Tracer | None = None
        self.make_rng = np.random.default_rng
        self.patches = None
        self.tally = False  # count operations only in the workload's own rounds
        self.attempted = 0
        self.failed = 0
        self.failed_inputs: set[str] = set()
        self.problems: list[str] = []
        self.last_probe = -math.inf
        self.side_item = 0
        self.samples: dict[str, list[float]] = {}
        self.stamps: dict[str, list[float]] = {}  # perf_counter() when each sample was taken
        self.outputs: dict[str, object] = {}
        self.fx: Fixture | None = None

    # -- bookkeeping -------------------------------------------------------------

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)
        self.stamps.setdefault(key, []).append(perf_counter())

    def probe(self) -> None:
        """One host-speed probe for each PROBE_EVERY_S since the last, at most
        PROBE_NEIGHBOURS // 2: long operations get probes close on both sides."""
        due = min((perf_counter() - self.last_probe) / PROBE_EVERY_S, PROBE_NEIGHBOURS // 2)
        for _ in range(int(due)):
            self.sample("probe", host_probe())
            self.last_probe = perf_counter()

    def timed(self, fn, *args, **kwargs):
        """(fn's result, its seconds), after the host-speed probes due."""
        self.probe()
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        return out, perf_counter() - t0

    def check(self, fn, *args) -> None:
        try:
            fn(*args)
        except checks.CheckFailed as exc:
            self.problems.append(str(exc))

    def same_as_first(self, key: str, value) -> None:
        """Keep the first output under `key`; later ones must be identical."""
        first = self.outputs.setdefault(key, value)
        if first is not value:
            self.check(checks.identical, key, value, first)

    # -- set-up ------------------------------------------------------------------

    def setup(self) -> None:
        s, seed, work = self.sizes, self.seed, self.workdir
        ds = toydata.make_scurve_dataset(s.points, seed=seed, **SCURVE)
        holdout = toydata.make_scurve_dataset(s.points, seed=seed + 500_000, **SCURVE)
        input_path = work / "holdout.csv"
        toydata.save_dataset(holdout, input_path)
        holdout = toydata.load_dataset(input_path)
        cfg = training.TrainConfig(n_steps=SETUP_TRAIN_STEPS, ema_decay=SETUP_EMA_DECAY, seed=seed)
        result = training.train(ds, cfg)
        model_path = work / "model.json"
        denoiser.save_checkpoint(
            model_path, result.denoiser, rho=ds.rho_hat, ema_params=result.ema_denoiser.params
        )
        net = denoiser.load_checkpoint(model_path).denoiser()
        sched = GvpSchedule(rho=ds.rho_hat, sigma_d=net.sigma_d)
        fx = Fixture(seed, ds, holdout.x0_matrix(), holdout.x1_matrix(), sched, net,
                     sampler_configs(sched.phi, seed), model_path, input_path)
        for name, text in MALFORMED.items():
            (work / f"{name}.csv").write_text(text)
        for cfg in fx.cfgs.values():  # warm-up, outputs discarded
            sampler.restore_batch(fx.sched, fx.net, fx.x1[:64], cfg)
            sampler.restore(fx.sched, fx.net, fx.x1[0], cfg, rng=self.make_rng([cfg.seed, 0]))
        subprocess.run([sys.executable, "-c", "import rgflow.cli"], env=subprocess_env(),
                       cwd=work, check=True, timeout=120)
        self.fx = fx

    # -- operations --------------------------------------------------------------

    def bulk(self, mode: str) -> None:
        fx = self.fx
        out, dt = self.timed(sampler.restore_batch, fx.sched, fx.net, fx.x1, fx.cfgs[mode])
        self.attempted += self.tally
        self.sample(f"bulk.{mode}", dt)
        self.same_as_first(f"bulk {mode}", out)

    def single(self, mode: str, item: int) -> None:
        fx = self.fx
        cfg = fx.cfgs[mode]
        rng = self.make_rng([cfg.seed, item])
        out, dt = self.timed(sampler.restore, fx.sched, fx.net, fx.x1[item], cfg, rng=rng)
        self.attempted += self.tally
        self.sample("latency_ms", dt * 1e3)
        self.sample(f"single.{mode}", dt)
        self.same_as_first(f"single {mode} {item}", out)

    def train(self) -> None:
        fx = self.fx
        cfg = training.TrainConfig(n_steps=TRAIN_STEPS, seed=fx.seed)
        result, dt = self.timed(training.train, fx.train_set, cfg)
        self.attempted += self.tally
        self.sample("train", dt)
        self.same_as_first("train loss trace", result.loss_trace)

    def _cli(self, args: list[str]) -> tuple[int, str, float]:
        """Run `rgflow <args>` in a fresh interpreter; (exit code, stderr, seconds)."""
        if self.tracer is None:
            cmd = [sys.executable, "-m", "rgflow.cli", *args]
        else:
            spans = self.workdir / "cli-spans.npz"
            cmd = [sys.executable, "-X", "importtime", str(BENCH / "cli_trace.py"), str(spans), *args]
        proc, dt = self.timed(subprocess.run, cmd, cwd=self.workdir, env=subprocess_env(),
                              capture_output=True, text=True, timeout=120)
        if self.tracer is not None:
            t1 = perf_counter()
            self._merge_cli_trace(spans, t1 - dt, t1, proc.stderr)
        return proc.returncode, proc.stderr, dt

    def _merge_cli_trace(self, spans: Path, t0: float, t1: float, stderr: str) -> None:
        tr = self.tracer
        tr.merge(spans, parent=tr.record("cli.process", t0, t1))
        spans.unlink()
        for line in stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[2].strip() == "rgflow":
                tr.sample("cli.import_s", int(parts[1]) / 1e6)

    def cli_train(self) -> None:
        s = self.sizes
        code, err, dt = self._cli([
            "train", "--n", str(s.points), "--steps", str(s.cli_train_steps),
            "--ema-decay", str(SETUP_EMA_DECAY), "--seed", str(self.seed),
            "--out", "cli_model.json", "--save-data", "cli_data.csv",
        ])
        self.attempted += self.tally
        if code != 0:
            self.problems.append(f"rgflow train: exit {code}: {err.strip()[-200:]}")
            return
        self.sample("cli_train", dt)
        self.same_as_first("rgflow train checkpoint", (self.workdir / "cli_model.json").read_bytes())

    def cli_restore(self) -> None:
        fx = self.fx
        code, err, dt = self._cli([
            "restore", "--model", str(fx.model_path), "--input", str(fx.input_path),
            "--mode", "disi-g", "--seed", str(fx.seed), "--out", "cli_restored.csv",
        ])
        self.attempted += self.tally
        if code != 0:
            self.problems.append(f"rgflow restore: exit {code}: {err.strip()[-200:]}")
            return
        self.sample("cli_restore", dt)
        data = (self.workdir / "cli_restored.csv").read_bytes()
        if self.tracer is not None:
            self.tracer.sample("cli.output_bytes", len(data))
        self.same_as_first("rgflow restore output", data)

    def malformed(self, name: str) -> None:
        out = self.workdir / f"bad-{name}-out.csv"
        out.unlink(missing_ok=True)
        code, err, _ = self._cli([
            "restore", "--model", str(self.fx.model_path), "--input", f"{name}.csv",
            "--mode", "disi-g", "--out", out.name,
        ])
        self.attempted += self.tally
        try:
            checks.rejected(name, code, err, out.read_text() if out.exists() else None)
        except checks.CheckFailed as exc:
            if name == CONTROL:
                self.problems.append(str(exc))
            else:
                self.failed += self.tally
                self.failed_inputs.add(name)

    # -- rounds --------------------------------------------------------------------

    def round_ops(self, kind: str, k: int) -> list:
        """The operations of one round, as calls to make in order."""
        if kind == "bulk":
            return [lambda m=m: self.bulk(m) for m in MODES]
        if kind == "single":
            return [lambda m=m: self.single(m, k % self.sizes.points) for m in MODES]
        if kind == "train":
            return [self.train]
        # "cli"
        return [self.cli_train, self.cli_restore, *(lambda n=n: self.malformed(n) for n in MALFORMED)]

    def round(self, kind: str, k: int) -> None:
        for op in self.round_ops(kind, k):
            op()

    def side_load(self) -> list[str]:
        """The other kinds of operation, as pieces spread evenly over the run."""
        s, w = self.sizes, self.workload
        counts = {}
        if w != "restore-single":
            counts["single"] = math.ceil(s.latency_samples / LATENCY_PIECE)
        if w != "train":
            counts["train"] = s.side_train_calls
        # CLI processes are the costliest operations, and a `cli` round holds
        # few of them, so every workload, `cli` too, adds these.
        counts.update({"cli-train": s.side_cli_pairs, "cli-restore": s.side_cli_pairs})
        at = [((i + 0.5) / n, piece) for piece, n in counts.items() for i in range(n)]
        return [piece for _, piece in sorted(at, key=lambda p: p[0])]

    def side(self, piece: str) -> None:
        if piece == "single":
            for _ in range(math.ceil(LATENCY_PIECE / len(MODES))):
                self.round("single", self.side_item)
                self.side_item += 1
        elif piece == "train":
            self.train()
        elif piece == "cli-train":
            self.cli_train()
        else:  # "cli-restore"
            self.cli_restore()

    def measure(self) -> None:
        """The workload's own rounds for --seconds, the side load spread between their operations."""
        kind = {"restore-bulk": "bulk", "restore-single": "single"}.get(self.workload, self.workload)
        pieces = self.side_load()
        done = 0  # pieces run so far
        own, k = 0.0, 0  # seconds spent in the workload's own operations, rounds done
        while k == 0 or own < self.seconds or (
            kind == "single" and self.attempted < self.sizes.latency_samples
        ):
            for op in self.round_ops(kind, k):
                while done < len(pieces) and (done + 0.5) / len(pieces) * self.seconds <= own:
                    self.side(pieces[done])
                    done += 1
                self.tally = True
                t0 = perf_counter()
                op()
                own += perf_counter() - t0
                self.tally = False
            k += 1
        for piece in pieces[done:]:
            self.side(piece)

    # -- end-of-run checks -----------------------------------------------------------

    def verify(self) -> None:
        fx, s = self.fx, self.sizes
        ref = ReferenceModel(fx.model_path)
        pick = np.random.default_rng(fx.seed).choice(s.points, REFERENCE_ITEMS, replace=False)
        for mode, m in MODES.items():
            # Workloads without bulk operations get one batch here, checked alike.
            batch = self.outputs.get(f"bulk {mode}")
            if batch is None:
                batch = sampler.restore_batch(fx.sched, fx.net, fx.x1, fx.cfgs[mode])
            self.check(checks.finite, f"bulk {mode}", batch)
            for i in pick:
                self.check(checks.close, f"bulk {mode} item {i} vs reference",
                           batch[i], ref.restore(fx.x1[i], m, fx.seed, int(i)))
            if mode == "disi-r":
                self.check(checks.beats_identity_mse, f"bulk {mode}", batch, fx.x0, fx.x1)
            else:
                self.check(checks.beats_identity_energy, f"bulk {mode}", batch, fx.x0, fx.x1)
            items = sorted(int(key.split()[-1]) for key in self.outputs if key.startswith(f"single {mode} "))
            for i in items:
                out = self.outputs[f"single {mode} {i}"]
                self.check(checks.finite, f"single {mode} item {i}", out)
                self.check(checks.close, f"single {mode} item {i} vs batch row", out, batch[i])
            for i in items[:REFERENCE_ITEMS]:
                self.check(checks.close, f"single {mode} item {i} vs reference",
                           self.outputs[f"single {mode} {i}"], ref.restore(fx.x1[i], m, fx.seed, i))
        prefix = self.outputs.get("train loss trace")
        if prefix is not None:
            cfg = training.TrainConfig(n_steps=CHECK_STEPS, seed=fx.seed)
            trace = training.train(fx.train_set, cfg).loss_trace
            self.check(checks.loss_trace, "train", trace)
            self.check(checks.identical, "train prefix rerun", prefix, trace[: len(prefix)])
        restored = self.outputs.get("rgflow restore output")
        if restored is not None:
            out = np.loadtxt(self.workdir / "cli_restored.csv", delimiter=",", skiprows=1, ndmin=2)
            self.check(checks.finite, "rgflow restore", out)
            for i in pick:
                self.check(checks.close, f"rgflow restore item {i} vs reference",
                           out[i], ref.restore(fx.x1[i], MODES["disi-g"], fx.seed, int(i)))
            self.check(checks.beats_identity_energy, "rgflow restore", out, fx.x0, fx.x1)

    # -- metrics -----------------------------------------------------------------

    def host_slowdown(self) -> float:
        """The probe's fastest tenth over the whole run, over PROBE_REF_S."""
        return float(np.percentile(self.samples["probe"], FAST_PERCENTILE)) / PROBE_REF_S

    def scaled(self, key: str) -> np.ndarray:
        """The samples under `key`, each divided by the host's slowdown around it."""
        if key not in self.samples:  # a failed operation leaves none; the run is then incorrect
            return np.array([math.nan])
        probe_at, probe = np.asarray(self.stamps["probe"]), np.asarray(self.samples["probe"])
        half = PROBE_NEIGHBOURS // 2
        slow = []
        for j in np.searchsorted(probe_at, self.stamps[key]):
            lo = min(max(j - half, 0), max(len(probe) - PROBE_NEIGHBOURS, 0))
            slow.append(np.percentile(probe[lo:lo + PROBE_NEIGHBOURS], FAST_PERCENTILE) / PROBE_REF_S)
        return np.asarray(self.samples[key]) / np.asarray(slow)

    def fast(self, key: str) -> float:
        """Fastest tenth of the host-scaled samples under `key`."""
        return float(np.percentile(self.scaled(key), FAST_PERCENTILE))

    def end_to_end(self) -> dict[str, float]:
        fast, s = self.fast, self.sizes
        out = {"setup_s": float(np.median(self.scaled("setup")))}
        for mode in MODES:
            key = mode.replace("-", "_") + "_points_per_s"
            if self.workload == "restore-bulk":
                out[key] = s.points / fast(f"bulk.{mode}")
            else:  # from the one-point requests
                out[key] = 1.0 / fast(f"single.{mode}")
        lat = self.scaled("latency_ms")
        windows = lat[: len(lat) // P50_WINDOW * P50_WINDOW].reshape(-1, P50_WINDOW)
        out["restore_ms_p50"] = float(np.percentile(np.median(windows, axis=1), FAST_PERCENTILE))
        out["restore_ms_p99"] = float(np.percentile(lat, 99))
        out["train_steps_per_s"] = TRAIN_STEPS / fast("train")
        out["cli_restore_s"] = fast("cli_restore")
        out["cli_train_s"] = fast("cli_train")
        peak_kb = max(resource.getrusage(who).ru_maxrss
                      for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        out["peak_rss_mb"] = peak_kb / 1024.0
        return out

    def per_layer(self, overhead_pct: float) -> dict[str, float]:
        tr = self.tracer
        layers = tr.layers()

        def get(name: str, i: int) -> float:
            return layers.get(name, (0, 0.0, 0.0))[i]

        def per_process(key: str) -> float:
            vals = tr.samples.get(key, [])
            return statistics.fmean(vals) if vals else 0.0

        core = get("denoiser.predict", 2)
        flops = tr.counts.get("denoiser.flops", 0)
        constructed = get("sampler.rng.construct", 0)
        cli_main = get("cli.main", 0)
        out = {
            "denoiser.predict.calls": get("denoiser.predict", 0),
            "denoiser.predict.rows": tr.counts.get("denoiser.predict.rows", 0),
            "denoiser.predict.s": get("denoiser.predict", 1),
            "denoiser.features.s": get("denoiser.features", 1),
            "denoiser.core_s": core,
            "denoiser.flops": flops,
            "denoiser.gflops_per_s": flops / core / 1e9 if core > 0 else 0.0,
            "sampler.rng.constructed": constructed,
            "sampler.rng.construct_s": get("sampler.rng.construct", 1),
            "sampler.rng.used_ratio": tr.counts.get("sampler.rng.used", 0) / constructed if constructed else 0.0,
            "sampler.noise.draws": get("sampler.noise.draw", 0),
            "sampler.noise.draw_s": get("sampler.noise.draw", 1),
            "sampler.restore_batch.self_s": get("sampler.restore_batch", 2),
            "sampler.restore.self_s": get("sampler.restore", 2),
        }
        for layer in _TIMED_LAYERS:
            out[f"{layer}.calls"] = get(layer, 0)
            out[f"{layer}.s"] = get(layer, 1)
        for name in ("denoiser.forward_batch", "denoiser.backward_batch", "training.adaptive_weight",
                     "training.sample_batch", "denoiser.load_checkpoint", "denoiser.save_checkpoint",
                     "toydata.make_scurve_dataset", "toydata.save_dataset", "toydata.load_dataset"):
            out[f"{name}.s"] = get(name, 1)
        out["training.adamw.calls"] = get("training.adamw", 0)
        out["training.adamw.s"] = get("training.adamw", 1)
        out["training.train.self_s"] = get("training.train", 2)
        out["cli.import_s"] = per_process("cli.import_s")
        out["cli.main.self_s"] = get("cli.main", 2) / cli_main if cli_main else 0.0
        out["cli.output_bytes"] = per_process("cli.output_bytes")
        out["denoiser.checkpoint_bytes"] = per_process("denoiser.checkpoint_bytes")
        out["process.calls"] = sum(v[0] for k, v in layers.items() if k.startswith("process."))
        out["trace.spans"] = len(tr.t0)
        out["trace.overhead_pct"] = overhead_pct
        return out

    # -- tracing overhead --------------------------------------------------------------

    def _calibration_op(self):
        """One untallied operation of the workload's own kind, for the overhead ratio."""
        fx = self.fx
        if self.workload == "restore-bulk":
            return lambda: sampler.restore_batch(fx.sched, fx.net, fx.x1, fx.cfgs["disi-g"])
        if self.workload == "restore-single":
            def block():
                for item in range(100):
                    for cfg in fx.cfgs.values():
                        sampler.restore(fx.sched, fx.net, fx.x1[item], cfg,
                                        rng=self.make_rng([cfg.seed, item]))
            return block
        if self.workload == "train":
            cfg = training.TrainConfig(n_steps=TRAIN_STEPS, seed=fx.seed)
            return lambda: training.train(fx.train_set, cfg)
        return lambda: self._cli([
            "restore", "--model", str(fx.model_path), "--input", str(fx.input_path),
            "--mode", "disi-g", "--seed", str(fx.seed), "--out", "calibration.csv",
        ])

    def overhead_pct(self) -> float:
        """Traced against untraced time of the same operation, reps interleaved, in percent."""
        op, tracer = self._calibration_op(), self.tracer
        times: dict[bool, list[float]] = {False: [], True: []}
        for _ in range(self.sizes.calibration_reps):
            for traced in (False, True):
                if traced:
                    self.install(tracer)
                else:
                    self.uninstall()
                t0 = perf_counter()
                op()
                times[traced].append(perf_counter() - t0)
        plain, traced = (float(np.percentile(times[t], FAST_PERCENTILE)) for t in (False, True))
        return (traced / plain - 1.0) * 100.0

    def install(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.patches, self.make_rng = install(tracer)

    def uninstall(self) -> None:
        if self.patches is not None:
            self.patches.undo()
        self.patches, self.tracer, self.make_rng = None, None, np.random.default_rng

    # -- whole run -----------------------------------------------------------------

    def execute(self, trace: bool) -> dict:
        """Set up, drive the workload, check, and return the result object."""
        if trace:
            self.install(Tracer())
        try:
            for _ in range(self.sizes.setup_repeats):
                self.probe()
                t0 = perf_counter()
                self.setup()
                self.sample("setup", perf_counter() - t0)
            self.probe()
            overhead = self.overhead_pct() if trace else 0.0
            self.measure()
            if trace:
                metrics, units = self.per_layer(overhead), PER_LAYER
                self.tracer.save(BENCH / "out" / f"trace-{self.workload}.npz")
        finally:
            self.uninstall()
        self.verify()
        if not trace:
            metrics, units = self.end_to_end(), END_TO_END
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
        }


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: Sizes = FULL) -> tuple[dict, Run]:
    """Run one workload in a scratch directory under perfbench/out; (result, the run)."""
    workdir = BENCH / "out" / f"work-{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    bench = Run(workload, seed, seconds, workdir, sizes)
    try:
        result = bench.execute(trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result, bench
