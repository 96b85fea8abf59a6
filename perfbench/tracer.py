"""Span tracer that wraps rgflow's public callables from outside the package.

Spans (name, start, end, parent) are appended to flat arrays in memory and
written out when the run ends.  A layer's busy time is the sum of its spans'
durations; its self time subtracts the durations of its direct children,
which cover disjoint parts of the parent in a single-threaded run.

Wrappers are installed where the calling module looks a name up: module
attributes for functions, class attributes for methods, and, for the
per-item noise streams, a stand-in for `numpy` inside `rgflow.sampler` whose
`random.default_rng` returns counting generators.
"""

from __future__ import annotations

import json
import os
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    """In-memory span store plus additive counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.t0)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.t1.append(0.0)
        self._stack.append(i)
        self.t0.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.t1[i] = perf_counter()
        self._stack.pop()

    def record(self, name: str, t0: float, t1: float) -> int:
        """Append a finished span under the open one; returns its index."""
        i = len(self.t0)
        self.name.append(self.name_id(name))
        self.parent.append(self._stack[-1])
        self.t0.append(t0)
        self.t1.append(t1)
        return i

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def wrap(self, name: str, fn):
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- persistence -----------------------------------------------------------

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            counts=np.array(json.dumps(self.counts)),
            samples=np.array(json.dumps(self.samples)),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            t0=np.frombuffer(self.t0),
            t1=np.frombuffer(self.t1),
        )

    def merge(self, path, parent: int) -> None:
        """Append spans saved by another process under span `parent`."""
        with np.load(path) as f:
            names = json.loads(str(f["names"]))
            remap = np.array([self.name_id(n) for n in names], dtype=np.int32)
            base = len(self.t0)
            parent = f["parent"]
            parent = np.where(parent < 0, parent, parent + base)
            self.name.extend(remap[f["name"]].tolist())
            self.parent.extend(parent.tolist())
            self.t0.extend(f["t0"].tolist())
            self.t1.extend(f["t1"].tolist())
            for k, v in json.loads(str(f["counts"])).items():
                self.add(k, v)
            for k, vs in json.loads(str(f["samples"])).items():
                for v in vs:
                    self.sample(k, v)

    # -- aggregation -----------------------------------------------------------

    def layers(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, busy seconds, self seconds) over every span kept."""
        n = len(self.t0)
        names = np.frombuffer(self.name, dtype=np.int32)[:n]
        parent = np.frombuffer(self.parent, dtype=np.int64)[:n]
        dur = np.frombuffer(self.t1)[:n] - np.frombuffer(self.t0)[:n]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        busy = np.bincount(names, weights=dur, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        return {
            name: (int(calls[i]), float(busy[i]), float(self_s[i]))
            for i, name in enumerate(self.names)
        }


class _Proxy:
    """Attribute pass-through to a wrapped object."""

    def __init__(self, target) -> None:
        self._target = target

    def __getattr__(self, attr):
        return getattr(self._target, attr)


class CountingGenerator(_Proxy):
    """A numpy Generator whose normal() draws are spans and counted.

    `built_by_rgflow` generators also count toward `sampler.rng.used` the
    first time they are drawn from; ones the benchmark builds and passes in
    do not, so the used ratio speaks only of rgflow's own generators.
    """

    def __init__(self, gen, tracer: Tracer, built_by_rgflow: bool) -> None:
        super().__init__(gen)
        self._tracer = tracer
        self._nid = tracer.name_id("sampler.noise.draw")
        self._used = not built_by_rgflow

    def normal(self, *args, **kwargs):
        if not self._used:
            self._used = True
            self._tracer.add("sampler.rng.used", 1)
        i = self._tracer.open(self._nid)
        try:
            return self._target.normal(*args, **kwargs)
        finally:
            self._tracer.close(i)


class _RandomProxy(_Proxy):
    def __init__(self, random, tracer: Tracer) -> None:
        super().__init__(random)
        self._tracer = tracer
        self._nid = tracer.name_id("sampler.rng.construct")

    def default_rng(self, *args, **kwargs):
        i = self._tracer.open(self._nid)
        try:
            gen = self._target.default_rng(*args, **kwargs)
        finally:
            self._tracer.close(i)
        return CountingGenerator(gen, self._tracer, built_by_rgflow=True)


class _NumpyProxy(_Proxy):
    def __init__(self, numpy, tracer: Tracer) -> None:
        super().__init__(numpy)
        self.random = _RandomProxy(numpy.random, tracer)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, obj, attr: str, value) -> None:
        self._saved.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def undo(self) -> None:
        while self._saved:
            obj, attr, value = self._saved.pop()
            setattr(obj, attr, value)


def install(tracer: Tracer) -> tuple[Patches, object]:
    """Wrap rgflow's layers; returns the patches and a default_rng for the
    caller's own streams, whose draws are counted but which count neither as
    constructed by rgflow nor toward its used ratio."""
    from rgflow import cli, denoiser, process, sampler, schedule, toydata, training, trajectory

    patches = Patches()

    def wrap_at(name: str, fn, *sites) -> None:
        traced = tracer.wrap(name, fn)
        for obj, attr in sites:
            patches.set(obj, attr, traced)

    def wrap_fn(layer: str, module, attr: str) -> None:
        sites = [(module, attr)]
        if attr in cli.__dict__ and cli.__dict__[attr] is module.__dict__[attr]:
            sites.append((cli, attr))
        wrap_at(f"{layer}.{attr}", module.__dict__[attr], *sites)

    for attr in ("restore_batch", "restore", "hybrid_step", "boot_step", "regression_step", "kappa"):
        wrap_fn("sampler", sampler, attr)
    patches.set(sampler, "np", _NumpyProxy(np, tracer))

    wrap_at("schedule.coeffs", schedule.GvpSchedule.coeffs, (schedule.GvpSchedule, "coeffs"))
    for attr in ("discretize", "point"):
        base = trajectory.Trajectory
        wrap_at(f"trajectory.{attr}", base.__dict__[attr], (base, attr))

    mlp = denoiser.MlpDenoiser
    predict = tracer.wrap("denoiser.predict", mlp.predict)

    def counted_predict(self, x, x1, r, g):
        out = predict(self, x, x1, r, g)
        rows = 1 if np.ndim(x) == 1 else len(x)
        w = self.widths
        tracer.add("denoiser.predict.rows", rows)
        tracer.add("denoiser.flops", 2 * rows * sum(a * b for a, b in zip(w, w[1:])))
        return out

    patches.set(mlp, "predict", counted_predict)
    for attr in ("features", "forward_batch", "backward_batch"):
        wrap_at(f"denoiser.{attr}", mlp.__dict__[attr], (mlp, attr))
    wrap_fn("denoiser", denoiser, "load_checkpoint")
    save = tracer.wrap("denoiser.save_checkpoint", denoiser.save_checkpoint)

    def sized_save(path, *args, **kwargs):
        save(path, *args, **kwargs)
        tracer.sample("denoiser.checkpoint_bytes", os.path.getsize(path))

    patches.set(denoiser, "save_checkpoint", sized_save)
    patches.set(cli, "save_checkpoint", sized_save)

    wrap_fn("training", training, "train")
    wrap_at("training.adamw", training.AdamW.step, (training.AdamW, "step"))
    weight = training.AdaptiveWeight
    for attr in ("forward", "backward"):
        wrap_at("training.adaptive_weight", weight.__dict__[attr], (weight, attr))
    samplers = {*training.TIME_SAMPLERS.values(), training.LogitNormalSampler}
    for cls in samplers:
        wrap_at("training.sample_batch", cls.sample_batch, (cls, "sample_batch"))

    for attr in ("make_scurve_dataset", "save_dataset", "load_dataset"):
        wrap_fn("toydata", toydata, attr)
    for attr in ("interpolate", "sample_noise", "empirical_variance"):
        wrap_fn("process", process, attr)
    wrap_at("cli.main", cli.main, (cli, "main"))

    def make_rng(seed):
        return CountingGenerator(np.random.default_rng(seed), tracer, built_by_rgflow=False)

    return patches, make_rng
