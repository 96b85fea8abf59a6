"""Tests of the benchmark itself: a tiny pass of every workload, and for every
correctness check a deliberately wrong output that it must reject.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import harness  # noqa: E402
from reference import MODES, ReferenceModel  # noqa: E402


def test_benchmark_json_matches_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_tiny_pass(workload, trace):
    result, run = harness.run(workload, seed=3, seconds=0.1, trace=trace, sizes=harness.TINY)
    assert run.problems == []
    assert result["correct"] is True
    assert result["attempted"] >= 1
    # Only the four known malformed-input faults may fail, and only on `cli`.
    known = set(harness.MALFORMED) - {harness.CONTROL}
    assert run.failed_inputs <= (known if workload == "cli" else set())
    per_round = 2 + len(harness.MALFORMED)  # `rgflow train`, `rgflow restore`, the malformed inputs
    assert result["failed"] <= result["attempted"] * len(known) / per_round
    units = harness.PER_LAYER if trace else harness.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if trace:
        assert values["denoiser.predict.calls"] > 0 and values["training.adamw.calls"] > 0
        assert values["cli.import_s"] > 0 and values["cli.main.self_s"] > 0
    else:
        assert all(v > 0 for v in values.values())


# -- a tiny run whose outputs are corrupted one at a time ---------------------------


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    run = harness.Run("cli", seed=5, seconds=0.0, workdir=tmp_path_factory.mktemp("run"),
                      sizes=harness.TINY)
    run.setup()
    for kind in ("bulk", "single", "train", "cli"):
        run.round(kind, 0)
    run.verify()
    assert run.problems == []
    return run


def problems_after(run, key, corrupt):
    saved = run.outputs[key]
    run.outputs[key] = corrupt(saved)
    try:
        run.problems = []
        run.verify()
        return run.problems
    finally:
        run.outputs[key] = saved
        run.problems = []


def nudged(arr, index=0, by=1e-6):
    out = np.array(arr, dtype=np.float64, copy=True)
    out.flat[index] += by
    return out


@pytest.mark.parametrize("mode", list(MODES))
def test_bulk_output_against_reference(tiny_run, mode):
    pick = np.random.default_rng(tiny_run.seed).choice(
        tiny_run.sizes.points, harness.REFERENCE_ITEMS, replace=False
    )
    found = problems_after(tiny_run, f"bulk {mode}", lambda a: nudged(a, 2 * int(pick[0])))
    assert any("vs reference" in p for p in found)


def test_bulk_output_not_finite(tiny_run):
    found = problems_after(tiny_run, "bulk disi-g", lambda a: nudged(a, 1, math.nan))
    assert any("not finite" in p for p in found)


def test_single_output_against_batch_row(tiny_run):
    found = problems_after(tiny_run, "single eta05 0", lambda a: nudged(a, 1))
    assert any("vs batch row" in p for p in found)


def test_regression_quality(tiny_run):
    fx = tiny_run.fx
    found = problems_after(tiny_run, "bulk disi-r", lambda a: fx.x1.copy())
    assert any("MSE" in p for p in found)


def test_generation_quality(tiny_run):
    fx = tiny_run.fx
    found = problems_after(tiny_run, "bulk disi-g", lambda a: fx.x1 + 0.0)
    assert any("energy distance" in p for p in found)


def test_train_trace_must_repeat(tiny_run):
    found = problems_after(tiny_run, "train loss trace", lambda t: nudged(t, len(t) - 1, 1e-12))
    assert any("prefix rerun" in p for p in found)


def test_loss_trace_must_fall():
    with pytest.raises(checks.CheckFailed, match="tail loss"):
        checks.loss_trace("flat", np.ones(300))


def test_cli_output_against_reference(tiny_run):
    path = tiny_run.workdir / "cli_restored.csv"
    good = path.read_text()
    lines = good.splitlines()
    pick = np.random.default_rng(tiny_run.seed).choice(
        tiny_run.sizes.points, harness.REFERENCE_ITEMS, replace=False
    )
    row = 1 + int(pick[0])
    x, y = lines[row].split(",")
    lines[row] = f"{float(x) + 1e-6!r},{y}"
    path.write_text("\n".join(lines) + "\n")
    try:
        tiny_run.problems = []
        tiny_run.verify()
        assert any("rgflow restore item" in p for p in tiny_run.problems)
    finally:
        path.write_text(good)
        tiny_run.problems = []


def test_rerun_must_be_identical(tiny_run):
    tiny_run.same_as_first("bulk disi-r", nudged(tiny_run.outputs["bulk disi-r"], 0, 1e-15))
    tiny_run.same_as_first("rgflow restore output", tiny_run.outputs["rgflow restore output"] + b" ")
    assert len(tiny_run.problems) == 2
    tiny_run.problems = []


def test_reference_tracks_seed_and_weights(tiny_run):
    """The reference disagrees with rgflow when the stream or the weights differ."""
    fx = tiny_run.fx
    ref = ReferenceModel(fx.model_path)
    out = tiny_run.outputs["bulk eta05"]
    checks.close("same stream", out[3], ref.restore(fx.x1[3], MODES["eta05"], fx.seed, 3))
    with pytest.raises(checks.CheckFailed):
        checks.close("other stream", out[3], ref.restore(fx.x1[3], MODES["eta05"], fx.seed, 4))
    ref.w["W2"][0, 0] += 1e-3
    with pytest.raises(checks.CheckFailed):
        checks.close("other weights", out[3], ref.restore(fx.x1[3], MODES["eta05"], fx.seed, 3))


# -- malformed-input outcomes --------------------------------------------------------


def test_control_must_be_rejected(tiny_run):
    """A control input that rgflow accepts makes the run incorrect, not merely failed."""
    path = tiny_run.workdir / f"{harness.CONTROL}.csv"
    good = path.read_text()
    path.write_text("x1_1,x1_2\n0.5,0.25\n")
    try:
        tiny_run.malformed(harness.CONTROL)
        assert any(harness.CONTROL in p for p in tiny_run.problems)
        assert harness.CONTROL not in tiny_run.failed_inputs
    finally:
        path.write_text(good)
        tiny_run.problems = []


@pytest.mark.parametrize(
    "code, stderr, out_text",
    [
        (1, "Traceback (most recent call last):\nStopIteration\n", None),
        (0, "", "x_1,x_2\nnan,nan\n"),
        (2, "error: one\nerror: two\n", None),
        (2, "error: bad input\n", "x_1,x_2\ninf,1.0\n"),
        (3, "warning: something\n", None),
    ],
)
def test_rejected_refuses_wrong_outcomes(code, stderr, out_text):
    with pytest.raises(checks.CheckFailed):
        checks.rejected("case", code, stderr, out_text)


def test_rejected_accepts_typed_error():
    checks.rejected("control", 2, "import time: 5 | 5 | x\nerror: x (1, 3) incompatible\n", None)


def test_checks_on_plain_arrays():
    with pytest.raises(checks.CheckFailed):
        checks.close("shape", np.zeros(3), np.zeros(4))
    with pytest.raises(checks.CheckFailed):
        checks.finite("empty", np.zeros(0))
    with pytest.raises(checks.CheckFailed):
        checks.loss_trace("nan", np.array([1.0] * 100 + [math.nan] + [0.1] * 100))
