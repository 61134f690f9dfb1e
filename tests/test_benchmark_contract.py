"""The names the benchmark in perfbench/ reaches fitzkit by.

The traced benchmark run patches each layer of ``perfbench/spans.py`` by name
and reads some call arguments by position, and its workloads call the public
API directly. A rename or a signature change in src/ fails here first.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from fitzkit.fitzpatrick import Finite, fitz_sampled
from fitzkit.operators import FiniteGraph, LinearOp, graph_sample, resolvent_batch
from fitzkit.vecspace import Grid, pair

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(monkeypatch, name):
    """Import perfbench/<name>.py read-only: no bytecode is written beside it,
    and its sibling modules import as the benchmark runner imports them."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for sibling in ("common", "calibrate", "spans", "workloads"):
        monkeypatch.delitem(sys.modules, sibling, raising=False)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)
    spec.loader.exec_module(mod)
    return mod


def load_spans(monkeypatch):
    return load_perfbench(monkeypatch, "spans")


def test_every_traced_layer_resolves(monkeypatch):
    spans = load_spans(monkeypatch)
    assert spans.LAYERS
    for layer in spans.LAYERS:
        owner = importlib.import_module(f"fitzkit.{layer.module}")
        for part in layer.attr.split("."):
            assert hasattr(owner, part), layer.name
            owner = getattr(owner, part)
        assert callable(owner), layer.name


def test_counted_arguments_keep_their_positions():
    # (module, function) -> {position: parameter name} read by spans' counters
    read = {
        ("vecspace", "dedupe_rows_within"): {0: "rows"},
        ("operators", "graph_sample"): {1: "wgrid"},
        ("operators", "monotone_check"): {0: "g"},
        ("operators", "unique_domain_points"): {0: "g"},
        ("fitzpatrick", "fitz_sampled"): {0: "op", 4: "sample"},
    }
    for (module, name), positions in read.items():
        fn = getattr(importlib.import_module(f"fitzkit.{module}"), name)
        params = list(inspect.signature(fn).parameters)
        for pos, expected in positions.items():
            assert params[pos] == expected, (module, name, pos)


def test_fitz_sampled_accepts_a_finite_graph_sample():
    op = LinearOp(np.eye(2), np.zeros(2))
    grid = Grid([-2.0, -2.0], [2.0, 2.0], 0.5)
    g = graph_sample(op, grid)
    assert isinstance(g, FiniteGraph)
    pt = pair([0.5, -0.25], [0.25, 0.5])
    given = fitz_sampled(op, pt, grid, sample=g)
    assert isinstance(given, Finite)
    assert given.value == fitz_sampled(op, pt, grid).value
    assert resolvent_batch(op, grid.nodes()).shape == (grid.count, 2)


@pytest.mark.parametrize("seed", [0, 96])
def test_dense_evaluate_pass_runs_as_the_benchmark_runs_it(monkeypatch, seed):
    """One dense-evaluate pass through the benchmark's own runner: each of its
    64 operations passes its oracle check, the host-speed sampler ticks at
    least once (the run's reference_ms is the mean of its samples, and a run
    without one exits 1), and the workload's named metrics build."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # run.py sets it on import
    run = load_perfbench(monkeypatch, "run")
    workload = run.WORKLOADS["dense-evaluate"](seed)
    runner = run.Runner(workload, None, run.SpeedSampler())
    runner.run_pass(traced=False)
    assert runner.failures == [] and runner.attempted == 64
    assert len(runner.passes[0].times) == 64
    assert runner.sampler.samples, "no operation of the pass lasted a sampling period"
    named = workload.named(runner.passes)
    assert named["fitz_evals_per_s"].value > 0
    assert {f"kept_ratio.{fam}" for fam in sys.modules["workloads"].FAMILIES} <= set(named)
    assert 0.0 < named["infinite_share"].value < 1.0


def test_dense_evaluate_second_pass_passes_the_benchmark_oracle(monkeypatch):
    """Two dense-evaluate passes through the benchmark's own runner: the second
    pass evaluates every probe on the Sample each graph kept from the first, and
    all 128 operations pass the oracle checks. Only the first pass, which
    builds each family's fibers, is asked to give the speed sampler a tick."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # run.py sets it on import
    run = load_perfbench(monkeypatch, "run")
    workload = run.WORKLOADS["dense-evaluate"](7)
    runner = run.Runner(workload, None, run.SpeedSampler())
    runner.run_pass(traced=False)
    assert runner.sampler.samples, "no operation of the first pass lasted a sampling period"
    kept = [g._sample for _, _, g in workload.samples]
    runner.run_pass(traced=False)
    assert runner.failures == [] and runner.attempted == 128
    assert [len(p.times) for p in runner.passes] == [64, 64]
    assert [g._sample for _, _, g in workload.samples] == kept and None not in kept


def test_dense_sample_pass_runs_as_the_benchmark_runs_it(monkeypatch):
    """One dense-sample pass through the benchmark's own runner: each of its 8
    graph_sample(verify=True) graphs is the brute-force dedupe of the
    closed-form resolvent rows, and the host-speed sampler ticks at least once."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # run.py sets it on import
    run = load_perfbench(monkeypatch, "run")
    runner = run.Runner(run.WORKLOADS["dense-sample"](0), None, run.SpeedSampler())
    runner.run_pass(traced=False)
    assert runner.failures == [] and runner.attempted == 8
    assert len(runner.passes[0].times) == 8
    assert runner.sampler.samples, "no operation of the pass lasted a sampling period"
