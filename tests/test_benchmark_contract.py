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

from fitzkit.fitzpatrick import Finite, fitz_sampled
from fitzkit.operators import FiniteGraph, LinearOp, graph_sample, resolvent_batch
from fitzkit.vecspace import Grid, pair

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    """Import perfbench/spans.py read-only: no bytecode is written beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)
    spec.loader.exec_module(mod)
    return mod


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
