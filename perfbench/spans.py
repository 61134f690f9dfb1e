"""In-memory span recorder for the traced benchmark run.

While recording, each listed public fitzkit function is replaced by a wrapper
in every fitzkit module namespace that binds it (``graph_sample`` is bound in
``operators``, ``fitzpatrick``, ``criteria``, ``harness`` and the package
itself), so calls the package makes internally are recorded too. A span holds
its layer, start, end, parent span and pass id; spans live in flat arrays
until the run ends. Counts are taken in the same wrappers.

A layer's self time is its span's duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


def _arg(args, kwargs, pos: int, name: str):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name)


def _dedupe_counts(rec, args, kwargs, out):
    return {"rows_in": len(np.atleast_2d(_arg(args, kwargs, 0, "rows"))), "rows_out": len(out)}


def _graph_sample_counts(rec, args, kwargs, out):
    rec.last_sample_pairs = len(out)
    return {"nodes_in": _arg(args, kwargs, 1, "wgrid").count, "pairs_out": len(out)}


def _monotone_counts(rec, args, kwargs, out):
    k = len(_arg(args, kwargs, 0, "g"))
    return {"products": k * k}


def _unique_domain_counts(rec, args, kwargs, out):
    return {"rows_in": len(_arg(args, kwargs, 0, "g")), "rows_out": len(out)}


def _fitz_sampled_counts(rec, args, kwargs, out):
    sample = _arg(args, kwargs, 4, "sample")
    op = _arg(args, kwargs, 0, "op")
    if sample is not None:
        n = len(sample)
    elif hasattr(op, "graph"):
        n = len(op.graph)
    else:
        n = rec.last_sample_pairs  # set by the graph_sample call made inside
    return {"affine_terms": n}


@dataclass(frozen=True)
class Layer:
    module: str
    attr: str
    metrics: tuple
    counter: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


_CALLS_SELF = ("calls", "self_s")
LAYERS = (
    Layer("vecspace", "dedupe_rows_within", ("self_s", "rows_in", "rows_out"), _dedupe_counts),
    Layer("vecspace", "project_onto_generated_set", _CALLS_SELF),
    Layer("vecspace", "conv_hull", _CALLS_SELF),
    Layer("vecspace", "hausdorff", ("self_s",)),
    Layer("operators", "resolvent_batch", _CALLS_SELF),
    Layer("operators", "graph_sample", _CALLS_SELF + ("nodes_in", "pairs_out"), _graph_sample_counts),
    Layer("operators", "FiniteGraph.from_arrays", ("self_s",)),
    Layer("operators", "monotone_check", ("self_s", "products"), _monotone_counts),
    Layer("operators", "unique_domain_points", _CALLS_SELF + ("kept_ratio",), _unique_domain_counts),
    Layer("operators", "fiber", _CALLS_SELF),
    Layer("operators", "membership", _CALLS_SELF),
    Layer("fitzpatrick", "fitz_sampled", _CALLS_SELF + ("affine_terms",), _fitz_sampled_counts),
    Layer("fitzpatrick", "fitz_domain_projection", _CALLS_SELF),
    Layer("fitzpatrick", "fitz_inequality_check", _CALLS_SELF),
    Layer("fitzpatrick", "fitz_linear", _CALLS_SELF),
    Layer("criteria", "theorem36_experiment", _CALLS_SELF),
    Layer("criteria", "near_convexity_certificate", _CALLS_SELF),
    Layer("criteria", "conv_domain_certificate", _CALLS_SELF),
    Layer("criteria", "sup_quotient", _CALLS_SELF),
    Layer("criteria", "br_check", _CALLS_SELF),
    Layer("criteria", "blowup_witness_sequence", _CALLS_SELF),
    Layer("criteria", "simons_lower_bound_check", _CALLS_SELF),
    Layer("harness", "load_scenario", ("self_s",)),
    Layer("harness", "run_suite", ("self_s",)),
    Layer("harness", "render_report", ("self_s",)),
)

UNITS = {"self_s": "s", "kept_ratio": "ratio"}


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) for every per-layer metric, trace_overhead last."""
    out = [(f"{l.name}.{m}", UNITS.get(m, "count")) for l in LAYERS for m in l.metrics]
    return out + [("trace_overhead", "ratio")]


class SpanRecorder:
    def __init__(self):
        self.layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.pass_of = array("q")
        self.counts = defaultdict(float)  # (pass id, layer index, counter) -> total
        self.pass_id = 0
        self.last_sample_pairs = 0
        self._stack = [-1]
        self._patches = self._plan_patches()

    def _wrap(self, idx: int, fn, counter):
        rec = self

        def traced(*args, **kwargs):
            me = len(rec.start)
            rec.layer.append(idx)
            rec.parent.append(rec._stack[-1])
            rec.pass_of.append(rec.pass_id)
            rec.start.append(0.0)
            rec.end.append(0.0)
            rec._stack.append(me)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                rec._stack.pop()
                rec.start[me] = t0
                rec.end[me] = t1
            if counter is not None:
                for key, val in counter(rec, args, kwargs, out).items():
                    rec.counts[(rec.pass_id, idx, key)] += val
            return out

        return traced

    def _plan_patches(self):
        """(owner, attribute, original, wrapper) for every binding to replace."""
        mods = [m for n, m in sys.modules.items() if n == "fitzkit" or n.startswith("fitzkit.")]
        patches = []
        for idx, layer in enumerate(LAYERS):
            home = sys.modules[f"fitzkit.{layer.module}"]
            if "." in layer.attr:
                cls_name, meth = layer.attr.split(".")
                owner = getattr(home, cls_name)
                raw = owner.__dict__[meth]
                patches.append((owner, meth, raw, classmethod(self._wrap(idx, raw.__func__, layer.counter))))
                continue
            fn = getattr(home, layer.attr)
            wrapper = self._wrap(idx, fn, layer.counter)
            for mod in mods:
                for name, val in list(vars(mod).items()):
                    if val is fn:
                        patches.append((mod, name, fn, wrapper))
        return patches

    @contextmanager
    def recording(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "layer": np.frombuffer(self.layer, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "pass_id": np.frombuffer(self.pass_of, dtype=np.int64),
        }

    def per_layer(self, traced_passes: list[int]) -> dict[str, float]:
        """Each metric as the set-up phase (pass 0) once plus the mean over the
        traced measured passes."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_s = dur - child
        in_setup = a["pass_id"] == 0
        in_passes = np.isin(a["pass_id"], traced_passes)
        n = max(1, len(traced_passes))

        def span_total(idx: int, values: np.ndarray) -> float:
            sel = a["layer"] == idx
            return float(values[sel & in_setup].sum() + values[sel & in_passes].sum() / n)

        def count_total(idx: int, key: str) -> float:
            setup = self.counts.get((0, idx, key), 0.0)
            return setup + sum(self.counts.get((p, idx, key), 0.0) for p in traced_passes) / n

        out = {}
        ones = np.ones(len(dur))
        for idx, layer in enumerate(LAYERS):
            for m in layer.metrics:
                if m == "calls":
                    val = span_total(idx, ones)
                elif m == "self_s":
                    val = span_total(idx, self_s)
                elif m == "kept_ratio":
                    rows_in = count_total(idx, "rows_in")
                    val = count_total(idx, "rows_out") / rows_in if rows_in else 0.0
                else:
                    val = count_total(idx, m)
                out[f"{layer.name}.{m}"] = val
        return out
