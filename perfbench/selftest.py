"""Self-test of the benchmark at a short run length.

1. Runs every workload for one second, untraced and traced, and checks the
   result line against BENCHMARK.json: the keys, every metric with its unit,
   positive end-to-end values, and every workload metric name printed with
   its unit in the table. On dense-sample the criteria.* and fitzpatrick.*
   layers must be zero.
2. Feeds one corrupted certificate, one corrupted graph and corrupted
   Fitzpatrick values through the runner and checks that each is counted as
   a failed operation, which is what error_rate reports.

Usage: python3 perfbench/selftest.py   (about five minutes on two cores)
"""

from __future__ import annotations

import json
import subprocess
import sys

from common import BENCH_DIR, ROOT

NAMED = {
    "bundled-suites": [("setup_s", "s"), ("suite_pass_s", "s"), ("scenario_s.paper-suite", "s"),
                       ("scenario_s.operator-zoo", "s"), ("peak_rss_mb", "MB"), ("error_rate", "ratio")],
    "dense-sample": [("setup_s", "s"), ("sample_pairs_per_s", "1/s"), ("sample_s.2d", "s"),
                     ("sample_s.3d", "s"), ("peak_rss_mb", "MB"), ("error_rate", "ratio")],
    "dense-evaluate": [("setup_s", "s"), ("fitz_evals_per_s", "1/s"), ("eval_ms_p50", "ms"),
                       ("eval_ms_tail", "ms"), ("infinite_share", "ratio"), ("peak_rss_mb", "MB"),
                       ("error_rate", "ratio")],
}

problems: list[str] = []


def expect(cond: bool, msg: str):
    if not cond:
        problems.append(msg)
        print(f"  FAIL {msg}")


def run_short(workload: str, trace: int, spec: dict):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    where = f"{workload} trace={trace}"
    expect(proc.returncode == 0, f"{where}: exit code {proc.returncode}: {proc.stderr[-500:]}")
    if proc.returncode != 0:
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: result keys")
    expect(result["correct"] is True and result["failed"] == 0, f"{where}: outputs not correct")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{where}: attempted")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    expect(list(metrics) == [m["name"] for m in wanted], f"{where}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = metrics.get(m["name"], {})
        expect(got.get("unit") == m["unit"], f"{where}: {m['name']} unit {got.get('unit')!r}")
        expect(isinstance(got.get("value"), (int, float)), f"{where}: {m['name']} has no value")
        if not trace:
            expect(got.get("value", 0) > 0, f"{where}: {m['name']} is not positive")
    table = lines[:-1]
    for name, unit in NAMED[workload]:
        if trace and name in ("setup_s", "peak_rss_mb"):
            continue
        expect(any(l.split()[:1] == [name] and f" {unit}" in l for l in table),
               f"{where}: {name} [{unit}] missing from the table")
    if trace and workload == "dense-sample":
        for name, val in metrics.items():
            if name.startswith(("criteria.", "fitzpatrick.")):
                expect(val["value"] == 0, f"{where}: {name} = {val['value']} on dense-sample")


def corrupted_outputs_count():
    import workloads as W
    from fitzkit.fitzpatrick import Finite, InfiniteSuspected
    from fitzkit.operators import FiniteGraph, graph_sample
    from fitzkit.vecspace import Grid, pair
    from calibrate import SpeedSampler
    from run import Runner
    from workloads import FAMILIES

    def failures(wl, ops):
        runner = Runner(wl, None, SpeedSampler())
        for op in ops:
            runner.run_op(op, None)
        return len(runner.failures), runner.attempted

    def swap(op, fake):
        return W.Op(op.label, lambda: fake(op.thunk()), op.check, op.units)

    suites = W.BundledSuites(0)
    op = [o for o in suites.ops(1) if o.label == "expected-failures"][0]
    expect(failures(suites, [op]) == (0, 1), "a correct certificate was counted as failed")
    corrupted = suites.goldens[op.label].replace('"fail"', '"pass"', 1)
    expect(corrupted != suites.goldens[op.label], "golden report has no verdict to corrupt")
    suites.goldens[op.label] = corrupted
    expect(failures(suites, [op]) == (1, 1), "a corrupted certificate was not counted")

    case = W.SampleCase(2, "box", W.family_operator("box", 2), Grid([-2.0, -2.0], [3.0, 3.0], 0.5))
    good = graph_sample(case.op, case.grid)
    duals = good.duals.copy()
    duals[3, 0] += 1e-6
    bad = FiniteGraph.from_arrays(good.primals, duals)
    expect(failures(None, [W.Op(case.label, lambda g=g: g, lambda g: W.check_sample(case, g), len)
                           for g in (good, bad)]) == (1, 2),
           "a corrupted graph was not counted, or a correct one was")

    evals = W.DenseEvaluate(7)
    outside = pair([2.0, 2.0], [0.5, 0.0])  # x outside the unit box: F is +inf
    inside = pair([0.5, 0.25], [1.0, -0.5])
    box, ident = FAMILIES.index("box"), FAMILIES.index("identity")
    expect(failures(evals, [evals.probe(box, outside), evals.probe(ident, inside)]) == (0, 2),
           "a correct value was counted as failed")
    bad = [
        swap(evals.probe(ident, inside), lambda v: Finite(v.value + 1.0)),
        swap(evals.probe(box, outside),
             lambda v: InfiniteSuspected(v.crossed_threshold, pair(v.witness.primal, -v.witness.dual))),
    ]
    expect(failures(evals, bad) == (2, 2), "corrupted values were not all counted")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("selftest: corrupted outputs")
    corrupted_outputs_count()
    for w in spec["workloads"]:
        for trace in (0, 1):
            print(f"selftest: {w['name']} trace={trace}")
            run_short(w["name"], trace, spec)
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
