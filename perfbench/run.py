"""fitzkit benchmark: one closed-loop client in one Python process.

Usage:
  python3 perfbench/run.py --workload {bundled-suites,dense-sample,dense-evaluate}
                           --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run reports the end-to-end metrics and nothing is
traced. ``setup_s`` is the median of three fresh interpreters (``worker.py``)
that each import fitzkit and build the workload's inputs, and ``pass_s`` the
median pass. Where a pass is shorter than the run, the three workers and the
run process each measure passes for a quarter of ``--seconds``, so one run's
figures come from four processes. Both are in normalised seconds: an interval
timer samples the host's speed while the measured work runs, and each time is
rescaled to a nominal host speed (see ``calibrate.py``). With ``--trace 1``
the run
alternates untraced and traced passes and reports the per-layer metrics of
the traced passes plus ``trace_overhead``. Passes repeat until ``--seconds``
have gone by and the workload's minimum pass count is reached. Every
operation's output is checked against an oracle outside the timed region, and
failures count against ``attempted``.

The last line of stdout is the result object. The lines before it are a
table of every metric under the workload's own names, and the run record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

# The workloads' own calls are serial. One BLAS thread keeps the run on one
# core, where a second thread would only compete with other tenants.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np
import scipy

from calibrate import SpeedSampler, normalised
from common import BENCH_DIR, OUT_DIR, ROOT, SRC
from spans import LAYERS, SpanRecorder, per_layer_names
from workloads import WORKLOADS, PassRecord, Stat, quartiles, timing_stat

SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 150
END_TO_END = ("setup_s", "pass_s", "peak_rss_mb")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_workers(workload, seed: int, share: float, runner):
    """Starts the workers one after another. Returns the (wall, normalised)
    set-up seconds of each; their passes, attempts, failures and counters are
    added to ``runner`` and its workload."""
    setups = []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), workload.name, str(seed), repr(share)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or ready.strip() != "ready":
            raise SystemExit(f"perfbench: worker failed:\n{err[-2000:]}")
        res = json.loads(out.strip().splitlines()[-1])
        samples = res["setup_samples"]
        setups.append((elapsed, normalised(elapsed - sum(samples), samples)))
        runner.passes += [PassRecord(0, False, [tuple(t) for t in times], units, smp)
                          for times, units, smp in res["passes"]]
        runner.attempted += res["attempted"]
        runner.failures += res["failures"]
        workload.add_counters(res["counters"])
    return setups


class Runner:
    """Runs passes one operation at a time; times, traces and checks each, and
    samples the host's speed while each operation runs."""

    def __init__(self, workload, recorder, sampler):
        self.workload = workload
        self.recorder = recorder
        self.sampler = sampler
        self.passes = []
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, traced: bool):
        index = len(self.passes) + 1
        rec = self.recorder if traced else None
        if rec is not None:
            rec.pass_id = index
        times, units, samples = [], 0, []
        for i, op in enumerate(self.workload.ops(index)):
            done = self.run_op(op, rec)
            if done is not None:
                timed, n = done
                times.append((i, op.label, timed.own))
                samples += timed.samples
                units += n
        self.passes.append(PassRecord(index, traced, times, units, samples))

    def run_for(self, seconds: float, min_passes: int, trace: bool = False):
        """Passes for about ``seconds``, until this runner holds at least
        ``min_passes``; with ``trace``, every second pass is traced. Another
        pass starts only while half the last pass's time fits before the
        deadline, so a run overshoots ``seconds`` by half a pass at most on
        average rather than by up to a whole pass."""
        deadline = time.perf_counter() + seconds
        last = 0.0
        while len(self.passes) < min_passes or time.perf_counter() + last / 2 < deadline:
            t0 = time.perf_counter()
            self.run_pass(traced=trace and len(self.passes) % 2 == 1)
            last = time.perf_counter() - t0

    def run_op(self, op, rec):
        """(Timed, work units) of one checked operation, or None when it failed."""
        self.attempted += 1
        try:
            with rec.recording() if rec is not None else nullcontext():
                with self.sampler.measure() as timed:
                    out = op.thunk()
            reason = op.check(out)
            units = op.units(out)
        except Exception as e:  # a failing operation is counted, not fatal
            reason = f"{op.label}: {type(e).__name__}: {e}"
        if reason is not None:
            self.failures.append(reason)
            return None
        return timed, units


def blas_threads():
    """OpenBLAS thread count of the library numpy loaded, or None."""
    import ctypes
    import glob

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_identity() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "fitzkit").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def fmt(v: float) -> str:
    return f"{v:.6g}"


def print_table(title: str, stats: dict):
    print(title)
    print(f"  {'metric':40s} {'value':>12s} {'q1':>12s} {'q3':>12s} {'n':>5s}  unit")
    for name, st in stats.items():
        if len(st.samples) > 1:
            q1, q3 = quartiles(st.samples)
            row = f"{fmt(st.value):>12s} {fmt(q1):>12s} {fmt(q3):>12s} {len(st.samples):>5d}"
        else:
            row = f"{fmt(st.value):>12s} {'':>12s} {'':>12s} {max(1, len(st.samples)):>5d}"
        note = f"  ({st.note})" if st.note else ""
        print(f"  {name:40s} {row}  {st.unit}{note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    sampler = SpeedSampler()
    recorder = SpanRecorder() if args.trace else None
    with recorder.recording() if recorder is not None else nullcontext():
        workload = WORKLOADS[args.workload](args.seed)
    runner = Runner(workload, recorder, sampler)

    if args.trace:
        runner.run_for(args.seconds, 2, trace=True)
    else:
        share = args.seconds / (SETUP_REPEATS + 1) if workload.workers_measure else 0.0
        setup_times = run_workers(workload, args.seed, share, runner)
        runner.run_for(args.seconds - SETUP_REPEATS * share,
                       max(1, workload.min_passes - len(runner.passes)))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for reason in runner.failures[:10]:
        print(f"FAILED {reason}", file=sys.stderr)
    untraced = [p for p in runner.passes if not p.traced and p.times]
    traced = [p for p in runner.passes if p.traced and p.times]
    if not untraced or (args.trace and not traced):
        raise SystemExit("perfbench: no pass completed an operation")

    named = {}
    if not args.trace:
        named["setup_wall_s"] = timing_stat([w for w, _ in setup_times], "s", note="fresh interpreters")
    named.update(workload.named(untraced))
    if not args.trace:
        named["peak_rss_mb"] = Stat(peak_mb, "MB", note="ru_maxrss of the run process")
    named["reference_ms"] = Stat(statistics.fmean(sampler.samples) * 1e3, "ms", (),
                                 f"mean of {len(sampler.samples)} micro reference loops")
    named["error_rate"] = Stat(
        len(runner.failures) / runner.attempted, "ratio",
        note=f"{len(runner.failures)} failed of {runner.attempted} attempted",
    )
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} passes={len(runner.passes)}")
    print_table("workload metrics (untraced passes):", named)

    if args.trace:
        values = recorder.per_layer([p.index for p in traced])
        values["trace_overhead"] = statistics.median(p.norm_seconds for p in traced) / statistics.median(
            p.norm_seconds for p in untraced)
        units = dict(per_layer_names())
        metrics = {k: {"value": values[k], "unit": units[k]} for k, _ in per_layer_names()}
        print_table("per-layer metrics (set-up once + mean per traced pass):",
                    {k: Stat(v["value"], v["unit"]) for k, v in metrics.items()})
    else:
        e2e = {"setup_s": timing_stat([n for _, n in setup_times], "s", note="normalised"),
               "pass_s": timing_stat([p.norm_seconds for p in untraced], "s", note="normalised"),
               "peak_rss_mb": named["peak_rss_mb"]}
        metrics = {k: {"value": e2e[k].value, "unit": e2e[k].unit} for k in END_TO_END}
        print_table("end-to-end metrics (result names):", {k: e2e[k] for k in END_TO_END})

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **source_identity(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "micro_reference_s_mean": statistics.fmean(sampler.samples),
        "client": "closed loop, one client; processes measure one after another",
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "processes": SETUP_REPEATS + 1 if workload.workers_measure and not args.trace else 1,
        "samples": {k: max(1, len(st.samples)) for k, st in named.items()},
        "pass_s": {"raw": [p.seconds for p in untraced], "normalised": [p.norm_seconds for p in untraced]},
        "failures": runner.failures[:10],
    }
    print("run_record " + json.dumps(record, sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"record-{args.workload}.json").write_text(json.dumps(record, indent=2) + "\n")
    if recorder is not None:
        np.savez(OUT_DIR / f"spans-{args.workload}.npz",
                 layers=np.array([layer.name for layer in LAYERS]),
                 **recorder.arrays())

    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
