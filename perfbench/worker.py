"""A fresh interpreter that builds one workload's inputs and, when given a
share of the run, measures passes of it too.

``run.py`` starts three of these one after another. The time from start until
a worker prints ``ready`` is one set-up time: import fitzkit, touch
scipy.spatial and build the inputs. A worker samples its own speed meanwhile
(see ``calibrate.py``). With a share above zero it then runs and checks
passes for that many seconds, at least one. Its last line of output is a
JSON object with the set-up samples, the passes, and the operations
attempted and failed.

Usage: python3 perfbench/worker.py <workload> <seed> <seconds>
"""

import json
import sys

from calibrate import SpeedSampler

if __name__ == "__main__":
    sampler = SpeedSampler()
    sampler.start()
    import workloads

    workload = workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
    sampler.stop()
    setup_samples = list(sampler.samples)
    print("ready", flush=True)

    from run import Runner

    runner = Runner(workload, None, sampler)
    share = float(sys.argv[3])
    if share > 0:
        runner.run_for(share, 1)
    print(json.dumps({
        "setup_samples": setup_samples,
        "passes": [[p.times, p.units, p.samples] for p in runner.passes],
        "attempted": runner.attempted,
        "failures": runner.failures,
        "counters": workload.counters(),
    }))
