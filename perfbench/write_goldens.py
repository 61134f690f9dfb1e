"""Record the golden reports that the bundled-suites workload compares against.

Runs each bundled scenario once and writes its JSON report, timing block
removed, to ``golden/<scenario>.json``. Rerun only when a change sets out to
alter a verdict and says so.

Usage: python3 perfbench/write_goldens.py
"""

from workloads import GOLDEN_DIR, SCENARIOS, harness, run_scenario, scenario_path, strip_timing

if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in SCENARIOS:
        text = strip_timing(run_scenario(harness.load_scenario(scenario_path(name))))
        (GOLDEN_DIR / f"{name}.json").write_text(text)
        print(f"wrote golden/{name}.json ({len(text)} bytes)")
