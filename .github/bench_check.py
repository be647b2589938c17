"""Check the last line of an untimed benchmark pass, read from stdin.

    python perfbench/run.py --workload all --seconds 0 | tail -n 1 |
        python .github/bench_check.py

Prints each workload's ``peak_mb`` and the count of failed checks, and
exits 1 when any check failed: an invocation that did not exit 0, did not
repeat its dataset's result bytes or missed the truth's clusters. It also
exits 1 when the line is not ``correct`` or lacks the ``peak_mb`` of a
workload that ``BENCHMARK.json`` names, so a pass that skipped a workload
cannot pass.
"""

import json
import sys
from pathlib import Path

last = json.load(sys.stdin)
bench = json.loads((Path(__file__).resolve().parents[1]
                    / "BENCHMARK.json").read_text())
for name, metric in sorted(last["metrics"].items()):
    if name.endswith(".peak_mb"):
        print(f"{name}: {metric['value']} MB")
missing = [w["name"] for w in bench["workloads"]
           if f"{w['name']}.peak_mb" not in last["metrics"]]
print(f"benchmark checks failed: {last['failed']}")
print(f"correct: {last['correct']}")
if missing:
    print(f"workloads missing from the line: {', '.join(missing)}")
sys.exit(last["failed"] != 0 or last["correct"] is not True or bool(missing))
