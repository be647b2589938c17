"""Check the last line of an untimed benchmark pass, read from stdin.

    python perfbench/run.py --workload all --seconds 0 | tail -n 1 |
        python .github/bench_check.py

Prints each workload's ``peak_mb`` and the count of failed checks, and
exits 1 when any check failed: an invocation that did not exit 0, did not
repeat its dataset's result bytes or missed the truth's clusters.
"""

import json
import sys

last = json.load(sys.stdin)
for name, metric in sorted(last["metrics"].items()):
    if name.endswith(".peak_mb"):
        print(f"{name}: {metric['value']} MB")
print(f"benchmark checks failed: {last['failed']}")
sys.exit(last["failed"] != 0)
