#!/usr/bin/env python3
"""Print a campaign record stream without its wall-clock fields.

    python3 .github/strip_timings.py records.jsonl > records.txt

Drops `timings`, `obs`, `transactions_per_sec`, the elapsed column of
`coverage_curve` and `static.analyze_ms`; everything left depends only on
the corpus, the seed and the iteration budget. Lines come out with sorted
keys, in sorted order, so streams written by different worker counts
compare with `diff`.
"""

import json
import sys

lines = []
with open(sys.argv[1]) as stream:
    for line in stream:
        record = json.loads(line)
        for key in ("timings", "obs", "transactions_per_sec"):
            record.pop(key, None)
        record["coverage_curve"] = [
            [iteration, branches]
            for iteration, _, branches in record.get("coverage_curve", [])]
        record.get("static", {}).pop("analyze_ms", None)
        lines.append(json.dumps(record, sort_keys=True))
print("\n".join(sorted(lines)))
