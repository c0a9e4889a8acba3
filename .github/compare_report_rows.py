"""Compares two szb JSONL reports on their deterministic fields.

Usage: python3 .github/compare_report_rows.py REF.jsonl OTHER.jsonl JOBS

Both reports must have a summary counting JOBS jobs, the same job names,
and per job the same status, best program and Table 1 row. Times, cache
and snapshot hits and row order may differ: a merged fleet report sorts
its rows by name and its shards may have served jobs from a cache.
"""

import json
import sys


def rows(path):
    out, jobs = {}, 0
    for line in open(path):
        rec = json.loads(line)
        if rec["type"] == "summary":
            jobs = rec["jobs"]
            continue
        out[rec["name"]] = {
            "status": rec["status"],
            "best": rec.get("best"),
            "row": [rec.get(k) for k in
                    ("i_ns", "o_ns", "i_p", "o_p", "i_d", "o_d", "n_l", "f", "rank")],
        }
    return out, jobs


ref_path, other_path, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
ref, ref_jobs = rows(ref_path)
other, other_jobs = rows(other_path)
assert ref_jobs == other_jobs == count, (ref_jobs, other_jobs)
assert set(ref) == set(other), set(ref) ^ set(other)
for name in ref:
    assert ref[name] == other[name], f"{name}: {ref[name]} != {other[name]}"
