"""Compare two sets of benchmark result files, workload by workload.

Each set is a directory of result files written by run.py (one per
workload, seed and trace setting).  For every workload and end-to-end
metric it prints the median and quartiles of each set, the change of the
median, and a verdict against the bound in BENCHMARK.json:

    worse        B's median is worse than A's by more than the bound
    unresolved   a set's own quartile spread exceeds the bound
    ok           otherwise

Jobs of the same workload, seed, cycle and cell whose outputs have
different sha256 digests in the two sets are listed: for a fixed seed the
CLI output is meant to stay byte-identical across commits.
"""

from __future__ import annotations

import glob
import json
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load(directory):
    """workload -> list of untraced result documents."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        ctx = doc["context"]
        if not ctx["trace"]:
            out.setdefault(ctx["workload"], []).append(doc)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def digests(docs):
    return {(d["context"]["seed"], j["cycle"], j["cell"]): j["sha256"]
            for d in docs for j in d["jobs"]}


def main(dir_a, dir_b) -> int:
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    a, b = load(dir_a), load(dir_b)
    print(f"A = {dir_a}\nB = {dir_b}")
    print(f"{'workload':16s} {'metric':12s} {'A q1/med/q3':>30s} "
          f"{'B q1/med/q3':>30s} {'change':>8s} {'bound':>6s}  verdict")
    regressions = 0
    for workload in sorted(set(a) & set(b)):
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            qa = quartiles([d["metrics"][name]["value"] for d in a[workload]])
            qb = quartiles([d["metrics"][name]["value"] for d in b[workload]])
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            worse = change if m["better"] == "lower" else -change
            spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0
                         for q in (qa, qb))
            if worse > bound:
                verdict = "worse"
                regressions += 1
            elif spread > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:16s} {name:12s} "
                  f"{'/'.join(f'{v:.4g}' for v in qa):>30s} "
                  f"{'/'.join(f'{v:.4g}' for v in qb):>30s} "
                  f"{change:+8.1%} {bound:6.2f}  {verdict}")
        da, db = digests(a[workload]), digests(b[workload])
        mismatched = sorted(k for k in set(da) & set(db) if da[k] != db[k])
        print(f"{workload:16s} outputs compared {len(set(da) & set(db))}, "
              f"digest mismatches {len(mismatched)}")
        for seed, cycle, cell in mismatched:
            print(f"    seed {seed} cycle {cycle} {cell}")
    for workload in sorted(set(a) ^ set(b)):
        print(f"{workload:16s} present in one set only")
    return 1 if regressions else 0
