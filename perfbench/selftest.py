#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload with --tiny, untraced and traced, and checks that
the result line names exactly the end-to-end (or per-layer) metrics of
BENCHMARK.json, each with its unit and a finite value, and that the run
is correct. Then runs the two probe-checking workloads with one
recorded probe value corrupted on purpose, and checks that the
corruption is counted as a failure. Exits 0 when every check holds.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s exited %d: %s" % (" ".join(cmd),
                                                 proc.returncode,
                                                 proc.stderr[-2000:]))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []

    def expect(ok, what):
        print("%s %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            problems.append(what)

    for wl in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(wl, trace)
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = result["metrics"]
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"},
                   "%s trace %d: result keys" % (wl, trace))
            expect(set(got) == set(want),
                   "%s trace %d: metric names %s" % (
                       wl, trace, sorted(set(got) ^ set(want)) or "match"))
            for name, unit in want.items():
                m = got.get(name, {})
                expect(m.get("unit") == unit and
                       isinstance(m.get("value"), (int, float)) and
                       math.isfinite(m["value"]),
                       "%s trace %d: %s prints in %s" % (wl, trace, name,
                                                         unit))
            expect(result["correct"] and result["failed"] == 0 and
                   result["attempted"] >= 1,
                   "%s trace %d: correct, %d of %d failed" % (
                       wl, trace, result["failed"], result["attempted"]))

    for wl in ("dm_vqe", "clifford_ga"):
        result = run(wl, 0, "--corrupt-probe")
        expect(not result["correct"] and result["failed"] >= 1,
               "%s: a corrupted probe value counts as a failure" % wl)

    print("%d problem(s)" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
