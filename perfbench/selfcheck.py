#!/usr/bin/env python3
"""Self-check of the repository benchmark, at a tiny budget.

    python3 perfbench/selfcheck.py

Run from the root of a checkout (it builds through perfbench/run.py).
For every workload in BENCHMARK.json, with one seed and a tiny
instruction budget, it checks that

  * run.py refuses a result whose values BENCHMARK.json does not
    name, or that lacks an end-to-end metric;
  * the untraced run emits exactly the end-to-end metrics, with their
    units, and the traced run exactly the per-layer metrics;
  * both runs pass every cross-check (failed == 0, exit status 0);
  * a deliberately corrupted cross-check is counted as a failed
    operation and fails the run, for each check that has a corruption
    switch: exact replay (grid), service responses against direct runs
    (service) and decorated against undecorated stats (single-stream).

Exit status 0 when every check holds. Takes about a minute.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import run as runner  # noqa: E402
TINY_INSTS = 2000
SECONDS = 2
CORRUPTIONS = {"grid": "replay", "service": "service",
               "single-stream": "decorator"}


def run(workload, trace, corrupt=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "1",
           "--seconds", str(SECONDS), "--trace", str(trace),
           "--insts", str(TINY_INSTS)]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else None
    except ValueError:
        doc = None
    return p.returncode, doc, p.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expect = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []

    def check(cond, what):
        print("  %-4s %s" % ("ok" if cond else "FAIL", what))
        if not cond:
            problems.append(what)

    print("result shaping")
    metrics = runner.load_metrics()
    full = {name: 1.0 for name, _ in metrics[0]}
    base = {"correct": True, "attempted": 1, "failed": 0}
    check(runner.shape_result(dict(base, values=full), metrics, 0)
          is not None, "a complete set of values is accepted")
    check(runner.shape_result(dict(base, values=dict(full, bogus=1.0)),
                              metrics, 0) is None,
          "a value BENCHMARK.json does not name is refused")
    short = dict(full)
    short.pop(metrics[0][0][0])
    check(runner.shape_result(dict(base, values=short), metrics, 0)
          is None, "a missing end-to-end metric is refused")

    for wl in [w["name"] for w in bench["workloads"]]:
        print(wl)
        for trace in (0, 1):
            rc, doc, err = run(wl, trace)
            tag = "%s --trace %d" % (wl, trace)
            check(doc is not None, tag + ": prints a result line")
            if doc is None:
                sys.stderr.write(err[-2000:])
                continue
            got = {k: v.get("unit") for k, v in doc["metrics"].items()}
            missing = sorted(set(expect[trace]) - set(got))
            extra = sorted(set(got) - set(expect[trace]))
            check(not missing and not extra,
                  tag + ": emits every named metric and no other"
                  + ("" if not missing else " (missing %s)" % missing)
                  + ("" if not extra else " (extra %s)" % extra))
            check(all(got[k] == u for k, u in expect[trace].items()
                      if k in got), tag + ": units match BENCHMARK.json")
            check(rc == 0 and doc["correct"] and doc["failed"] == 0
                  and doc["attempted"] > 0,
                  tag + ": fail_ratio 0 (attempted %d, failed %d)"
                  % (doc["attempted"], doc["failed"]))
            if trace == 0:
                zero = [k for k, v in doc["metrics"].items()
                        if not v["value"] > 0]
                check(not zero, tag + ": every end-to-end metric is "
                      "positive" + ("" if not zero else " (%s)" % zero))
        if wl in CORRUPTIONS:
            rc, doc, _ = run(wl, 0, CORRUPTIONS[wl])
            check(doc is not None and doc["failed"] >= 1
                  and not doc["correct"] and rc != 0,
                  "%s --corrupt %s: counted as a failed operation"
                  % (wl, CORRUPTIONS[wl]))

    print("selfcheck: %s" % ("PASS" if not problems else
                             "FAIL (%d problem(s))" % len(problems)))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
