#!/usr/bin/env python3
"""Compare two sets of benchmark runs (stdlib only).

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result files written by
`perfbench/run.py --save DIR` (<workload>-s<seed>-t<trace>.json), one
per run, for the same workloads and seeds. Runs with --trace 0 carry
the end-to-end metrics, runs with --trace 1 the per-layer ones.

For every workload and end-to-end metric this prints each side's
median and quartiles, the ratio of the medians with its base, and the
pair wins (runs paired by seed; ties count for neither side). The
verdict follows the gain rule of the choosing-metrics method:

  gain        the change wins at least 9 of every 10 pairs and the
              medians differ, in the better direction, by more than
              the parent's interquartile spread;
  regression  the change's median is worse than the parent's by more
              than the metric's bound in BENCHMARK.json;
  unresolved  the parent's own interquartile spread is wider than the
              bound, so "no change" cannot be shown, unless every
              change run reads better than every parent run;
  unchanged   none of the above: within the bound.

Per-layer metrics get medians and ratios only; they have no bound.
Exit status: 1 if any end-to-end metric regressed, else 0.
"""

import argparse
import json
import os
import re
import statistics
import sys

FILE_RE = re.compile(r"^(?P<wl>.+)-s(?P<seed>\d+)-t(?P<trace>[01])\.json$")


def load_runs(path):
    """{(workload, trace): {seed: metrics}} from one directory."""
    runs = {}
    for name in sorted(os.listdir(path)):
        m = FILE_RE.match(name)
        if not m:
            continue
        with open(os.path.join(path, name)) as f:
            doc = json.load(f)
        key = (m.group("wl"), int(m.group("trace")))
        runs.setdefault(key, {})[int(m.group("seed"))] = {
            k: v["value"] for k, v in doc["metrics"].items()}
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, pairs, better, bound):
    """(verdict, wins, pair count) for one end-to-end metric."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    if pm == 0:
        return "unresolved", wins, len(pairs)
    improvement = sign * (cm - pm)
    if pairs and wins * 10 >= 9 * len(pairs) and \
            improvement > (p3 - p1):
        return "gain", wins, len(pairs)
    if -improvement > bound * abs(pm):
        return "regression", wins, len(pairs)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if (p3 - p1) > bound * abs(pm) and not all_better:
        return "unresolved", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def fmt(v):
    return "%.6g" % v


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--bench", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer = {m["name"]: m for m in bench["per_layer"]}
    parent = load_runs(args.parent)
    change = load_runs(args.change)
    regressed = False

    for wl in [w["name"] for w in bench["workloads"]]:
        for trace, table in ((0, e2e), (1, layer)):
            p_runs = parent.get((wl, trace), {})
            c_runs = change.get((wl, trace), {})
            if not p_runs or not c_runs:
                continue
            kind = "end-to-end" if trace == 0 else "per-layer"
            print("== %s, %s (%d parent runs, %d change runs)"
                  % (wl, kind, len(p_runs), len(c_runs)))
            for name, meta in table.items():
                pv = [r[name] for r in p_runs.values() if name in r]
                cv = [r[name] for r in c_runs.values() if name in r]
                if not pv or not cv:
                    continue
                p1, pm, p3 = quartiles(pv)
                c1, cm, c3 = quartiles(cv)
                ratio = ("%.4f" % (cm / pm)) if pm else "n/a"
                line = ("  %-28s parent %s [%s, %s]  change %s [%s, %s]"
                        "  change/parent %s (base: parent median %s %s)"
                        % (name, fmt(pm), fmt(p1), fmt(p3), fmt(cm),
                           fmt(c1), fmt(c3), ratio, fmt(pm),
                           meta["unit"]))
                if trace == 0:
                    pairs = [(p_runs[s][name], c_runs[s][name])
                             for s in sorted(set(p_runs) & set(c_runs))]
                    v, wins, n = verdict(pv, cv, pairs, meta["better"],
                                         meta["bound"])
                    regressed |= v == "regression"
                    line += "  wins %d/%d  %s" % (wins, n, v)
                print(line)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
