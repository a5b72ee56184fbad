#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload single-stream|grid|service \\
        --seed N --seconds S --trace 0|1 [--save DIR]

Run from the root of a checkout. The first run configures and builds
perfbench/ (the simulator libraries, ubrcsim-server and the
ubrc-perfbench benchmark binary) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; later runs only check that
the build is current. The binary reports every value it measured by
name; this script takes the metrics BENCHMARK.json names (end-to-end
ones with --trace 0, per-layer ones with --trace 1), gives each the
unit BENCHMARK.json states, prints them as a table and then, as the
last line of stdout, the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A per-layer metric the workload does not exercise reads 0. A missing
end-to-end metric, or a value whose name BENCHMARK.json does not know,
is an error.

--save DIR also writes that line to DIR/<workload>-s<seed>-t<trace>.json
for perfbench/compare.py. The exit status is non-zero when the build
fails, when the binary prints no result or a result that does not
match BENCHMARK.json, or when any correctness cross-check failed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("single-stream", "grid", "service")
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure on first use, then bring the two binaries up to date."""
    for need in ("src/CMakeLists.txt", "tools/ubrcsim-server.cc"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            log("simulator sources missing (%s); run from a full "
                "checkout" % need)
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            return False
    cmd = ["cmake", "--build", bdir, "-j", jobs, "--target",
           "ubrc-perfbench", "ubrcsim-server"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return False
    return True


def load_metrics():
    """{trace: [(name, unit)]} from BENCHMARK.json, in file order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {0: [(m["name"], m["unit"]) for m in bench["end_to_end"]],
            1: [(m["name"], m["unit"]) for m in bench["per_layer"]]}


def parse_values(stdout):
    """The binary's last line: counts and every measured value."""
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        doc = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(doc, dict) or set(doc) != {
            "correct", "attempted", "failed", "values"}:
        return None
    return doc


def shape_result(doc, metrics, trace):
    """The result line for this mode, or None after logging why not."""
    values = doc["values"]
    known = {name for names in metrics.values() for name, _ in names}
    unknown = sorted(set(values) - known)
    if unknown:
        log("values not named in BENCHMARK.json: %s" % ", ".join(unknown))
        return None
    missing = [name for name, _ in metrics[0] if name not in values]
    if trace == 0 and missing:
        log("end-to-end metrics not measured: %s" % ", ".join(missing))
        return None
    out = {}
    for name, unit in metrics[trace]:
        out[name] = {"value": values.get(name, 0), "unit": unit}
    return {"correct": doc["correct"], "attempted": doc["attempted"],
            "failed": doc["failed"], "metrics": out}


def print_table(doc, measured):
    print("%-32s %18s  %s" % ("metric", "value", "unit"))
    for name, m in doc["metrics"].items():
        shown = ("%18.6g" % m["value"]) if name in measured else \
            "%18s" % "n/a"
        print("%-32s %s  %s" % (name, shown, m["unit"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="also write the result line here")
    # Self-check knobs (perfbench/selfcheck.py).
    ap.add_argument("--insts", type=int, default=0,
                    help="instruction budget per run (0: default)")
    ap.add_argument("--corrupt", choices=("replay", "service",
                                          "decorator"),
                    help="break one cross-check on purpose")
    args = ap.parse_args()

    try:
        metrics = load_metrics()
    except (OSError, ValueError, KeyError) as e:
        log("cannot read BENCHMARK.json: %s" % e)
        return 2
    bdir = build_dir()
    if not build(bdir):
        return 2
    scratch = os.path.join(bdir, "scratch")
    os.makedirs(scratch, exist_ok=True)
    cmd = [os.path.join(bdir, "ubrc-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", os.path.join(bdir, "ubrcsim-server"),
           "--scratch", scratch]
    if args.insts:
        cmd += ["--insts", str(args.insts)]
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]

    # Own process group, so a timeout also stops the server child.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("ubrc-perfbench timed out after %d s" % RUN_TIMEOUT_S)
        return 3
    raw = parse_values(out)
    doc = shape_result(raw, metrics, args.trace) if raw else None
    if doc is None:
        sys.stdout.write(out)
        log("ubrc-perfbench exited %d without a usable result line"
            % proc.returncode)
        return 3
    notes = out.rstrip("\n").splitlines()[:-1]
    if notes:
        print("\n".join(notes))
    print_table(doc, raw["values"])
    print(json.dumps(doc))
    sys.stdout.flush()
    if args.save:
        os.makedirs(args.save, exist_ok=True)
        name = "%s-s%d-t%d.json" % (args.workload, args.seed, args.trace)
        with open(os.path.join(args.save, name), "w") as f:
            json.dump(doc, f)
            f.write("\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
