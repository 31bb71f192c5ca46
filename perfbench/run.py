#!/usr/bin/env python3
"""Builds and runs the explorer benchmark (see perfbench/README.md).

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --compare BASE.json NEW.json
  python3 perfbench/run.py --test

Run from the repository root. The benchmark is built from the repository's
sources into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
The last stdout line of a run is the JSON result, holding exactly the metrics
BENCHMARK.json declares for the mode: end_to_end with --trace 0, per_layer
with --trace 1. The full result envelope is written under .perfbench_out/.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(target):
    """Configures and builds `target`; returns its path or None."""
    out = build_dir()
    cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        log("perfbench: configure failed")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        log("perfbench: build failed")
        return None
    return os.path.join(out, target)


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-sha1:" + h.hexdigest()


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def result_line(stdout, declared):
    """The binary's last line, cut to exactly the declared metrics."""
    lines = stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys are %s" % sorted(result))
    metrics = {}
    for name in declared:
        m = result["metrics"].get(name)
        if m is None:
            raise ValueError("metric %s missing" % name)
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            raise ValueError("metric %s is not a finite number" % name)
        metrics[name] = m
    result["metrics"] = metrics
    return lines[:-1], json.dumps(result)


def run(args):
    bench = load_benchmark()
    binary = build("perfbench_explorer")
    if binary is None:
        return 1
    section = "per_layer" if args.trace else "end_to_end"
    declared = [m["name"] for m in bench[section]]
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(ROOT, ".perfbench_out"),
           "--commit", source_id()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    try:
        body, line = result_line(proc.stdout, declared)
    except (ValueError, IndexError, KeyError, TypeError) as e:
        sys.stdout.write(proc.stdout)
        log("perfbench: no valid result line: %s" % e)
        return 1
    print("\n".join(body))
    print(line, flush=True)
    return proc.returncode


def compare(base_path, new_path):
    with open(base_path) as fh:
        base = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    bench = load_benchmark()
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    for key in ("commit", "workload", "seed", "cpu_model", "nproc", "build_type",
                "kernel_tier"):
        b = base.get(key, base.get("config", {}).get(key))
        n = new.get(key, new.get("config", {}).get(key))
        print("%-12s %s%s" % (key, b, "" if b == n else "  ->  %s" % n))
    for section in ("end_to_end", "per_layer"):
        print("\n%s:" % section)
        print("  %-30s %14s %14s %12s %9s" % ("metric", "base", "new", "delta", "delta%"))
        b_m, n_m = base.get(section, {}), new.get(section, {})
        for name in list(b_m) + [n for n in n_m if n not in b_m]:
            b = b_m.get(name, {}).get("value")
            n = n_m.get(name, {}).get("value")
            if b is None or n is None:
                print("  %-30s %14s %14s" % (name, b, n))
                continue
            pct = "%+8.2f%%" % (100.0 * (n - b) / b) if b else "      n/a"
            hint = ""
            if name in better and n != b:
                worse = (n > b) == (better[name] == "lower")
                hint = "  worse" if worse else "  better"
            print("  %-30s %14.4f %14.4f %+12.4f %s%s" % (name, b, n, n - b, pct, hint))
    return 0


def test():
    binary = build("perfbench_tests")
    if binary is None:
        return 1
    return subprocess.run([binary], cwd=ROOT).returncode


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    p.add_argument("--test", action="store_true")
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.test:
        return test()
    if not args.workload:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
