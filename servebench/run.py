#!/usr/bin/env python3
"""Builds and runs the serving benchmark (see README.md).

Run from the repository root:

  python3 servebench/run.py --workload paper_mix --seed 1 --seconds 10 --trace 0
  python3 servebench/run.py --selftest

A measuring run builds servebench/ (and the library sources under src/)
into .bench_build/servebench, runs the serve_bench binary and passes its
output through; the last line of standard output is the JSON result. The
exit code is non-zero when the build fails, the program gives a wrong
answer or an operation fails.

--selftest checks the benchmark itself: the timing wrappers must be
transparent (byte-identical rows and meters with and without them), and on
single-client workloads two runs with the same seed must give exactly equal
counts.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_mix", "remote_cached", "live_churn")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "servebench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("servebench: library sources (src/) not found next to "
                 "servebench/; run from a full checkout")
    out = build_dir()
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configure = ["cmake", "-S", HERE, "-B", out, *generator,
                 "-DCMAKE_BUILD_TYPE=Release"]
    for attempt in range(2):
        result = subprocess.run(configure, stdout=sys.stderr,
                                timeout=BUILD_TIMEOUT_S)
        if result.returncode == 0:
            break
        if attempt == 0 and os.path.isdir(out):
            shutil.rmtree(out)  # A stale cache from another source path.
    else:
        sys.exit("servebench: cmake configure failed")
    result = subprocess.run(["cmake", "--build", out, "-j", "4"],
                            stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if result.returncode != 0:
        sys.exit("servebench: build failed")
    return os.path.join(out, "serve_bench")


def run_binary(binary, args):
    """Runs serve_bench; returns (exit code, stdout lines)."""
    try:
        result = subprocess.run([binary, *args], stdout=subprocess.PIPE,
                                text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("servebench: run exceeded %d s" % RUN_TIMEOUT_S)
    return result.returncode, result.stdout.splitlines()


def measure(binary, workload, seed, seconds, trace):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--spans",
                 os.path.join(spans, "%s-seed%d.jsonl" % (workload, seed))]
    code, lines = run_binary(binary, args)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return code, lines, result


def selftest(binary):
    ok = True
    for workload in WORKLOADS:
        code, lines = run_binary(binary, ["--workload", workload, "--seed", "3",
                                          "--mode", "transparency"])
        print("\n".join(lines))
        ok = ok and code == 0
    # Exact repeat of counts on the single-client workloads.
    counts = {0: ("allocs_per_query", "modeled_text_s_per_query"),
              1: ("text.postings_per_search", "connector.text_cache.hit_ratio")}
    for workload in ("remote_cached", "live_churn"):
        for trace, names in counts.items():
            seen = []
            for _ in range(2):
                code, _, result = measure(binary, workload, 5, 2, trace)
                if code != 0 or result is None:
                    print("determinism %s trace=%d: run failed" %
                          (workload, trace))
                    ok = False
                    break
                seen.append({n: result["metrics"][n]["value"] for n in names})
            if len(seen) == 2:
                same = seen[0] == seen[1]
                print("determinism %s trace=%d: %s %s" %
                      (workload, trace, "PASS" if same else "FAIL", seen))
                ok = ok and same
    print("selftest: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    binary = build()
    if args.selftest:
        return selftest(binary)
    if args.workload is None:
        parser.error("--workload is required")
    code, lines, result = measure(binary, args.workload, args.seed,
                                  args.seconds, args.trace)
    for line in lines:
        print(line)
    if result is None:
        print("servebench: no result line", file=sys.stderr)
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
