#!/usr/bin/env python3
"""Hot-plan serving smoke: a short traced paper_mix run of the serving
benchmark must answer correctly, fail no operation, and make no statistics
searches while serving. Warm-up plans every query text once; after that the
plan cache (DESIGN.md section 7, "Planning once per query text") serves each
repeat without re-planning, so the traced ledger's
core.stats_text_searches_per_query reads exactly 0.

  python3 scripts/hot_plan_smoke.py build-servebench/serve_bench
"""

import json
import subprocess
import sys


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: hot_plan_smoke.py <path to serve_bench>")
    command = [sys.argv[1], "--workload", "paper_mix", "--seed", "1",
               "--seconds", "2", "--trace", "1"]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                         check=False)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.exit(f"hot-plan smoke: serve_bench exited {run.returncode}")
    result = json.loads(lines[-1])
    searches = result["metrics"]["core.stats_text_searches_per_query"]["value"]
    print(f"hot-plan smoke: correct={result['correct']} "
          f"failed={result['failed']} "
          f"stats_text_searches_per_query={searches}")
    if result["correct"] is not True or result["failed"] != 0 or searches != 0:
        sys.exit("hot-plan smoke: FAIL")
    print("hot-plan smoke: PASS")


if __name__ == "__main__":
    main()
