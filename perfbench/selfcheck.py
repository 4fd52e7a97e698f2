#!/usr/bin/env python3
"""Reduced-size self-check of the benchmark.

    python3 perfbench/selfcheck.py

Run from the root of a checkout.  For every workload it runs run.py at the
"smoke" scale (every input shrunk), untraced and traced, and checks that the
last line is the result object, that every operation passed its output
checks, and that exactly the metrics BENCHMARK.json names are reported, each
with its unit.  Last it checks that the benchmark refuses to run, without a
result line, in a directory that holds only BENCHMARK.json and perfbench/.
Exits 0 when everything holds.  Takes about two minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def result_problems(stdout: str, expected: dict, positive: bool) -> list[str]:
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return ["last line is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"missing {sorted(set(expected) - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, expected {unit!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value) or (positive and not value > 0):
            problems.append(f"{name}: value {value!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", workload["name"], "--seed", "3",
                                     "--seconds", "1", "--trace", str(trace),
                                     "--scale", "smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=180, check=False)
            problems = ([f"exit code {proc.returncode}: {proc.stderr[-800:]}"]
                        if proc.returncode != 0
                        else result_problems(proc.stdout, expected[trace], trace == 0))
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload['name']} trace={trace}: {status}")
            failures += bool(problems)

    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                             "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    refused = proc.returncode != 0 and '"metrics"' not in proc.stdout
    print(f"bare directory: {'refused' if refused else 'FAIL ran without sources'}")
    failures += not refused
    shutil.rmtree(bare, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
