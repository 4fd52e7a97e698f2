#!/usr/bin/env python3
"""Record the reference results that run.py checks outputs against.

    python3 perfbench/record_references.py [--scale full|smoke]

Run from the root of a checkout whose results are trusted; it rewrites
perfbench/references.json (the scales not asked for are kept).  The
references pin outputs, not margins: the orbit nodes of find-period (every
``STRIDE``-th node), the final state of simulate, and the ensemble's
inclusion counts, for every seed variant.  A change that legitimately moves
one of these beyond run.STATE_TOL has to record them again, in a change of
its own.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

import run

STRIDE = 20


def record(cli, workload: str, variant: int, scale: str):
    bench = run.Bench(cli, workload, variant, scale, reference=None)
    results = {}
    certify_s = bench.certify()
    start = time.perf_counter()
    bench.command(bench.solve_argv(), lambda report: results.update(report["results"]))
    elapsed = time.perf_counter() - start
    if bench.failed:
        sys.exit(f"{workload} variant {variant}: {bench.problems}")
    print(f"{scale} {workload} variant {variant}: certify {certify_s:.2f} s, "
          f"{bench.solve_argv()[0]} {elapsed:.2f} s", file=sys.stderr)
    if workload == "builtin-orbit":
        rows = np.loadtxt(run.WORK / f"{bench.tag}-orbit.csv", delimiter=",", skiprows=1,
                          ndmin=2)
        return {"rows": int(rows.shape[0]), "stride": STRIDE,
                "nodes": rows[::STRIDE].tolist()}
    if workload == "ensemble":
        return results["ensemble"]["counts"]
    return results["final_state"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", choices=("full", "smoke"), action="append")
    scales = parser.parse_args().scale or ["full", "smoke"]
    cli = run.import_cli()
    refs = json.loads(run.REFERENCES.read_text()) if run.REFERENCES.is_file() else {}
    for scale in scales:
        refs[scale] = {}
        for workload in run.SIZES:
            if workload in ("ensemble", "wide-n30"):
                refs[scale][workload] = {str(v): record(cli, workload, v, scale)
                                         for v in range(run.VARIANTS)}
            else:
                refs[scale][workload] = record(cli, workload, 0, scale)
    run.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
