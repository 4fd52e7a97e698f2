#!/usr/bin/env python3
"""periodyn benchmark: the public CLI on four workloads, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; periodyn is imported from ``src/`` there.
One CLI command runs at a time (``compare`` with ``--workers 1``), so each
command waits for the previous one.  Every command's exit code and output
are checked; a failed check counts as a failed operation.

With ``--trace 0`` the commands run in fresh interpreters (probe.py), as
when a user runs the CLI.  Each such process first imports
``periodyn.cli`` and parses and validates the workload's config, which is
one ``setup_s`` sample, then runs ``certify`` and then the workload's main
command through ``periodyn.cli.main``, one sample each.  After one
untimed warm-up process (byte-code and file caches), processes follow one
another while the next is expected to end before ``--seconds`` is up (at
least ``MIN_PROCESSES``).  The last line reports the median of each timing
over these processes and their largest peak RSS.

Each timing is rescaled to the host's idle speed.  On a shared host the
speed of the same code swings by 2x and more for seconds to minutes at a
time, as other tenants come and go, so raw times measure the neighbours.
Each probe therefore times a fixed calibration loop (``probe.calibrate``)
after the set-up and after each command.  A timing is multiplied by
``(CALIBRATION_REF_S / c) ** CALIBRATION_EXPONENT``, where ``c`` is the
mean of the calibrations on either side of it (the one after it, for
set-up).  The raw medians are in the detail line.

With ``--trace 1`` one certify plus one main command run in this process
untraced, then again traced (see tracer.py); the last line reports
per-layer counts and times from the traced pair, the tracing overhead, and
the scaling rows of the workload.

The last line is always one JSON object with the keys correct, attempted,
failed and metrics; the line before it holds the raw samples.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
REFERENCES = HERE / "references.json"

SETUP_SAMPLES = 5  # fresh set-ups in a traced run, for the import/parse/validate split
MIN_PROCESSES = 4  # timed processes in an untraced run, however short --seconds is
# probe.calibrate() on the idle 2-vCPU VM the benchmark was defined on
CALIBRATION_REF_S = 0.025
# Contention slows the tight calibration loop more than periodyn's commands:
# over 37 runs of 28 s on that VM, with the loop 1.5x to 3x slower than idle,
# run medians still fell as the loop slowed when divided by its full
# slowdown, and rose with it when divided by its square root.  The exponent
# between gave the least spread across runs of the same code.
CALIBRATION_EXPONENT = 0.75
# Inputs derived from the seed (ensemble draws, the wide network) cycle
# through this many variants, so that each has a reference result recorded
# when the benchmark was defined (see record_references.py).
VARIANTS = 16
STATE_TOL = 1e-6

START = time.perf_counter()


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_cli():
    if not (SRC / "periodyn" / "cli.py").is_file():
        die(f"no periodyn sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import periodyn.cli as cli
    if Path(cli.__file__).resolve().parent != (SRC / "periodyn").resolve():
        die(f"imported periodyn from {cli.__file__}, not from {SRC}")
    return cli


# --- workloads ----------------------------------------------------------------

# Sizes of each workload's inputs: "full" is what the benchmark measures,
# "smoke" shrinks every input for the self-check (selfcheck.py).
SIZES = {
    "builtin-orbit": {"full": {"h": "1e-2", "fp_tol": "1e-10"},
                      "smoke": {"h": "1e-2", "fp_tol": "1e-8"}},
    "ensemble": {"full": {"instances": 25}, "smoke": {"instances": 8}},
    "distributed": {"full": {"t_end": "3", "h": "1e-2"},
                    "smoke": {"t_end": "1", "h": "1e-2"}},
    "wide-n30": {"full": {"n": 30, "grid": "512", "t_end": "1", "h": "1e-2"},
                 "smoke": {"n": 6, "grid": "512", "t_end": "0.5", "h": "1e-2"}},
}


class Bench:
    """One run: builds the inputs, runs and checks commands, keeps samples."""

    def __init__(self, cli, workload: str, seed: int, scale: str, reference):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.variant = seed % VARIANTS
        self.scale = scale
        self.size = SIZES[workload][scale]
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.last_solve: dict = {}
        self.setups: list[dict] = []  # one row per fresh interpreter
        WORK.mkdir(exist_ok=True)
        self.tag = f"{workload}-{scale}"
        self.config = self._write_config()

    def _write_config(self) -> str:
        import inputs
        name = self.workload
        if name in ("builtin-orbit", "ensemble"):
            return self.cli.builtin_config_path()
        path = WORK / f"{self.tag}.json"
        doc = (inputs.DISTRIBUTED if name == "distributed"
               else inputs.wide_network(self.variant, self.size["n"]))
        inputs.write_config(doc, path)
        return str(path)

    # -- argv of the two commands --

    def certify_argv(self) -> list[str]:
        grid = self.size.get("grid")
        return ["certify", self.config] + (["--grid", grid] if grid else [])

    def solve_argv(self) -> list[str]:
        s = self.size
        name = self.workload
        if name == "builtin-orbit":
            return ["find-period", self.config, "--h", s["h"], "--fp-tol", s["fp_tol"],
                    "--out", str(WORK / f"{self.tag}-orbit.csv")]
        if name == "ensemble":
            return ["compare", self.config, "--ensemble", str(s["instances"]),
                    "--seed", str(200 * self.variant), "--workers", "1"]
        return ["simulate", self.config, "--force", "--h", s["h"], "--t-end", s["t_end"],
                "--out", str(WORK / f"{self.tag}-states.csv")]

    # -- running and checking --

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)
        print(f"perfbench: FAILED {what}", file=sys.stderr)

    def command(self, argv: list[str], check) -> float:
        """Run one CLI command in this process; return its wall time."""
        self.attempted += 1
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli.main(argv)
        except Exception:  # a crash is a failed operation, the run goes on
            self._fail(f"{argv[0]} raised:\n{traceback.format_exc()}")
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        self._judge(argv, code, out.getvalue(), check)
        return elapsed

    def spawn(self) -> tuple[dict | None, float]:
        """Run certify, then the main command, in one fresh interpreter.

        Returns the probe's row (None if the process failed) and the wall
        time of the whole process.
        """
        commands = ((self.certify_argv(), self.check_certify),
                    (self.solve_argv(), self.check_solve))
        start = time.perf_counter()
        row = self.probe("setup", self.config,
                         *(arg for argv, _ in commands for arg in ("--", *argv)))
        wall = time.perf_counter() - start
        if row is not None:
            for (argv, check), done in zip(commands, row["commands"], strict=True):
                self.attempted += 1
                self._judge(argv, done["code"], done["stdout"], check)
        return row, wall

    def _judge(self, argv: list[str], code: int, stdout: str, check) -> None:
        if code != 0:
            self._fail(f"{argv[0]} exited {code}")
            return
        try:
            problem = check(json.loads(stdout))
        except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem:
            self._fail(f"{argv[0]}: {problem}")

    def check_certify(self, report: dict) -> str | None:
        res = report["results"]
        cert = res.get("certificate") or {}
        if res.get("certified") is not True:
            return "not certified"
        if not (cert["eta"] > 0.0 and cert["alpha"] > 0.0):
            return f"eta={cert['eta']} alpha={cert['alpha']} not positive"
        return None

    def check_solve(self, report: dict) -> str | None:
        self.last_solve = report["results"]
        res = report["results"]
        ref = self.reference
        name = self.workload
        if name == "builtin-orbit":
            if res.get("converged") is not True:
                return "orbit search did not converge"
            if not res["residual"] <= float(self.size["fp_tol"]):
                return f"residual {res['residual']} above fp_tol"
            return _orbit_problem(WORK / f"{self.tag}-orbit.csv", ref)
        if name == "ensemble":
            counts = res["ensemble"]["counts"]
            if counts["split_sup_and_not_pointwise"] != 0:
                return "split-sup accepted an instance the weight search rejects"
            expected = ref[str(self.variant)]
            if counts != expected:
                return f"counts {counts} differ from reference {expected}"
            return None
        expected = ref if name == "distributed" else ref[str(self.variant)]
        steps = round(float(self.size["t_end"]) / float(self.size["h"]))
        if res["nodes"] != steps + 1:
            return f"{res['nodes']} nodes, expected {steps + 1}"
        diff = max(abs(a - b) for a, b in zip(res["final_state"], expected, strict=True))
        if not diff <= STATE_TOL:
            return f"final state off its reference by {diff:.3g}"
        return None

    def certify(self) -> float:
        return self.command(self.certify_argv(), self.check_certify)

    def solve(self) -> float:
        return self.command(self.solve_argv(), self.check_solve)

    def probe(self, kind: str, config: str, *argv: str) -> dict | None:
        """Run probe.py in a fresh interpreter; keep its set-up row."""
        self.attempted += 1
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), kind, str(SRC), config, *argv],
            capture_output=True, text=True, timeout=170, check=False)
        if proc.returncode != 0:
            self._fail(f"probe {kind} {' '.join(argv[:1])} exited {proc.returncode}: "
                       f"{proc.stderr.strip()[-500:]}")
            return None
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        if kind == "setup":
            self.setups.append(row)
        return row


def _orbit_problem(path: Path, ref: dict) -> str | None:
    import numpy as np
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    expected = np.asarray(ref["nodes"])
    stride = ref["stride"]
    if rows.shape[0] != ref["rows"]:
        return f"orbit has {rows.shape[0]} nodes, reference {ref['rows']}"
    diff = float(np.max(np.abs(rows[::stride] - expected)))
    if not diff <= STATE_TOL:
        return f"orbit nodes off the reference by {diff:.3g}"
    return None


# --- statistics and output ----------------------------------------------------

def median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0  # no samples: the run is already failed


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def emit(bench: Bench, metrics: dict, detail: dict) -> None:
    detail = dict(detail, workload=bench.workload, seed=bench.seed,
                  variant=bench.variant, scale=bench.scale, problems=bench.problems)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def run_untraced(bench: Bench, seconds: float) -> None:
    deadline = START + seconds
    bench.probe("setup", bench.config)  # warm-up, not timed
    rows, walls = [], []
    while len(walls) < MIN_PROCESSES or time.perf_counter() + median(walls) <= deadline:
        row, wall = bench.spawn()
        walls.append(wall)
        if row is not None:
            rows.append(row)
    names = ("certify_s", "solve_s")
    raw = {"setup_s": [row["total_s"] for row in rows],
           **{name: [row["commands"][k]["seconds"] for row in rows]
              for k, name in enumerate(names)}}
    # the calibrations that bracket each timing: after set-up, after each command
    speed = {"setup_s": [CALIBRATION_REF_S / row["calibration_s"][0] for row in rows],
             **{name: [2 * CALIBRATION_REF_S / sum(row["calibration_s"][k:k + 2])
                       for row in rows] for k, name in enumerate(names)}}
    speed = {name: [f ** CALIBRATION_EXPONENT for f in fs] for name, fs in speed.items()}
    samples = {name: [t * f for t, f in zip(raw[name], speed[name])] for name in raw}
    metrics = {name: (median(xs), "s") for name, xs in samples.items()}
    rss = [row["peak_rss_mb"] for row in rows]
    metrics["peak_rss_mb"] = (max(rss, default=0.0), "MB")
    emit(bench, metrics, {
        **samples, "peak_rss_mb": rss, "processes": len(walls),
        "raw": raw, "raw_medians": {name: median(xs) for name, xs in raw.items()},
        "calibration_s": [row["calibration_s"] for row in rows],
        "elapsed_s": time.perf_counter() - START})


def run_traced(bench: Bench) -> None:
    import tracer as tracing

    for _ in range(SETUP_SAMPLES):
        bench.probe("setup", bench.config)
    start = time.perf_counter()
    bench.certify()
    bench.solve()
    untraced = time.perf_counter() - start

    tracer = tracing.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        tracer.op = 1
        bench.certify()
        tracer.op = 2
        bench.solve()
        traced = time.perf_counter() - start
    finally:
        tracer.uninstall()
    tracer.write(WORK / f"trace-{bench.tag}-seed{bench.seed}.json")

    metrics = layer_metrics(tracer, bench.setups, bench.last_solve)
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics.update(scaling_rows(bench))
    emit(bench, metrics, {"untraced_s": untraced, "traced_s": traced,
                          "layers": tracer.by_name(),
                          "elapsed_s": time.perf_counter() - START})


def layer_metrics(tracer, setup: list[dict], solve_results: dict) -> dict:
    spans = tracer.by_name()
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "lookups": 0, "notes": []}

    def get(name: str) -> dict:
        return spans.get(name, empty)

    sim = get("integrate.simulate")
    steps = sum(sim["notes"])
    lp = get("certify.linprog")
    lookups, lookup_s, from_ic, extrapolated = tracer.lookup
    iterations = solve_results.get("iterations", 0)
    instances = get("cli.ensemble_instance")["calls"]
    by_id = {s.sid: s for s in tracer.spans}

    def in_instance(span) -> bool:
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == "cli.ensemble_instance":
                return True
        return False

    instance_find_weights = sum(1 for s in tracer.spans
                                if s.name == "certify.find_weights" and in_instance(s))
    return {
        "cli.import_s": (median([r["import_s"] for r in setup]), "s"),
        "cli.parse_config_s": (median([r["parse_s"] for r in setup]), "s"),
        "cli.ensemble_instance_s": (
            ratio(get("cli.ensemble_instance")["total_s"], instances), "s"),
        "cli.write_csv_s": (get("integrate.write_states_csv")["self_s"], "s"),
        "cli.csv_bytes": (sum(get("integrate.write_states_csv")["notes"]), "B"),
        "model.validate_s": (median([r["validate_s"] for r in setup]), "s"),
        "expressions.eval_calls": (tracer.expr_eval[0], "count"),
        "expressions.eval_s": (tracer.expr_eval[1], "s"),
        "kernels.quadrature_calls": (get("kernels.density_quadrature")["calls"], "count"),
        "kernels.quadrature_nodes": (get("kernels.density_quadrature")["lookups"], "count"),
        "kernels.quadrature_s": (get("kernels.density_quadrature")["self_s"], "s"),
        "integrate.simulate_calls": (sim["calls"], "count"),
        "integrate.steps": (steps, "count"),
        "integrate.step_us": (ratio(sim["total_s"], steps) * 1e6, "us"),
        "integrate.lookups": (lookups, "count"),
        "integrate.lookups_per_step": (ratio(lookups, steps), "count/step"),
        "integrate.lookup_s": (lookup_s, "s"),
        "integrate.ic_lookup_share": (ratio(from_ic, lookups), "ratio"),
        "integrate.extrapolated_lookups": (extrapolated, "count"),
        "periodic.iterations": (iterations, "count"),
        "periodic.period_map_s": (
            ratio(get("periodic.find_periodic_orbit")["total_s"], iterations), "s"),
        "periodic.verify_s": (get("periodic.verify_periodicity")["total_s"], "s"),
        "periodic.rate_fit_s": (get("periodic.estimate_decay_rate")["total_s"], "s"),
        "certify.find_weights_calls": (get("certify.find_weights")["calls"], "count"),
        "certify.find_weights_s": (get("certify.find_weights")["self_s"], "s"),
        "certify.find_weights_per_instance": (
            ratio(instance_find_weights, instances), "ratio"),
        "certify.lp_calls": (lp["calls"], "count"),
        "certify.lp_s": (lp["self_s"], "s"),
        "certify.lp_rows": (sum(rows for rows, _ in lp["notes"]), "count"),
        "certify.lp_bytes": (max((nbytes for _, nbytes in lp["notes"]), default=0), "B"),
        "certify.mmatrix_s": (get("certify.mmatrix_weights")["self_s"], "s"),
        "certify.decay_rate_s": (get("certify.find_decay_rate")["self_s"], "s"),
        "certify.bounds_s": (get("certify.compute_bounds")["self_s"], "s"),
        "certify.split_sup_s": (get("certify.search_split_sup_criterion")["self_s"], "s"),
    }


SCALING_T_END = 1.0
SCALING_H = 1e-2
SCALING_NS = (10, 30)


def scaling_rows(bench: Bench) -> dict:
    """Cost against h on the distributed input and against n on the wide one.

    Reported as zero on the workloads they do not belong to.
    """
    rows = {"scale.step_us.h": 0.0, "scale.step_us.h_half": 0.0}
    for n in SCALING_NS:
        rows.update({f"scale.lp_rows.n{n}": 0, f"scale.lp_bytes.n{n}": 0,
                     f"scale.peak_rss_mb.n{n}": 0.0})
    name = bench.workload
    if name == "distributed":
        import inputs
        from periodyn.integrate import simulate
        from periodyn.model import ConstantIC
        model = bench.cli.parse_config(json.dumps(inputs.DISTRIBUTED))
        ic = ConstantIC((0.0,) * model.n)
        for key, h in (("scale.step_us.h", SCALING_H), ("scale.step_us.h_half", SCALING_H / 2)):
            start = time.perf_counter()
            traj = simulate(model, ic, SCALING_T_END, h)
            steps = traj.times.size - 1
            rows[key] = (time.perf_counter() - start) / steps * 1e6
    elif name == "wide-n30":
        import inputs
        for n in SCALING_NS:
            path = WORK / f"{bench.tag}-scale-n{n}.json"
            inputs.write_config(inputs.wide_network(bench.variant, n), path)
            row = bench.probe("lp", str(path))
            if row is not None:
                rows[f"scale.lp_rows.n{n}"] = row["lp_rows"]
                rows[f"scale.lp_bytes.n{n}"] = row["lp_bytes"]
                rows[f"scale.peak_rss_mb.n{n}"] = row["peak_rss_mb"]
    units = {"step_us": "us", "lp_rows": "count", "lp_bytes": "B", "peak_rss_mb": "MB"}
    return {key: (value, units[key.split(".")[1]]) for key, value in rows.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke shrinks every input, for selfcheck.py")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run then kills and reaps the running probe
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # --seed, not the environment, picks the ensemble; probes inherit this
    os.environ.pop("PERIODYN_SEED", None)
    cli = import_cli()
    with open(REFERENCES, "r", encoding="utf-8") as fh:
        reference = json.load(fh)[args.scale][args.workload]
    bench = Bench(cli, args.workload, args.seed, args.scale, reference)
    if args.trace:
        run_traced(bench)
    else:
        run_untraced(bench, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
