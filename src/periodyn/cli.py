"""Command-line front end: certify, simulate, find-period, compare.

Each command reads a config document (see :mod:`periodyn.config`).  Reports
are JSON on stdout; exit codes are 0 success, 1 input error, 2 infeasible,
3 no-convergence.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

# builtin_config_path, model_to_config, parse_config, serialize_config and
# validate are re-exported: callers reach them as periodyn.cli.*
from .config import (ConfigError, builtin_config_path, config_hash, load_model,
                     model_to_config, parse_config, serialize_config)
from .model import ConstantIC, TooLargeError, holding, validate
from .certify import (ModelShapeError, check_row_dominance, compare_criteria, compute_bounds,
                      find_decay_rate, find_weights, random_discrete_delay_model)
from .integrate import DivergenceError, simulate
from .kernels import TAIL_TOL
from .periodic import (NoConvergenceError, estimate_decay_rate, find_periodic_orbit,
                       verify_periodicity)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_NO_CONVERGENCE = 3

ProcessPoolExecutor = None  # concurrent.futures' pool, imported by the first ensemble that needs one


# --- SVG line plots ----------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_MAX_POINTS_PER_LINE = 4000


def _nice_ticks(lo: float, hi: float) -> list[float]:
    span = hi - lo
    if span <= 0.0:
        return [lo]
    raw = span / 5  # about five ticks
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mag * mult
        if step >= raw:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(v) < 1e-12 * span else v)
        v += step
    return ticks


def write_line_plot(path, times: np.ndarray, states: np.ndarray,
                    labels: list[str] | None = None, title: str = "") -> None:
    """Self-contained SVG with one polyline per state column."""
    width, height = 960, 540
    ml, mr, mt, mb = 62, 14, 24, 46
    pw, ph = width - ml - mr, height - mt - mb
    n = states.shape[1]
    labels = labels or [f"u_{j + 1}" for j in range(n)]
    x0, x1 = float(times[0]), float(times[-1])
    if x1 <= x0:
        x1 = x0 + 1.0
    y0, y1 = float(states.min()), float(states.max())
    if y1 <= y0:
        y0, y1 = y0 - 1.0, y1 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def sx(x: float) -> float:
        return ml + pw * (x - x0) / (x1 - x0)

    def sy(y: float) -> float:
        return mt + ph * (1.0 - (y - y0) / (y1 - y0))

    stride = max(1, int(math.ceil(times.size / _MAX_POINTS_PER_LINE)))
    idx = np.arange(0, times.size, stride)
    if idx[-1] != times.size - 1:
        idx = np.append(idx, times.size - 1)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(f'<text x="{width / 2:.1f}" y="16" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="13">{title}</text>')
    axis_style = 'stroke="#333333" stroke-width="1"'
    parts.append(f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" {axis_style}/>')
    parts.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" {axis_style}/>')
    for tx in _nice_ticks(x0, x1):
        parts.append(f'<line x1="{sx(tx):.2f}" y1="{mt + ph}" x2="{sx(tx):.2f}" '
                     f'y2="{mt + ph + 4}" {axis_style}/>')
        parts.append(f'<text x="{sx(tx):.2f}" y="{mt + ph + 17}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{tx:g}</text>')
    for ty in _nice_ticks(y0, y1):
        parts.append(f'<line x1="{ml - 4}" y1="{sy(ty):.2f}" x2="{ml}" '
                     f'y2="{sy(ty):.2f}" {axis_style}/>')
        parts.append(f'<text x="{ml - 7}" y="{sy(ty):.2f}" text-anchor="end" '
                     f'dominant-baseline="middle" font-family="sans-serif" '
                     f'font-size="11">{ty:g}</text>')
    parts.append(f'<text x="{ml + pw / 2:.1f}" y="{height - 10}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12">t</text>')
    parts.append(f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 16 {mt + ph / 2:.1f})">u</text>')
    for j in range(n):
        color = _PALETTE[j % len(_PALETTE)]
        pts = " ".join(f"{sx(float(times[i])):.2f},{sy(float(states[i, j])):.2f}"
                       for i in idx)
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.2" '
                     f'points="{pts}"/>')
        lx = ml + pw - 8
        ly = mt + 14 + 15 * j
        parts.append(f'<line x1="{lx - 30}" y1="{ly - 4}" x2="{lx - 12}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx - 8}" y="{ly}" text-anchor="start" '
                     f'font-family="sans-serif" font-size="11">{labels[j]}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


# --- run reports and commands ------------------------------------------------

@dataclass
class RunReport:
    """One command's JSON report; ``results`` may hold the library's result dataclasses."""

    command: str
    config: str
    config_hash: str
    parameters: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)

    def emit(self) -> None:
        print(json.dumps(asdict(self), indent=2, default=lambda o: o.tolist()))


def _parse_ic(spec: str | None, n: int) -> ConstantIC:
    if spec is None or spec == "zero":
        return ConstantIC(tuple(0.0 for _ in range(n)))
    try:
        values = tuple(float(part) for part in spec.split(","))
    except ValueError as exc:
        raise ConfigError(f"--ic: cannot parse initial condition {spec!r}") from exc
    if len(values) != n:
        raise ConfigError(f"--ic: initial condition has {len(values)} entries, expected {n}")
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"--ic: initial condition {spec!r} has a non-finite entry")
    return ConstantIC(values)


def cmd_certify(args) -> int:
    model = load_model(args.config)
    report = RunReport("certify", args.config, config_hash(model),
                       parameters={"grid": args.grid, "tol": args.tol})
    cert = find_weights(model, grid_points=args.grid)
    if cert is None:
        eta, _ = check_row_dominance(model, np.ones(model.n), args.grid)
        report.results["certified"] = False
        report.results["best_unit_weight_margin"] = eta
        report.emit()
        return EXIT_INFEASIBLE
    alpha = find_decay_rate(model, cert.xi, grid_points=args.grid, tol=args.tol)
    J, M, N = compute_bounds(model, cert)
    cert = replace(cert, alpha=alpha, J=J, M=M, N=N)
    report.results["certified"] = True
    report.results["certificate"] = cert
    report.emit()
    return EXIT_OK


def cmd_simulate(args) -> int:
    model = load_model(args.config)
    report = RunReport("simulate", args.config, config_hash(model),
                       parameters={"t_end": args.t_end, "h": args.h, "ic": args.ic,
                                   "tail_tol": args.tail_tol, "grid": args.grid,
                                   "force": args.force})
    ic = _parse_ic(args.ic, model.n)
    if not args.force:
        cert = find_weights(model, grid_points=args.grid)
        if cert is None:
            report.results["certified"] = False
            report.results["note"] = "model not certified; rerun with --force to simulate anyway"
            report.emit()
            return EXIT_INFEASIBLE
        # the weight search computes no rate or bounds: print the fields it sets
        report.results["certificate"] = {k: getattr(cert, k) for k in ("xi", "eta", "grid_points")}
    try:
        traj = simulate(model, ic, args.t_end, args.h, tail_tol=args.tail_tol)
    except DivergenceError as exc:
        report.results["diverged_at"] = exc.t
        report.emit()
        return EXIT_INFEASIBLE
    report.results["nodes"] = int(traj.times.size)
    report.results["final_state"] = [float(v) for v in traj.states[-1]]
    if args.out:
        traj.write_csv(args.out)
        report.outputs.append(args.out)
    if args.plot:
        write_line_plot(args.plot, traj.times, traj.states)
        report.outputs.append(args.plot)
    report.emit()
    return EXIT_OK


def _contraction(segment, residual: float, alpha: float, omega: float) -> dict:
    """The search's largest map quotient against the certified factor e^{-alpha omega}.

    With q < 1 certified, the last iterate lies within q / (1 - q) times its
    residual of the discrete map's fixed point.
    """
    q = math.exp(-alpha * omega)
    observed = max(segment.quotients, default=None)
    within = None if observed is None else observed <= q
    if within is False:
        print(f"warning: the period map contracted by {observed:.6g} per period, worse than "
              f"the certified e^(-alpha omega) = {q:.6g}", file=sys.stderr)
    return {"observed": observed, "certified": q, "within_certified": within,
            "fixed_point_distance": q / (1.0 - q) * residual if q < 1.0 else None}


def cmd_find_period(args) -> int:
    model = load_model(args.config)
    report = RunReport("find-period", args.config, config_hash(model),
                       parameters={"h": args.h, "fp_tol": args.fp_tol,
                                   "grid": args.grid, "max_iters": args.max_iters})
    cert = find_weights(model, grid_points=args.grid)
    if cert is None:
        report.results["certified"] = False
        report.emit()
        return EXIT_INFEASIBLE
    cert = replace(cert, alpha=find_decay_rate(model, cert.xi, grid_points=args.grid))
    report.results["certificate"] = cert
    ic = ConstantIC(tuple(0.0 for _ in range(model.n)))
    try:
        segment, residual, iterations = find_periodic_orbit(
            model, ic, args.h, fp_tol=args.fp_tol, max_iters=args.max_iters, xi=cert.xi)
        deviation = verify_periodicity(segment, model, args.h, xi=cert.xi)
        report.results.update({
            "converged": True,
            "residual": residual,
            "iterations": iterations,
            "residual_history": list(segment.residual_history),
            "restarts": segment.restarts,
            "periodicity_deviation": deviation,
            "seam_gap": segment.seam_gap,
            "contraction": _contraction(segment, residual, cert.alpha, model.omega),
        })
        if args.rate_periods > 0:
            # decay fit from a deterministic off-orbit start: x(0) shifted by one
            perturbed = ConstantIC(tuple(float(v) + 1.0 for v in segment.eval(0.0)))
            with holding("--rate-periods", "the rate fit's run is past the float range"):
                t_end = args.rate_periods * model.omega
            try:
                fit = estimate_decay_rate(model, segment, perturbed, args.h, t_end, xi=cert.xi)
            except TooLargeError as exc:  # the fit's run, whose length --rate-periods sets
                raise TooLargeError(f"--rate-periods: {str(exc).partition(': ')[2]}") from None
            # a degenerate fit's rate is inf, which JSON cannot print
            report.results["rate_fit"] = replace(fit, alpha_emp=None) if fit.degenerate else fit
    except NoConvergenceError as exc:
        report.results["converged"] = False
        report.results["residual_history"] = exc.residual_history[-50:]
        report.results["restarts"] = exc.restarts
        report.emit()
        return EXIT_NO_CONVERGENCE
    except DivergenceError as exc:
        report.results["diverged_at"] = exc.t
        report.emit()
        return EXIT_INFEASIBLE
    if args.out:
        segment.write_csv(args.out)
        report.outputs.append(args.out)
    report.emit()
    return EXIT_OK


ENSEMBLE_CRITERIA = ("pointwise", "split_sup", "sup", "period_scaled")  # compare_criteria order


def ensemble_instance(task: tuple[int, int, int]) -> dict:
    """Evaluate all criteria on one seeded random constant-delay instance."""
    seed, grid, draws = task
    model = random_discrete_delay_model(np.random.default_rng(seed))
    reports = compare_criteria(model, grid, draws, seed)
    return {"seed": seed, "n": model.n,
            **{key: r.satisfied for key, r in zip(ENSEMBLE_CRITERIA, reports)}}


def run_ensemble(count: int, seed: int, grid: int = 1024, draws: int = 200,
                 workers: int = 1) -> dict:
    """Seeded criterion comparison over random constant-delay instances."""
    global ProcessPoolExecutor
    # the rows first, so an ensemble too large to hold fails before any instance runs
    with holding("--ensemble", f"{count} instances are too many to hold in memory"):
        rows = [None] * count
        tasks = [(seed + idx, grid, draws) for idx in range(count)]
    workers = min(workers, count)  # a fork pool starts all its workers at the first submit
    if workers > 1:
        if ProcessPoolExecutor is None:
            from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows[:] = pool.map(ensemble_instance, tasks)
    else:
        rows[:] = map(ensemble_instance, tasks)
    counts = {
        "instances": count,
        **{key: sum(r[key] for r in rows) for key in ENSEMBLE_CRITERIA},
        "split_sup_and_not_pointwise": sum(
            r["split_sup"] and not r["pointwise"] for r in rows),
        "pointwise_and_not_split_sup": sum(
            r["pointwise"] and not r["split_sup"] for r in rows),
    }
    return {"seed": seed, "counts": counts, "rows": rows}


def cmd_compare(args) -> int:
    model = load_model(args.config)
    seed = args.seed
    env_seed = os.environ.get("PERIODYN_SEED")
    if env_seed is not None:
        try:
            seed = _non_negative_int(env_seed)
        except argparse.ArgumentTypeError as exc:
            raise ConfigError(f"PERIODYN_SEED: {exc}") from None
    report = RunReport("compare", args.config, config_hash(model),
                       parameters={"grid": args.grid, "draws": args.draws, "seed": seed,
                                   "ensemble": args.ensemble, "workers": args.workers})
    pointwise, *rivals = compare_criteria(model, args.grid, args.draws, seed)
    report.results["criteria"] = [pointwise] + [
        {"criterion": label, "error": str(c)} if isinstance(c, ModelShapeError) else c
        for label, c in zip(("split-sup", "sup", "sup-period-scaled"), rivals)]
    if args.ensemble:
        report.results["ensemble"] = run_ensemble(
            args.ensemble, seed, grid=min(args.grid, 1024), draws=args.draws,
            workers=args.workers)
    report.emit()
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors (exit 1), not the infeasible code 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"error: {message}\n")


def _number(cast, ok, what: str):
    """An argparse type: ``cast(text)`` if ``ok`` holds of it, else an error naming ``what``."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {cast.__name__} value: {text!r}") from None
        if not ok(value):  # an int is shown as parsed, a float as given
            shown = value if cast is int else text
            raise argparse.ArgumentTypeError(f"must be {what}, got {shown}")
        return value
    return parse


_positive_int = _number(int, lambda v: v >= 1, "a positive integer")
_non_negative_int = _number(int, lambda v: v >= 0, "a non-negative integer")
_positive_float = _number(float, lambda v: 0.0 < v < math.inf, "a finite number > 0")
_non_negative_float = _number(float, lambda v: 0.0 <= v < math.inf, "a finite number >= 0")
_step = _number(float, lambda v: v > 0.0, "a number > 0")  # inf: the period check names it
_fraction = _number(float, lambda v: 0.0 < v < 1.0, "a number strictly between 0 and 1")


COMMANDS = ("certify", "simulate", "find-period", "compare")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of all four commands, or of ``command`` alone with the same help and errors."""
    parser = _Parser(
        prog="periodyn",
        description="Certify, simulate and compare periodically forced delayed networks.")
    # a usage line names all four commands; only the full parser reports a missing or bad one
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser,
                                metavar=command and "{" + ",".join(COMMANDS) + "}")
    common = _Parser(add_help=False)  # every command reads a config and certifies on a grid
    common.add_argument("config")
    common.add_argument("--grid", type=_positive_int, default=4096)

    def add(name: str, handler, summary: str):  # the subparser, or None if it is not built
        if command in (None, name):
            p = sub.add_parser(name, parents=[common], help=summary)
            p.set_defaults(handler=handler)
            return p

    if p := add("certify", cmd_certify, "search weights, margin, decay rate and bounds"):
        p.add_argument("--tol", type=_positive_float, default=1e-6)

    if p := add("simulate", cmd_simulate, "integrate the network and export CSV/SVG"):
        p.add_argument("--t-end", type=_non_negative_float, required=True, dest="t_end")
        p.add_argument("--h", type=_step, required=True)
        p.add_argument("--ic", default=None, help="comma-separated constant history")
        p.add_argument("--out", default=None, help="CSV output path")
        p.add_argument("--plot", default=None, help="SVG output path")
        p.add_argument("--tail-tol", type=_fraction, default=TAIL_TOL, dest="tail_tol")
        p.add_argument("--force", action="store_true",
                       help="simulate even when certification fails")

    if p := add("find-period", cmd_find_period,
                "locate the periodic orbit by period-map iteration"):
        p.add_argument("--h", type=_step, required=True)
        p.add_argument("--fp-tol", type=_positive_float, default=1e-10, dest="fp_tol")
        p.add_argument("--max-iters", type=_positive_int, default=1000, dest="max_iters")
        p.add_argument("--out", default=None, help="CSV output path for the orbit segment")
        p.add_argument("--rate-periods", type=_non_negative_int, default=0, dest="rate_periods",
                       help="periods to simulate for a decay-rate fit (default 0: no fit)")

    if p := add("compare", cmd_compare,
                "evaluate this and rival criteria, optionally on an ensemble"):
        p.add_argument("--draws", type=_positive_int, default=200)
        p.add_argument("--seed", type=_non_negative_int, default=7)
        p.add_argument("--ensemble", type=_non_negative_int, default=0)
        p.add_argument("--workers", type=_positive_int, default=1)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the named command's subparser alone; all four for --help or an unknown command
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    # what exists now (the modules) outlives the command: a full collection, which building
    # a large model's config can set off, need not scan it
    gc.freeze()
    try:
        return args.handler(args)
    except ValueError as exc:  # a ConfigError or TooLargeError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
