"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import math
import sys
import time

import numpy as np
import pytest
from scipy.integrate import quad

from periodyn.expressions import const, term_expr
from periodyn.kernels import (Atom, DelayKernel, DistributedPart, ExponentialDensity,
                              TableDensity, UniformDensity)
from periodyn.model import Activation, ConstantIC
from periodyn.certify import (check_row_dominance, compare_criteria, compute_bounds,
                              find_decay_rate, find_weights, random_discrete_delay_model)
from periodyn.cli import builtin_config_path, main, run_ensemble
from periodyn.integrate import simulate
from periodyn.periodic import PeriodSegment, find_periodic_orbit, verify_periodicity

from helpers import (convergence_order, estimate_decay_rate, exp_moment, scalar_model,
                     total_variation, weighted_norms)

BUILTIN_ETA_ORACLE = 0.07199615906297285  # dense-grid evaluation, worst row 3
SCALAR_ALPHA_ORACLE = 0.4428544010015685  # root of exp(a) + a = 2


def _report(num: int, ok: bool, detail: str) -> None:
    # bypass capture so the per-criterion line shows in any pytest invocation
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}",
          file=sys.__stdout__)
    assert ok, detail


class TestAcceptance:
    def test_1_benchmark_certification(self, builtin):
        t0 = time.perf_counter()
        eta, ok_unit = check_row_dominance(builtin, np.ones(3), 4096)
        cert = find_weights(builtin, grid_points=4096)
        elapsed = time.perf_counter() - t0
        ok = (ok_unit and 0.05 <= eta <= 0.12
              and abs(eta - BUILTIN_ETA_ORACLE) <= 1e-9
              and cert is not None and cert.eta >= eta - 1e-12
              and elapsed < 5.0)
        _report(1, ok, f"unit-weight margin eta={eta:.6f} in [0.05, 0.12], "
                       f"certificate eta={cert.eta:.6f}, runtime {elapsed:.2f}s < 5s")

    def test_2_benchmark_comparison(self, capsys):
        t0 = time.perf_counter()
        code = main(["compare", builtin_config_path(), "--draws", "200", "--seed", "7"])
        elapsed = time.perf_counter() - t0
        report = json.loads(capsys.readouterr().out)
        table = {c["criterion"]: c for c in report["results"]["criteria"]}
        ok = (code == 0
              and table["pointwise-discrete"]["satisfied"] is True
              and table["split-sup"]["satisfied"] is False
              and table["sup-period-scaled"]["satisfied"] is False
              and elapsed < 30.0)
        _report(2, ok, "pointwise satisfied; split-sup and period-scaled "
                       f"unsatisfied after 200-draw search; runtime {elapsed:.1f}s < 30s")

    def test_3_inclusion_property(self, builtin):
        out = run_ensemble(200, seed=7, grid=1024, draws=200, workers=1)
        counts = out["counts"]
        builtin_pointwise = find_weights(builtin, 1024) is not None
        builtin_split = compare_criteria(builtin, draws=200, seed=7)[1].satisfied
        witness = builtin_pointwise and not builtin_split
        ok = (counts["split_sup_and_not_pointwise"] == 0
              and counts["split_sup"] > 0 and witness)
        _report(3, ok, f"200 seeded instances: {counts['split_sup']} satisfy the "
                       f"split criterion, 0 of them fail the weight search; the "
                       f"benchmark witnesses the strict converse failure")

    def test_4_integrator_oracles(self):
        m1 = scalar_model(1.0, inputs=const(1.0))
        traj1 = simulate(m1, ConstantIC((0.0,)), 1.0, 1e-3)
        err1 = abs(traj1.states[-1, 0] - (1.0 - math.exp(-1.0)))

        m2 = scalar_model(1.0, kernel=DelayKernel((Atom(1.0, const(-0.5)),)))
        traj2 = simulate(m2, ConstantIC((1.0,)), 1.0, 1e-3)
        exact2 = 1.5 * np.exp(-traj2.times) - 0.5
        err2 = float(np.abs(traj2.states[:, 0] - exact2).max())

        m3 = scalar_model(1.0, inputs=term_expr("sin", 1.0, 2))
        order = convergence_order(m3, ConstantIC((0.0,)), 4.0, k0=32)
        ok = err1 <= 1e-8 and err2 <= 1e-8 and abs(order - 4.0) <= 0.3
        _report(4, ok, f"linear ODE err={err1:.2e} <= 1e-8, constant-delay "
                       f"err={err2:.2e} <= 1e-8, order={order:.2f} = 4.0 +- 0.3")

    def test_5_periodic_orbit_oracle(self):
        m = scalar_model(1.0, inputs=term_expr("sin", 1.0, 2))
        seg, residual, _ = find_periodic_orbit(m, ConstantIC((0.0,)), 1e-3,
                                               fp_tol=1e-10)
        tt = np.arange(seg.values.shape[0]) * seg.h
        exact = (np.sin(2 * np.pi * tt) - 2 * np.pi * np.cos(2 * np.pi * tt)) / (
            1.0 + 4.0 * np.pi ** 2)
        err = float(np.abs(seg.values[:, 0] - exact).max())
        ok = err <= 1e-6 and residual <= 1e-10
        _report(5, ok, f"forced linear orbit node error {err:.2e} <= 1e-6 at "
                       f"h=1e-3, fp_tol=1e-10")

    def test_6_convergence_to_periodic_waveforms(self, builtin, builtin_cert,
                                                 builtin_alpha):
        h = 1e-3
        k = int(round(builtin.omega / h))
        t0 = time.perf_counter()
        runs = [simulate(builtin, ConstantIC(ic), 20.0, h)
                for ic in ((0.0, 0.0, 0.0), (1.0, -1.0, 2.0))]
        deviations = []
        for traj in runs:
            last = traj.states.shape[0] - 1
            tail = PeriodSegment(omega=builtin.omega, h=h,
                                 values=traj.states[last - k:].copy(),
                                 derivs=traj.history.derivs[last - k: last + 1].copy())
            deviations.append(verify_periodicity(tail, builtin, h, k_periods=3))
        mutual = np.max(np.abs(runs[0].states - runs[1].states), axis=1)
        times = runs[0].times
        mask = (times >= 5.0) & (mutual >= 1e-12)
        slope = np.polyfit(times[mask], np.log(mutual[mask]), 1)[0]
        alpha_emp = -float(slope)
        elapsed = time.perf_counter() - t0
        ok = (max(deviations) <= 1e-4 and alpha_emp >= builtin_alpha - 0.02
              and elapsed < 60.0)
        _report(6, ok, f"tail periodicity deviations {deviations[0]:.2e}, "
                       f"{deviations[1]:.2e} <= 1e-4 over 3 periods; mutual decay "
                       f"{alpha_emp:.3f} >= certified {builtin_alpha:.3f} - 0.02; "
                       f"runtime {elapsed:.1f}s < 60s")

    def test_7_bound_invariance(self):
        count = 0
        seed = 0
        worst = 0.0
        while count < 50:
            seed += 1
            m = random_discrete_delay_model(np.random.default_rng(1234 + seed))
            cert = find_weights(m, grid_points=1024)
            if cert is None:
                continue
            count += 1
            _, M, _ = compute_bounds(m, cert, grid_points=1024)
            draw = np.random.default_rng(10_000 + seed)
            phi = cert.xi * M * draw.uniform(-1.0, 1.0, size=m.n)
            traj = simulate(m, ConstantIC(tuple(phi)), 6 * m.omega, m.omega / 64)
            worst = max(worst, weighted_norms(traj.states, cert.xi).max() / M)
        ok = worst <= 1.0 + 1e-6
        _report(7, ok, f"50 certified instances: max ||u||/M = {worst:.8f} "
                       f"<= 1 + 1e-6")

    def test_8_rate_consistency(self):
        m = scalar_model(2.0, kernel=DelayKernel((Atom(1.0, const(1.0)),)),
                         g=Activation.zero())
        alpha_cert = find_decay_rate(m, (1.0,), 512, tol=1e-6)
        seg, _, _ = find_periodic_orbit(m, ConstantIC((0.0,)), 0.01)
        alpha_emp, _ = estimate_decay_rate(m, seg, ConstantIC((1.0,)), 0.01, 12.0)
        ok = (abs(alpha_cert - SCALAR_ALPHA_ORACLE) <= 2e-6
              and 0.42 <= alpha_emp <= 0.60)
        _report(8, ok, f"certified rate {alpha_cert:.6f} (oracle "
                       f"{SCALAR_ALPHA_ORACLE:.6f}), fitted {alpha_emp:.4f} "
                       f"in [0.42, 0.60]")

    def test_9_kernel_moment_identities(self):
        kernels = [
            DelayKernel((Atom(0.7, term_expr("sin2", 0.4, 2)),)),
            DelayKernel((Atom(0.0, const(0.3)), Atom(1.2, const(-0.5)))),
            DelayKernel(density=DistributedPart(ExponentialDensity(2.0), const(0.5))),
            DelayKernel(density=DistributedPart(UniformDensity(1.5), const(0.8))),
            DelayKernel(density=DistributedPart(
                TableDensity((0.0, 0.5, 1.0), (1.0, -0.5, 0.25)), const(0.6))),
        ]
        worst_identity = 0.0
        for kern in kernels:
            for t in np.linspace(0.0, 2.0, 9):
                tv = total_variation(kern, float(t))
                m0 = exp_moment(kern, float(t), 0.0)
                worst_identity = max(worst_identity, abs(m0.value - tv))
        kern_exp = DelayKernel(density=DistributedPart(ExponentialDensity(2.0),
                                                       const(1.0)))
        worst_exp = 0.0
        for alpha in (0.3, 1.0, 1.7):
            closed = exp_moment(kern_exp, 0.0, alpha).value
            assert closed == pytest.approx(2.0 / (2.0 - alpha), rel=1e-13)
            oracle, _ = quad(lambda s: math.exp(alpha * s) * 2.0 * math.exp(-2.0 * s),
                             0.0, 120.0, limit=200)
            worst_exp = max(worst_exp, abs(closed - oracle))
        ok = worst_identity <= 1e-12 and worst_exp <= 1e-10
        _report(9, ok, f"zero-rate moment vs variation gap {worst_identity:.1e} "
                       f"<= 1e-12; exponential moment vs quadrature gap "
                       f"{worst_exp:.1e} <= 1e-10")
