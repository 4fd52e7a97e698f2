"""Workload inputs that are not shipped with periodyn itself.

Both inputs are plain config documents in the CLI's JSON schema, so the
benchmark depends only on the config format, not on library internals.
"""

from __future__ import annotations

import json

import numpy as np

# Why this config exists: it is the only workload input with distributed
# delays, so it is the only one on which kernels.density_quadrature runs.
# It puts an exponential (lam=12), a uniform (width 1) and a table density
# beside discrete atoms, and the delays stay above the step h=1e-2 so that
# no lookup needs the sub-step extrapolant.  At tail_tol 1e-8 the
# exponential kernel (lam=12) reaches back 1.5 time units, so runs must go
# well past that before the Hermite buffer, not the constant initial
# history, serves most lookups.  The rate and widths are chosen so that one
# run to t=3 takes a few seconds: quadrature costs one Python-level history
# lookup per node, and the nodes grow as cutoff/h.
DISTRIBUTED = {
    "meta": {"n": 3, "omega": 2.0},
    "d": [
        [{"const": 2.4}, {"amp": 0.4, "fn": "sin2", "k": 1}],
        [{"const": 2.1}, {"amp": 0.3, "fn": "cos2", "k": 2}],
        [{"const": 2.7}, {"amp": 0.2, "fn": "sin2", "k": 4}],
    ],
    "a": [
        [[{"amp": 0.4, "fn": "sin2", "k": 2}], [{"amp": -0.3, "fn": "cos2", "k": 1}], 0.1],
        [[{"amp": 0.2, "fn": "abs_sin", "k": 1}], 0.3, [{"amp": 0.25, "fn": "cos2", "k": 2}]],
        [-0.2, [{"amp": 0.3, "fn": "sin2", "k": 1}], [{"amp": 0.2, "fn": "abs_cos", "k": 2}]],
    ],
    "kernels": [
        [{"atoms": [{"s": 0.0, "weight": [{"amp": 0.3, "fn": "sin2", "k": 4}]}]},
         {"density": {"shape": "exponential", "lam": 12.0,
                      "weight": [{"const": 0.3}, {"amp": 0.1, "fn": "cos2", "k": 1}]}},
         None],
        [None,
         {"atoms": [{"s": 0.0, "weight": 0.2}, {"s": 0.5, "weight": [{"amp": 0.2, "fn": "cos2", "k": 2}]}]},
         {"density": {"shape": "uniform", "width": 1.0,
                      "weight": [{"amp": 0.4, "fn": "sin2", "k": 1}]}}],
        [{"atoms": [{"s": 0.25, "weight": -0.15}],
          "density": {"shape": "table", "s": [0.0, 0.25, 0.5], "values": [0.0, 4.0, 0.0],
                      "weight": [{"const": 0.25}, {"amp": 0.1, "fn": "sin2", "k": 2}]}},
         None,
         {"atoms": [{"s": 0.0, "weight": [{"amp": -0.2, "fn": "cos2", "k": 4}]}]}],
    ],
    "tau": [
        [[{"const": 0.2}, {"amp": 0.3, "fn": "abs_sin", "k": 2}], 0.1, 0.0],
        [0.0, [{"const": 0.3}, {"amp": 0.2, "fn": "abs_cos", "k": 1}], 0.15],
        [[{"const": 0.1}, {"amp": 0.1, "fn": "sin2", "k": 1}], 0.0, 0.4],
    ],
    "inputs": [
        [{"amp": 1.0, "fn": "sin", "k": 1}],
        [{"const": 0.3}, {"amp": 1.5, "fn": "cos", "k": 2}],
        [{"amp": 2.0, "fn": "sin", "k": 2}],
    ],
    "activations": {"g": ["tanh", "tanh", "arctan"], "f": ["arctan", "tanh", "arctan"]},
}

_GAIN_FNS = ("sin2", "cos2", "abs_sin", "abs_cos")
_GAIN_KS = (1, 2, 4)


def wide_network(seed: int, n: int) -> dict:
    """Seeded n-unit discrete-delay network, dominant by construction.

    Why this generator exists: it drives the certify and integrate layers at
    a size the three-unit inputs hide.  At n=30 the weight LP has
    4096*30 rows (one per grid time and unit) and every stage makes n*n
    atom lookups, so costs and memory that grow with n show here.  Every
    pair has one atom and one single-term weight, so the amount of work is
    the same for every seed; only the coefficient values change.  Each row's
    instantaneous and delayed gains together stay below 0.6 of its least
    self-inhibition, so the network certifies for every seed.
    """
    rng = np.random.default_rng(seed)
    d0 = rng.uniform(2.0, 3.0, size=n)

    def gain(budget: float) -> list:
        amp = float(rng.uniform(-1.0, 1.0)) * budget
        return [{"amp": amp, "fn": _GAIN_FNS[int(rng.integers(0, 4))],
                 "k": _GAIN_KS[int(rng.integers(0, 3))]}]

    d, a, kernels, tau, inputs = [], [], [], [], []
    for i in range(n):
        budget = 0.3 * float(d0[i]) / n
        d.append([{"const": float(d0[i])},
                  {"amp": float(rng.uniform(0.0, 0.5)), "fn": "sin2",
                   "k": _GAIN_KS[int(rng.integers(0, 3))]}])
        a.append([gain(budget) for _ in range(n)])
        kernels.append([{"atoms": [{"s": 0.0, "weight": gain(budget)}]} for _ in range(n)])
        tau.append([[{"const": float(rng.uniform(0.05, 0.5))},
                     {"amp": float(rng.uniform(0.0, 0.5)), "fn": "abs_sin",
                      "k": int(rng.integers(1, 3))}] for _ in range(n)])
        inputs.append([{"const": float(rng.uniform(-0.5, 0.5))},
                       {"amp": float(rng.uniform(0.5, 2.0)), "fn": "sin",
                        "k": int(rng.integers(1, 3))}])
    acts = ["tanh", "arctan"]
    return {
        "meta": {"n": n, "omega": 2.0},
        "d": d, "a": a, "kernels": kernels, "tau": tau, "inputs": inputs,
        "activations": {"g": [acts[int(rng.integers(0, 2))] for _ in range(n)],
                        "f": [acts[int(rng.integers(0, 2))] for _ in range(n)]},
    }


def write_config(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
