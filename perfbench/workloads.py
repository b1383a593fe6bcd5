"""Workload definitions: seed -> generated run configs plus the bounds the
checker applies to them.

Only the initial data (``ic.mean``, ``ic.amplitude``) depends on the
seed, inside ranges where every check below stays valid: the linear
problems are translated exactly, and Burgers ends before its breaking
time t* = 1/(2 pi amplitude).  Wave speeds do not depend on the seed,
so the step count, and with it the work per run, is the same for every
seed.  This module imports nothing from afpg or numpy: run.py uses
it without loading the solver.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("adv2d", "conv1d", "snap1d")

CONV_GRIDS = (20, 40, 80, 160)

STAGES = {"euler": 1, "ssprk3": 3, "rk4": 4}

# Burgers keeps |mean| + amplitude at this value, so dt and the step count
# do not move with the seed, and ends at BURGERS_T_END <= 0.48 t*.
BURGERS_SPEED = 0.5
BURGERS_T_END = 0.15

# Relative drift of the total mass that still counts as round-off:
# |mass(t) - mass(0)| / (|mass(0)| + amplitude * domain size).
MASS_DRIFT_MAX = 1e-12


def _config_text(pairs):
    return "".join(f"{key}={value}\n" for key, value in pairs)


def _sine_ic(rng):
    return rng.uniform(-0.5, 0.5), rng.uniform(0.5, 1.5)


def make(workload: str, seed: int) -> dict:
    """Return the generated configs and bounds of one workload.

    Each run entry has a ``label``, the config ``text`` handed to
    ``parse_config``, the ``amplitude`` the error bounds scale with and
    the bounds themselves; ``kind`` says which solver entry point runs.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "adv2d":
        mean, amp = _sine_ic(rng)
        text = _config_text([
            ("dimension", 2), ("k", 2), ("grid.nx", 160), ("grid.ny", 160),
            ("model.name", "advection"), ("model.ax", 1.0), ("model.ay", 1.0),
            ("ic.name", "sine"), ("ic.mean", repr(mean)), ("ic.amplitude", repr(amp)),
            ("upwind.mode", "adaptive"), ("time.scheme", "ssprk3"), ("time.cfl", 0.2),
            ("time.t_end", 1.0), ("output.snapshot_every", 0),
        ])
        # measured: l2 = 6.4e-6, linf = 9.2e-6 per unit amplitude
        runs = [{"label": "adv2d", "text": text, "amplitude": amp, "size": 1.0,
                 "dofs": 4 * 160 * 160, "l2_max": 2e-5 * amp, "linf_max": 3e-5 * amp}]
        return {"workload": workload, "seed": seed, "kind": "run", "runs": runs,
                "snapshot_every": 0}
    if workload == "snap1d":
        mean, amp = _sine_ic(rng)
        text = _config_text([
            ("dimension", 1), ("k", 4), ("grid.n", 10240), ("model.name", "advection"),
            ("model.a", 1.0), ("ic.name", "sine"), ("ic.mean", repr(mean)),
            ("ic.amplitude", repr(amp)), ("upwind.mode", "adaptive"),
            ("time.scheme", "rk4"), ("time.cfl", 0.1), ("time.t_end", 0.003),
            ("output.snapshot_every", 10),
        ])
        # 308 steps on 10240 cells (dt = 0.1 dx): the error sits at round-off level
        runs = [{"label": "snap1d", "text": text, "amplitude": amp, "size": 1.0,
                 "dofs": 4 * 10240, "l2_max": 1e-12 * amp, "linf_max": 1e-11 * amp}]
        return {"workload": workload, "seed": seed, "kind": "run", "runs": runs,
                "snapshot_every": 10}

    # conv1d: four convergence studies, one after another
    studies = []
    base = [("dimension", 1), ("grid.n", CONV_GRIDS[-1]), ("ic.name", "sine"),
            ("upwind.mode", "adaptive"), ("time.cfl", 0.2)]
    for label, k, scheme, extra in (
        ("advection-k2-ssprk3", 2, "ssprk3", [("model.name", "advection"), ("model.a", 1.0)]),
        ("advection-k3-rk4", 3, "rk4", [("model.name", "advection"), ("model.a", 1.0)]),
        ("system-k2-ssprk3", 2, "ssprk3",
         [("model.name", "linear_system"), ("model.matrix", "0,1;1,0")]),
    ):
        mean, amp = _sine_ic(rng)
        text = _config_text(base + extra + [
            ("k", k), ("ic.mean", repr(mean)), ("ic.amplitude", repr(amp)),
            ("time.scheme", scheme), ("time.t_end", 1.0)])
        # finest-grid l2 measured at 3.5e-6 (k2), 9.5e-10 (k3) per unit
        # amplitude; the system carries the sine on both components
        l2_per_amp = 2e-5 if k == 2 else 1e-8
        m = 2 if "system" in label else 1
        studies.append({"label": label, "text": text, "amplitude": amp, "size": 1.0,
                        "dofs": CONV_GRIDS[-1] * k * m,
                        "order": k + 1, "eoc_tol": 0.25,
                        "l2_max": l2_per_amp * amp * m})
    mean = rng.uniform(-0.2, 0.2)
    amp = BURGERS_SPEED - abs(mean)
    if not BURGERS_T_END < 0.5 / (2.0 * math.pi * amp):
        raise ValueError("Burgers would end too close to its breaking time")
    text = _config_text(base + [
        ("model.name", "burgers"), ("model.point_update", "exact"), ("k", 2),
        ("ic.mean", repr(mean)), ("ic.amplitude", repr(amp)),
        ("time.scheme", "ssprk3"), ("time.t_end", BURGERS_T_END)])
    # Burgers is still pre-asymptotic on these grids: bound the finest error
    studies.insert(2, {"label": "burgers-k2-exact", "text": text, "amplitude": amp,
                       "size": 1.0, "dofs": CONV_GRIDS[-1] * 2, "order": None,
                       "eoc_tol": None, "l2_max": 2e-6})
    return {"workload": workload, "seed": seed, "kind": "converge", "runs": studies,
            "grids": list(CONV_GRIDS), "snapshot_every": 0}
