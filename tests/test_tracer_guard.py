"""The benchmark's tracer still sees the names the harness calls.

``perfbench/tracer.py`` wraps module attributes of ``afpg.harness`` and
``afpg.timestep`` and counts right-hand-side work from the state passed
first.  A renamed attribute or a call that bypasses it would leave the
``--trace 1`` metrics blind with no error, so a tiny 1-d and 2-d run are
traced here, and linear and Burgers runs under each scheme.  The tracer
module is loaded from its file and not changed.
"""

import importlib.util
from pathlib import Path

import pytest

from afpg import harness, timestep
from afpg.config import parse_config

_TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rhs_spans_count_dofs_per_call():
    tracer_mod = _load_tracer()
    names = [(harness, n) for n in tracer_mod.HARNESS_NAMES]
    names += [(timestep, n) for n in tracer_mod.TIMESTEP_NAMES]
    before = {(module, n): getattr(module, n) for module, n in names}
    runs = {
        "semidiscrete.rhs_1d": ("k=3\ngrid.n=8\ntime.t_end=0.05\n", 3 * 8),
        "semidiscrete.rhs_2d": ("dimension=2\ngrid.nx=5\ngrid.ny=4\ntime.t_end=0.05\n",
                                4 * 5 * 4),
    }
    tracer = tracer_mod.Tracer("guard")
    tracer.install(harness, timestep)
    try:
        steps = {layer: harness.run_simulation(parse_config(text)).steps
                 for layer, (text, _) in runs.items()}
    finally:
        tracer.uninstall()
    assert all(getattr(module, n) is fn for (module, n), fn in before.items())
    layers, _ = tracer.layers()
    for layer, (_, dofs) in runs.items():
        row = layers[layer]
        assert steps[layer] > 0 and row["calls"] == 3 * steps[layer]  # SSPRK3: 3 per step
        assert row["work"] == dofs * row["calls"]
    assert layers["timestep.step"]["calls"] == sum(steps.values())


_BURGERS = "model.name=burgers\ngrid.n=8\nic.mean=1\nic.amplitude=0.1\ntime.t_end=0.05\n"


@pytest.mark.parametrize("text, layer, dofs, stages", [
    ("k=3\ngrid.n=8\ntime.t_end=0.05\n", "semidiscrete.rhs_1d", 3 * 8, 3),
    ("k=3\ngrid.n=8\ntime.scheme=rk4\ntime.t_end=0.05\n", "semidiscrete.rhs_1d", 3 * 8, 4),
    ("dimension=2\ngrid.nx=5\ngrid.ny=4\ntime.scheme=rk4\ntime.t_end=0.05\n",
     "semidiscrete.rhs_2d", 4 * 5 * 4, 4),
    (_BURGERS, "semidiscrete.rhs_1d", 2 * 8, 3),
    (_BURGERS + "time.scheme=rk4\n", "semidiscrete.rhs_1d", 2 * 8, 4),
], ids=["linear-ssprk3", "linear-rk4", "linear-2d-rk4", "burgers-ssprk3", "burgers-rk4"])
def test_step_and_rhs_calls_follow_the_steps(text, layer, dofs, stages):
    # linear runs step by the Horner form of the stability polynomial and
    # Burgers by the general stages: both call step once per step and the
    # right-hand side once per stage, with the state first
    tracer = _load_tracer().Tracer("guard")
    tracer.install(harness, timestep)
    try:
        steps = harness.run_simulation(parse_config(text)).steps
    finally:
        tracer.uninstall()
    layers, _ = tracer.layers()
    assert steps > 0
    assert layers["timestep.step"]["calls"] == steps
    assert layers[layer]["calls"] == stages * steps
    assert layers[layer]["work"] == dofs * layers[layer]["calls"]
