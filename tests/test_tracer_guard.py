"""The benchmark's tracer still sees the names the harness calls.

``perfbench/tracer.py`` wraps module attributes of ``afpg.harness`` and
``afpg.timestep`` and counts right-hand-side work from the state passed
first.  A renamed attribute or a call that bypasses it would leave the
``--trace 1`` metrics blind with no error, so a tiny 1-d and 2-d run are
traced here.  The tracer module is loaded from its file and not changed.
"""

import importlib.util
from pathlib import Path

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
