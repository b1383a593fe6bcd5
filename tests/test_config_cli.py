"""Config parsing, harness behavior and CLI subcommand tests."""

import csv
import hashlib
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import afpg
from afpg import config, harness, semidiscrete, timestep
from afpg.config import ConfigError, RunConfig, parse_config, serialize_config
from afpg.grid import State1D, State2D
from afpg.harness import convergence_study, run_simulation
from afpg.cli import main

BASE_CFG = """
dimension=1
k=2
grid.n=24
model.name=advection
model.a=1.0
ic.name=sine
ic.mean=1.0
ic.amplitude=0.5
time.t_end=0.5
"""


def _assert_runs_conserving_mass(cfg):
    """The run takes steps to a finite state, its mass kept to round-off."""
    result = run_simulation(cfg)
    assert result.steps > 0 and np.all(np.isfinite(result.state.data))
    m0, m1 = (float(np.sum(mass)) for _, mass in (result.mass_log[0], result.mass_log[-1]))
    assert abs(m1 - m0) <= 1e-12 * abs(m0)


class TestConfig:
    def test_defaults_and_overrides(self):
        cfg = parse_config(BASE_CFG)
        assert cfg.grid_n == 24
        assert cfg.time_scheme == "ssprk3"
        assert cfg.time_cfl == 0.2

    def test_comments_and_blanks(self):
        cfg = parse_config("# a comment\n\nk=3  # trailing\n")
        assert cfg.degree == 3

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config("bogus=1")

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config("dimension 2")

    @pytest.mark.parametrize(
        "line",
        [
            "grid.n=2",
            "k=1",
            "k=9",
            # every interface weight follows the sign of the wave speed:
            # the fixed weights are unknown keys, and fixed is no mode
            "upwind.alpha=1.5",
            "upwind.beta=0.9",
            "ic.name=step",
            "model.name=euler",
            "time.scheme=ab3",
            "time.t_end=-1",
            "model.point_update=exact",  # not burgers
            # the 2-d stabilization weights are fixed at zero: unknown keys
            "upwind.node_alphas=1,2,3",
            "upwind.node_alphas=0,0,0,0,0,0,0,nan",
            "model.name=burgers\nmodel.point_update=exact\nk=3",
            "model.name=linear_system\nmodel.matrix=0,1;1,0\nupwind.mode=fixed",
            "model.name=linear_system\nmodel.matrix=0.8",  # one field: use advection
            # non-finite numbers: each ran 0 steps, a wrong answer or a traceback
            "time.t_end=nan",
            "time.t_end=inf",
            "time.dt=inf",
            "time.cfl=nan",
            "model.a=nan",
            "grid.x_max=inf",
            # finite bounds whose width overflows: a traceback in project_initial
            "grid.x_min=-1e308\ngrid.x_max=1e308",
            "dimension=2\ngrid.y_min=-1e308\ngrid.y_max=1e308",
            # finite widths whose sine phase 2 pi cycles width overflows: a
            # traceback from SineIC._phase
            "grid.x_min=-1e308\ngrid.x_max=0.7e308",
            "dimension=2\ngrid.y_min=-1e308\ngrid.y_max=0.7e308",
            "ic.cycles=" + "1" * 400,
            # about 1e300 steps: ran until killed
            "time.dt=1e-300",
            # ran on time.cfl while summary.txt echoed the negative dt
            "time.dt=-0.5",
            "model.name=linear_system\nmodel.matrix=0,1;-inf,0",
        ],
    )
    def test_validation_errors(self, line):
        with pytest.raises(ConfigError):
            parse_config(BASE_CFG + line)

    @pytest.mark.parametrize("slope", ["1.0", "-0.5"])
    def test_burgers_sawtooth_rejected(self, slope):
        # the periodic ramp jumps at the wrap, where the pre-shock reference
        # does not hold: this exited 0 with an L2 error of 0.354
        with pytest.raises(ConfigError, match="jumps at the wrap"):
            parse_config(f"model.name=burgers\nic.name=linear\nic.slope={slope}\n")

    def test_burgers_flat_linear_ic_accepted(self):
        cfg = parse_config("model.name=burgers\nic.name=linear\nic.slope=0\nic.mean=0.5\n"
                           "grid.n=12\ntime.t_end=0.1\n")
        assert run_simulation(cfg).norms[2] <= 1e-14

    @pytest.mark.parametrize("width", ["0", "-0.1"])
    def test_gaussian_width_must_be_positive(self, width):
        with pytest.raises(ConfigError, match="ic.width"):
            parse_config(f"ic.name=gaussian\nic.width={width}\n")

    def test_matrix_parsing(self):
        cfg = parse_config("model.name=linear_system\nmodel.matrix=0,1;1,0")
        assert cfg.model_matrix == ((0.0, 1.0), (1.0, 0.0))
        with pytest.raises(ConfigError):
            parse_config("model.name=linear_system\nmodel.matrix=0,1,2;1,0")

    def test_roundtrip(self):
        for given in (BASE_CFG, "dimension=2\nmodel.ax=0.8\nmodel.ay=-0.6\nupwind.mode=adaptive\n",
                      "model.name=linear_system\nmodel.matrix=0,1;1,-0.5\n"):
            cfg = parse_config(given)
            text = serialize_config(cfg)
            assert parse_config(text) == cfg
            # serialization is idempotent (normalized form)
            assert serialize_config(parse_config(text)) == text

    def test_readme_lists_exactly_the_parsed_keys(self):
        # the key of every key=value in README's "Config format" block, comments dropped
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Config format", 1)[1].split("```", 2)[1]
        listed = {word.split("=", 1)[0] for line in block.splitlines()
                  for word in line.split("#", 1)[0].split() if "=" in word}
        parsed = {line.split("=", 1)[0] for line in serialize_config(RunConfig()).splitlines()}
        assert listed == parsed
        # the comment "a | b (note) | c" of a key with choices lists its
        # values (the first word of each part), in the order the parser
        # names them; a key with one value lists it alone
        values = {}
        for line in block.splitlines():
            setting, _, comment = line.partition("#")
            attr = config._SCHEMA.get(setting.split("=", 1)[0].strip(), (None,))[0]
            if attr in config._CHOICES:
                values[attr] = tuple(part.split()[0] for part in comment.split("|"))
        assert values == {attr: tuple(map(str, choices))
                          for attr, choices in config._CHOICES.items()}


class TestHarness:
    def test_constant_run_is_exact(self, tmp_path):
        cfg = parse_config("ic.mean=2.0\nic.amplitude=0\ntime.t_end=0.25\ngrid.n=12")
        result = run_simulation(cfg)
        l1, l2, linf = result.norms
        assert linf <= 1e-13

    def test_zero_time_returns_projection(self):
        from afpg.element1d import build_element
        from afpg.grid import project_initial
        from afpg.harness import build_grid, build_ic

        cfg = parse_config(BASE_CFG + "time.t_end=0\n")
        result = run_simulation(cfg)
        assert result.steps == 0
        projected = project_initial(build_grid(cfg), build_ic(cfg), build_element(2))
        assert np.array_equal(result.state.points, projected.points)
        assert np.array_equal(result.state.moments, projected.moments)

    def test_runs_never_import_numpy_polynomial(self, tmp_path):
        # gauss_rule (Newton in decimal) and the float basis evaluation need
        # no numpy.polynomial: a run loads none of its nine modules
        script = textwrap.dedent(f"""
            import sys
            from afpg.config import parse_config
            from afpg.harness import run_simulation

            for text in ("k=4\\ngrid.n=16\\ntime.scheme=rk4\\ntime.cfl=0.05\\n"
                         "time.t_end=0.01\\noutput.snapshot_every=2\\n",
                         "dimension=2\\ngrid.nx=6\\ngrid.ny=5\\ntime.t_end=0.05\\n"):
                run_simulation(parse_config(text), {str(tmp_path)!r})
            print(sorted(m for m in sys.modules if m.startswith("numpy.polynomial")))
        """)
        env = dict(os.environ)
        src = str(Path(afpg.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        assert (tmp_path / "state_000002.csv").exists()

    def test_projected_state_is_freed_after_step_1(self, monkeypatch):
        # run_simulation hands the projected state to advance and keeps no
        # name for it, so its buffer is gone once step 1 has a result
        refs, alive = [], []
        project, mass = harness.project_initial, harness.total_mass

        def recording_project(*args):
            state = project(*args)
            refs.append(weakref.ref(state.data))
            return state

        def recording_mass(state, grid):
            alive.append(refs[0]() is not None)
            return mass(state, grid)

        monkeypatch.setattr(harness, "project_initial", recording_project)
        monkeypatch.setattr(harness, "total_mass", recording_mass)
        result = run_simulation(parse_config(BASE_CFG + "output.snapshot_every=1\n"))
        assert result.steps >= 2
        assert alive == [True] + [False] * (result.steps + 1)

    def test_2d_time_loop_holds_three_state_sized_buffers(self, monkeypatch):
        # from the initial mass log to the final one, a 160^2 SSPRK3 run
        # holds the initial state or a result, the stage buffer and the
        # result buffer, with k written into the result buffer, and no
        # right-hand-side buffer of its own; the second run reuses the
        # first run's element, taps and rhs_2d tile
        cfg = parse_config("dimension=2\ngrid.nx=160\ngrid.ny=160\ntime.t_end=0.005\n")
        run_simulation(cfg)
        peaks, mass = [], harness.total_mass

        def recording_mass(state, grid):
            # called at the end of initial_state and after advance
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return mass(state, grid)

        monkeypatch.setattr(harness, "total_mass", recording_mass)
        tracemalloc.start()
        try:
            result = run_simulation(cfg)
        finally:
            tracemalloc.stop()
        assert result.steps == 4 and len(peaks) == 2
        assert peaks[1] < 3.5 * result.state.data.nbytes

    def test_1d_linear_time_loop_holds_two_state_sized_buffers(self, monkeypatch):
        # a 1-d linear run steps by its step operator: from the initial mass
        # log to the final one it holds the initial state or a result, one
        # result and the step's tile, and no stage buffer; the tile dies
        # with its step, so the error norms run with the final state alone.
        # The first run fills the caches of K and the model on another grid,
        # so a tile kept for the traced run's grid would be traced
        cfg = parse_config("k=4\ngrid.n=16384\nmodel.name=advection\nmodel.a=1.0\n"
                           "ic.name=sine\ntime.scheme=rk4\ntime.cfl=0.1\n"
                           "time.t_end=0.0001\n")
        run_simulation(cfg, n=16000)
        peaks, live = [], []
        mass, norms = harness.total_mass, harness.error_norms

        def recording_mass(state, grid):
            # called at the end of initial_state and after advance
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return mass(state, grid)

        def recording_norms(*args, **kwargs):
            live.append(tracemalloc.get_traced_memory()[0])
            return norms(*args, **kwargs)

        monkeypatch.setattr(harness, "total_mass", recording_mass)
        monkeypatch.setattr(harness, "error_norms", recording_norms)
        tracemalloc.start()
        try:
            result = run_simulation(cfg)
        finally:
            tracemalloc.stop()
        state = result.state.data.nbytes
        assert state >= 2 * semidiscrete.TILE_BYTES  # a stage buffer would show
        assert result.steps > 2 and len(peaks) == 2 and len(live) == 1
        assert peaks[1] < 2.5 * state + semidiscrete.TILE_BYTES
        assert live[0] < state + semidiscrete.TILE_BYTES / 2

    def test_outputs_written_and_deterministic(self, tmp_path):
        cfg = parse_config(BASE_CFG + "output.snapshot_every=10\n")
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        run_simulation(cfg, output_dir=str(d1))
        run_simulation(cfg, output_dir=str(d2))
        for name in ("final_state.csv", "conservation.csv", "summary.txt"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        snapshots = sorted(p.name for p in d1.glob("state_*.csv"))
        assert snapshots  # cadence produced intermediate dumps

    def test_convergence_study_orders(self):
        cfg = parse_config(BASE_CFG + "time.t_end=1.0\n")
        rows = convergence_study(cfg, [16, 32])
        assert rows[1]["eoc_l1"] == pytest.approx(3.0, abs=0.3)

    def test_convergence_needs_two_grids(self):
        cfg = parse_config(BASE_CFG)
        with pytest.raises(ConfigError):
            convergence_study(cfg, [16])

    @pytest.mark.parametrize("model", [
        "model.name=advection\ngrid.n=8\n",
        "model.name=burgers\ngrid.n=8\n",
        "model.name=linear_system\nmodel.matrix=0,1;1,0\ngrid.n=8\n",
        "dimension=2\ngrid.nx=6\ngrid.ny=5\nmodel.ax=0.8\nmodel.ay=-0.6\n",
    ], ids=["advection", "burgers", "linear_system", "advection_2d"])
    @pytest.mark.parametrize("ic", ["sine", "gaussian", "linear"])
    def test_every_ic_refused_or_run(self, model, ic):
        # the one refusal is the sloped ramp under Burgers, which jumps at the wrap
        text = f"{model}ic.name={ic}\nic.mean=0.5\ntime.t_end=0.05\n"
        if "burgers" in model and ic == "linear":
            with pytest.raises(ConfigError, match="jumps at the wrap"):
                parse_config(text)
            return
        _assert_runs_conserving_mass(parse_config(text))

    @pytest.fixture(scope="class")
    def cfl_limits(self):
        """README's "Notes on stability" table: (dimension, K) -> the largest
        stable time.cfl per scheme (in 2-d at the default a = (1, 1))."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        row = r"^\| (\d)-d K=(\d)(?:, a = \(1, 1\))? \| [\d.]+ \| ([\d.]+) \| ([\d.]+) \|$"
        rows = re.findall(row, readme, re.M)
        return {(int(d), int(k)): dict(zip(timestep.SCHEMES, map(float, lims)))
                for d, k, *lims in rows}

    @pytest.mark.parametrize("point_update", ["split", "exact"])
    @pytest.mark.parametrize("scheme", timestep.SCHEMES)
    @pytest.mark.parametrize("k", range(2, 7))
    @pytest.mark.parametrize("dimension, model", [
        (d, m) for d in (1, 2) for m in ("advection", "burgers", "linear_system")])
    def test_every_combination_refused_run_or_blown_up(self, cfl_limits, dimension, model, k,
                                                        scheme, point_update):
        # tiny grids at the default time.cfl=0.2.  A unit mean with a small
        # amplitude puts Burgers' shock at t = 1/(2 pi 0.05) = 3.2, far past
        # t_end, and t_end still leaves about 50 steps in 1-d, twice what an
        # over-limit K = 4 run takes to blow up on 40 cells
        text = (f"dimension={dimension}\nk={k}\nmodel.name={model}\ntime.scheme={scheme}\n"
                f"model.point_update={point_update}\nic.mean=1.0\nic.amplitude=0.05\n"
                "time.t_end=0.25\n"
                + ("grid.n=40\n" if dimension == 1 else "grid.nx=6\ngrid.ny=5\n")
                + ("model.matrix=0,1;1,0\n" if model == "linear_system" else ""))
        if (dimension == 2 and (k != 2 or model != "advection" or point_update == "exact")
                or point_update == "exact" and (model != "burgers" or k != 2)):
            with pytest.raises(ConfigError):
                parse_config(text)
            return
        cfg = parse_config(text)
        if cfg.time_cfl > cfl_limits[dimension, k][scheme]:
            # accepted although past its limit (K >= 4): until a stability gate
            # refuses such a run, it must blow up rather than finish
            with pytest.raises(timestep.BlowUpError):
                run_simulation(cfg)
            return
        _assert_runs_conserving_mass(cfg)

    def test_linear_system_run(self):
        cfg = parse_config(
            "model.name=linear_system\nmodel.matrix=0,1;1,0\n"
            "grid.n=16\ntime.t_end=0.25\nic.name=sine"
        )
        result = run_simulation(cfg)
        assert result.norms is not None
        assert result.norms[2] < 0.05

    def test_burgers_exact_variant_run(self):
        cfg = parse_config(
            "model.name=burgers\nmodel.point_update=exact\n"
            "grid.n=24\ntime.t_end=0.2\nic.name=sine\nic.mean=0.5\nic.amplitude=0.25"
        )
        result = run_simulation(cfg)
        assert result.norms[0] < 1e-3

    @pytest.mark.parametrize("text, stages", [
        (BASE_CFG + "time.scheme=rk4\ntime.t_end=0.1\n", 0),
        ("model.name=burgers\ngrid.n=12\nic.name=sine\nic.mean=1\nic.amplitude=0.1\n"
         "time.t_end=0.05\n", 3),
        ("dimension=2\ngrid.nx=6\ngrid.ny=5\nmodel.name=advection\nmodel.ax=0.8\n"
         "model.ay=-0.6\nic.name=sine\ntime.t_end=0.1\n", 3),
    ])
    def test_tracer_contract(self, monkeypatch, text, stages):
        # perfbench/tracer.py wraps these names and counts RHS work from the
        # state passed first: the harness must call them by name, state
        # first.  A 1-d linear run steps by its step operator and calls no
        # right-hand side (stages 0); Burgers and 2-d runs call it per stage
        calls = {"rhs_1d": [], "rhs_2d": [], "step": []}
        for module, name in ((harness, "rhs_1d"), (harness, "rhs_2d"), (timestep, "step")):
            original = getattr(module, name)

            def recording(*args, _original=original, _name=name, **kwargs):
                calls[_name].append(args[0])
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, recording)
        cfg = parse_config(text)
        result = run_simulation(cfg)
        if cfg.dimension == 1:
            rhs_calls, kind, shape = calls["rhs_1d"], State1D, (cfg.degree, cfg.grid_n)
        else:
            rhs_calls, kind, shape = calls["rhs_2d"], State2D, (4, cfg.grid_nx, cfg.grid_ny)
        assert result.steps > 0 and len(calls["step"]) == result.steps
        assert len(rhs_calls) == result.steps * stages
        for state in rhs_calls + calls["step"]:
            assert type(state) is kind and state.data.shape == shape


class TestCli:
    def write(self, tmp_path, text, name="run.cfg"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    @pytest.mark.parametrize(
        "text, key",
        [
            # each exited 0, and summary.txt echoed the value as if it were used
            ("dimension=2\nmodel.a=7\nmodel.matrix=1,2;3,4\n", "model.a"),
            ("model.ay=0.5\n", "model.ay"),
            ("dimension=2\nmodel.matrix=1,2;3,4\n", "model.matrix"),
            ("dimension=2\ngrid.n=30\n", "grid.n"),
            ("model.name=burgers\nmodel.ax=3\n", "model.ax"),
            ("model.name=linear_system\nmodel.matrix=0,1;1,0\nmodel.a=2\n", "model.a"),
            ("grid.ny=30\n", "grid.ny"),
            ("model.name=burgers\nmodel.a=2\n", "model.a"),
            ("model.matrix=1,2;3,4\n", "model.matrix"),
            ("ic.name=gaussian\nic.cycles=2\n", "ic.cycles"),
            ("ic.slope=2\n", "ic.slope"),
            ("ic.name=linear\nic.amplitude=2\n", "ic.amplitude"),
            ("ic.name=linear\nic.width=0.3\n", "ic.width"),
            ("ic.name=sine\nic.center=0.3\n", "ic.center"),
            ("grid.y_min=-1\n", "grid.y_min"),
            ("model.point_update=exact\n", "model.point_update"),
            ("k=3\nmodel.point_update=exact\n", "model.point_update"),
            # ran 2 steps of dt = 0.01 while summary.txt echoed time.cfl=0.9
            ("grid.n=8\ntime.cfl=0.9\ntime.dt=0.01\n", "time.cfl"),
        ],
    )
    def test_unread_key_exit_two(self, tmp_path, capsys, text, key):
        cfg = self.write(tmp_path, "time.t_end=0.01\n" + text)
        out = tmp_path / "out"
        assert main(["run", cfg, "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {key} is not read with")
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [
            "dimension=2\nmodel.a=1.0\ngrid.n=40\nmodel.matrix=\n",
            "model.name=burgers\nmodel.ax=1\nic.cycles=1\n",
            "upwind.mode=adaptive\n",
            "dimension=2\nupwind.mode=adaptive\nmodel.ax=0.8\nmodel.ay=-0.6\n",
            "model.name=linear_system\nmodel.matrix=0,1;1,0\nic.name=gaussian\nic.width=0.2\n",
            "ic.name=linear\nic.slope=2\nic.mean=1\n",
            "time.dt=0.01\ntime.cfl=0.2\n",
        ],
    )
    def test_read_keys_and_unread_defaults_accepted(self, text):
        parse_config(text)

    @pytest.mark.parametrize("line", ["upwind.edge_alpha1=0.0", "upwind.edge_alpha2=0.1",
                                      "upwind.node_alphas=0,0,0,0,0,0,0,-0.1"])
    def test_deleted_stabilization_keys_exit_two(self, tmp_path, capsys, line):
        # the 2-d stabilization weights are fixed at zero: no key sets them
        cfg = self.write(tmp_path, f"dimension=2\nupwind.mode=adaptive\n{line}\n")
        out = tmp_path / "out"
        assert main(["run", cfg, "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        key = line.split("=", 1)[0]
        assert err == [f"config error: line 3: unknown key {key!r}"]
        assert not out.exists()

    @pytest.mark.parametrize("line", ["ic.name=constant", "ic.value=2.0", "ic.offset=0.5"])
    def test_deleted_ic_keys_exit_two(self, tmp_path, capsys, line):
        # a constant is the sine at ic.amplitude=0; the ramp's offset is ic.mean
        cfg = self.write(tmp_path, f"time.t_end=0.01\n{line}\n")
        out = tmp_path / "out"
        assert main(["run", cfg, "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:") and line.split("=")[0] in err[0]
        assert not out.exists()

    def test_run_exit_zero(self, tmp_path, capsys):
        cfg = self.write(tmp_path, BASE_CFG)
        out = tmp_path / "out"
        assert main(["run", cfg, "--output-dir", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "error_l1=" in captured
        assert (out / "final_state.csv").exists()

    def test_config_error_exit_two(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "nonsense=1\n")
        assert main(["run", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unsupported_combinations_exit_two(self, tmp_path, capsys):
        # each parses as keys but no solver path runs it
        for text in (BASE_CFG + "model.name=burgers\nmodel.point_update=exact\nk=3\n",
                     BASE_CFG + "model.name=linear_system\nmodel.matrix=0,1;1,0\n"
                     "upwind.mode=fixed\n",
                     "upwind.mode=fixed\n",
                     # wrong-sign fixed weights: both ran to the end and exited 0,
                     # with L2 errors of 25.5 and 157.8 on a unit sine
                     "upwind.mode=fixed\nupwind.alpha=-0.05\n",
                     "dimension=2\ngrid.nx=24\ngrid.ny=20\nmodel.ax=0.8\nmodel.ay=-0.6\n"
                     "upwind.mode=fixed\nupwind.alpha3=0.6\nupwind.beta=0.3\ntime.t_end=0.3\n"):
            cfg = self.write(tmp_path, text)
            out = tmp_path / "out"
            assert main(["run", cfg, "--output-dir", str(out)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("config error:"), (text, err)
            assert not out.exists()

    def test_2d_burgers_exit_two(self, tmp_path, capsys):
        # parse_config accepted this; only harness.build_model refused it, at run time
        text = "dimension=2\nmodel.name=burgers\ntime.t_end=0.01\n"
        with pytest.raises(ConfigError, match="model.name=burgers is one-dimensional"):
            parse_config(text)
        out = tmp_path / "out"
        assert main(["run", self.write(tmp_path, text), "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: model.name=burgers")
        assert not out.exists()
        # a hand-built RunConfig skips the parser's checks: the harness still refuses it
        with pytest.raises(ConfigError, match="2-d runs support model.name=advection"):
            harness.build_model(RunConfig(dimension=2, model_name="burgers"))

    def test_missing_file_exit_two(self, capsys):
        assert main(["run", "/does/not/exist.cfg"]) == 2

    def test_blowup_exit_three(self, tmp_path, capsys):
        cfg = self.write(
            tmp_path, BASE_CFG + "time.scheme=ssprk3\ntime.cfl=1000\ntime.t_end=20000\n"
        )
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_blowup_exit_three_2d(self, tmp_path, capsys):
        # dt = 1e300 overflows the second ssprk3 stage before any max-norm test
        cfg = self.write(
            tmp_path,
            "dimension=2\ngrid.nx=8\ngrid.ny=8\nmodel.name=advection\nmodel.ax=1.0\n"
            "model.ay=1.0\nic.name=sine\ntime.dt=1e300\ntime.t_end=1e300\n",
        )
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: non-finite state after stage 2 (step 0)" in err

    @pytest.mark.parametrize("k", [4, 5])
    def test_silent_divergence_exit_three(self, tmp_path, capsys, k):
        # the default ssprk3 cfl=0.2 is unstable for K >= 4
        cfg = self.write(tmp_path, f"k={k}\ngrid.n=40\n")
        assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: max-norm" in err and "(step " in err

    def test_cfl_beyond_max_steps_exit_two(self, tmp_path, capsys):
        # dt = 2.5e-302 needs about 4e301 steps: this ran until killed
        cfg = self.write(tmp_path, "k=2\ngrid.n=40\ntime.cfl=1e-300\n")
        out = tmp_path / "out"
        assert main(["run", cfg, "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:") and "time.cfl" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [
            "grid.n=12\nmodel.a=0.0\n",
            "dimension=2\ngrid.nx=6\ngrid.ny=6\nmodel.ax=0.0\nmodel.ay=-0.0\n",
            "grid.n=12\nmodel.name=burgers\nic.amplitude=0\n",
        ],
        ids=["1d", "2d", "burgers"],
    )
    def test_zero_wave_speed_under_cfl_exit_two(self, tmp_path, capsys, text):
        # advance raised ValueError("zero wave speed"): a traceback, exit 1
        cfg = self.write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", cfg, "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:") and "time.cfl" in err[0]
        assert not out.exists()
        # a fixed step still runs it
        cfg = self.write(tmp_path, "time.dt=0.25\n" + text)
        assert main(["run", cfg, "--output-dir", str(out)]) == 0

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_run_output_dir_error_exit_two(self, tmp_path, capsys, below):
        # makedirs raised FileExistsError or NotADirectoryError: a traceback, exit 1
        cfg = self.write(tmp_path, BASE_CFG)
        taken = tmp_path / "taken"
        taken.write_text("keep")
        out = taken / "sub" if below else taken
        assert main(["run", cfg, "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("output error:") and str(out) in err[0]
        assert taken.read_text() == "keep"

    def test_converge_output_error_exit_two(self, tmp_path, capsys):
        # open() on a directory raised IsADirectoryError: a traceback, exit 1
        cfg = self.write(tmp_path, BASE_CFG + "time.t_end=0.1\n")
        assert main(["converge", cfg, "--grids", "12,24", "--output", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "EOC_L1" in captured.out
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("output error:") and str(tmp_path) in err[0]

    @pytest.mark.parametrize("argv", [["dump-element", "--k", "2"], ["dump-element-2d"]])
    def test_dump_element_output_error_exit_two(self, tmp_path, capsys, argv):
        # open() on a directory raised IsADirectoryError: a traceback, exit 1
        assert main(argv + ["--output", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("output error:") and str(tmp_path) in err[0]

    @pytest.mark.parametrize("argv", [["run"], ["converge", "--grids", "12,24"]],
                             ids=["run", "converge"])
    def test_reference_refusal_exit_two(self, tmp_path, capsys, argv):
        # the breaking time is 1/(2 pi): Burgers1D's reference raised
        # ValueError inside error_norms, a traceback with exit 1
        cfg = self.write(tmp_path, "model.name=burgers\ngrid.n=12\ntime.t_end=0.5\n")
        assert main([argv[0], cfg, *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "past the shock" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [["run", "CFG", "--output-dir", "OUT"],
                                      ["converge", "CFG", "--grids", "12,24"]],
                             ids=["run", "converge"])
    def test_reference_refusal_takes_no_step(self, tmp_path, capsys, monkeypatch, argv):
        # the reference is asked at t_end before the first step: the run
        # used to integrate to t_end and refuse only in error_norms
        def no_step(*args, **kwargs):
            raise AssertionError("advance was called")

        monkeypatch.setattr(harness, "advance", no_step)
        cfg = self.write(tmp_path, "model.name=burgers\ngrid.n=12\ntime.t_end=0.5\n")
        out = tmp_path / "out"
        assert main([{"CFG": cfg, "OUT": str(out)}.get(a, a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "past the shock" in err
        assert not out.exists()

    @pytest.mark.parametrize("dim", ["1", "2"])
    def test_gaussian_zero_width_exit_two(self, tmp_path, capsys, dim):
        # exited 1 with a traceback: project_initial's non-finite samples
        cfg = self.write(tmp_path, f"dimension={dim}\nic.name=gaussian\nic.width=0\n")
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ic.width") and len(err.splitlines()) == 1

    def test_burgers_jump_at_the_wrap_exit_two(self, tmp_path, capsys):
        # an off-centre Gaussian is not periodic: ic(0) = 0.628, ic(1) = 0.5.
        # The run used to exit 0 with error_linf = 0.101
        cfg = self.write(tmp_path, "model.name=burgers\nic.name=gaussian\nic.center=0.2\n"
                                   "ic.width=0.3\nic.mean=0.5\nic.amplitude=0.2\ngrid.n=40\n"
                                   "time.t_end=0.2\n")
        out = tmp_path / "out"
        assert main(["run", cfg, "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: no reference solution:")
        assert "periodic wrap" in err and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("ic", ["ic.name=gaussian\nic.center=0.5\nic.width=0.2\n",
                                    "ic.name=sine\nic.cycles=3\n"], ids=["gaussian", "sine"])
    def test_burgers_periodic_data_still_run(self, tmp_path, capsys, ic):
        cfg = self.write(tmp_path, "model.name=burgers\nic.mean=0.5\nic.amplitude=0.2\n"
                                   "grid.n=40\ntime.t_end=0.1\n" + ic)
        assert main(["run", cfg, "--output-dir", str(tmp_path / "out")]) == 0
        assert "error_linf=" in capsys.readouterr().out

    @pytest.mark.parametrize("dim", ["1", "2"])
    def test_non_finite_initial_data_exit_two(self, tmp_path, capsys, dim):
        # ic.mean + ic.amplitude overflows to inf at the crest of the sine;
        # numpy's overflow warning (an error in this suite) stays silent
        cfg = self.write(tmp_path, f"dimension={dim}\nic.mean=1e308\nic.amplitude=1e308\n")
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert err == "config error: initial data produced non-finite samples\n"

    def test_converge_writes_table(self, tmp_path, capsys):
        cfg = self.write(tmp_path, BASE_CFG + "time.t_end=1.0\n")
        out = tmp_path / "conv.csv"
        assert main(["converge", cfg, "--grids", "12,24", "--output", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["N", "L1", "L2", "Linf", "EOC_L1", "EOC_L2", "EOC_Linf"]
        assert len(rows) == 3
        assert float(rows[2][4]) == pytest.approx(3.0, abs=0.4)

    def test_converge_rejects_single_grid(self, tmp_path):
        cfg = self.write(tmp_path, BASE_CFG)
        assert main(["converge", cfg, "--grids", "16"]) == 2

    def test_converge_equal_grids_exit_two(self, tmp_path, capsys):
        # exited 1 with a ZeroDivisionError traceback from the order of 20 over 20
        cfg = self.write(tmp_path, BASE_CFG)
        assert main(["converge", cfg, "--grids", "20,20"]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: consecutive grids")
        assert captured.out == ""

    def test_dump_element_golden_rows(self, tmp_path):
        out = tmp_path / "el.csv"
        assert main(["dump-element", "--k", "2", "--alpha", "0", "--output", str(out)]) == 0
        with open(out) as fh:
            rows = {r[0]: r[1:] for r in csv.reader(fh)}
        assert rows["basis_moment_0"] == ["3/2", "0", "-6"]
        assert rows["test_left_cell"] == ["-3/4", "3", "15"]
        assert rows["basis_left_point"] == ["-1/4", "-1", "3"]

    def test_dump_element_rejects_bad_degree(self, tmp_path):
        assert main(["dump-element", "--k", "1"]) == 2

    @pytest.mark.parametrize("argv", [
        ["dump-element", "--k", "2", "--alpha", "abc"],
        ["dump-element", "--k", "2", "--alpha", "1/0"],
        ["dump-element-2d", "--alphas", "a,b,c"],
        ["converge", "CFG", "--grids", "20,x"],
        ["converge", "CFG", "--grids", "2,4"],
        ["converge", "CFG", "--grids", "0,40"],
        ["dump-element", "--k", "2", "--alpha", "3"],
        ["dump-element-2d", "--alphas", "0,0,5"],  # alpha3; alpha1 and alpha2 are free
    ])
    def test_malformed_values_exit_two(self, tmp_path, capsys, argv):
        cfg = self.write(tmp_path, BASE_CFG)
        assert main([cfg if a == "CFG" else a for a in argv]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_dump_element_2d_coefficients(self, tmp_path):
        out = tmp_path / "el2.csv"
        assert main(["dump-element-2d", "--output", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        header, table = rows[0], {r[0]: r[1:] for r in rows[1:]}
        idx = header.index("xi^2*eta^2") - 1
        assert table["basis_avg"][idx] == "36"

    def test_dump_element_2d_with_tests(self, tmp_path):
        out = tmp_path / "el2t.csv"
        alphas = ",".join(["0"] * 14)
        assert main(["dump-element-2d", "--alphas", alphas, "--output", str(out)]) == 0
        with open(out) as fh:
            names = [r[0] for r in csv.reader(fh)]
        assert "edge_test_left_cell" in names
        assert "node_test_ll" in names

    @pytest.mark.parametrize("argv, digest", [
        (["dump-element", "--k", "2", "--alpha", "1/3"],
         "b6604d1138858a2e764e49b5d5c2a69f000bf00c3e05cb1d744d922917b71156"),
        (["dump-element", "--k", "3", "--alpha", "1/3"],
         "5d1445b0d3692ebc2c816de1446e9e9d87d4bb825ac0b89131777290e4a0584f"),
        (["dump-element", "--k", "4", "--alpha", "1/3"],
         "533cae978951292fd598bf182e4dcb86518f0aa4b2a712854051aeb0cf5331e7"),
        (["dump-element", "--k", "5", "--alpha", "1/3"],
         "df44f318936152f813d705fce960ee7632380b50a8eec43cd51d09b8ffc5919e"),
        (["dump-element", "--k", "6", "--alpha", "1/3"],
         "5ddf37cc9007482ffd290b704367c7ba1a87e931ca8c6a6fd6c61c51d95868f9"),
        (["dump-element-2d"],
         "fc683647270e1fc6ec8b2882687a80a31b2daf4cf8e06761303ad786f2c19b78"),
        (["dump-element-2d", "--alphas", "1/3,-1/5,1/2"],
         "850929d56d6a97871a65def75df5a68057bd3d3e926f0a653bd2bfeb88a6ef48"),
        (["dump-element-2d", "--alphas", "1/3,-1/5,1/2,1,2,3,4,5,6,7,8,1/3,1/4,-1/7"],
         "355b5f980b98a717149779d60e5a50af7a7a4ce00d788382f612e11dd4fbe8d0"),
    ], ids=["k2", "k3", "k4", "k5", "k6", "2d-alphas0", "2d-alphas3", "2d-alphas14"])
    def test_dump_digest(self, tmp_path, argv, digest):
        # the dumps are exact rationals: their bytes do not depend on the machine
        out = tmp_path / "dump.csv"
        assert main([*argv, "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "afpg.cli", "dump-element", "--k", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "basis_moment_0,3/2,0,-6" in proc.stdout
