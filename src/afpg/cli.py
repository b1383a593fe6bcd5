"""Command line interface.

Subcommands: ``run`` (single simulation), ``converge`` (error table
over a list of grids), ``dump-element`` and ``dump-element-2d`` (exact
coefficient tables of the constructed elements).  Exit codes: 0 on
success, 2 on a configuration error or an output that cannot be
written, 3 on numerical blow-up.
"""

from __future__ import annotations

import argparse
import csv
import sys
from fractions import Fraction

import numpy as np

from afpg.config import ConfigError, load_config
from afpg.element1d import build_element, build_point_test
from afpg.element2d import DOF_IDS, build_edge_test, build_element_2d, build_node_test
from afpg.harness import convergence_study, run_simulation, write_convergence_csv
from afpg.poly import Poly
from afpg.timestep import BlowUpError


def _frac_str(value) -> str:
    return str(Fraction(value))


def _number(text, convert, option):
    """A command-line value read by ``convert``; an unreadable one is a config error."""
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{option}: cannot read {text!r} as {convert.__name__}") from None


def _coeff_row(name, poly, shape):
    """name, then the coefficients of poly zero-padded to shape, in C order."""
    padded = np.zeros(shape, dtype=object)
    padded[tuple(map(slice, poly.coeffs.shape))] = poly.coeffs
    return [name] + [_frac_str(c) for c in padded.flat]


def _dump_rows(rows, path):
    if path:
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    else:
        for row in rows:
            print(",".join(str(c) for c in row))


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    out_dir = args.output_dir or (cfg.output_dir or ".")
    result = run_simulation(cfg, output_dir=out_dir)
    print(f"steps={result.steps} t_final={result.t!r}")
    m0 = float(np.sum(result.mass_log[0][1]))
    m1 = float(np.sum(result.mass_log[-1][1]))
    print(f"mass_initial={m0!r} mass_final={m1!r}")
    l1, l2, linf = result.norms
    print(f"error_l1={l1!r} error_l2={l2!r} error_linf={linf!r}")
    return 0


def _cmd_converge(args) -> int:
    cfg = load_config(args.config)
    grids = [_number(g, int, "--grids") for g in args.grids.split(",") if g]
    rows = convergence_study(cfg, grids)
    header = f"{'N':>6} {'L1':>13} {'L2':>13} {'Linf':>13} {'EOC_L1':>7} {'EOC_L2':>7} {'EOC_Li':>7}"
    print(header)
    for row in rows:
        eocs = " ".join(
            f"{row[k]:7.3f}" if row[k] == row[k] else "      -"
            for k in ("eoc_l1", "eoc_l2", "eoc_linf")
        )
        print(f"{row['n']:>6} {row['l1']:13.6e} {row['l2']:13.6e} {row['linf']:13.6e} {eocs}")
    if args.output:
        write_convergence_csv(rows, args.output)
    return 0


def _cmd_dump_element(args) -> int:
    try:
        element = build_element(args.k)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    shape = (args.k + 1,)
    rows = [["function"] + [f"xi^{p}" for p in range(args.k + 1)]]
    rows.append(_coeff_row("basis_left_point", element.basis_left, shape))
    for mw, basis in zip(element.moment_weights, element.basis_moments):
        rows.append(_coeff_row(f"basis_moment_{mw.k}", basis, shape))
    rows.append(_coeff_row("basis_right_point", element.basis_right, shape))
    for mw in element.moment_weights:
        rows.append(_coeff_row(f"moment_weight_{mw.k}", mw.poly, shape))
    if args.alpha is not None:
        alpha = _number(args.alpha, Fraction, "--alpha")
        if abs(alpha) > 1:
            raise ConfigError("--alpha must lie in [-1, 1]")
        test = build_point_test(element, alpha)
        rows.append(_coeff_row("test_left_cell", test.left, shape))
        rows.append(_coeff_row("test_right_cell", test.right, shape))
    _dump_rows(rows, args.output)
    return 0


_DOF_NAMES = {
    (0, 0): "avg",
    (-1, 0): "edge_left",
    (1, 0): "edge_right",
    (0, -1): "edge_bottom",
    (0, 1): "edge_top",
    (-1, -1): "node_bl",
    (1, -1): "node_br",
    (-1, 1): "node_tl",
    (1, 1): "node_tr",
}


def _cmd_dump_element_2d(args) -> int:
    element = build_element_2d()
    header = ["function"] + [f"xi^{k}*eta^{l}" for k in range(3) for l in range(3)]
    rows = [header]
    for dof in DOF_IDS:
        rows.append(_coeff_row(f"basis_{_DOF_NAMES[dof]}", element.basis[dof], (3, 3)))

    alphas = [_number(a, Fraction, "--alphas") for a in (args.alphas or "").split(",") if a]
    if len(alphas) not in (0, 3, 14):
        raise ConfigError("--alphas takes 3 (edge) or 14 (edge + node) values")
    if alphas and abs(alphas[2]) > 1:
        raise ConfigError("--alphas: the edge weight alpha3 must lie in [-1, 1]")
    if alphas:
        edge = build_edge_test(tuple(alphas[:3]), orientation="x")
        for off, name in (((0, 0), "edge_test_left_cell"), ((1, 0), "edge_test_right_cell")):
            rows.append(_coeff_row(name, edge.pieces[off], (3, 3)))
        edge_y = build_edge_test(tuple(alphas[:3]), orientation="y")
        for off, name in (((0, 0), "edge_test_bottom_cell"), ((0, 1), "edge_test_top_cell")):
            rows.append(_coeff_row(name, edge_y.pieces[off], (3, 3)))
        if len(alphas) == 14:
            node = build_node_test(tuple(alphas[3:]))
            names = {(0, 0): "node_test_ll", (1, 0): "node_test_lr",
                     (0, 1): "node_test_ul", (1, 1): "node_test_ur"}
            for off, name in names.items():
                rows.append(_coeff_row(name, node.pieces[off], (3, 3)))
        rows.append(_coeff_row("avg_test", Poly([[1]]), (3, 3)))
    _dump_rows(rows, args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="afpg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--output-dir", default=None)
    p_run.set_defaults(fn=_cmd_run)

    p_conv = sub.add_parser("converge", help="convergence study over several grids")
    p_conv.add_argument("config")
    p_conv.add_argument("--grids", default="20,40,80,160")
    p_conv.add_argument("--output", default=None)
    p_conv.set_defaults(fn=_cmd_converge)

    p_el = sub.add_parser("dump-element", help="basis/test coefficients (1-d)")
    p_el.add_argument("--k", type=int, required=True)
    p_el.add_argument("--alpha", default=None)
    p_el.add_argument("--output", default=None)
    p_el.set_defaults(fn=_cmd_dump_element)

    p_el2 = sub.add_parser("dump-element-2d", help="basis/test coefficients (2-d)")
    p_el2.add_argument("--alphas", default=None)
    p_el2.add_argument("--output", default=None)
    p_el2.set_defaults(fn=_cmd_dump_element_2d)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        # the config file is read by load_config, which reports its own
        # OSError as a ConfigError; what is left comes from the outputs
        print(f"output error: {err}", file=sys.stderr)
        return 2
    except BlowUpError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
