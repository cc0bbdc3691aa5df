"""Command-line driver.

Subcommands: `mesh gen` writes a mesh file; `solve` runs one case on a mesh
and exports fields; `converge` and `rt-compare` produce rate tables as CSV;
`export` solves and writes a VTK snapshot.  Every option is declared once
in the parser with its type and default.  Any option may instead be
supplied through a `key = value` config file: its values become the
subcommand's defaults, so they are type-checked like flags and explicit
flags win.
"""

from __future__ import annotations

import argparse
import sys

from . import polymesh, study, vtk_export
from .cases import get_case
from .linsolve import SolverError
from .recovery import RecoveryError

# Default of an option without one: a flag or the config file must set it.
_REQUIRED = object()


def _read_config(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _apply_config(command: argparse.ArgumentParser, path: str) -> None:
    """Make the config file's values the defaults of `command`'s options.

    Values stay strings here; the next parse converts them with each
    option's type, and flags given on the command line still win.
    """
    dests = {action.dest for action in command._actions
             if action.option_strings} - {"help", "config"}
    values = _read_config(path)
    for key in values:
        if key not in dests:
            raise ValueError(f"unknown config key '{key}'")
    command.set_defaults(**values)


def _cmd_mesh_gen(args) -> int:
    mesh = polymesh.generate_distorted_polygonal(
        args.nx, args.ny, seed=args.seed, distortion=args.distortion)
    polymesh.write_mesh(mesh, args.out)
    print(f"wrote {args.out}: {mesh.num_vertices} vertices, "
          f"{mesh.num_cells} cells, {mesh.num_edges} edges")
    return 0


def _solve_from_args(args):
    mesh = polymesh.read_mesh(args.mesh)
    case = get_case(args.case)
    return study.solve_case(mesh, case, args.order), case


def _cmd_solve(args) -> int:
    result, case = _solve_from_args(args)
    row = study.error_norms(result, case)
    vtk_path = f"{args.out_prefix}.vtk"
    vtk_export.export_vtk(result, vtk_path)
    csv_path = f"{args.out_prefix}.csv"
    study.write_convergence_csv([row], csv_path)
    print(f"solved '{case.name}' k={args.order}: {result.mesh.num_cells} cells, "
          f"{result.system.dofmap.n_global} dofs")
    print(f"errors: u {row.error_u:.5e}  p {row.error_p:.5e}  "
          f"grad p {row.error_grad_p:.5e}  div {row.error_div:.5e}")
    print(f"checks: flux gap {result.velocity.flux_gap:.2e}, "
          f"local conservation gap {result.velocity.div_gap:.2e}, "
          f"global conservation gap {result.velocity.conservation_gap:.2e}")
    print(f"wrote {vtk_path} and {csv_path}")
    return 0


def _run_study(args, case, k: int, columns) -> int:
    if args.levels < 3:
        raise ValueError("a convergence study needs at least 3 levels")
    meshes = polymesh.distorted_family(args.levels, args.seed, args.distortion)
    rows = study.convergence_study(case, k, meshes)
    print(study.format_table(rows, columns))
    if len(rows) < args.levels:
        print(f"warning: the pressure solve failed on level {len(rows) + 1}; "
              f"completed {len(rows)} of {args.levels} levels", file=sys.stderr)
    if args.csv:
        study.write_convergence_csv(rows, args.csv, columns)
        print(f"wrote {args.csv}")
    return 0 if len(rows) == args.levels else 1


def _cmd_converge(args) -> int:
    return _run_study(args, get_case(args.case), args.order,
                      study.CONVERGENCE_COLUMNS)


def _cmd_rt_compare(args) -> int:
    # the RT-type field exists at the lowest order; K = 1 as in the paper
    return _run_study(args, get_case("bubble-unit"), 0, study.RT_COLUMNS)


def _cmd_export(args) -> int:
    result, _ = _solve_from_args(args)
    vtk_export.export_vtk(result, args.vtk)
    print(f"wrote {args.vtk}")
    return 0


def _command(sub, name: str, func, help: str, parents=()):
    command = sub.add_parser(name, help=help, parents=list(parents))
    command.add_argument("--config", type=str)
    command.set_defaults(func=func, command_parser=command)
    return command


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polydarcy",
        description="Mixed virtual volume solver on polygonal meshes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # options shared by several subcommands
    case_opts = argparse.ArgumentParser(add_help=False)
    case_opts.add_argument("--order", type=int, default=_REQUIRED)
    case_opts.add_argument("--case", type=str, default="bubble-sine")
    mesh_case_opts = argparse.ArgumentParser(add_help=False,
                                             parents=[case_opts])
    mesh_case_opts.add_argument("--mesh", type=str, default=_REQUIRED)
    study_opts = argparse.ArgumentParser(add_help=False)
    study_opts.add_argument("--levels", type=int, default=5)
    study_opts.add_argument("--csv", type=str)
    study_opts.add_argument("--seed", type=int, default=2026)
    study_opts.add_argument("--distortion", type=float, default=0.2)

    mesh_sub = sub.add_parser("mesh", help="mesh utilities").add_subparsers(
        dest="mesh_command", required=True)
    gen = _command(mesh_sub, "gen", _cmd_mesh_gen, "generate a mesh file")
    gen.add_argument("--nx", type=int, default=_REQUIRED)
    gen.add_argument("--ny", type=int, default=_REQUIRED)
    gen.add_argument("--distortion", type=float, default=0.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", type=str, default=_REQUIRED)

    solve_p = _command(sub, "solve", _cmd_solve,
                       "solve one case on a mesh file", [mesh_case_opts])
    solve_p.add_argument("--out-prefix", dest="out_prefix", type=str,
                         default=_REQUIRED)

    _command(sub, "converge", _cmd_converge, "convergence rate study",
             [case_opts, study_opts])
    _command(sub, "rt-compare", _cmd_rt_compare,
             "projected vs RT-type velocity errors (k=0, K=1)", [study_opts])

    exp = _command(sub, "export", _cmd_export,
                   "solve and write a VTK snapshot", [mesh_case_opts])
    exp.add_argument("--vtk", type=str, default=_REQUIRED)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config(args.command_parser, args.config)
            args = parser.parse_args(argv)
        for dest, value in vars(args).items():
            if value is _REQUIRED:
                raise ValueError(
                    f"missing required option --{dest.replace('_', '-')}")
        return args.func(args)
    except (polymesh.MeshError, SolverError, RecoveryError, ValueError,
            KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
