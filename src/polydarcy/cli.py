"""Command-line driver.

Subcommands: `mesh gen` writes a mesh file; `solve` runs one case on a mesh
and exports fields; `converge` and `rt-compare` produce rate tables as CSV;
`export` solves and writes a VTK snapshot.  Any flag may instead be supplied
through a `key = value` config file; explicit flags win.
"""

from __future__ import annotations

import argparse
import sys

from . import polymesh, study, vtk_export
from .cases import get_case
from .linsolve import SolverError
from .recovery import RecoveryError


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


def _merge_config(args: argparse.Namespace, casts: dict) -> None:
    """Fill unset args from the config file; explicit flags keep priority."""
    if not getattr(args, "config", None):
        return
    values = _read_config(args.config)
    for key, raw in values.items():
        if key not in casts:
            raise ValueError(f"unknown config key '{key}'")
        if getattr(args, key, None) is None:
            setattr(args, key, casts[key](raw))


def _require(args: argparse.Namespace, names: list) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise ValueError(f"missing required option --{name.replace('_', '-')}")


def _cmd_mesh_gen(args) -> int:
    casts = {"nx": int, "ny": int, "distortion": float, "seed": int, "out": str}
    _merge_config(args, casts)
    if args.distortion is None:
        args.distortion = 0.0
    if args.seed is None:
        args.seed = 0
    _require(args, ["nx", "ny", "out"])
    if args.distortion == 0.0:
        mesh = polymesh.generate_uniform_quads(args.nx, args.ny)
    else:
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
    casts = {"mesh": str, "order": int, "case": str, "out_prefix": str}
    _merge_config(args, casts)
    if args.case is None:
        args.case = "bubble-sine"
    _require(args, ["mesh", "order", "out_prefix"])
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
          f"div gap {result.velocity.div_gap:.2e}, "
          f"conservation gap {result.velocity.conservation_gap:.2e}")
    print(f"wrote {vtk_path} and {csv_path}")
    return 0


def _cmd_converge(args) -> int:
    casts = {"order": int, "levels": int, "family": str, "case": str,
             "csv": str, "seed": int, "distortion": float}
    _merge_config(args, casts)
    if args.levels is None:
        args.levels = 5
    if args.family is None:
        args.family = "distorted"
    if args.case is None:
        args.case = "bubble-sine"
    if args.seed is None:
        args.seed = 2026
    if args.distortion is None:
        args.distortion = 0.2
    _require(args, ["order"])
    case = get_case(args.case)
    rows = study.convergence_study(
        case, args.order, family=args.family, levels=args.levels,
        seed=args.seed, distortion=args.distortion)
    print(study.format_table(rows))
    if len(rows) < args.levels:
        print(f"warning: the pressure solve failed on level {len(rows) + 1}; "
              f"completed {len(rows)} of {args.levels} levels", file=sys.stderr)
    if args.csv:
        study.write_convergence_csv(rows, args.csv)
        print(f"wrote {args.csv}")
    return 0 if len(rows) == args.levels else 1


def _cmd_rt_compare(args) -> int:
    casts = {"levels": int, "csv": str, "family": str, "seed": int,
             "distortion": float}
    _merge_config(args, casts)
    if args.levels is None:
        args.levels = 5
    if args.family is None:
        args.family = "distorted"
    if args.seed is None:
        args.seed = 2026
    if args.distortion is None:
        args.distortion = 0.2
    rows = study.rt_comparison_study(
        levels=args.levels, family=args.family, seed=args.seed,
        distortion=args.distortion)
    print(study.format_table(rows))
    if args.csv:
        study.write_rt_csv(rows, args.csv)
        print(f"wrote {args.csv}")
    return 0 if len(rows) == args.levels else 1


def _cmd_export(args) -> int:
    casts = {"mesh": str, "order": int, "case": str, "vtk": str}
    _merge_config(args, casts)
    if args.case is None:
        args.case = "bubble-sine"
    _require(args, ["mesh", "order", "vtk"])
    result, case = _solve_from_args(args)
    vtk_export.export_vtk(result, args.vtk)
    print(f"wrote {args.vtk}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polydarcy",
        description="Mixed virtual volume solver on polygonal meshes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mesh_p = sub.add_parser("mesh", help="mesh utilities")
    mesh_sub = mesh_p.add_subparsers(dest="mesh_command", required=True)
    gen = mesh_sub.add_parser("gen", help="generate a mesh file")
    gen.add_argument("--nx", type=int)
    gen.add_argument("--ny", type=int)
    gen.add_argument("--distortion", type=float)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--out", type=str)
    gen.add_argument("--config", type=str)
    gen.set_defaults(func=_cmd_mesh_gen)

    solve_p = sub.add_parser("solve", help="solve one case on a mesh file")
    solve_p.add_argument("--mesh", type=str)
    solve_p.add_argument("--order", type=int)
    solve_p.add_argument("--case", type=str)
    solve_p.add_argument("--out-prefix", dest="out_prefix", type=str)
    solve_p.add_argument("--config", type=str)
    solve_p.set_defaults(func=_cmd_solve)

    conv = sub.add_parser("converge", help="convergence rate study")
    conv.add_argument("--order", type=int)
    conv.add_argument("--levels", type=int)
    conv.add_argument("--family", choices=["uniform", "distorted"])
    conv.add_argument("--case", type=str)
    conv.add_argument("--csv", type=str)
    conv.add_argument("--seed", type=int)
    conv.add_argument("--distortion", type=float)
    conv.add_argument("--config", type=str)
    conv.set_defaults(func=_cmd_converge)

    rt = sub.add_parser("rt-compare",
                        help="projected vs RT-type velocity errors (k=0, K=1)")
    rt.add_argument("--levels", type=int)
    rt.add_argument("--csv", type=str)
    rt.add_argument("--family", choices=["uniform", "distorted"])
    rt.add_argument("--seed", type=int)
    rt.add_argument("--distortion", type=float)
    rt.add_argument("--config", type=str)
    rt.set_defaults(func=_cmd_rt_compare)

    exp = sub.add_parser("export", help="solve and write a VTK snapshot")
    exp.add_argument("--mesh", type=str)
    exp.add_argument("--order", type=int)
    exp.add_argument("--case", type=str)
    exp.add_argument("--vtk", type=str)
    exp.add_argument("--config", type=str)
    exp.set_defaults(func=_cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (polymesh.MeshError, SolverError, RecoveryError, ValueError,
            KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
