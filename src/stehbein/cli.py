"""Command-line front end.

Exit codes: 0 all selected checks pass, 1 at least one check fails,
2 input or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .calculus import FrameGeometry
from .braiding import make_braiding
from .connection import MAX_DEGREE, curvature
from .involution import build_jn
from .fixtures import FIXTURE_NAMES, build_fixture
from .io import (
    GeometryFileError,
    braiding_to_dict,
    curvature_to_dict,
    encode_complex_array,
    geometry_to_dict,
    load_input,
    save_json,
)
from .report import BRAIDING_GROUPS, DEFAULT_TOL, GROUPS, REPORT_SCHEMA, run_verify
from . import report as report_mod


MIN_ORDER = REPORT_SCHEMA["properties"]["max_order"]["minimum"]


def _add_check_options(p: argparse.ArgumentParser):
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help=f"absolute tolerance (default {DEFAULT_TOL:g})")
    p.add_argument("--seed", type=int, default=42, help="seed for sampled checks")
    p.add_argument("--max-order", type=int, default=4,
                   help=f"highest tensor order for j_n / D_n checks, {MIN_ORDER} to "
                        f"{MAX_DEGREE} (default 4)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="stehbein",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run consistency and reality checks on a file")
    v.add_argument("input", help="geometry or braiding JSON file")
    v.add_argument("--checks", default=None,
                   help="comma list of check groups (default: all applicable); "
                        f"groups: {', '.join(GROUPS)}")
    v.add_argument("--connection", default="auto",
                   choices=["auto", "d0", "torsion-free", "omega", "chi"],
                   help="connection used by connection-dependent checks")
    v.add_argument("--report", default=None, help="write the machine-readable report here")
    _add_check_options(v)

    c = sub.add_parser("curvature", help="compute curvature and Ricci of a connection")
    c.add_argument("input", help="geometry JSON file")
    c.add_argument("--connection", default=None,
                   choices=["d0", "torsion-free", "omega", "chi"],
                   help="which connection to differentiate (required unless the file has omega)")
    c.add_argument("--out", default=None, help="write the curvature file here")

    bc = sub.add_parser("braid-check", help="braiding-level checks only")
    bc.add_argument("input", help="geometry or braiding JSON file")
    bc.add_argument("--report", default=None)
    _add_check_options(bc)

    j = sub.add_parser("jn", help="emit the star tensor J^(n) of the input braiding")
    j.add_argument("input")
    j.add_argument("-n", "--order", type=int, required=True)
    j.add_argument("--out", default=None)

    f = sub.add_parser("fixture", help="emit a built-in geometry or braiding file")
    f.add_argument("name", choices=FIXTURE_NAMES)
    f.add_argument("--out", required=True)
    f.add_argument("--frame-dim", type=int, default=3,
                   help="frame dimension for parametric fixtures")
    f.add_argument("--seed", type=int, default=42, help="seed for random fixtures")
    return ap


def _finish_report(report, path):
    for line in report.summary_lines():
        print(line)
    if path:
        save_json(report.to_dict(), path)
        print(f"report written to {path}")
    return 0 if report.all_pass else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in ("verify", "braid-check") and not MIN_ORDER <= args.max_order <= MAX_DEGREE:
        print(f"error: --max-order must be between {MIN_ORDER} and {MAX_DEGREE}, "
              f"got {args.max_order}", file=sys.stderr)
        return 2
    try:
        return _dispatch(args)
    except GeometryFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "fixture":
        kind, obj = build_fixture(args.name, seed=args.seed, n=args.frame_dim)
        if kind == "geometry":
            save_json(geometry_to_dict(obj), args.out)
        else:
            braid, p = obj
            save_json(braiding_to_dict(braid, p), args.out)
        print(f"{args.name} fixture written to {args.out}")
        return 0

    loaded = load_input(args.input)

    if args.command == "verify":
        checks = None
        if args.checks:
            checks = set(args.checks.split(","))
            unknown = checks - set(GROUPS)
            if unknown:
                print(f"error: unknown check groups {sorted(unknown)}; "
                      f"known: {sorted(GROUPS)}", file=sys.stderr)
                return 2
        report = run_verify(loaded, tol=args.tol, checks=checks,
                            max_order=args.max_order, seed=args.seed,
                            connection_mode=args.connection, source=args.input)
        return _finish_report(report, args.report)

    if args.command == "braid-check":
        if isinstance(loaded, FrameGeometry):
            loaded = (make_braiding(loaded.S), loaded.P)
        report = run_verify(loaded, tol=args.tol, checks=set(BRAIDING_GROUPS),
                            max_order=args.max_order, seed=args.seed,
                            source=args.input)
        return _finish_report(report, args.report)

    if args.command == "jn":
        braid = (make_braiding(loaded.S) if isinstance(loaded, FrameGeometry)
                 else loaded[0])
        if args.order < 1:
            print("error: order must be >= 1", file=sys.stderr)
            return 2
        tensor = build_jn(braid, args.order)
        payload = {"order": args.order, "n": braid.n,
                   "J": encode_complex_array(tensor)}
        if args.out:
            save_json(payload, args.out)
            print(f"J^({args.order}) written to {args.out}")
        else:
            print(json.dumps(payload))
        return 0

    if args.command == "curvature":
        if not isinstance(loaded, FrameGeometry):
            print("error: curvature needs a geometry file", file=sys.stderr)
            return 2
        geom = loaded
        mode = args.connection
        if mode is None:
            if geom.omega is not None:
                mode = "omega"
            elif geom.chi is not None:
                mode = "chi"
            else:
                print("error: the geometry has no connection; pass --connection "
                      "(d0 | torsion-free | omega | chi)", file=sys.stderr)
                return 2
        braid = make_braiding(geom.S)
        try:
            conn, label = report_mod.resolve_connection(geom, braid, mode)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        data = curvature(conn, braid)
        print(f"curvature of {label}: max |R| coefficient norm = "
              f"{float(np.max(np.linalg.norm(data.R, axis=(-2, -1)))):.6e}, "
              f"centrality residual = {data.centrality_residual:.3e}")
        if args.out:
            save_json(curvature_to_dict(data), args.out)
            print(f"curvature written to {args.out}")
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
