"""Command-line front end.

Four commands: ``verify`` runs the checks of ``report.CHECKS`` (``--checks``
picks groups), ``curvature`` writes a connection's curvature and Ricci,
``jn`` writes the star tensor J^(n) and ``fixture`` a built-in input file.
Their connection is the file's omega, else D_(0) + its chi, else D_(0);
``--connection d0`` or ``torsion-free`` overrides it.  A file with both
omega and chi is rejected.

Exit codes: 0 all selected checks pass, 1 at least one check fails,
2 input or usage error, an output that cannot be written, a dense star
tensor J^(k) above ``MAX_STAR_BYTES``, or out of memory.  Output is strict
JSON: the report writes a non-finite residual as null, and any other
non-finite number cannot be written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .frametensor import COMPLEX, max_coeff_norm
from .calculus import FrameGeometry
from .connection import MAX_DEGREE, curvature
from .involution import build_jn
from .fixtures import FIXTURE_NAMES, PARAMETRIC_FIXTURES, build_fixture
from .io import (
    GeometryFileError,
    braiding_to_dict,
    curvature_to_dict,
    encode_complex_array,
    geometry_to_dict,
    load_input,
    save_json,
)
from .report import (CONNECTION_MODES, DEFAULT_TOL, GROUPS, MIN_ORDER, resolve_connection,
                     run_verify)


# command -> (flag, lowest, highest or None) of each integer option it bounds;
# the order comes first, and the out-of-memory and star-size messages name it.
# The bounds do not depend on n: MAX_STAR_BYTES refuses what a given n cannot hold
INT_BOUNDS = {
    "verify": (("--max-order", MIN_ORDER, MAX_DEGREE), ("--seed", 0, None)),
    # dn-reality-7 reads j_8, the largest star tensor verify builds
    "jn": (("--order", 1, MAX_DEGREE + 1),),
    # the loader refuses a file whose frame dimension is below 1
    "fixture": (("--frame-dim", 1, None), ("--seed", 0, None)),
}
# the largest dense star tensor J^(k), n^(2k) entries, a run may build; su2's J^(8) is
# 657 MiB and n = 4's J^(6) 256 MiB, where n = 4's J^(7) is 4 GiB and su(3)'s J^(5) 16 GiB
MAX_STAR_BYTES = 2 ** 30
# command -> the option naming the file it writes
OUTPUT_FLAGS = {"verify": "--report", "curvature": "--out", "jn": "--out", "fixture": "--out"}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="stehbein",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run consistency and reality checks on a file")
    v.add_argument("input", help="geometry or braiding JSON file")
    v.add_argument("--checks", default=None,
                   help="comma list of check groups (default: all applicable); "
                        f"groups: {', '.join(GROUPS)}")
    v.add_argument("--connection", default="auto", choices=CONNECTION_MODES,
                   help="connection used by connection-dependent checks")
    v.add_argument("--report", default=None, help="write the machine-readable report here")
    v.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help=f"absolute tolerance (default {DEFAULT_TOL:g})")
    v.add_argument("--seed", type=int, default=42, help="seed for sampled checks")
    v.add_argument("--max-order", type=int, default=4,
                   help=f"highest tensor order for j_n / D_n checks, {MIN_ORDER} to "
                        f"{MAX_DEGREE} (default 4)")

    c = sub.add_parser("curvature", help="compute curvature and Ricci of a connection")
    c.add_argument("input", help="geometry JSON file")
    c.add_argument("--connection", default="auto", choices=CONNECTION_MODES,
                   help="which connection to differentiate")
    c.add_argument("--out", default=None, help="write the curvature file here")

    j = sub.add_parser("jn", help="emit the star tensor J^(n) of the input braiding")
    j.add_argument("input")
    j.add_argument("-n", "--order", type=int, required=True,
                   help=f"1 to {MAX_DEGREE + 1}, the orders verify builds")
    j.add_argument("--out", default=None)

    f = sub.add_parser("fixture", help="emit a built-in geometry or braiding file")
    f.add_argument("name", choices=FIXTURE_NAMES)
    f.add_argument("--out", required=True)
    # None marks an option not given: the fixed fixtures reject any value
    f.add_argument("--frame-dim", type=int, default=None,
                   help=f"frame dimension of {' and '.join(PARAMETRIC_FIXTURES)} (default 3)")
    f.add_argument("--seed", type=int, default=None,
                   help=f"seed of {' and '.join(PARAMETRIC_FIXTURES)} (default 42)")
    return ap


def _write(payload: dict, path, what: str) -> bool:
    """Write ``payload`` to ``path`` as strict JSON; on an OSError or a non-finite
    number print why and return False."""
    try:
        save_json(payload, path)
    except (OSError, ValueError) as exc:
        print(f"error: cannot write {path}: {getattr(exc, 'strerror', None) or exc}",
              file=sys.stderr)
        return False
    print(f"{what} written to {path}")
    return True


def _finish_report(report, path):
    for line in report.summary_lines():
        print(line)
    if path and not _write(report.to_dict(), path, "report"):
        return 2
    return 0 if report.all_pass else 1


def _option_value(args, flag: str):
    return getattr(args, flag[2:].replace("-", "_"))


def _option_error(args) -> str | None:
    """Why an option value is out of bounds, or None; checked before any file loads."""
    if args.command == "fixture" and args.name not in PARAMETRIC_FIXTURES:
        for flag in ("--frame-dim", "--seed"):
            if _option_value(args, flag) is not None:
                return f"fixture {args.name} is fixed at n = 3; it takes no {flag}"
    for flag, lo, hi in INT_BOUNDS.get(args.command, ()):
        value = _option_value(args, flag)
        if value is None:
            continue
        if hi is None and value < lo:
            return f"{flag} must be >= {lo}, got {value}"
        if hi is not None and not lo <= value <= hi:
            return f"{flag} must be between {lo} and {hi}, got {value}"
    # the report schema requires a tolerance > 0, and inf would pass every finite residual
    if args.command == "verify" and not (math.isfinite(args.tol) and args.tol > 0):
        return f"--tol must be finite and > 0, got {args.tol:g}"
    out = _option_value(args, OUTPUT_FLAGS[args.command])
    if out is not None:
        parent = Path(out).parent
        if Path(out).is_dir():
            return f"cannot write {out}: it is a directory"
        if not parent.is_dir():
            reason = "is not a directory" if parent.exists() else "does not exist"
            return f"cannot write {out}: directory {parent} {reason}"
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    error = _option_error(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        loaded = None if args.command == "fixture" else load_input(args.input)
    except GeometryFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # a fixture has n = 3 unless --frame-dim gives another
    n = ((args.frame_dim or 3) if loaded is None
         else loaded.n if isinstance(loaded, FrameGeometry) else loaded[0].n)
    flag = INT_BOUNDS[args.command][0][0] if args.command in INT_BOUNDS else None
    value = None if flag is None else _option_value(args, flag)
    where = "" if value is None else f" at {flag} {value}"
    order = _largest_star_order(args, loaded)
    size = 0 if order is None else n ** (2 * order) * np.dtype(COMPLEX).itemsize
    if size > MAX_STAR_BYTES:
        print(f"error: {args.command}{where} with frame dimension n={n} would build the star "
              f"tensor J^({order}) of {size / 2 ** 30:.3g} GiB, above the "
              f"{MAX_STAR_BYTES / 2 ** 30:g} GiB limit", file=sys.stderr)
        return 2
    try:
        return _dispatch(args, loaded)
    except MemoryError:
        # what a run holds beside its star tensors can still exhaust memory
        print(f"error: {args.command}{where} with frame dimension n={n} ran out of memory",
              file=sys.stderr)
        return 2


def _largest_star_order(args, loaded) -> int | None:
    """The order k of the largest dense star tensor J^(k) the command builds, None for a
    command that builds none.  ``verify`` at order K builds J^(K+1) when dn-reality runs
    on a geometry, J^(K-1) for the jn rows, J^(3) for d2-reality and J^(2) for the rows
    of one index pair; a row whose input lacks what it needs is skipped, not built."""
    if args.command == "jn":
        return args.order
    if args.command != "verify":
        return None
    groups = GROUPS if args.checks is None else args.checks.split(",")
    geometry, k = isinstance(loaded, FrameGeometry), args.max_order
    orders = [2]
    if "jn" in groups:
        orders.append(k - 1)
    if geometry and "d2-reality" in groups:
        orders.append(3)
    if geometry and "dn-reality" in groups:
        orders.append(k + 1)
    return max(orders)


@np.errstate(over="ignore", invalid="ignore")  # inf and NaN results are reported, not warned of
def _dispatch(args, loaded) -> int:
    if args.command == "fixture":
        given = {"seed": args.seed, "n": args.frame_dim}
        kind, obj = build_fixture(args.name, **{k: v for k, v in given.items() if v is not None})
        payload = geometry_to_dict(obj) if kind == "geometry" else braiding_to_dict(*obj)
        return 0 if _write(payload, args.out, f"{args.name} fixture") else 2

    if args.command == "verify":
        checks = None
        # an empty --checks selects nothing; it does not mean the default of all groups
        if args.checks is not None:
            checks = set(args.checks.split(","))
            unknown = checks - set(GROUPS)
            if unknown:
                what = ("--checks names no group" if checks == {""}
                        else f"unknown check groups {sorted(unknown)}")
                print(f"error: {what}; known: {sorted(GROUPS)}", file=sys.stderr)
                return 2
        report = run_verify(loaded, tol=args.tol, checks=checks,
                            max_order=args.max_order, seed=args.seed,
                            connection_mode=args.connection, source=args.input)
        return _finish_report(report, args.report)

    if args.command == "jn":
        braid = loaded.braid if isinstance(loaded, FrameGeometry) else loaded[0]
        tensor = build_jn(braid, args.order)
        payload = {"order": args.order, "n": braid.n,
                   "J": encode_complex_array(tensor)}
        if args.out:
            return 0 if _write(payload, args.out, f"J^({args.order})") else 2
        try:
            print(json.dumps(payload, allow_nan=False))
        except ValueError as exc:
            print(f"error: cannot write J^({args.order}) to stdout: {exc}", file=sys.stderr)
            return 2
        return 0

    if args.command == "curvature":
        if not isinstance(loaded, FrameGeometry):
            print("error: curvature needs a geometry file", file=sys.stderr)
            return 2
        conn, label = resolve_connection(loaded, loaded.braid, args.connection)
        data = curvature(conn, loaded.braid)
        print(f"curvature of {label}: max |R| coefficient norm = "
              f"{max_coeff_norm(data.R):.6e}, "
              f"centrality residual = {data.centrality_residual:.3e}")
        if args.out and not _write(curvature_to_dict(data), args.out, "curvature"):
            return 2
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
