"""Geometry/braiding file parsing and serialization.

Files are UTF-8 JSON.  Complex numbers are two-element arrays [re, im];
tensors are nested row-major arrays of those.  A geometry file carries
"matrix_dim", "frame_dim", "lambda", "P" and one of "S"/"tau", plus
optional "F", "K", "metric", "omega", "chi".  A braiding file carries
"n" and "S".
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .calculus import FrameGeometry, geometry_invariants
from .braiding import Braiding, make_braiding, sigma_from_tau

LOAD_TOL = 1e-8  # structural gate for invariants enforced at load


class GeometryFileError(ValueError):
    """Input-file problem: parse failure or violated structural invariant."""

    def __init__(self, message: str, violation: str | None = None):
        super().__init__(message)
        self.violation = violation


def encode_complex_array(arr: np.ndarray):
    """Nested row-major lists with [re, im] leaves."""
    arr = np.asarray(arr, dtype=complex)
    if arr.ndim == 0:
        return [float(arr.real), float(arr.imag)]
    return [encode_complex_array(sub) for sub in arr]


def decode_complex_array(data, ndim: int, name: str) -> np.ndarray:
    """Decode a nested array with exactly `ndim` axes above the [re, im] leaf."""
    try:
        raw = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise GeometryFileError(f"field {name!r} is not a numeric nested array: {exc}") from exc
    if raw.ndim != ndim + 1 or raw.shape[-1] != 2:
        raise GeometryFileError(
            f"field {name!r} has shape {raw.shape}; expected {ndim} axes of [re, im] pairs")
    if not np.all(np.isfinite(raw)):
        raise GeometryFileError(f"field {name!r} has a non-finite entry")
    return raw[..., 0] + 1j * raw[..., 1]


def geometry_to_dict(geom: FrameGeometry) -> dict:
    out = {
        "matrix_dim": geom.N,
        "frame_dim": geom.n,
        "lambda": encode_complex_array(geom.lam),
        "P": encode_complex_array(geom.P),
        "S": encode_complex_array(geom.S),
        "F": encode_complex_array(geom.F),
        "K": encode_complex_array(geom.K),
    }
    if geom.g is not None:
        out["metric"] = encode_complex_array(geom.g)
    if geom.omega is not None:
        out["omega"] = encode_complex_array(geom.omega)
    if geom.chi is not None:
        out["chi"] = encode_complex_array(geom.chi)
    return out


def braiding_to_dict(b: Braiding, p: np.ndarray | None = None) -> dict:
    out = {"n": b.n, "S": encode_complex_array(b.S)}
    if p is not None:
        out["P"] = encode_complex_array(p)
    return out


def save_json(payload: dict, path) -> None:
    Path(path).write_text(json.dumps(payload, indent=1), encoding="utf-8")


def _geometry_from_dict(doc: dict) -> FrameGeometry:
    try:
        N = int(doc["matrix_dim"])
        n = int(doc["frame_dim"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise GeometryFileError(f"missing or invalid matrix_dim/frame_dim: {exc}") from exc
    lam = decode_complex_array(doc["lambda"], 3, "lambda")
    # checked before FrameGeometry allocates zero F and K of the declared size
    if lam.shape != (n, N, N):
        raise GeometryFileError(f"lambda has shape {lam.shape}, expected {(n, N, N)}")
    p = decode_complex_array(doc["P"], 4, "P") if "P" in doc else None
    if p is None:
        raise GeometryFileError("geometry file lacks the wedge projector 'P'")
    if "S" in doc:
        s = decode_complex_array(doc["S"], 4, "S")
    elif "tau" in doc:
        tau = decode_complex_array(doc["tau"], 4, "tau")
        try:
            s = sigma_from_tau(tau, p).S
        except ValueError as exc:
            raise GeometryFileError(f"cannot build S from tau: {exc}") from exc
    else:
        raise GeometryFileError("geometry file needs one of 'S' or 'tau'")
    kwargs = {}
    for key, attr, ndim in (("F", "F", 3), ("K", "K", 2), ("metric", "g", 2),
                            ("omega", "omega", 5), ("chi", "chi", 3)):
        if key in doc:
            kwargs[attr] = decode_complex_array(doc[key], ndim, key)
    try:
        geom = FrameGeometry(N=N, n=n, lam=lam, P=p, S=s, **kwargs)
    except ValueError as exc:
        raise GeometryFileError(str(exc)) from exc
    for name, residual in geometry_invariants(geom).items():
        if not residual <= LOAD_TOL:
            raise GeometryFileError(
                f"geometry violates invariant {name!r} (residual {residual:.3g})",
                violation=name)
    return geom


def load_input(path):
    """Load a geometry or braiding file; the type is detected from its keys.

    Returns a FrameGeometry or a (Braiding, P-or-None) pair.  Structural
    invariants of a geometry are enforced here; violations raise
    GeometryFileError naming the invariant.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise GeometryFileError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise GeometryFileError(f"{path} does not contain a JSON object")
    if "lambda" in doc:
        return _geometry_from_dict(doc)
    if "S" in doc:
        try:
            n = int(doc.get("n", doc.get("frame_dim", 0)))
        except (TypeError, ValueError, OverflowError) as exc:
            raise GeometryFileError(f"invalid frame dimension n: {exc}") from exc
        s = decode_complex_array(doc["S"], 4, "S")
        if n == 0:
            n = s.shape[0]
        if s.shape != (n,) * 4:
            raise GeometryFileError(f"S has shape {s.shape}, expected {(n,) * 4}")
        p = decode_complex_array(doc["P"], 4, "P") if "P" in doc else None
        if p is not None and p.shape != s.shape:
            raise GeometryFileError(f"P has shape {p.shape}, expected {s.shape}")
        return make_braiding(s), p
    raise GeometryFileError(
        f"{path} is neither a geometry file (needs 'lambda') nor a braiding file (needs 'S')")


def curvature_to_dict(curv) -> dict:
    return {
        "R": encode_complex_array(curv.R),
        "Ricci": encode_complex_array(curv.ricci),
        "centrality_residual": float(curv.centrality_residual),
    }
