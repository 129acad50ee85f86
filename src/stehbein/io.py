"""Geometry/braiding file parsing and serialization.

Files are UTF-8 JSON.  Complex numbers are two-element arrays [re, im];
tensors are nested row-major arrays of those.  A geometry file carries
"matrix_dim", "frame_dim", "lambda", "P" and one of "S"/"tau", plus
optional "F", "K", "metric" and at most one of "omega"/"chi"; each array's
key and axes are those of ``calculus.GEOMETRY_ARRAYS``.  A braiding file
carries "S", optionally one of "n"/"frame_dim", and "P".  Any other key is
refused, so a misspelt key cannot silently drop the data it names.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .calculus import GEOMETRY_ARRAYS, FrameGeometry, _projector_residual, geometry_invariants
from .braiding import Braiding, sigma_from_tau

LOAD_TOL = 1e-8  # structural gate for invariants enforced at load

GEOMETRY_KEYS = frozenset({"matrix_dim", "frame_dim", "tau"} | {k for _, k, _ in GEOMETRY_ARRAYS})
BRAIDING_KEYS = frozenset({"n", "frame_dim", "S", "P"})


class GeometryFileError(ValueError):
    """Input-file problem: parse failure or violated structural invariant."""

    def __init__(self, message: str, violation: str | None = None):
        super().__init__(message)
        self.violation = violation


def encode_complex_array(arr: np.ndarray):
    """Nested row-major lists with [re, im] leaves."""
    arr = np.asarray(arr, dtype=complex)
    return np.stack((arr.real, arr.imag), -1).tolist()


def decode_complex_array(data, ndim: int, name: str) -> np.ndarray:
    """Decode a nested array with exactly `ndim` axes above the [re, im] leaf."""
    try:
        raw = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise GeometryFileError(f"field {name!r} is not a numeric nested array: {exc}") from exc
    if raw.ndim != ndim + 1 or raw.shape[-1] != 2:
        raise GeometryFileError(
            f"field {name!r} has shape {raw.shape}; expected {ndim} axes of [re, im] pairs")
    kinds = {type(x) for x in np.array(data, dtype=object).flat} - {int, float}
    if kinds:  # the cast above also takes true, false and "0.0"
        raise GeometryFileError(f"field {name!r} has leaves that are not JSON numbers: "
                                f"{sorted(k.__name__ for k in kinds)}")
    if not np.all(np.isfinite(raw)):
        raise GeometryFileError(f"field {name!r} has a non-finite entry")
    return raw[..., 0] + 1j * raw[..., 1]


def geometry_to_dict(geom: FrameGeometry) -> dict:
    out = {"matrix_dim": geom.N, "frame_dim": geom.n}
    for field, key, _ in GEOMETRY_ARRAYS:
        if getattr(geom, field) is not None:
            out[key] = encode_complex_array(getattr(geom, field))
    return out


def braiding_to_dict(b: Braiding, p: np.ndarray | None = None) -> dict:
    out = {"n": b.n, "S": encode_complex_array(b.S)}
    if p is not None:
        out["P"] = encode_complex_array(p)
    return out


def save_json(payload: dict, path) -> None:
    """Write ``payload`` as strict JSON (RFC 8259): a NaN or an infinity, which no
    JSON number holds, raises ValueError before the file is opened."""
    Path(path).write_text(json.dumps(payload, indent=1, allow_nan=False), encoding="utf-8")


def _dimension(doc: dict, key: str, what: str) -> int:
    """A JSON integer >= 1: 3.9, "3" and true are refused, never truncated."""
    value = doc.get(key)
    if type(value) is not int or value < 1:
        raise GeometryFileError(f"invalid {what}: {key!r} must be an integer >= 1, got {value!r}")
    return value


def _geometry_from_dict(doc: dict) -> FrameGeometry:
    N = _dimension(doc, "matrix_dim", "matrix dimension")
    n = _dimension(doc, "frame_dim", "frame dimension")
    arrays = {}
    # in table order, so that a document with several faults is refused for the first
    for field, key, axes in GEOMETRY_ARRAYS:
        if key in doc:
            arrays[field] = decode_complex_array(doc[key], len(axes), key)
        if field == "lam" and arrays["lam"].shape != (n, N, N):
            # checked before FrameGeometry allocates zero F and K of the declared size
            raise GeometryFileError(f"lambda has shape {arrays['lam'].shape}, expected {(n, N, N)}")
        if field == "P":
            if "P" not in doc:
                raise GeometryFileError("geometry file lacks the wedge projector 'P'")
            if "S" in doc and "tau" in doc:
                raise GeometryFileError("geometry carries both 'S' and 'tau'; give one braiding")
            if "tau" in doc:
                tau = decode_complex_array(doc["tau"], 4, "tau")
                try:
                    arrays["S"] = sigma_from_tau(tau, arrays["P"]).S
                except ValueError as exc:
                    raise GeometryFileError(f"cannot build S from tau: {exc}") from exc
            elif "S" not in doc:
                raise GeometryFileError("geometry file needs one of 'S' or 'tau'")
    try:
        geom = FrameGeometry(N=N, n=n, **arrays)
    except ValueError as exc:
        raise GeometryFileError(str(exc)) from exc
    _enforce("geometry", geometry_invariants(geom))
    return geom


def _enforce(kind: str, invariants: dict[str, float]) -> None:
    """Raise GeometryFileError naming the first invariant whose residual exceeds LOAD_TOL."""
    for name, residual in invariants.items():
        if not residual <= LOAD_TOL:
            raise GeometryFileError(
                f"{kind} violates invariant {name!r} (residual {residual:.3g})",
                violation=name)


def load_input(path):
    """Load a geometry or braiding file; the type is detected from its keys.

    A key that only a geometry carries makes it a geometry file, which then
    needs "lambda".  A key outside the type's set is refused by name.
    Returns a FrameGeometry or a (Braiding, P-or-None) pair.  Structural
    invariants (a braiding file's P must be a projector too) are enforced
    here; violations raise GeometryFileError naming the invariant.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    # UnicodeDecodeError: the file is not UTF-8
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GeometryFileError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise GeometryFileError(f"{path} does not contain a JSON object")
    geometry_only = sorted(set(doc) & (GEOMETRY_KEYS - BRAIDING_KEYS))
    allowed = GEOMETRY_KEYS if geometry_only else BRAIDING_KEYS
    unknown = sorted(set(doc) - allowed)
    if geometry_only and "lambda" not in doc:
        raise GeometryFileError(
            f"{path} has geometry keys {geometry_only} but lacks 'lambda'"
            + (f"; unknown keys {unknown}" if unknown else ""))
    if unknown:
        kind = "geometry" if geometry_only else "braiding"
        raise GeometryFileError(f"{path} has unknown {kind} keys {unknown}; "
                                f"allowed: {sorted(allowed)}")
    if geometry_only:
        return _geometry_from_dict(doc)
    if "S" in doc:
        if "n" in doc and "frame_dim" in doc:
            raise GeometryFileError(f"{path} gives both 'n' and 'frame_dim'; give one frame dimension")
        key = "n" if "n" in doc else "frame_dim"
        s = decode_complex_array(doc["S"], 4, "S")
        n = _dimension(doc, key, "frame dimension n") if key in doc else s.shape[0]
        try:
            braid = Braiding(n, s)
        except ValueError as exc:
            raise GeometryFileError(str(exc)) from exc
        p = decode_complex_array(doc["P"], 4, "P") if "P" in doc else None
        if p is not None:
            if p.shape != s.shape:
                raise GeometryFileError(f"P has shape {p.shape}, expected {s.shape}")
            _enforce("braiding", {"P_projector": _projector_residual(p)})
        return braid, p
    raise GeometryFileError(
        f"{path} is neither a geometry file (needs 'lambda') nor a braiding file (needs 'S')")


def curvature_to_dict(curv) -> dict:
    return {
        "R": encode_complex_array(curv.R),
        "Ricci": encode_complex_array(curv.ricci),
        "centrality_residual": float(curv.centrality_residual),
    }
