"""Verification report assembly and the check orchestrator.

Every row is a residual plus the identity it instantiates (a formula
string in ``equation_anchor``); the tolerance decides pass/fail, and NaN
fails.  ``CHECKS`` declares each row once: its ``--checks`` group, one
prerequisite (none, geometry, projector or metric), its (name,
anchor) rows, and ``run(ctx, order)`` returning one (residual or None,
note) per row; an entry with a first order expands into rows
``<name>-<order>`` up to ``max_order``.  ``GROUPS`` is read off the table.
A geometry always implies a connection (``resolve_connection``), so the
connection rows need only ``geometry``.

``run_verify`` walks the table in order.  A row is skipped, never
dropped: with ``not selected`` when its group is filtered out, with the
reason its prerequisite is missing, with ``skipped: ...`` when it
needs the inverse of a singular braiding, or, for the D₂ forms that are
reality only for a real connection, with the connection-reality
residual.  The per-run ``_Context`` holds the inputs and the
intermediates several checks share, each computed at most once.  Each
sampled check (d-squared, leibniz, wedge-star) draws its samples from a
generator of its own, seeded with ``--seed``, so a row's residual is the
same whichever ``--checks`` groups run with it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from numbers import Integral
from typing import Callable, NamedTuple

import numpy as np

from .calculus import FrameGeometry, check_d_squared, check_structure, check_theta_squared
from .braiding import (
    Braiding,
    SingularBraidingError,
    check_braid,
    check_sigma_consistency,
    check_yang_baxter,
)
from .connection import (
    MAX_DEGREE,
    Connection,
    algebraic_torsion,
    central_connection,
    check_leibniz,
    check_sigma_lemma,
    d0_connection,
    d2,
    solve_torsionfree_chi,
    torsion_forms,
    check_metric_symmetry,
    check_metric_compatibility,
)
from .involution import (
    _d2_coefficient_residual,
    _involution_residual,
    build_jn,
    check_Dn_reality,
    check_fifa,
    check_jn_involutive,
    check_metric_compat_second,
    check_metric_reality,
    check_wedge_star,
)
# apply_central_at is bound here, unused, because perfbench's tracer self-test
# checks that this module's binding of it is wrapped
from .frametensor import FrameTensorField, apply_central_at, max_coeff_norm, worst  # noqa: F401
from .fixtures import random_element, random_field

DEFAULT_TOL = 1e-9
CONNECTION_MODES = ("auto", "d0", "torsion-free")  # see resolve_connection


@dataclass
class CheckResult:
    name: str
    equation_anchor: str
    residual: float | None
    tolerance: float
    status: str  # pass | fail | skipped
    note: str = ""

    def to_dict(self) -> dict:
        """The row as JSON: a non-finite residual, which no JSON number holds, is
        written as null and named in the note; its status stays fail."""
        out = asdict(self)
        if self.residual is not None and not math.isfinite(self.residual):
            out["residual"] = None
            out["note"] = "; ".join(filter(None, (self.note, f"residual is {self.residual}")))
        return out


@dataclass
class VerificationReport:
    tolerance: float
    seed: int
    max_order: int
    source: str = ""
    checks: list = field(default_factory=list)

    def add(self, name: str, anchor: str, residual: float | None,
            note: str = "") -> None:
        """Append a row; a residual of None marks it skipped."""
        if residual is None:
            status = "skipped"
        else:
            residual = float(residual)
            status = "pass" if residual <= self.tolerance else "fail"
        self.checks.append(CheckResult(name, anchor, residual, self.tolerance, status, note))

    @property
    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "skipped": 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    @property
    def all_pass(self) -> bool:
        return self.counts["fail"] == 0

    def to_dict(self) -> dict:
        from . import __version__
        return {
            "tool": "stehbein",
            "version": __version__,
            "tolerance": self.tolerance,
            "seed": self.seed,
            "max_order": self.max_order,
            "input": self.source,
            "summary": self.counts,
            "checks": [c.to_dict() for c in self.checks],
        }

    def summary_lines(self) -> list:
        width = max((len(c.name) for c in self.checks), default=10)
        lines = []
        for c in self.checks:
            res = f"{c.residual:.3e}" if c.residual is not None else "-"
            line = f"{c.status.upper():7s} {c.name:<{width}s}  residual={res:<11s} tol={c.tolerance:.1e}"
            if c.note:
                line += f"  [{c.note}]"
            lines.append(line)
        cts = self.counts
        lines.append(f"{cts['pass']} passed, {cts['fail']} failed, {cts['skipped']} skipped")
        return lines


REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "stehbein verification report",
    "type": "object",
    "required": ["tool", "version", "tolerance", "seed", "max_order",
                 "input", "summary", "checks"],
    "properties": {
        "tool": {"type": "string"},
        "version": {"type": "string"},
        "tolerance": {"type": "number", "exclusiveMinimum": 0},
        "seed": {"type": "integer"},
        "max_order": {"type": "integer", "minimum": 2},
        "input": {"type": "string"},
        "summary": {
            "type": "object",
            "required": ["pass", "fail", "skipped"],
            "properties": {
                "pass": {"type": "integer", "minimum": 0},
                "fail": {"type": "integer", "minimum": 0},
                "skipped": {"type": "integer", "minimum": 0},
            },
        },
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "equation_anchor", "residual",
                             "tolerance", "status", "note"],
                "properties": {
                    "name": {"type": "string"},
                    "equation_anchor": {"type": "string"},
                    "residual": {"type": ["number", "null"]},
                    "tolerance": {"type": "number"},
                    "status": {"enum": ["pass", "fail", "skipped"]},
                    "note": {"type": "string"},
                },
            },
        },
    },
}
MIN_ORDER = REPORT_SCHEMA["properties"]["max_order"]["minimum"]


def resolve_connection(geom: FrameGeometry, braid: Braiding,
                       mode: str = "auto") -> tuple[Connection, str]:
    """Build the connection a geometry implies, returning it and a label.

    ``auto`` takes the geometry's omega, else D_(0) + its chi, else D_(0);
    ``d0`` and ``torsion-free`` ignore omega and chi.
    """
    if mode == "auto" and geom.omega is not None:
        return Connection(geom, geom.omega), "omega from input"
    if mode == "auto" and geom.chi is not None:
        return central_connection(geom, geom.chi, braid), "D_(0) + chi from input"
    if mode == "torsion-free":
        chi = solve_torsionfree_chi(geom, braid)
        return central_connection(geom, chi, braid), "D_(0) + torsion-free chi"
    if mode in ("auto", "d0"):
        return d0_connection(geom, braid), "D_(0)"
    raise ValueError(f"unknown connection mode {mode!r}")


class _Context:
    """The inputs of one run and the intermediates its checks share."""

    def __init__(self, loaded, tol: float, seed: int, connection_mode: str):
        if isinstance(loaded, FrameGeometry):
            self.geom, self.braid, self.P = loaded, loaded.braid, loaded.P
        else:
            self.geom = None
            self.braid, self.P = loaded
        self.tol, self.seed = tol, seed
        self.conn = self.conn_label = None
        if self.geom is not None:
            self.conn, self.conn_label = resolve_connection(self.geom, self.braid, connection_mode)

    def missing(self, needs: str | None) -> str | None:
        """Why the prerequisite ``needs`` is not met, or None when it is."""
        if needs == "projector" and self.P is None:
            return "no projector in input"
        if needs in (None, "projector"):
            return None
        if self.geom is None:
            return "requires a geometry input"
        if needs == "metric" and self.geom.g is None:
            return "no metric in input"
        return None

    @cached_property
    def J(self) -> np.ndarray:
        return build_jn(self.braid, 2)

    @cached_property
    def j2_involution(self) -> float:
        return _involution_residual(self.braid, self.J)

    @cached_property
    def braid_residual(self) -> float:
        return check_braid(self.braid)

    @cached_property
    def fifa(self) -> float:
        # one value for every order: check_fifa's residual does not depend on it
        return check_fifa(self.braid)

    @cached_property
    def connection_reality(self) -> float:
        # D_1 reality: the connection-reality and dn-reality-1 rows and the D₂ skip rule
        return check_Dn_reality(self.conn, self.braid, 1)


class Check(NamedTuple):
    """One entry of ``CHECKS``; see the module docstring."""

    group: str | None
    needs: str | None
    rows: tuple
    run: Callable
    first_order: int | None = None


def _d_squared(ctx, _):
    rng = np.random.default_rng(ctx.seed)
    elements = (random_element(rng, ctx.geom.N) for _ in range(100))
    return [(check_d_squared(ctx.geom, elements), "100 seeded elements")]


def _leibniz(ctx, _):
    # both rules judge the same 50 pairs
    geom, rng = ctx.geom, np.random.default_rng(ctx.seed)
    left, right = zip(*(check_leibniz(ctx.conn, ctx.braid, random_element(rng, geom.N),
                                      random_field(rng, geom.n, geom.N, 1)) for _ in range(50)))
    note = f"{ctx.conn_label}; 50 seeded pairs"
    return [(worst(left), note), (worst(right), note)]


def _torsion(ctx, _):
    # cross-check: the 2-form route must reproduce the algebraic tensor
    forms, alg = torsion_forms(ctx.conn), algebraic_torsion(ctx.conn)
    n = ctx.geom.n
    res = worst(max_coeff_norm(tf - FrameTensorField(n, alg[a])) for a, tf in enumerate(forms))
    return [(res, f"{ctx.conn_label}; torsion norm {worst(map(max_coeff_norm, forms)):.3e}, "
                  f"algebraic {max_coeff_norm(FrameTensorField(n, alg)):.3e}")]


def _metric(ctx, _):
    g = ctx.geom.g
    try:
        res, c = check_metric_symmetry(g, ctx.braid)
        rows = [(res, f"proportionality c = {c.real:.6g}{c.imag:+.3g}i")]
    except ValueError as exc:
        rows = [(None, str(exc))]
    try:
        rows.append((check_metric_compatibility(ctx.conn, ctx.braid, g),
                     "indices lowered with g_{ab} = (g^{ab})^{-1}"))
    except ValueError as exc:
        rows.append((None, str(exc)))
    return rows + [(check_metric_compat_second(g, ctx.braid), ""),
                   (check_metric_reality(g, ctx.braid), "")]


def _d2_reality(ctx, _):
    # strong and braided: the D_n checks with op = d2; the three forms are provably
    # equivalent only on a real connection (on the flip the last two hold for every ω)
    conn, braid, real1, tol = ctx.conn, ctx.braid, ctx.connection_reality, ctx.tol
    strong = (check_Dn_reality(conn, braid, 2, d2), ctx.conn_label)
    # a NaN real1 falls through, so that every form fails
    if real1 > tol:
        # only the strong form is judged, so the other two are not computed
        skip = (None, f"equivalence needs a real connection "
                      f"(connection-reality residual {real1:.3e})")
        return [strong, skip, skip, skip]
    rows = [strong, (_d2_coefficient_residual(braid.S, conn.omega), ""),
            (check_sigma_lemma(conn, braid, 2, d2), "")]
    residuals = [r for r, _ in rows]
    lo, hi = min(residuals), worst(residuals)
    if np.isnan(hi):
        return rows + [(hi, "a residual is NaN")]
    if lo <= tol < hi / 10:
        return rows + [(hi - lo, "internal-consistency error: provably equivalent residuals disagree")]
    return rows + [(0.0, "three equivalent forms agree")]


def _wedge_star(ctx, _):
    rng, N = np.random.default_rng(ctx.seed), ctx.geom.N
    pairs = ((random_element(rng, N), random_element(rng, N)) for _ in range(8))
    return [(check_wedge_star(ctx.geom, ctx.braid, pairs), "")]


def _jn(ctx, order):
    braid_res = ctx.braid_residual
    return [(ctx.j2_involution if order == 2 else check_jn_involutive(ctx.braid, order),
             "" if braid_res <= 100 * ctx.tol else f"braid residual {braid_res:.3e}")]


CHECKS = (
    Check("structure", "geometry",
          (("structure", "2 λ_c λ_d P^{cd}_{ab} − λ_c F^c_{ab} − K_{ab} = 0"),),
          lambda ctx, _: [(check_structure(ctx.geom), "")]),
    Check("theta2", "geometry", (("theta-squared", "dθ + θ² = −½ K_{ab} θ^a θ^b"),),
          lambda ctx, _: [(check_theta_squared(ctx.geom), "")]),
    Check("d2", "geometry", (("d-squared", "d² = 0"),), _d_squared),
    Check("sigma-consistency", "projector", (("sigma-consistency", "π∘(σ+1) = 0"),),
          lambda ctx, _: [(check_sigma_consistency(ctx.braid, ctx.P), "")]),
    Check("braid", None, (("braid", "σ₁₂σ₂₃σ₁₂ = σ₂₃σ₁₂σ₂₃"),),
          lambda ctx, _: [(ctx.braid_residual, "")]),
    Check("yb", None,
          (("yang-baxter",
            "J^{ab}_{pq} J^{pc}_{dr} J^{qr}_{ef} = J^{bc}_{pq} J^{aq}_{rf} J^{rp}_{de}"),),
          lambda ctx, _: [(check_yang_baxter(ctx.J), "")]),
    Check("unitarity", None, (("sigma-unitarity", "(S^{ba}_{cd})* S^{dc}_{ef} = δ^a_e δ^b_f"),),
          lambda ctx, _: [(ctx.j2_involution, "")]),
    Check("leibniz", "geometry",
          (("leibniz-left", "D(fξ) = df⊗ξ + f Dξ"),
           ("leibniz-right", "D(ξf) = σ(ξ⊗df) + (Dξ)f")),
          _leibniz),
    Check("torsion", "geometry",
          (("torsion", "Θ^a = dθ^a − π∘Dθ^a  ⇔  ω^a_{de} P^{de}_{bc} = ½ C^a_{bc}"),),
          _torsion),
    Check("metric", "metric",
          (("metric-symmetry", "g∘σ ∝ g"),
           ("metric-compat-first", "ω^a_{bc} + ω_{cd}^e S^{ad}_{be} = 0"),
           ("metric-compat-second", "S^{ae}_{df} g^{fg} S^{bc}_{eg} = g^{ab} δ^c_d"),
           ("metric-reality", "S^{ab}_{cd} g^{cd} = (g^{ba})*")),
          _metric),
    Check("connection-reality", "geometry",
          (("connection-reality", "(ω^a_{bc})* = ω^a_{de} (J^{de}_{bc})*"),),
          lambda ctx, _: [(ctx.connection_reality, ctx.conn_label)]),
    Check("wedge-star", "geometry", (("wedge-star", "(ξη)* = −η*ξ*"),),
          _wedge_star),
    Check("d2-reality", "geometry",
          (("d2-reality-strong", "D₂∘ȷ₂ = ȷ₃∘D₂"),
           ("d2-reality-coeffs",
            "J^{ab}_{pe}ω^p_{cd} − J^{ap}_{de}ω^b_{cp} + J^{ab}_{pq}J^{rp}_{cd}ω^q_{re}"
            " − J^{qb}_{cp}J^{rp}_{de}ω^a_{qr} = 0"),
           ("d2-reality-braided", "D₂∘σ = σ₂₃∘D₂"),
           ("d2-reality-triangle", "D₂∘ȷ₂ = ȷ₃∘D₂  ⇔  σ-form  ⇔  coefficient form")),
          _d2_reality),
    Check("jn", None, (("jn-involutive", "conj(J^(n)) ∘ J^(n) = 1"),), _jn, first_order=2),
    Check("fifa", None, (("fifa", "σ_{i(i+1)} ℓ_n = ℓ_n σ⁻¹_{(n−i)(n+1−i)}"),),
          lambda ctx, _: [(ctx.fifa, "max over all positions")], first_order=2),
    Check("dn-lemma", "geometry", (("dn-sigma-lemma", "D_n∘σ_{(i−1)i} = σ_{i(i+1)}∘D_n"),),
          lambda ctx, k: [(check_sigma_lemma(ctx.conn, ctx.braid, k), ctx.conn_label)],
          first_order=2),
    Check("dn-reality", "geometry", (("dn-reality", "D_n∘ȷ_n = ȷ_{n+1}∘D_n"),),
          lambda ctx, k: [(ctx.connection_reality if k == 1 else
                           check_Dn_reality(ctx.conn, ctx.braid, k), ctx.conn_label)],
          first_order=1),
    Check(None, None, (("i-weak-yang-baxter", "weak Yang-Baxter property of I = −Pᵀ"),),
          lambda ctx, _: [(None, "not checked (condition unspecified)")]),  # no stated form
)

# group names accepted by --checks, with the rows of each
GROUPS = {c.group: [name for name, _ in c.rows] for c in CHECKS if c.group}


def run_verify(loaded, *, tol: float = DEFAULT_TOL, checks=None,
               max_order: int = 4, seed: int = 42,
               connection_mode: str = "auto", source: str = "") -> VerificationReport:
    """Run the selected checks over a geometry or braiding input.

    ``loaded`` is a FrameGeometry or a (Braiding, P-or-None) pair as
    returned by the loader.  ``checks`` is an optional set of group names
    (see GROUPS); everything applicable runs by default.  Report order is
    the order of CHECKS.  ``connection_mode`` is auto, d0 or torsion-free
    (see ``resolve_connection``).  An unknown or empty ``checks``, a ``tol``
    that is not finite and > 0, a ``max_order`` not an integer in [2, MAX_DEGREE],
    a ``seed`` not an integer >= 0 (a bool is refused) or a ``connection_mode``
    outside CONNECTION_MODES raises ValueError before any check runs.
    """
    if checks is not None and (not checks or set(checks) - set(GROUPS)):
        raise ValueError(f"checks {sorted(checks)} must name known groups: {sorted(GROUPS)}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and > 0, got {tol!r}")
    if not (isinstance(max_order, Integral) and MIN_ORDER <= max_order <= MAX_DEGREE):
        raise ValueError(f"max_order must be between {MIN_ORDER} and {MAX_DEGREE}, got {max_order!r}")
    if isinstance(seed, bool) or not (isinstance(seed, Integral) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    if connection_mode not in CONNECTION_MODES:
        raise ValueError(f"unknown connection mode {connection_mode!r}")
    report = VerificationReport(tolerance=tol, seed=int(seed), max_order=int(max_order),
                                source=str(source))
    ctx = _Context(loaded, tol, seed, connection_mode)
    for check in CHECKS:
        orders = (None,) if check.first_order is None else range(check.first_order, max_order + 1)
        for order in orders:
            rows = [(name if order is None else f"{name}-{order}", anchor)
                    for name, anchor in check.rows]
            if check.group and checks is not None and check.group not in checks:
                reason = "not selected"
            else:
                reason = ctx.missing(check.needs)
            if reason is None:
                try:
                    results = check.run(ctx, order)
                except SingularBraidingError as exc:
                    reason = f"skipped: {exc}"
            if reason is not None:
                results = [(None, reason)] * len(rows)
            for (name, anchor), (residual, note) in zip(rows, results, strict=True):
                report.add(name, anchor, residual, note)
    return report
