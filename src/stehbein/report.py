"""Verification report assembly and the check orchestrator.

Every row is a residual plus the identity it instantiates (a formula
string in ``equation_anchor``); the tolerance decides pass/fail, and NaN
fails.  ``CHECKS`` declares each row once: its ``--checks`` group, one
prerequisite (none, geometry, projector, connection, metric or never),
its (name, anchor) rows, and ``run(ctx, order)`` returning one
(residual or None, note) per row; an entry with a first order expands
into rows ``<name>-<order>`` up to ``max_order``.  ``GROUPS`` and
``BRAIDING_GROUPS`` are read off the table.

``run_verify`` walks the table in order.  A row is skipped, never
dropped: with ``not selected`` when its group is filtered out, with the
reason its prerequisite is missing, or with ``skipped: ...`` when it
needs the inverse of a singular braiding.  The per-run ``_Context`` holds
the inputs, the seeded generator (drawn from in table order, so samples
depend on which groups ran before) and the intermediates several checks
share, each computed at most once.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .calculus import (
    FrameGeometry,
    check_structure,
    check_theta_squared,
    differential0,
    differential1,
)
from .braiding import (
    Braiding,
    SingularBraidingError,
    check_braid,
    check_sigma_consistency,
    check_yang_baxter,
    make_braiding,
    sigma_unitarity_residual,
)
from .connection import (
    Connection,
    algebraic_torsion,
    central_connection,
    check_left_leibniz,
    check_right_leibniz,
    d0_connection,
    dn,
    torsion_forms,
    torsionfree_connection,
    check_metric_symmetry,
    check_metric_compatibility,
)
from .involution import (
    build_J,
    check_connection_reality,
    check_D2_reality,
    check_Dn_reality,
    check_fifa,
    check_jn_involutive,
    check_metric_reality,
    check_wedge_star,
)
from .frametensor import FrameTensorField, apply_central_at, basis_field, max_coeff_norm, worst
from .fixtures import random_element, random_field

DEFAULT_TOL = 1e-9


@dataclass
class CheckResult:
    name: str
    equation_anchor: str
    residual: float | None
    tolerance: float
    status: str  # pass | fail | skipped
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


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


def resolve_connection(geom: FrameGeometry, braid: Braiding,
                       mode: str = "auto") -> tuple[Connection, str]:
    """Build the connection a geometry implies, returning it and a label."""
    if mode == "omega" or (mode == "auto" and geom.omega is not None):
        if geom.omega is None:
            raise ValueError("geometry has no explicit omega")
        return Connection(geom, geom.omega), "omega from input"
    if mode == "chi" or (mode == "auto" and geom.chi is not None):
        if geom.chi is None:
            raise ValueError("geometry has no chi")
        return central_connection(geom, geom.chi, braid), "D_(0) + chi from input"
    if mode == "torsion-free":
        return torsionfree_connection(geom, braid), "D_(0) + torsion-free chi"
    if mode in ("auto", "d0"):
        return d0_connection(geom, braid), "D_(0)"
    raise ValueError(f"unknown connection mode {mode!r}")


class _Context:
    """The inputs of one run and the intermediates its checks share."""

    def __init__(self, loaded, tol: float, seed: int, connection_mode: str):
        if isinstance(loaded, FrameGeometry):
            self.geom, self.braid, self.P = loaded, make_braiding(loaded.S), loaded.P
        else:
            self.geom = None
            self.braid, self.P = loaded
        self.tol, self.seed = tol, seed
        self.rng = np.random.default_rng(seed)
        self.conn = self.conn_label = self.conn_error = None
        if self.geom is not None:
            try:
                self.conn, self.conn_label = resolve_connection(
                    self.geom, self.braid, connection_mode)
            except ValueError as exc:
                self.conn_error = str(exc)

    def missing(self, needs: str | None) -> str | None:
        """Why the prerequisite ``needs`` is not met, or None when it is."""
        if needs == "never":
            # the weak Yang-Baxter property of -P^T has no stated form to check
            return "not checked (condition unspecified)"
        if needs == "projector" and self.P is None:
            return "no projector in input"
        if needs in (None, "projector"):
            return None
        if self.geom is None:
            return "requires a geometry input"
        if needs in ("connection", "metric") and self.conn is None:
            return f"no connection available ({self.conn_error})"
        if needs == "metric" and self.geom.g is None:
            return "no metric in input"
        return None

    @cached_property
    def J(self) -> np.ndarray:
        return build_J(self.braid.S)

    @cached_property
    def braid_residual(self) -> float:
        return check_braid(self.braid)

    @cached_property
    def fifa(self) -> float:
        # one value for every order: check_fifa's residual does not depend on it
        return check_fifa(self.braid)

    @cached_property
    def connection_reality(self) -> float:
        return check_connection_reality(self.conn, self.J)


class Check(NamedTuple):
    """One entry of ``CHECKS``; see the module docstring."""

    group: str | None
    needs: str | None
    rows: tuple
    run: Callable | None
    first_order: int | None = None


def _d_squared(ctx, _):
    geom = ctx.geom
    elements = (random_element(ctx.rng, geom.N) for _ in range(100))
    res = worst(max_coeff_norm(differential1(differential0(f, geom), geom)) for f in elements)
    return [(res, "100 seeded elements")]


def _leibniz(ctx, _):
    geom = ctx.geom

    def pairs():
        for _ in range(50):
            yield random_element(ctx.rng, geom.N), random_field(ctx.rng, geom.n, geom.N, 1)
    left = worst(check_left_leibniz(ctx.conn, f, xi) for f, xi in pairs())
    right = worst(check_right_leibniz(ctx.conn, ctx.braid, f, xi) for f, xi in pairs())
    note = f"{ctx.conn_label}; 50 seeded pairs"
    return [(left, note), (right, note)]


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
        r1, r2 = check_metric_compatibility(ctx.conn, ctx.braid, g)
        rows += [(r1, "indices lowered with g_{ab} = (g^{ab})^{-1}"), (r2, "")]
    except ValueError as exc:
        rows += [(None, str(exc))] * 2
    return rows + [(check_metric_reality(g, ctx.braid.S), "")]


def _d2_reality(ctx, _):
    residuals = check_D2_reality(ctx.conn, ctx.braid)
    rows = [(residuals[0], ctx.conn_label), (residuals[1], ""), (residuals[2], "")]
    real1, tol = ctx.connection_reality, ctx.tol
    if real1 > tol:
        return rows + [(None, f"equivalence needs a real connection "
                              f"(connection-reality residual {real1:.3e})")]
    lo, hi = min(residuals), worst(residuals)
    if np.isnan(hi):
        return rows + [(hi, "a residual is NaN")]
    if lo <= tol < hi / 10:
        return rows + [(hi - lo, "internal-consistency error: provably equivalent residuals disagree")]
    return rows + [(0.0, "three equivalent forms agree")]


def _jn(ctx, order):
    braid_res = ctx.braid_residual
    return [(check_jn_involutive(ctx.braid, order),
             "" if braid_res <= 100 * ctx.tol else f"braid residual {braid_res:.3e}")]


def _dn_lemma(ctx, order):
    c, b, n, N = ctx.conn, ctx.braid, ctx.geom.n, ctx.geom.N

    def residuals():
        for i in range(2, order + 1):
            for idx in np.ndindex(*(n,) * order):
                basis = basis_field(n, N, idx)
                lhs = dn(c, b, apply_central_at(basis, b.S, i - 1))
                rhs = apply_central_at(dn(c, b, basis), b.S, i)
                yield max_coeff_norm(lhs - rhs)
    return [(worst(residuals()), ctx.conn_label)]


CHECKS = (
    Check("structure", "geometry",
          (("structure", "2 λ_c λ_d P^{cd}_{ab} − λ_c F^c_{ab} − K_{ab} = 0"),),
          lambda ctx, _: [(check_structure(ctx.geom), "")]),
    Check("theta2", "geometry", (("theta-squared", "dθ + θ² = ½ K_{ab} θ^a θ^b"),),
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
          lambda ctx, _: [(sigma_unitarity_residual(ctx.braid.S), "")]),
    Check("leibniz", "connection",
          (("leibniz-left", "D(fξ) = df⊗ξ + f Dξ"),
           ("leibniz-right", "D(ξf) = σ(ξ⊗df) + (Dξ)f")),
          _leibniz),
    Check("torsion", "connection",
          (("torsion", "Θ^a = dθ^a − π∘Dθ^a  ⇔  ω^a_{de} P^{de}_{bc} = ½ C^a_{bc}"),),
          _torsion),
    Check("metric", "metric",
          (("metric-symmetry", "g∘σ ∝ g"),
           ("metric-compat-first", "ω^a_{bc} + ω_{cd}^e S^{ad}_{be} = 0"),
           ("metric-compat-second", "S^{ae}_{df} g^{fg} S^{bc}_{eg} = g^{ab} δ^c_d"),
           ("metric-reality", "S^{ab}_{cd} g^{cd} = (g^{ba})*")),
          _metric),
    Check("connection-reality", "connection",
          (("connection-reality", "(ω^a_{bc})* = ω^a_{de} (J^{de}_{bc})*"),),
          lambda ctx, _: [(ctx.connection_reality, ctx.conn_label)]),
    Check("wedge-star", "geometry", (("wedge-star", "(ξη)* = −η*ξ*"),),
          lambda ctx, _: [(check_wedge_star(ctx.geom, ctx.braid, seed=ctx.seed), "")]),
    Check("d2-reality", "connection",
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
    Check("dn-lemma", "connection", (("dn-sigma-lemma", "D_n∘σ_{(i−1)i} = σ_{i(i+1)}∘D_n"),),
          _dn_lemma, first_order=2),
    Check("dn-reality", "connection", (("dn-reality", "D_n∘ȷ_n = ȷ_{n+1}∘D_n"),),
          lambda ctx, k: [(check_Dn_reality(ctx.conn, ctx.braid, k), ctx.conn_label)],
          first_order=1),
    Check(None, "never", (("i-weak-yang-baxter", "weak Yang-Baxter property of I = −Pᵀ"),), None),
)

# group names accepted by --checks, with the rows of each
GROUPS = {c.group: [name for name, _ in c.rows] for c in CHECKS if c.group}
# the groups a braiding-only input can run (the braid-check command)
BRAIDING_GROUPS = tuple(c.group for c in CHECKS if c.group and c.needs in (None, "projector"))


def run_verify(loaded, *, tol: float = DEFAULT_TOL, checks=None,
               max_order: int = 4, seed: int = 42,
               connection_mode: str = "auto", source: str = "") -> VerificationReport:
    """Run the selected checks over a geometry or braiding input.

    ``loaded`` is a FrameGeometry or a (Braiding, P-or-None) pair as
    returned by the loader.  ``checks`` is an optional set of group names
    (see GROUPS); everything applicable runs by default.  Report order is
    the order of CHECKS.
    """
    report = VerificationReport(tolerance=tol, seed=seed, max_order=max_order,
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
