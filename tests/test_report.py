"""The verify report: the check table, skip rules, NaN handling and the
schema, with verdict lists pinned on the built-in fixtures."""

import dataclasses
import json
import functools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import Draft202012Validator, ValidationError

from stehbein import calculus, cli, flip_central, make_braiding, sigma_from_tau, su2_flip_geometry
from stehbein.calculus import maurer_cartan
from stehbein.connection import MAX_DEGREE, check_sigma_lemma, d2
from stehbein.fixtures import build_fixture, random_geometry, random_unitary
from stehbein.involution import build_jn, check_Dn_reality
from stehbein.io import geometry_to_dict, save_json
from stehbein.report import (CHECKS, CONNECTION_MODES, GROUPS, REPORT_SCHEMA, resolve_connection,
                             run_verify)

from conftest import spin_frame_geometry, su2_torsionfree_connection, transformed_geometry

# (name, status, equation_anchor) of every row, recorded before the check
# table replaced the hand-written runner
PINNED = json.loads((Path(__file__).parent / "data" / "pinned_verdicts.json")
                    .read_text(encoding="utf-8"))
# every row's residual on the same fixtures and on `random` at order 3, recorded
# before the contractions were routed through frametensor.central_at, and on
# the N = 16 spin frame, recorded before d joined the lambda-commutator GEMM,
# and on perfbench's su2-wide input at seed 0; null where the row is skipped.
# Three leibniz rows were re-recorded when D on 1-forms moved onto the
# first-order kernel and f xi, xi f onto matmuls, which sum in another order:
# su2-wide-seed0@2 leibniz-left 2.7058e-13 -> 2.5551e-13 and leibniz-right
# 2.5791e-13 -> 2.4709e-13, spin-7.5@2 leibniz-right 2.0708e-13 -> 2.2510e-13
PINNED_RESIDUALS = json.loads((Path(__file__).parent / "data" / "pinned_residuals.json")
                              .read_text(encoding="utf-8"))
RESIDUAL_TOL = 1e-14


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """``verify --report`` documents of the pinned inputs, keyed as PINNED
    and PINNED_RESIDUALS; `random` fails rows, so its exit code is 1.  The
    spin frames are built here, the other inputs by ``fixture``."""
    tmp = tmp_path_factory.mktemp("reports")
    out = {}
    for key in PINNED_RESIDUALS:
        name, order = key.split("@")
        path, seed = tmp / f"{name}.json", "42"
        if name == "spin-7.5":
            save_json(geometry_to_dict(spin_frame_geometry(7.5)), path)
        elif name == "su2-wide-seed0":
            rng = np.random.default_rng([0, 0x5eb])
            save_json(geometry_to_dict(spin_frame_geometry(7.5, rng)), path)
            seed = "0"
        elif not path.exists():
            assert cli.main(["fixture", name, "--out", str(path)]) == 0
        report = tmp / f"{key}.json"
        code = cli.main(["verify", str(path), "--max-order", order, "--seed", seed,
                         "--report", str(report)])
        assert code == (1 if name == "random" else 0)
        out[key] = json.loads(report.read_text(encoding="utf-8"))
    return out


@pytest.fixture(scope="module")
def su2_tf():
    return build_fixture("su2-torsion-free")[1]


@pytest.mark.parametrize("key", list(PINNED))
def test_verdicts_are_pinned(key, reports):
    rows = [[c["name"], c["status"], c["equation_anchor"]] for c in reports[key]["checks"]]
    assert rows == PINNED[key]


def _matches_pin(residual, pin) -> bool:
    """Both skipped, or within RESIDUAL_TOL; NaN matches nothing."""
    if residual is None or pin is None:
        return residual is pin
    return abs(residual - pin) <= RESIDUAL_TOL


@pytest.mark.parametrize("key", list(PINNED_RESIDUALS))
def test_residuals_stay_within_1e_14_of_their_pins(key, reports):
    got = {c["name"]: c["residual"] for c in reports[key]["checks"]}
    assert list(got) == list(PINNED_RESIDUALS[key])
    moved = {name: (got[name], pin) for name, pin in PINNED_RESIDUALS[key].items()
             if not _matches_pin(got[name], pin)}
    assert not moved


def test_a_nan_residual_never_matches_its_pin():
    assert _matches_pin(0.5, 0.5 + RESIDUAL_TOL / 2) and _matches_pin(None, None)
    for residual, pin in ((math.nan, 0.0), (math.nan, math.nan), (0.0, math.nan),
                          (None, 0.0), (0.0, None), (0.0, 2 * RESIDUAL_TOL)):
        assert not _matches_pin(residual, pin)


def test_reports_follow_the_schema(reports):
    Draft202012Validator.check_schema(REPORT_SCHEMA)
    validator = Draft202012Validator(REPORT_SCHEMA)
    for doc in reports.values():
        validator.validate(doc)
    doc = reports["phase-twist@4"]
    for broken in ({k: v for k, v in doc.items() if k != "summary"},
                   dict(doc, checks=[dict(doc["checks"][0], status="maybe")]),
                   dict(doc, max_order=1)):
        with pytest.raises(ValidationError):
            validator.validate(broken)


def test_groups_are_read_off_the_table():
    assert list(GROUPS) == [
        "structure", "theta2", "d2", "sigma-consistency", "braid", "yb", "unitarity",
        "leibniz", "torsion", "metric", "connection-reality", "wedge-star", "d2-reality",
        "jn", "fifa", "dn-lemma", "dn-reality"]
    assert GROUPS["metric"] == ["metric-symmetry", "metric-compat-first",
                                "metric-compat-second", "metric-reality"]
    assert {c.needs for c in CHECKS} == {None, "geometry", "projector", "metric"}


def test_each_row_is_declared_once():
    names = [name for check in CHECKS for name, _ in check.rows]
    assert len(names) == len(set(names)) == 25


def test_unselected_groups_are_reported_not_dropped(su2_tf):
    report = run_verify(su2_tf, checks={"braid", "dn-lemma"}, max_order=3)
    ran = {c.name: c.status for c in report.checks if c.note != "not selected"}
    assert ran == {"braid": "pass", "dn-sigma-lemma-2": "pass", "dn-sigma-lemma-3": "pass",
                   "i-weak-yang-baxter": "skipped"}
    assert report.counts == {"pass": 3, "fail": 0, "skipped": 27}
    assert report.checks[-1].note == "not checked (condition unspecified)"


def test_the_d2_strong_and_braided_rows_repeat_the_order_2_dn_rows(reports):
    # dn at degree 2 runs d2's operations in d2's order, so the rows agree bit for bit
    compared = 0
    for key, doc in reports.items():
        got = {c["name"]: c["residual"] for c in doc["checks"]}
        if got["d2-reality-strong"] is not None:
            braided = got["d2-reality-braided"]
            if braided is None:
                # skipped on a connection that is not real (random@3), so computed here
                geom = build_fixture(key.split("@")[0])[1]
                conn = resolve_connection(geom, geom.braid)[0]
                braided = check_sigma_lemma(conn, geom.braid, 2, d2)
            assert got["d2-reality-strong"] == got["dn-reality-2"]
            assert braided == got["dn-sigma-lemma-2"]
            compared += 1
    assert compared == 5


NOT_REAL_CHECKS = {"d2-reality", "connection-reality", "dn-lemma"}


def _flip_with_a_complex_omega():
    rng = np.random.default_rng(0)
    shape = (3, 3, 3, 2, 2)
    omega = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return dataclasses.replace(su2_flip_geometry(), omega=omega)


def test_the_coeffs_and_braided_rows_are_skipped_on_a_connection_that_is_not_real(su2_tf):
    # on the flip both forms hold for every omega: with this complex omega they read
    # 3.4e-16 and 0 while connection-reality and the strong form fail
    rows = {c.name: c for c in run_verify(_flip_with_a_complex_omega(), checks=NOT_REAL_CHECKS,
                                          max_order=2).checks}
    assert rows["connection-reality"].status == rows["d2-reality-strong"].status == "fail"
    triangle = rows["d2-reality-triangle"]
    assert triangle.note.startswith("equivalence needs a real connection")
    for name in ("d2-reality-coeffs", "d2-reality-braided", "d2-reality-triangle"):
        assert (rows[name].status, rows[name].note) == ("skipped", triangle.note)
    # on a real connection both are judged, and pass
    rows = {c.name: c.status for c in run_verify(su2_tf, checks=NOT_REAL_CHECKS,
                                                 max_order=2).checks}
    assert rows["d2-reality-coeffs"] == rows["d2-reality-braided"] == "pass"


def test_the_skipped_forms_are_not_computed_on_a_connection_that_is_not_real(monkeypatch):
    geom = _flip_with_a_complex_omega()
    expected = run_verify(geom, checks=NOT_REAL_CHECKS, max_order=2).checks

    def coefficient_form(*args):
        raise AssertionError("the coefficient form ran on a connection that is not real")

    def sigma_lemma(c, b, k, op=None):
        # dn-lemma, selected too, runs the σ-lemma with dn; only the braided form passes d2
        if op is d2:
            raise AssertionError("the braided form ran on a connection that is not real")
        return check_sigma_lemma(c, b, k, op)

    monkeypatch.setattr("stehbein.report._d2_coefficient_residual", coefficient_form)
    monkeypatch.setattr("stehbein.report.check_sigma_lemma", sigma_lemma)
    assert run_verify(geom, checks=NOT_REAL_CHECKS, max_order=2).checks == expected


def test_disagreeing_equivalent_forms_fail_the_triangle(monkeypatch):
    monkeypatch.setattr("stehbein.report._d2_coefficient_residual", lambda S, omega: 1.0)
    rows = {c.name: c for c in run_verify(build_fixture("su2-torsion-free")[1],
                                          checks={"d2-reality"}, max_order=2).checks}
    assert rows["d2-reality-coeffs"].residual == 1.0
    triangle = rows["d2-reality-triangle"]
    assert triangle.status == "fail"
    assert triangle.residual == pytest.approx(1.0, abs=1e-12)
    assert triangle.note == "internal-consistency error: provably equivalent residuals disagree"


def _coefficient_reality(conn, braid):
    """max_a |(ω^a_{bc})* − ω^a_{de} (J^{de}_{bc})*|, the coefficient form of Dξ* = (Dξ)*."""
    om = conn.omega
    diff = (np.conj(om).swapaxes(-1, -2)
            - np.einsum('adeij,debc->abcij', om, np.conj(build_jn(braid, 2))))
    return float(np.max(np.linalg.norm(diff, axis=(-2, -1))))


REALITY_GEOMETRIES = {
    "su2-flip": su2_flip_geometry,
    "su2-torsion-free": lambda: build_fixture("su2-torsion-free")[1],
    "random": lambda: build_fixture("random")[1],
    "su2-flip-complex-omega": _flip_with_a_complex_omega,
    **{f"random-n4-{seed}": functools.partial(random_geometry, seed, n=4) for seed in range(3)},
    **{f"f-zero-n4-{seed}": functools.partial(random_geometry, seed, n=4, N=3, force_f_zero=True)
       for seed in range(3)},
}


@pytest.mark.parametrize("mode", CONNECTION_MODES)
@pytest.mark.parametrize("name", REALITY_GEOMETRIES)
def test_connection_reality_is_the_coefficient_form(name, mode):
    # the row is D_1 reality on the basis 1-forms, which is this formula up to rounding
    geom = REALITY_GEOMETRIES[name]()
    report = run_verify(geom, checks={"connection-reality", "dn-reality"}, max_order=2,
                        connection_mode=mode)
    rows = {c.name: c.residual for c in report.checks}
    expected = _coefficient_reality(resolve_connection(geom, geom.braid, mode)[0], geom.braid)
    assert abs(rows["connection-reality"] - expected) <= 1e-15 * max(1.0, expected)
    assert rows["dn-reality-1"] == rows["connection-reality"]


def test_one_d1_sweep_and_one_d2_strong_form_per_run(monkeypatch):
    # connection-reality, dn-reality-1 and the D₂ skip rule read one D_1 sweep, and
    # the strong D₂ form is the one call with op = d2
    calls = []

    def counted(c, b, n, op=None):
        calls.append((n, op is d2))
        return check_Dn_reality(c, b, n, op)

    monkeypatch.setattr("stehbein.report.check_Dn_reality", counted)
    run_verify(build_fixture("su2-torsion-free")[1], max_order=3)
    assert calls == [(1, False), (2, True), (2, False), (3, False)]
    calls.clear()
    run_verify(_flip_with_a_complex_omega(), max_order=3)
    assert calls == [(1, False), (2, True), (2, False), (3, False)]


INVARIANCE_GEOMETRIES = {
    "su2-torsion-free": lambda: build_fixture("su2-torsion-free")[1],
    "random": lambda: build_fixture("random")[1],
    "f-zero-n4": lambda: random_geometry(0, n=4, N=3, force_f_zero=True),
}
# rows whose residual reads seeded samples, which the transformation does not move
SAMPLED_ROWS = {"d-squared", "leibniz-left", "leibniz-right", "wedge-star"}


@functools.cache
def _invariance_base(name):
    geom = INVARIANCE_GEOMETRIES[name]()
    return geom, run_verify(geom, max_order=3, seed=0).checks


@pytest.mark.parametrize("name", list(INVARIANCE_GEOMETRIES))
@settings(max_examples=4, derandomize=True, deadline=None)
@given(data=st.data())
def test_verdicts_survive_a_frame_permutation_and_a_unitary_conjugation(name, data):
    geom, base = _invariance_base(name)
    perm = data.draw(st.permutations(range(geom.n)), label="perm")
    u = random_unitary(np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))), geom.N)
    moved = run_verify(transformed_geometry(geom, perm, u), max_order=3, seed=0).checks
    assert [(c.name, c.status) for c in moved] == [(c.name, c.status) for c in base]
    for before, after in zip(base, moved):
        if before.residual is not None and before.name not in SAMPLED_ROWS:
            r = before.residual
            assert abs(after.residual - r) <= 1e-14 * max(1.0, abs(r)), before.name


@pytest.mark.parametrize("name", ["su2-torsion-free", "phase-twist", "random"])
def test_no_row_depends_on_which_groups_run(name):
    # each sampled check draws from its own --seed stream, so a group run
    # alone reads exactly what it reads in the full run
    loaded = build_fixture(name)[1]
    full = {c.name: (c.residual, c.status) for c in run_verify(loaded, max_order=3).checks}
    compared = set()
    for group in GROUPS:
        alone = run_verify(loaded, checks={group}, max_order=3)
        rows = {c.name: (c.residual, c.status) for c in alone.checks
                if c.note != "not selected" and c.name != "i-weak-yang-baxter"}
        assert rows == {row: full[row] for row in rows}, group
        compared |= set(rows)
    assert compared == set(full) - {"i-weak-yang-baxter"}


def test_missing_prerequisites_name_the_reason():
    braid = make_braiding(su2_flip_geometry().S)
    notes = {c.name: c.note for c in run_verify((braid, None), max_order=2).checks}
    assert notes["sigma-consistency"] == "no projector in input"
    assert notes["structure"] == notes["dn-reality-1"] == "requires a geometry input"
    assert (notes["braid"], notes["fifa-2"]) == ("", "max over all positions")

    geom = dataclasses.replace(su2_flip_geometry(), g=None)
    notes = {c.name: c.note for c in run_verify(geom, max_order=2).checks}
    assert notes["metric-reality"] == "no metric in input"


def test_connection_modes_are_auto_d0_and_torsion_free(su2_tf):
    braid = make_braiding(su2_tf.S)
    labels = {mode: resolve_connection(su2_tf, braid, mode)[1]
              for mode in ("auto", "d0", "torsion-free")}
    assert labels == {"auto": "D_(0) + chi from input", "d0": "D_(0)",
                      "torsion-free": "D_(0) + torsion-free chi"}
    for mode in ("omega", "chi"):
        with pytest.raises(ValueError, match=f"unknown connection mode '{mode}'"):
            run_verify(su2_tf, connection_mode=mode)
    # run_verify refuses the mode first, so the resolver's own check is called directly
    with pytest.raises(ValueError, match="unknown connection mode 'bogus'"):
        resolve_connection(su2_tf, braid, "bogus")


def test_singular_braiding_skips_only_the_checks_that_invert_it():
    braid = make_braiding(np.zeros((3, 3, 3, 3)))
    report = run_verify((braid, None), checks={"jn", "fifa"}, max_order=3)
    rows = {c.name: (c.status, c.note) for c in report.checks}
    assert rows["fifa-2"] == rows["fifa-3"] == (
        "skipped", "skipped: braiding is singular or too ill-conditioned to invert")
    assert rows["jn-involutive-2"][0] == "fail"


def test_zero_metric_is_skipped_not_raised():
    geom = dataclasses.replace(su2_flip_geometry(), g=np.zeros((3, 3)))
    rows = {c.name: (c.status, c.note) for c in run_verify(geom, checks={"metric"}).checks}
    assert rows["metric-symmetry"] == ("skipped", "metric is zero")
    assert rows["metric-compat-first"][0] == "skipped"
    # the second form and metric-reality read S and g alone, so they are judged
    assert rows["metric-compat-second"] == rows["metric-reality"] == ("pass", "")


def test_a_singular_metric_skips_only_the_form_that_inverts_it():
    geom = dataclasses.replace(su2_flip_geometry(), g=np.diag([1.0, 1.0, 0.0]))
    rows = {c.name: c for c in run_verify(geom, checks={"metric"}).checks}
    assert (rows["metric-compat-first"].status, rows["metric-compat-first"].note) == (
        "skipped", "metric is singular; cannot raise/lower indices")
    second = rows["metric-compat-second"]
    assert (second.status, second.residual) == ("pass", 0.0)


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"{token} is not a JSON number")
    return json.loads(text, parse_constant=refuse)


def test_a_non_finite_residual_is_written_as_null(tmp_path, capsys):
    # every lambda entry is finite, so the loader accepts the file; the products overflow
    geom = su2_flip_geometry()
    path, out = tmp_path / "big.json", tmp_path / "report.json"
    save_json(geometry_to_dict(dataclasses.replace(geom, lam=1e200 * geom.lam)), path)
    assert cli.main(["verify", str(path), "--max-order", "2", "--report", str(out)]) == 1
    doc = _strict_json(out.read_text(encoding="utf-8"))
    Draft202012Validator(REPORT_SCHEMA).validate(doc)
    named = {"structure": "nan", "theta-squared": "nan", "d-squared": "nan",
             "leibniz-left": "inf", "leibniz-right": "inf", "wedge-star": "nan"}
    nulls = {c["name"]: c for c in doc["checks"]
             if c["residual"] is None and c["status"] != "skipped"}
    assert set(nulls) == set(named)
    for name, value in named.items():
        assert nulls[name]["status"] == "fail"
        assert nulls[name]["note"].endswith(f"residual is {value}"), nulls[name]["note"]


def _verdicts_by_status(report) -> dict:
    return {status: [c.name for c in report.checks if c.status == status]
            for status in ("pass", "fail", "skipped")}


def test_an_overflowing_braiding_fails_its_rows_without_a_warning():
    # S = 1e300 flip is finite, so a braiding file of it loads; its products overflow.
    # pytest turns any numpy warning into an error, so this run is silent
    report = run_verify((make_braiding(1e300 * flip_central(3)), None), max_order=2)
    verdicts = _verdicts_by_status(report)
    assert verdicts["fail"] == ["braid", "yang-baxter", "sigma-unitarity", "jn-involutive-2",
                                "fifa-2"]
    assert report.counts == {"pass": 0, "fail": 5, "skipped": 21}


def test_an_overflowing_tau_fails_its_rows_without_a_warning():
    # tau = 1e300 everywhere gives a finite S of order 1e300, which su2-flip's file would load
    geom = su2_flip_geometry()
    geom = dataclasses.replace(geom, S=sigma_from_tau(np.full((3,) * 4, 1e300), geom.P).S)
    report = run_verify(geom, max_order=2)
    verdicts = _verdicts_by_status(report)
    assert verdicts["pass"] == ["structure", "theta-squared", "d-squared", "sigma-consistency",
                                "torsion"]
    assert verdicts["skipped"] == ["fifa-2", "i-weak-yang-baxter"]
    assert report.counts == {"pass": 5, "fail": 19, "skipped": 2}


def test_nan_in_omega_fails_every_connection_row():
    conn = su2_torsionfree_connection()
    omega = conn.omega.copy()
    omega[0, 1, 2, 0, 1] = np.nan
    geom = dataclasses.replace(conn.geom, omega=omega)
    report = run_verify(geom, max_order=3)
    prefixes = ("leibniz-", "torsion", "connection-reality", "d2-reality-",
                "dn-sigma-lemma-", "dn-reality-")
    rows = [c for c in report.checks if c.name.startswith(prefixes)]
    assert len(rows) == 13
    assert all(c.status == "fail" for c in rows), [c.name for c in rows if c.status != "fail"]
    triangle = next(c for c in rows if c.name == "d2-reality-triangle")
    assert np.isnan(triangle.residual) and triangle.note == "a residual is NaN"
    # checks that do not read omega are unaffected
    assert {c.name for c in report.checks if c.status == "pass"} >= {"structure", "braid"}


def test_inf_in_omega_fails_the_rows_that_nan_fails():
    conn = su2_torsionfree_connection()

    def verdicts(bad):
        omega = conn.omega.copy()
        omega[0, 1, 2, 0, 1] = bad
        report = run_verify(dataclasses.replace(conn.geom, omega=omega), max_order=3)
        return [(c.name, c.status) for c in report.checks], report.counts

    nan_rows, nan_counts = verdicts(np.nan)
    # inf times the zeros of a basis monomial is NaN; run_verify does not warn of it
    inf_rows, inf_counts = verdicts(np.inf)
    assert inf_rows == nan_rows
    assert inf_counts == nan_counts == {"pass": 15, "fail": 14, "skipped": 1}


def test_one_maurer_cartan_build_per_run_on_the_wide_frame(monkeypatch):
    geom = spin_frame_geometry(7.5)
    builds = []

    def counted(g):
        builds.append(g)
        return maurer_cartan(g)

    monkeypatch.setattr(calculus, "maurer_cartan", counted)
    report = run_verify(geom, max_order=2)
    assert report.counts == {"pass": 25, "fail": 0, "skipped": 1}
    assert len(builds) == 1 and builds[0] is geom


def test_the_conjugated_n32_spin_frame_passes_every_row_at_order_2(rng):
    # no pin covers D's kernel and the matmul products above N = 16
    report = run_verify(spin_frame_geometry(15.5, rng), max_order=2)
    assert report.counts == {"pass": 25, "fail": 0, "skipped": 1}
    assert [c.name for c in report.checks if c.status == "skipped"] == ["i-weak-yang-baxter"]


@pytest.mark.parametrize("mode", ["auto", "d0", "torsion-free", "braiding"])
def test_nan_in_s_fails_every_row_that_reads_s(mode, su2_tf):
    s = su2_tf.S.copy()
    s[0, 1, 1, 0] = np.nan
    if mode == "braiding":
        report = run_verify((make_braiding(s), su2_tf.P), max_order=3)
    else:
        report = run_verify(dataclasses.replace(su2_tf, S=s), max_order=3, connection_mode=mode)
    status = {c.name: c.status for c in report.checks}
    assert status["fifa-2"] == status["fifa-3"] == "fail"
    passed = {name for name, st in status.items() if st == "pass"}
    # only the calculus rows, which never read S, may pass
    assert passed <= {"structure", "theta-squared", "d-squared"}
    assert status["braid"] == status["jn-involutive-3"] == "fail"


# run_verify checks its request itself: from Python, nothing validated it first
@pytest.mark.parametrize("checks", [{"brai"}, {"braid", "yb", "leibnitz"}, set()])
def test_run_verify_refuses_an_unknown_or_empty_group_selection(checks):
    with pytest.raises(ValueError, match="must name known groups"):
        run_verify(su2_flip_geometry(), checks=checks)


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-9])
def test_run_verify_refuses_a_tolerance_that_is_not_finite_and_positive(tol):
    with pytest.raises(ValueError, match="tolerance must be finite and > 0"):
        run_verify(su2_flip_geometry(), tol=tol, checks={"braid"})


@pytest.mark.parametrize("order", [1, 0, MAX_DEGREE + 1])
def test_run_verify_refuses_an_order_outside_2_to_max_degree(order):
    # with only the braid group selected, an unchecked order would return at once
    with pytest.raises(ValueError, match=f"max_order must be between 2 and {MAX_DEGREE}"):
        run_verify(su2_flip_geometry(), max_order=order, checks={"braid"})


BAD_ARGUMENTS = [
    ("seed", -1, "seed must be an integer >= 0"),
    ("seed", 1.0, "seed must be an integer >= 0"),
    ("seed", True, "seed must be an integer >= 0"),
    ("max_order", 2.5, "max_order must be between"),
    ("max_order", 3.0, "max_order must be between"),
    ("connection_mode", "bogus", "unknown connection mode 'bogus'"),
    ("tol", True, "tolerance must be finite and > 0"),
    ("tol", "1e-9", "tolerance must be finite and > 0"),
    ("tol", 1e-9 + 0j, "tolerance must be finite and > 0"),
]


@pytest.mark.parametrize("kind", ["geometry", "braiding"])
@pytest.mark.parametrize("argument, value, message", BAD_ARGUMENTS)
def test_run_verify_refuses_a_bad_seed_order_or_mode_before_any_check_runs(
        monkeypatch, kind, argument, value, message):
    def first_row(*args):
        raise AssertionError("a check ran before the arguments were validated")

    monkeypatch.setattr("stehbein.report.check_structure", first_row)
    geom = su2_flip_geometry()
    loaded = geom if kind == "geometry" else (geom.braid, geom.P)
    with pytest.raises(ValueError, match=message):
        run_verify(loaded, **{argument: value})


def test_run_verify_accepts_numpy_integers_for_seed_and_order():
    geom = su2_flip_geometry()
    report = run_verify(geom, seed=np.int64(7), max_order=np.int32(2), checks={"d2"})
    assert type(report.seed) is type(report.max_order) is int
    assert report.to_dict() == run_verify(geom, seed=7, max_order=2, checks={"d2"}).to_dict()
    # and a numpy float tolerance, kept as the float it equals, so the report serializes
    tol = np.float32(1e-9)
    report = run_verify(geom, tol=tol, max_order=np.int32(2), checks={"d2", "braid"})
    assert type(report.tolerance) is float and report.tolerance == float(tol)
    Draft202012Validator(REPORT_SCHEMA).validate(json.loads(json.dumps(report.to_dict())))
    assert report.to_dict() == run_verify(geom, tol=float(tol), max_order=2,
                                          checks={"d2", "braid"}).to_dict()
