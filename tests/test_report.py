"""The verify report: the check table, skip rules, NaN handling and the
schema, with verdict lists pinned on the built-in fixtures."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from jsonschema import Draft202012Validator, ValidationError

from stehbein import cli, make_braiding, su2_flip_geometry, su2_torsionfree_connection
from stehbein.fixtures import build_fixture
from stehbein.report import BRAIDING_GROUPS, CHECKS, GROUPS, REPORT_SCHEMA, run_verify

# (name, status, equation_anchor) of every row, recorded before the check
# table replaced the hand-written runner
PINNED = json.loads((Path(__file__).parent / "data" / "pinned_verdicts.json")
                    .read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """``verify --report`` documents of the pinned fixtures, keyed as PINNED."""
    tmp = tmp_path_factory.mktemp("reports")
    out = {}
    for key in PINNED:
        name, order = key.split("@")
        path = tmp / f"{name}.json"
        if not path.exists():
            assert cli.main(["fixture", name, "--out", str(path)]) == 0
        report = tmp / f"{key}.json"
        assert cli.main(["verify", str(path), "--max-order", order, "--report", str(report)]) == 0
        out[key] = json.loads(report.read_text(encoding="utf-8"))
    return out


@pytest.fixture(scope="module")
def su2_tf():
    return build_fixture("su2-torsion-free")[1]


@pytest.mark.parametrize("key", list(PINNED))
def test_verdicts_are_pinned(key, reports):
    rows = [[c["name"], c["status"], c["equation_anchor"]] for c in reports[key]["checks"]]
    assert rows == PINNED[key]


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
    assert BRAIDING_GROUPS == ("sigma-consistency", "braid", "yb", "unitarity", "jn", "fifa")


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


def test_missing_prerequisites_name_the_reason():
    braid = make_braiding(su2_flip_geometry().S)
    notes = {c.name: c.note for c in run_verify((braid, None), max_order=2).checks}
    assert notes["sigma-consistency"] == "no projector in input"
    assert notes["structure"] == notes["dn-reality-1"] == "requires a geometry input"
    assert (notes["braid"], notes["fifa-2"]) == ("", "max over all positions")

    geom = dataclasses.replace(su2_flip_geometry(), g=None)
    notes = {c.name: c.note for c in run_verify(geom, max_order=2).checks}
    assert notes["metric-reality"] == "no metric in input"
    notes = {c.name: c.note for c in
             run_verify(geom, max_order=2, connection_mode="omega").checks}
    assert notes["torsion"] == notes["metric-symmetry"] == (
        "no connection available (geometry has no explicit omega)")


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
