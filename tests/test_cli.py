"""The command-line front end: exit codes, option bounds and every command."""

import json

import numpy as np
import pytest

from stehbein import build_jn, cli, curvature, make_braiding
from stehbein.io import decode_complex_array, load_input
from stehbein.report import resolve_connection


@pytest.fixture(scope="module")
def fixture_file(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fixtures")

    def write(name):
        path = tmp / f"{name}.json"
        if not path.exists():
            assert cli.main(["fixture", name, "--out", str(path)]) == 0
        return str(path)
    return write


def test_exit_0_when_every_check_passes(fixture_file):
    assert cli.main(["verify", fixture_file("su2-flip"), "--max-order", "2"]) == 0


def test_exit_1_when_a_check_fails(fixture_file, capsys):
    assert cli.main(["verify", fixture_file("random"), "--max-order", "2"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_exit_2_on_an_unknown_group(fixture_file, capsys):
    assert cli.main(["verify", fixture_file("su2-flip"), "--checks", "braid,nope"]) == 2
    assert "unknown check groups ['nope']" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["{", "[1, 2]", '{"S": [[1]], "n": "x"}', '{"S": 1, "n": [1]}',
                                  '{"frame_dim": 3}'])
def test_exit_2_on_a_malformed_file(text, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    for command in ("verify", "braid-check"):
        assert cli.main([command, str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_braid_check_runs_the_braiding_groups(fixture_file, tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["braid-check", fixture_file("su2-torsion-free"), "--max-order", "3",
                     "--report", str(out)]) == 0
    checks = json.loads(out.read_text(encoding="utf-8"))["checks"]
    ran = {c["name"] for c in checks if c["status"] == "pass"}
    assert ran == {"sigma-consistency", "braid", "yang-baxter", "sigma-unitarity",
                   "jn-involutive-2", "jn-involutive-3", "fifa-2", "fifa-3"}
    assert all(c["note"] == "not selected" for c in checks
               if c["status"] == "skipped" and c["name"] != "i-weak-yang-baxter")


@pytest.mark.parametrize("command", ["verify", "braid-check"])
@pytest.mark.parametrize("order", [0, 1, 8])
def test_exit_2_on_a_max_order_out_of_range(command, order, fixture_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main([command, fixture_file("su2-flip"), "--max-order", str(order),
                     "--report", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: --max-order must be between 2 and 7, got {order}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "braid-check"])
def test_lowest_max_order_runs(command, fixture_file, tmp_path):
    out = tmp_path / "report.json"
    assert cli.main([command, fixture_file("su2-flip"), "--max-order", "2",
                     "--report", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["max_order"] == 2


@pytest.mark.parametrize("argv", [["jn", "-n", "2"], ["curvature"]])
def test_commands_that_read_no_tolerance_reject_tol(argv, fixture_file):
    with pytest.raises(SystemExit) as exc:
        cli.main([argv[0], fixture_file("su2-flip"), *argv[1:], "--tol", "1e-3"])
    assert exc.value.code == 2


def test_curvature_writes_the_curvature_of_the_input_connection(fixture_file, tmp_path, capsys):
    path = fixture_file("su2-torsion-free")
    out = tmp_path / "curv.json"
    assert cli.main(["curvature", path, "--out", str(out)]) == 0
    assert "curvature of D_(0) + chi from input" in capsys.readouterr().out
    geom = load_input(path)
    braid = make_braiding(geom.S)
    expected = curvature(resolve_connection(geom, braid)[0], braid, geom.P)
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert np.array_equal(decode_complex_array(doc["R"], 6, "R"), expected.R)
    assert np.array_equal(decode_complex_array(doc["Ricci"], 4, "Ricci"), expected.ricci)
    assert doc["centrality_residual"] == expected.centrality_residual


@pytest.mark.parametrize("name, extra, message", [
    ("phase-twist", [], "curvature needs a geometry file"),
    ("su2-flip", [], "the geometry has no connection"),
    ("su2-flip", ["--connection", "omega"], "geometry has no explicit omega"),
], ids=["braiding-file", "no-connection", "omega-absent"])
def test_curvature_exit_2(name, extra, message, fixture_file, capsys):
    assert cli.main(["curvature", fixture_file(name), *extra]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_jn_emits_the_star_tensor(fixture_file, capsys):
    path = fixture_file("su2-torsion-free")
    assert cli.main(["jn", path, "-n", "0"]) == 2
    assert capsys.readouterr().err == "error: order must be >= 1\n"
    assert cli.main(["jn", path, "-n", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["order"], doc["n"]) == (3, 3)
    expected = build_jn(make_braiding(load_input(path).S), 3)
    assert np.array_equal(decode_complex_array(doc["J"], 6, "J"), expected)
