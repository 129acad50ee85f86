"""The command-line front end: exit codes and the braid-check command."""

import json

import pytest

from stehbein import cli


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
