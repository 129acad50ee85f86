"""The command-line front end: exit codes, option bounds and every command."""

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from jsonschema import Draft202012Validator

from stehbein import build_jn, cli, curvature, flip_central, make_braiding, su2_flip_geometry
from stehbein.io import (
    braiding_to_dict,
    decode_complex_array,
    encode_complex_array,
    load_input,
    save_json,
)
from stehbein.report import REPORT_SCHEMA, resolve_connection

# the groups that read only S and P, the checks a braiding file can run
BRAIDING_CHECKS = "sigma-consistency,braid,yb,unitarity,jn,fifa"


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


@pytest.mark.parametrize("checks", ["", ","], ids=["empty", "comma"])
def test_exit_2_on_an_empty_selection(checks, fixture_file, capsys):
    # an empty selection is not the default of every group
    assert cli.main(["verify", fixture_file("su2-flip"), "--checks", checks]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --checks names no group; known: ['braid', ")
    assert captured.out == ""


def test_exit_2_on_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xff\xfe")
    assert cli.main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")
    assert "Traceback" not in err


# each command's output option, with the rest of its arguments; {out} is the path
WRITERS = {
    "verify": ["verify", "{input}", "--max-order", "2", "--report", "{out}"],
    "curvature": ["curvature", "{input}", "--out", "{out}"],
    "jn": ["jn", "{input}", "-n", "2", "--out", "{out}"],
    "fixture": ["fixture", "su2-flip", "--out", "{out}"],
}


def _writer_argv(command, source, out):
    return [a.format(input=source, out=out) for a in WRITERS[command]]


@pytest.mark.parametrize("command", WRITERS)
def test_exit_2_before_any_work_when_the_output_directory_is_missing(command, fixture_file,
                                                                    tmp_path, capsys):
    out = tmp_path / "missing" / "out.json"
    # the input does not exist either: the output is refused before the input loads
    assert cli.main(_writer_argv(command, tmp_path / "absent.json", out)) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: cannot write {out}: directory {out.parent} "
                            "does not exist\n")
    assert captured.out == ""
    assert not out.parent.exists()
    # a file where the directory should be, and a directory where the file should be
    blocker = tmp_path / "file.json"
    blocker.write_text("x", encoding="utf-8")
    for out, reason in ((blocker / "out.json", f"directory {blocker} is not a directory"),
                        (tmp_path, "it is a directory")):
        assert cli.main(_writer_argv(command, tmp_path / "absent.json", out)) == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"
    assert blocker.read_text(encoding="utf-8") == "x"


def _disk_full(payload, path):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))


@pytest.mark.parametrize("command", WRITERS)
def test_exit_2_when_the_output_cannot_be_written(command, fixture_file, tmp_path, capsys,
                                                  monkeypatch):
    # an error that only the write itself meets; the input is written before the patch
    source = fixture_file("su2-torsion-free")
    capsys.readouterr()
    monkeypatch.setattr(cli, "save_json", _disk_full)
    out = tmp_path / "out.json"
    assert cli.main(_writer_argv(command, source, out)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {out}: No space left on device\n"
    assert "written to" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("text", ["{", "[1, 2]", '{"S": [[1]], "n": "x"}', '{"S": 1, "n": [1]}',
                                  '{"frame_dim": 3}'])
def test_exit_2_on_a_malformed_file(text, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    for extra in ([], ["--checks", BRAIDING_CHECKS]):
        assert cli.main(["verify", str(path), *extra]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def _su2_doc(fixture_file):
    return json.loads(Path(fixture_file("su2-flip")).read_text(encoding="utf-8"))


def _renamed(doc, old, new):
    return {(new if k == old else k): v for k, v in doc.items()}


def test_a_misspelt_metric_key_cannot_turn_a_failure_into_a_pass(fixture_file, tmp_path, capsys):
    # a non-hermitian metric fails metric-reality; dropping it by a typo must not pass
    g = np.eye(3, dtype=complex)
    g[0, 1] = g[1, 0] = 0.5j
    failing = _su2_doc(fixture_file) | {"metric": [[[z.real, z.imag] for z in row] for row in g]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(failing), encoding="utf-8")
    assert cli.main(["verify", str(path), "--max-order", "2"]) == 1
    capsys.readouterr()
    path.write_text(json.dumps(_renamed(failing, "metric", "metirc")), encoding="utf-8")
    assert cli.main(["verify", str(path), "--max-order", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'metirc'" in err


@pytest.mark.parametrize("case,named", [
    ("lamda", "lacks 'lambda'"),
    ("S-and-tau", "both 'S' and 'tau'"),
    ("braiding-extra", "'lambda_'"),
])
def test_exit_2_names_the_offending_key(case, named, fixture_file, tmp_path, capsys):
    doc = _su2_doc(fixture_file)
    if case == "lamda":
        doc = _renamed(doc, "lambda", "lamda")
    elif case == "S-and-tau":
        doc["tau"] = doc["S"]
    else:
        doc = {"n": 3, "S": doc["S"], "lambda_": doc["lambda"]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def test_verify_runs_the_braiding_groups_alone(fixture_file, tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["verify", fixture_file("su2-torsion-free"), "--checks", BRAIDING_CHECKS,
                     "--max-order", "3", "--report", str(out)]) == 0
    checks = json.loads(out.read_text(encoding="utf-8"))["checks"]
    ran = {c["name"] for c in checks if c["status"] == "pass"}
    assert ran == {"sigma-consistency", "braid", "yang-baxter", "sigma-unitarity",
                   "jn-involutive-2", "jn-involutive-3", "fifa-2", "fifa-3"}
    assert all(c["note"] == "not selected" for c in checks
               if c["status"] == "skipped" and c["name"] != "i-weak-yang-baxter")


CHECK_SELECTIONS = pytest.mark.parametrize(
    "extra", [[], ["--checks", BRAIDING_CHECKS]], ids=["verify", "verify-braiding"])


@CHECK_SELECTIONS
@pytest.mark.parametrize("order", [0, 1, 8])
def test_exit_2_on_a_max_order_out_of_range(extra, order, fixture_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(["verify", fixture_file("su2-flip"), *extra, "--max-order", str(order),
                     "--report", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: --max-order must be between 2 and 7, got {order}\n")
    assert not out.exists()


@pytest.mark.parametrize("tol", ["0", "-1", "inf", "nan"])
def test_exit_2_on_a_tolerance_that_is_not_finite_and_positive(tol, tmp_path, capsys):
    # 0 and -1 would write a report that fails REPORT_SCHEMA, inf would pass
    # every finite residual and nan would write a bare NaN; the file never loads
    out = tmp_path / "report.json"
    assert cli.main(["verify", str(tmp_path / "missing.json"), f"--tol={tol}",
                     "--report", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --tol must be finite and > 0, got {tol}\n"
    assert not out.exists()


def test_smallest_positive_tolerance_writes_a_valid_report(fixture_file, tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["verify", fixture_file("su2-flip"), "--max-order", "2", "--tol", "5e-324",
                     "--report", str(out)]) in (0, 1)
    doc = json.loads(out.read_text(encoding="utf-8"))
    Draft202012Validator(REPORT_SCHEMA).validate(doc)
    assert doc["tolerance"] == 5e-324


@pytest.mark.parametrize("argv, message", [
    (["verify", "{missing}", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["fixture", "random", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["fixture", "random", "--frame-dim", "0"], "--frame-dim must be >= 1, got 0"),
    (["fixture", "random", "--frame-dim", "-2"], "--frame-dim must be >= 1, got -2"),
    (["fixture", "phase-twist", "--frame-dim", "0"], "--frame-dim must be >= 1, got 0"),
    (["fixture", "phase-twist", "--frame-dim", "-2"], "--frame-dim must be >= 1, got -2"),
], ids=["verify-seed", "fixture-seed", "random-dim-0", "random-dim-neg", "twist-dim-0",
        "twist-dim-neg"])
def test_exit_2_on_an_integer_option_below_its_bound(argv, message, tmp_path, capsys):
    out = tmp_path / "out.json"
    argv = [a.format(missing=tmp_path / "missing.json") for a in argv]
    extra = ["--report", str(out)] if argv[0] == "verify" else ["--out", str(out)]
    assert cli.main([*argv, *extra]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("name", ["random", "phase-twist"])
def test_lowest_frame_dim_and_seed_write_a_file_the_loader_accepts(name, tmp_path):
    path = tmp_path / f"{name}.json"
    assert cli.main(["fixture", name, "--frame-dim", "1", "--seed", "0", "--out", str(path)]) == 0
    loaded = load_input(path)
    assert (loaded.n if name == "random" else loaded[0].n) == 1


@pytest.mark.parametrize("flag", ["--frame-dim", "--seed"])
@pytest.mark.parametrize("name", ["su2-flip", "su2-torsion-free"])
def test_fixed_fixtures_reject_frame_dim_and_seed(name, flag, tmp_path, capsys):
    # su(2) is fixed at n = 3; a value, even the parametric default, is refused
    out = tmp_path / "out.json"
    for value in ("5", "3", "42"):
        assert cli.main(["fixture", name, flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: fixture {name} is fixed at n = 3; it takes no {flag}\n")
        assert not out.exists()


@pytest.mark.parametrize("name", ["random", "phase-twist"])
def test_parametric_fixtures_default_to_frame_dim_3_and_seed_42(name, tmp_path):
    default, explicit = tmp_path / "default.json", tmp_path / "explicit.json"
    assert cli.main(["fixture", name, "--out", str(default)]) == 0
    assert cli.main(["fixture", name, "--frame-dim", "3", "--seed", "42",
                     "--out", str(explicit)]) == 0
    assert default.read_bytes() == explicit.read_bytes()


@CHECK_SELECTIONS
def test_lowest_max_order_runs(extra, fixture_file, tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["verify", fixture_file("su2-flip"), *extra, "--max-order", "2",
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
    expected = curvature(resolve_connection(geom, braid)[0], braid)
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert np.array_equal(decode_complex_array(doc["R"], 6, "R"), expected.R)
    assert np.array_equal(decode_complex_array(doc["Ricci"], 4, "Ricci"), expected.ricci)
    assert doc["centrality_residual"] == expected.centrality_residual


def test_curvature_without_a_file_connection_is_that_of_d0(fixture_file, tmp_path, capsys):
    outs = [tmp_path / "auto.json", tmp_path / "d0.json"]
    path = fixture_file("su2-flip")
    assert cli.main(["curvature", path, "--out", str(outs[0])]) == 0
    assert cli.main(["curvature", path, "--connection", "d0", "--out", str(outs[1])]) == 0
    assert capsys.readouterr().out.count("curvature of D_(0):") == 2
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("name, extra, message", [
    ("phase-twist", [], "curvature needs a geometry file"),
], ids=["braiding-file"])
def test_curvature_exit_2(name, extra, message, fixture_file, capsys):
    assert cli.main(["curvature", fixture_file(name), *extra]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_jn_emits_the_star_tensor(fixture_file, capsys):
    path = fixture_file("su2-torsion-free")
    assert cli.main(["jn", path, "-n", "0"]) == 2
    assert capsys.readouterr().err == "error: --order must be between 1 and 8, got 0\n"
    assert cli.main(["jn", path, "-n", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["order"], doc["n"]) == (3, 3)
    expected = build_jn(make_braiding(load_input(path).S), 3)
    assert np.array_equal(decode_complex_array(doc["J"], 6, "J"), expected)


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_a_non_finite_star_tensor_exits_2_and_writes_nothing(to_file, tmp_path, capsys):
    # su2-flip's S scaled by 1e200: finite, so the loader accepts it, but j_3 overflows,
    # and strict JSON has no NaN or Infinity
    geom = su2_flip_geometry()
    source, out = tmp_path / "big-s.json", tmp_path / "j3.json"
    save_json(braiding_to_dict(make_braiding(1e200 * geom.S), geom.P), source)
    argv = ["jn", str(source), "--order", "3"] + (["--out", str(out)] if to_file else [])
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write ")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv, code", [
    (["verify", "big-s.json", "--max-order", "2"], 1),
    (["verify", "big-tau.json", "--max-order", "2"], 1),
    (["curvature", "big-tau.json"], 0),
], ids=["verify-braiding", "verify-geometry", "curvature"])
def test_an_input_that_overflows_in_the_checks_prints_no_warning(argv, code, fixture_file,
                                                                  tmp_path):
    # both files load, every entry finite, and their products overflow: S = 1e300 flip, and
    # su2-flip with tau = 1e300 everywhere.  A fresh interpreter shows stderr as a user sees
    # it; in this process pytest would turn the warning into an error instead
    save_json(braiding_to_dict(make_braiding(1e300 * flip_central(3))), tmp_path / "big-s.json")
    doc = _renamed(_su2_doc(fixture_file), "S", "tau")
    doc["tau"] = encode_complex_array(np.full((3,) * 4, 1e300))
    save_json(doc, tmp_path / "big-tau.json")
    path = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "stehbein.cli", *argv], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert proc.returncode == code
    assert proc.stderr == ""


def test_jn_order_is_bounded_before_the_file_loads(tmp_path, capsys):
    # j_8, the largest star tensor verify builds, is the highest order; at
    # n = 2 it has 2^16 entries, so the bound itself is cheap to run
    path = tmp_path / "twist2.json"
    assert cli.main(["fixture", "phase-twist", "--frame-dim", "2", "--out", str(path)]) == 0
    assert cli.main(["jn", str(path), "-n", "8", "--out", str(tmp_path / "j8.json")]) == 0
    capsys.readouterr()
    for order, source in ((9, path), (40, path), (40, tmp_path / "missing.json")):
        assert cli.main(["jn", str(source), "-n", str(order)]) == 2
        assert capsys.readouterr().err == f"error: --order must be between 1 and 8, got {order}\n"


def _out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("name, argv, patched, where", [
    ("su2-torsion-free", ["verify", "--max-order", "7", "--report", "{out}"], "run_verify",
     "verify at --max-order 7"),
    ("phase-twist", ["jn", "-n", "8", "--out", "{out}"], "build_jn", "jn at --order 8"),
    ("su2-torsion-free", ["curvature", "--out", "{out}"], "curvature", "curvature"),
    ("phase-twist", ["fixture", "--frame-dim", "3", "--out", "{out}"], "build_fixture",
     "fixture at --frame-dim 3"),
    ("su2-flip", ["fixture", "--out", "{out}"], "build_fixture", "fixture"),
], ids=["verify", "jn-braiding-file", "curvature", "fixture-frame-dim", "fixture-fixed"])
def test_exit_2_when_memory_runs_out(name, argv, patched, where, fixture_file, tmp_path,
                                     capsys, monkeypatch):
    # the order bounds do not depend on n; a command that outgrows memory
    # names its order and n instead of ending in a traceback
    monkeypatch.setattr(cli, patched, _out_of_memory)
    out = tmp_path / "out.json"
    argv = [a.format(out=out) for a in argv]
    # fixture takes the fixture's name where the other commands take a file
    source = name if argv[0] == "fixture" else fixture_file(name)
    assert cli.main([argv[0], source, *argv[1:]]) == 2
    assert capsys.readouterr().err == (
        f"error: {where} with frame dimension n=3 ran out of memory\n")
    assert not out.exists()


def test_a_braiding_file_whose_p_is_not_a_projector_exits_2(tmp_path, capsys):
    twist, out = tmp_path / "twist.json", tmp_path / "report.json"
    assert cli.main(["fixture", "phase-twist", "--out", str(twist)]) == 0
    doc = json.loads(twist.read_text(encoding="utf-8"))
    braid, p = load_input(twist)
    doc["P"] = encode_complex_array(2 * p)
    twist.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["verify", str(twist), "--checks", "sigma-consistency",
                     "--report", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: braiding violates invariant 'P_projector' (residual 1)\n")
    assert not out.exists()


def test_an_overflowing_lambda_is_refused_by_name_alone(fixture_file, tmp_path, capsys):
    # lam + lam^+ overflows to inf; no numpy warning may precede the message
    path = tmp_path / "in.json"
    doc = _su2_doc(fixture_file) | {"lambda": [[[[1e300, 0]] * 2] * 2] * 3}
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: geometry violates invariant 'lambda_antihermitian' (residual inf)\n")


@pytest.mark.parametrize("n, seed", [(2, 0), (3, 1), (4, 5)])
def test_phase_twist_fixtures_still_load_with_their_projector(n, seed, tmp_path):
    path = tmp_path / "twist.json"
    assert cli.main(["fixture", "phase-twist", "--frame-dim", str(n), "--seed", str(seed),
                     "--out", str(path)]) == 0
    braid, p = load_input(path)
    assert braid.n == n and p.shape == (n,) * 4
