"""Self-tests of the benchmark: exact inputs, exact traced counts, output checks.

    python3 -m pytest -q perfbench
"""

import json
import math
from pathlib import Path

import pytest

import run

run.require_source()

import numpy as np  # noqa: E402

import stehbein.cli  # noqa: E402
import stehbein.frametensor  # noqa: E402
import stehbein.report  # noqa: E402
from stehbein.braiding import check_braid, make_braiding  # noqa: E402
from stehbein.calculus import check_structure, check_theta_squared  # noqa: E402
from stehbein.io import load_input  # noqa: E402
from stehbein.report import GROUPS, run_verify  # noqa: E402

from tracer import Tracer, aggregate  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, expected_verdicts, spin_generators, write_input,
)


def verify_argv(path, name, report):
    return ["verify", str(path), "--max-order", str(WORKLOADS[name].max_order),
            "--seed", "3", "--report", str(report)]


@pytest.mark.parametrize("j", [0.5, 1.0, 7.5])
def test_spin_generators_close_under_commutator(j):
    lam = spin_generators(j)
    assert lam.shape == (3, int(2 * j) + 1, int(2 * j) + 1)
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        comm = lam[a] @ lam[b] - lam[b] @ lam[a]
        assert np.max(np.abs(comm - lam[c])) <= 1e-12
    assert np.max(np.abs(lam + np.conj(np.swapaxes(lam, 1, 2)))) == 0.0


@pytest.mark.parametrize("seed", [0, 7])
def test_su2_wide_input_is_exact_at_n16(tmp_path, seed):
    path, _ = write_input("su2-wide", seed, tmp_path)
    geom = load_input(path)
    assert (geom.N, geom.n) == (16, 3)
    assert check_structure(geom) <= 1e-12
    assert check_theta_squared(geom) <= 1e-12
    assert check_braid(make_braiding(geom.S)) <= 1e-12
    report = run_verify(geom, max_order=WORKLOADS["su2-wide"].max_order, seed=seed)
    assert report.counts == {"pass": 25, "fail": 0, "skipped": 1}
    assert [(c.name, c.status) for c in report.checks] == expected_verdicts("su2-wide")


def test_su2_wide_input_passes_at_order_3(tmp_path):
    path, _ = write_input("su2-wide", 0, tmp_path)
    report = run_verify(load_input(path), max_order=3, seed=0)
    assert report.counts == {"pass": 29, "fail": 0, "skipped": 1}


def test_inputs_follow_the_seed(tmp_path):
    for name in WORKLOADS:
        _, first = write_input(name, 5, tmp_path / "a")
        _, again = write_input(name, 5, tmp_path / "b")
        assert first == again
    assert write_input("su2-wide", 6, tmp_path)[1] != write_input("su2-wide", 5, tmp_path)[1]
    assert write_input("braid-o5", 6, tmp_path)[1] != write_input("braid-o5", 5, tmp_path)[1]


@pytest.mark.parametrize("name,counts", [
    ("su2-o4", (33, 0, 1)), ("su2-wide", (25, 0, 1)), ("braid-o5", (12, 0, 26)),
])
def test_recorded_verdict_counts(name, counts):
    statuses = [s for _, s in expected_verdicts(name)]
    assert (statuses.count("pass"), statuses.count("fail"), statuses.count("skipped")) == counts


def test_traced_counts_on_su2_o4_are_exact(tmp_path):
    """Every module binding is wrapped: patching frametensor alone sees 813
    apply_central_at calls, because report, braiding and connection import
    it by name."""
    path, _ = write_input("su2-o4", 0, tmp_path)
    original = stehbein.frametensor.apply_central_at
    tracer = Tracer()
    with tracer:
        assert stehbein.report.apply_central_at is not original
        for op in range(2):
            tracer.op = op
            assert stehbein.cli.main(verify_argv(path, "su2-o4", tmp_path / "r.json")) == 0
    assert stehbein.report.apply_central_at is original
    first, second = aggregate(tracer.spans, 0), aggregate(tracer.spans, 1)
    assert first["connection.dn"]["calls"] == 852
    assert first["frametensor.apply_central_at"]["calls"] == 5223
    assert first["involution.build_jn"]["calls"] == 14
    assert first["involution.build_jn"]["keys"] == {1, 2, 3, 4, 5}
    assert first["cli.main"]["calls"] == 1
    assert ({k: v["calls"] for k, v in first.items()}
            == {k: v["calls"] for k, v in second.items()})
    root = first["cli.main"]
    assert 0 < root["self_s"]
    # self times partition the operation's wall time
    total = sum(v["self_s"] for v in first.values())
    ends = [s for s in tracer.spans if s[0] == 0 and s[3] == "cli.main"][0]
    assert math.isclose(total, ends[5] - ends[4], rel_tol=1e-9)


@pytest.fixture(scope="module")
def su2_report(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("report")
    path, _ = write_input("su2-o4", 0, tmp)
    return run_verify(load_input(path), max_order=4, seed=3).to_dict()


def _check(report_doc, tmp_path, rc=0):
    checker = run.Checker(expected_verdicts("su2-o4"))
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report_doc), encoding="utf-8")
    return checker.check(rc, path), checker


def test_checker_accepts_the_recorded_verdicts(su2_report, tmp_path):
    problems, checker = _check(su2_report, tmp_path)
    assert problems == []
    assert (checker.attempted, checker.failed) == (1, 0)


def test_checker_rejects_each_failure_rule(su2_report, tmp_path):
    assert _check(su2_report, tmp_path, rc=1)[0] == ["exit code 1"]
    assert _check(su2_report, tmp_path, rc="raised: boom")[0]

    unschema = dict(su2_report)
    del unschema["summary"]
    assert "validate" in _check(unschema, tmp_path)[0][0]

    nan = json.loads(json.dumps(su2_report))
    nan["checks"][0]["residual"] = float("nan")
    assert "non-finite" in _check(nan, tmp_path)[0][0]

    flipped = json.loads(json.dumps(su2_report))
    flipped["checks"][5]["status"] = "fail"
    assert "verdicts differ" in _check(flipped, tmp_path)[0][0]

    checker = run.Checker(expected_verdicts("su2-o4"))
    assert checker.check(0, tmp_path / "missing.json")
    assert (checker.attempted, checker.failed) == (1, 1)


def test_tail_has_ten_samples_beyond():
    assert run.tail(list(range(1, 23))) == (12, 100 * 12 / 22)
    assert run.tail(list(range(40, 0, -1))) == (30, 75.0)
    with pytest.raises(ValueError):
        run.tail(list(range(1, 22)))


def test_scale_undoes_a_uniform_slowdown():
    times, gauges = [1.0, 1.3, 1.1], [0.030, 0.036, 0.033]
    base = run.scale(times, gauges)
    assert run.scale([1.7 * t for t in times], [1.7 * g for g in gauges]) == pytest.approx(base)
    assert run.scale([2.0], [run.REFERENCE_GAUGE_S]) == [2.0]
    assert run.scale([1.0], [run.REFERENCE_GAUGE_S / 4], 0.5) == [pytest.approx(2.0)]
    with pytest.raises(ValueError):
        run.scale(times, gauges[:2])
    assert run.python_gauge() > 0


def test_compare_reports_residual_changes(tmp_path, capsys):
    base = {"workload": "su2-o4", "seed": 1, "input_sha256": "0" * 64,
            "residuals": {"structure": 1e-16, "braid": 0.0, "i-weak-yang-baxter": None}}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(base))
    assert run.compare(str(a), str(b)) == 0
    moved = dict(base, residuals=dict(base["residuals"], braid=1e-13))
    b.write_text(json.dumps(moved))
    assert run.compare(str(a), str(b)) == 1
    assert "1.000e-13 at braid" in capsys.readouterr().out


def test_benchmark_json_matches_the_metrics_emitted():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units(GROUPS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in doc["end_to_end"])


def test_refuses_a_directory_without_source(tmp_path):
    import shutil
    import subprocess
    import sys
    shutil.copytree(Path(run.HERE), tmp_path / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "su2-o4",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
