"""File loading: round trips, named rejections, and a fuzz test that no
malformed document gets past the loader or the CLI with a traceback."""

import copy
import dataclasses
import importlib.util
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from stehbein import (
    FrameGeometry,
    check_sigma_consistency,
    cli,
    curvature,
    d0_connection,
    make_braiding,
    su2_flip_geometry,
)
from stehbein.calculus import GEOMETRY_ARRAYS
from stehbein.fixtures import build_fixture, random_phase_twist
from stehbein.io import (
    GEOMETRY_KEYS,
    GeometryFileError,
    braiding_to_dict,
    curvature_to_dict,
    decode_complex_array,
    encode_complex_array,
    geometry_to_dict,
    load_input,
)

from conftest import random_tau, su2_torsionfree_connection

SU2 = geometry_to_dict(su2_flip_geometry())
SU2_TF = geometry_to_dict(build_fixture("su2-torsion-free")[1])
SU2_TAU = {k: v for k, v in SU2.items() if k != "S"} | {"tau": encode_complex_array(random_tau(0))}
_GEOM = su2_flip_geometry()
SU2_OMEGA = geometry_to_dict(
    dataclasses.replace(_GEOM, omega=d0_connection(_GEOM, _GEOM.braid).omega))
TWIST = braiding_to_dict(*random_phase_twist(0, 3))
VALID = (SU2, SU2_TF, SU2_TAU, SU2_OMEGA, TWIST)


def _overflowing_projector():
    # finite entries whose square has inf - inf, so P o P - P is NaN
    pm = np.zeros((9, 9))
    pm[0, 0], pm[0, 1], pm[1, 0] = 1e308, -1e308, 1e308
    return encode_complex_array(pm.reshape(3, 3, 3, 3))


def _leaves_replaced(data, leaf):
    """``data`` with every number x of its [re, im] leaves replaced by ``leaf(x)``."""
    if isinstance(data, list):
        return [_leaves_replaced(sub, leaf) for sub in data]
    return leaf(data)


def _write(doc, path):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("doc", VALID, ids=["su2", "su2-tf", "su2-tau", "su2-omega", "twist"])
def test_valid_documents_round_trip(doc, tmp_path):
    loaded = load_input(_write(doc, tmp_path / "in.json"))
    if "lambda" not in doc:
        assert braiding_to_dict(*loaded) == doc
    elif "tau" in doc:
        # any tau gives a sigma with pi o (sigma + 1) = 0
        assert check_sigma_consistency(make_braiding(loaded.S), loaded.P) <= 1e-15
    else:
        assert geometry_to_dict(loaded) == doc


def _geometry_and_source(how, tmp_path):
    """A geometry built the way ``how`` names, and the array its S came from, or None."""
    if how in ("load-S", "load-tau"):
        return load_input(_write(SU2 if how == "load-S" else SU2_TAU, tmp_path / "in.json")), None
    if how == "fixture":
        return build_fixture("su2-torsion-free")[1], None
    # a complex source, which np.asarray(x, dtype=complex) would keep as an alias
    base = su2_flip_geometry()
    s = 1j * base.S
    if how == "direct":
        return FrameGeometry(N=2, n=3, lam=base.lam, P=base.P, S=s), s
    geom = dataclasses.replace(base, S=s)
    assert geom.braid is not base.braid and np.array_equal(base.braid.S, base.S)
    return geom, s


@pytest.mark.parametrize("how", ["direct", "load-S", "load-tau", "fixture", "replace"])
def test_the_braid_is_the_one_holder_of_s(how, tmp_path):
    geom, source = _geometry_and_source(how, tmp_path)
    assert geom.S is geom.braid.S
    with pytest.raises(ValueError, match="read-only"):
        geom.braid.S[0, 0, 0, 0] = 1.0
    if source is not None:
        assert np.array_equal(geom.braid.S, source)
        assert not np.shares_memory(geom.braid.S, source)


@pytest.mark.parametrize("doc,message", [
    (TWIST | {"n": "x"}, "invalid frame dimension n"),
    (TWIST | {"n": [1]}, "invalid frame dimension n"),
    (TWIST | {"n": math.inf}, "invalid frame dimension n"),
    (TWIST | {"P": SU2["lambda"]}, "field 'P' has shape"),
    (TWIST | {"P": encode_complex_array(np.eye(16).reshape(4, 4, 4, 4))}, "P has shape"),
    (SU2 | {"matrix_dim": math.inf}, "matrix_dim"),
    (SU2 | {"matrix_dim": 10 ** 9}, "lambda has shape"),
    (SU2_TAU | {"tau": encode_complex_array(np.zeros((2, 2, 2, 2)))}, "cannot build S from tau"),
    (SU2 | {"K": [[[0, 1e400]] * 3] * 3}, "field 'K' has a non-finite entry"),
    (SU2 | {"lambda": [[[[math.nan, 0]] * 2] * 2] * 3}, "field 'lambda' has a non-finite entry"),
    (SU2 | {"omega": 10 ** 400}, "field 'omega' is not a numeric nested array"),
    (SU2 | {"lambda": [[[[1e300, 0]] * 2] * 2] * 3}, "lambda_antihermitian"),
    (SU2 | {"F": encode_complex_array(np.zeros((3, 3, 3))), "P": _overflowing_projector()},
     "P_projector"),
    (SU2_TF | {"omega": encode_complex_array(np.zeros((3, 3, 3, 2, 2)))},
     "geometry carries both 'omega' and 'chi'"),
    (TWIST | {"frame_dim": 7}, "both 'n' and 'frame_dim'"),
    # a float cast reads true, false and "0.0" as numbers; JSON does not
    (SU2 | {"metric": _leaves_replaced(SU2["metric"], bool)},
     re.escape("field 'metric' has leaves that are not JSON numbers: ['bool']")),
    (SU2 | {"lambda": _leaves_replaced(SU2["lambda"], lambda x: "0.0" if x == 0 else x)},
     re.escape("field 'lambda' has leaves that are not JSON numbers: ['str']")),
    ({k: v for k, v in SU2.items() if k != "P"}, "geometry file lacks the wedge projector 'P'"),
])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_malformed_documents_are_named(doc, message, tmp_path, capsys):
    path = _write(doc, tmp_path / "in.json")
    with pytest.raises(GeometryFileError, match=message):
        load_input(path)
    assert cli.main(["verify", str(path)]) == 2
    assert re.search(message, capsys.readouterr().err)


def _encode_by_recursion(arr):
    arr = np.asarray(arr, dtype=complex)
    if arr.ndim == 0:
        return [float(arr.real), float(arr.imag)]
    return [_encode_by_recursion(sub) for sub in arr]


@pytest.mark.parametrize("arr", [
    complex(-0.0, -0.0), np.array([-0.0, 1j, complex(2.5, -0.0)]), np.zeros((0, 3)), np.zeros((3, 0)),
    np.arange(6).reshape(2, 3), np.random.default_rng(0).standard_normal((2, 3, 2, 2, 2)) * 1j,
    su2_flip_geometry().lam])
def test_encoding_is_the_recursive_form_byte_for_byte(arr):
    assert json.dumps(encode_complex_array(arr)) == json.dumps(_encode_by_recursion(arr))


@pytest.mark.parametrize("value", [3.9, 2.5, 3.7, 3.0, "3", True, 0, -1])
@pytest.mark.parametrize("doc,key", [(SU2, "frame_dim"), (SU2, "matrix_dim"), (TWIST, "n")])
def test_dimensions_must_be_positive_json_integers(doc, key, value, tmp_path, capsys):
    # int() would truncate 3.9 to 3 and parse "3", and True is an int in Python
    path = _write(doc | {key: value}, tmp_path / "in.json")
    with pytest.raises(GeometryFileError, match=f"'{key}' must be an integer >= 1, got {value!r}"):
        load_input(path)
    assert cli.main(["verify", str(path)]) == 2
    assert f"'{key}' must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "curvature"])
def test_omega_with_chi_exits_2(command, tmp_path, capsys):
    # the connection would be ambiguous, so the file is refused
    doc = SU2_TF | {"omega": encode_complex_array(np.zeros((3, 3, 3, 2, 2)))}
    assert cli.main([command, str(_write(doc, tmp_path / "in.json"))]) == 2
    assert capsys.readouterr().err == (
        "error: geometry carries both 'omega' and 'chi'; give one connection\n")


# a typo in a key must not drop the data it names: su2-flip with a misspelt
# metric would otherwise skip every metric row and pass
@pytest.mark.parametrize("doc,named", [
    ({("metirc" if k == "metric" else k): v for k, v in SU2.items()}, "'metirc'"),
    (SU2 | {"n": 3}, "'n'"),
    ({("lamda" if k == "lambda" else k): v for k, v in SU2.items()}, "lacks 'lambda'"),
    ({k: v for k, v in SU2.items() if k != "lambda"}, "lacks 'lambda'"),
    (TWIST | {"tau": TWIST["S"]}, "lacks 'lambda'"),
    (TWIST | {"Q": TWIST["P"]}, "'Q'"),
    (SU2_TAU | {"S": SU2["S"]}, "both 'S' and 'tau'"),
], ids=["metirc", "n-in-geometry", "lamda", "no-lambda", "tau-in-braiding", "Q-in-braiding",
        "S-and-tau"])
def test_unknown_and_misplaced_keys_are_named(doc, named, tmp_path):
    with pytest.raises(GeometryFileError, match=named):
        load_input(_write(doc, tmp_path / "in.json"))


def test_one_table_declares_the_geometry_arrays_and_their_keys():
    arrays = {f.name for f in dataclasses.fields(FrameGeometry) if "ndarray" in f.type}
    assert {field for field, _, _ in GEOMETRY_ARRAYS} == arrays
    keys = {key for _, key, _ in GEOMETRY_ARRAYS}
    assert keys == {"lambda", "P", "S", "F", "K", "metric", "omega", "chi"}
    assert keys | {"matrix_dim", "frame_dim", "tau"} == GEOMETRY_KEYS


def test_a_file_that_is_not_utf8_is_refused(tmp_path):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(GeometryFileError, match=re.escape(f"cannot read {path}: 'utf-8' codec")):
        load_input(path)


def test_a_braiding_file_whose_p_is_not_a_projector_is_refused(tmp_path):
    # (S + 1) 2 P0 = 0 still holds, so sigma-consistency alone would pass it
    braid, p = random_phase_twist(0, 3)
    path = _write(braiding_to_dict(braid, 2 * p), tmp_path / "twist.json")
    with pytest.raises(GeometryFileError, match="braiding violates invariant 'P_projector'") as exc:
        load_input(path)
    assert exc.value.violation == "P_projector"


def test_every_benchmark_input_loads(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        path, _ = workloads.write_input(name, 0, tmp_path)
        load_input(path)


def test_curvature_to_dict_round_trips_through_json(su2_braid):
    conn = su2_torsionfree_connection()
    data = curvature(conn, su2_braid)
    doc = json.loads(json.dumps(curvature_to_dict(data)))
    assert set(doc) == {"R", "Ricci", "centrality_residual"}
    assert np.array_equal(decode_complex_array(doc["R"], 6, "R"), data.R)
    assert np.array_equal(decode_complex_array(doc["Ricci"], 4, "Ricci"), data.ricci)
    assert doc["centrality_residual"] == data.centrality_residual


# ---------------------------------------------------------------------------
# fuzz: mutate a valid document one step


LEAVES = (st.none() | st.booleans() | st.integers(-10 ** 30, 10 ** 30)
          | st.floats() | st.text(max_size=3))
JSON_VALUES = st.recursive(
    LEAVES, lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids,
                                                                      max_size=3),
    max_leaves=10)
POISON = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, "1", None, [], [0, 0, 0]])


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(VALID)))
    key = draw(st.sampled_from(sorted(doc) + ["matrix_dim", "frame_dim", "n", "S"]))
    action = draw(st.sampled_from(["replace", "delete", "poison", "truncate"]))
    if action == "delete":
        doc.pop(key, None)
    elif action == "replace" or not isinstance(doc.get(key), list):
        doc[key] = draw(JSON_VALUES)
    else:
        # walk down to a random nested list, then poison or shorten it
        node = doc[key]
        while draw(st.booleans()) and node and isinstance(node[0], list):
            node = node[draw(st.integers(0, len(node) - 1))]
        if action == "poison" and node:
            node[draw(st.integers(0, len(node) - 1))] = draw(POISON)
        elif node:
            node.pop()
    return doc


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow, ill-conditioned S
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(doc=mutated_documents())
def test_malformed_documents_exit_2_never_a_traceback(doc, tmp_path):
    path = _write(doc, tmp_path / "fuzz.json")
    try:
        load_input(path)
    except GeometryFileError:
        assert cli.main(["verify", str(path)]) == 2
    else:
        # a mutation that leaves a loadable document must still verify
        assert cli.main(["verify", str(path), "--max-order", "2"]) in (0, 1)
