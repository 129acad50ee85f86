"""File loading: round trips, named rejections, and a fuzz test that no
malformed document gets past the loader or the CLI with a traceback."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from stehbein import (
    check_sigma_consistency,
    cli,
    curvature,
    su2_flip_geometry,
    su2_torsionfree_connection,
)
from stehbein.fixtures import build_fixture, random_phase_twist, random_tau
from stehbein.io import (
    GeometryFileError,
    braiding_to_dict,
    curvature_to_dict,
    decode_complex_array,
    encode_complex_array,
    geometry_to_dict,
    load_input,
)

SU2 = geometry_to_dict(su2_flip_geometry())
SU2_TF = geometry_to_dict(build_fixture("su2-torsion-free")[1])
SU2_TAU = {k: v for k, v in SU2.items() if k != "S"} | {"tau": encode_complex_array(random_tau(0))}
TWIST = braiding_to_dict(*random_phase_twist(0, 3))
VALID = (SU2, SU2_TF, SU2_TAU, TWIST)


def _overflowing_projector():
    # finite entries whose square has inf - inf, so P o P - P is NaN
    pm = np.zeros((9, 9))
    pm[0, 0], pm[0, 1], pm[1, 0] = 1e308, -1e308, 1e308
    return encode_complex_array(pm.reshape(3, 3, 3, 3))


def _write(doc, path):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("doc", VALID, ids=["su2", "su2-tf", "su2-tau", "twist"])
def test_valid_documents_round_trip(doc, tmp_path):
    loaded = load_input(_write(doc, tmp_path / "in.json"))
    if "lambda" not in doc:
        assert braiding_to_dict(*loaded) == doc
    elif "tau" in doc:
        # any tau gives a sigma with pi o (sigma + 1) = 0
        assert check_sigma_consistency(loaded.S, loaded.P) <= 1e-15
    else:
        assert geometry_to_dict(loaded) == doc


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
])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_malformed_documents_are_named(doc, message, tmp_path):
    path = _write(doc, tmp_path / "in.json")
    with pytest.raises(GeometryFileError, match=message):
        load_input(path)


def test_curvature_to_dict_round_trips_through_json(su2_braid):
    conn = su2_torsionfree_connection()
    data = curvature(conn, su2_braid, conn.geom.P)
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
