"""Serialization of numpy scalars and arrays: CSV cells by fmt_value, and
JSON by json_string, whose default hook turns numpy values into Python ones
and refuses any other object by its type."""

import json

import numpy as np
import pytest

from curvatura.reporting import fmt_value, json_string


@pytest.mark.parametrize("value,cell", [
    (np.bool_(True), "true"),
    (np.bool_(False), "false"),
    (np.int64(-7), "-7"),
    (np.int32(12), "12"),
    (np.float64(0.1), "0.10000000000000001"),
])
def test_a_numpy_scalar_is_one_csv_cell(value, cell):
    assert fmt_value(value) == cell


def test_numpy_values_become_json_values():
    obj = {"ok": np.bool_(False), "n": np.int64(2 ** 40), "x": np.float32(0.1),
           "a": np.arange(3.0).reshape(1, 3), "i": np.array([1, 2], dtype=np.int16)}
    text = json_string(obj)
    assert json.loads(text) == {"ok": False, "n": 2 ** 40, "x": float(np.float32(0.1)),
                                "a": [[0.0, 1.0, 2.0]], "i": [1, 2]}
    # the float32 is widened exactly, not rounded to its shortest repr
    assert '"x": 0.10000000149011612' in text
    assert text.endswith("}\n")


@pytest.mark.parametrize("value", [object(), {1, 2}, np.datetime64("2020-01-01"), 1 + 2j])
def test_any_other_object_is_refused_by_its_type(value):
    with pytest.raises(TypeError, match=f"not JSON serializable: {type(value).__name__}$"):
        json_string({"v": value})
