"""One bool rule at every public boundary.

A flag argument refuses anything that is not a Python or numpy bool, such as
the string ``"no"``, the integer 1 or None, with a ValidationError that names
it; a numpy bool gives byte-for-byte the result of the equal Python bool.
"""

import pickle

import numpy as np
import pytest

from covrank import ValidationError, rank_from_data, sample_covariance, symmetric_eigen

_DATA = [[1, 2], [3, 5], [4, 1], [2, 2], [0, 3]]
_M = [[2.0, 1.0], [1.0, 2.0]]

# id: (argument name, call with that argument set to v)
_FLAGS = {
    "sample_covariance-center": ("center", lambda v: sample_covariance(_DATA, center=v)),
    "rank_from_data-center": ("center", lambda v: rank_from_data(_DATA, 0.05, center=v)),
    "symmetric_eigen-want_vectors": (
        "want_vectors", lambda v: symmetric_eigen(_M, want_vectors=v)),
}

_NOT_BOOLS = {"str": "no", "int": 1, "zero": 0, "None": None, "np.int64": np.int64(1),
              "0-d array": np.array(True)}


@pytest.mark.parametrize("kind", _NOT_BOOLS)
@pytest.mark.parametrize("argument", _FLAGS)
def test_non_bools_are_refused_by_name(argument, kind):
    name, call = _FLAGS[argument]
    bad = _NOT_BOOLS[kind]
    with pytest.raises(ValidationError) as info:
        call(bad)
    assert str(info.value) == f"{name} must be a bool, got {bad!r}"


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("argument", _FLAGS)
def test_numpy_bools_give_the_same_bytes(argument, value):
    _, call = _FLAGS[argument]
    assert pickle.dumps(call(np.bool_(value))) == pickle.dumps(call(value))
