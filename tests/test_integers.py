"""One integer rule at every public boundary.

Every integer argument refuses a float, a bool and a string with a
ValidationError that names it, and a numpy integer gives byte-for-byte the
result of the equal Python int. An integer below its lower bound is refused
in one message, and every step argument is refused outside 1..p-1 in one
message.
"""

import pickle

import numpy as np
import pytest

from covrank import (
    QuadratureSettings,
    RejectionTable,
    SimulationConfig,
    ValidationError,
    collect_null_statistics,
    csv_statistic,
    generate_dataset,
    ks_pvalue_approx,
    log_integral,
    make_loadings,
    plug_in_scale,
    run_rejection_table,
    sample_factors_t,
)

_CONFIG = {"p": 4, "true_rank": 1, "n": 20, "reps": 2, "seed": 3}
_TABLE_CONFIG = SimulationConfig(p=3, true_rank=1, n=20, reps=2)
_NULL_CONFIG = SimulationConfig(p=3, true_rank=1, n=20, reps=2, local_null_tau=0.5)


def _config(name):
    return lambda v: SimulationConfig(**{**_CONFIG, name: v})


# id: (argument name, a valid value, call with that argument set to v)
_ARGUMENTS = {
    **{f"SimulationConfig-{name}": (name, _CONFIG[name], _config(name))
       for name in ("p", "true_rank", "n", "reps", "seed")},
    "generate_dataset-replication": (
        "replication", 1, lambda v: generate_dataset(SimulationConfig(**_CONFIG), v)),
    "make_loadings-p": ("p", 4, lambda v: make_loadings(v, 2, [2.0, 1.0], 0)),
    "make_loadings-k": ("k", 2, lambda v: make_loadings(4, v, [2.0, 1.0], 0)),
    "make_loadings-seed": ("seed", 7, lambda v: make_loadings(4, 2, [2.0, 1.0], v)),
    "sample_factors_t-k": ("k", 2, lambda v: sample_factors_t(v, 5, 5.0, 0)),
    "sample_factors_t-n": ("n", 5, lambda v: sample_factors_t(2, v, 5.0, 0)),
    "sample_factors_t-seed": ("seed", 7, lambda v: sample_factors_t(2, 5, 5.0, v)),
    "plug_in_scale-k": ("k", 2, lambda v: plug_in_scale([3.0, 2.0, 1.0], v)),
    "log_integral-k": ("k", 1, lambda v: log_integral(1.0, 3.0, [3.0, 2.0, 1.0], v, 1.0)),
    "csv_statistic-k": ("k", 2, lambda v: csv_statistic([3.0, 2.0, 1.0], v)),
    "rate_percent-k": ("k", 1, lambda v: RejectionTable(_TABLE_CONFIG, (2, 1), (1, 0))
                       .rate_percent(v)),
    "collect_null_statistics-k": ("k", 2, lambda v: collect_null_statistics(_NULL_CONFIG, v)),
    "ks_pvalue_approx-m": ("m", 10, lambda v: ks_pvalue_approx(0.2, v)),
    "QuadratureSettings-max_subdivisions": (
        "max_subdivisions", 8, lambda v: QuadratureSettings(max_subdivisions=v)),
    "run_rejection_table-workers": (
        "workers", 1, lambda v: run_rejection_table(_TABLE_CONFIG, workers=v)),
    "collect_null_statistics-workers": (
        "workers", 1, lambda v: collect_null_statistics(_NULL_CONFIG, 2, workers=v)),
}


@pytest.mark.parametrize("bad", [1.5, True, "1"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("argument", _ARGUMENTS)
def test_non_integers_are_refused_by_name(argument, bad):
    name, _, call = _ARGUMENTS[argument]
    with pytest.raises(ValidationError, match=rf"^{name} must be an integer, got {bad!r}$"):
        call(bad)


@pytest.mark.parametrize("argument", _ARGUMENTS)
def test_numpy_integers_give_the_same_bytes(argument):
    _, good, call = _ARGUMENTS[argument]
    assert pickle.dumps(call(np.int64(good))) == pickle.dumps(call(good))


# id in _ARGUMENTS: the argument's lower bound
_LOWER_BOUNDS = {
    "run_rejection_table-workers": 1,
    "collect_null_statistics-workers": 1,
    "sample_factors_t-k": 1,
    "sample_factors_t-n": 1,
    "make_loadings-p": 1,
    "make_loadings-k": 0,
}


@pytest.mark.parametrize("argument", _LOWER_BOUNDS)
@pytest.mark.parametrize("below", [1, 3])
def test_integers_below_their_bound_are_refused(argument, below):
    name, _, call = _ARGUMENTS[argument]
    low = _LOWER_BOUNDS[argument]
    bad = low - below
    with pytest.raises(ValidationError, match=f"^{name} must be an integer >= {low}, got {bad}$"):
        call(bad)


# Every step argument in _ARGUMENTS is for a p = 3 spectrum or config.
_STEPS = ["plug_in_scale-k", "log_integral-k", "csv_statistic-k", "rate_percent-k",
          "collect_null_statistics-k"]


@pytest.mark.parametrize("argument", _STEPS)
@pytest.mark.parametrize("k", [0, 3])
def test_steps_outside_one_to_p_minus_one_are_refused(argument, k):
    with pytest.raises(ValidationError, match=rf"^step k must satisfy 1 <= k <= p-1 = 2, got {k}$"):
        _ARGUMENTS[argument][2](k)
