"""One real-number rule at every public boundary.

A scalar real argument refuses a string, a bool, None, a complex number, a
0-d array and a list; an array argument (a spectrum, a data matrix, or a
scalar-or-per-row value) refuses strings, bools, None, complex numbers, a
ragged nest and an object array. Each refusal is a ValidationError that names
the argument. numpy scalars, int lists and float32 arrays give byte-for-byte
the result of the equal float64 input.
"""

import pickle

import numpy as np
import pytest

from covrank import (
    QuadratureSettings,
    SimulationConfig,
    ValidationError,
    csv_statistic,
    ks_distance,
    ks_pvalue_approx,
    log_integral,
    make_loadings,
    plug_in_scale,
    rank_from_data,
    run_sequence,
    sample_covariance,
    sample_factors_t,
    symmetric_eigen,
)

_CONFIG = {"p": 4, "true_rank": 1, "n": 20, "reps": 2, "seed": 3}
_LAM = [3, 2, 1]
_DATA = [[1, 2], [3, 5], [4, 1], [2, 2], [0, 3]]


def _config(name, wrap=lambda v: v):
    return lambda v: SimulationConfig(**{**_CONFIG, name: wrap(v)})


# Valid values are exact in float32, so every spelling of one is the same number.
# id: (argument name, a valid value, call with that argument set to v)
_SCALARS = {
    **{f"SimulationConfig-{name}": (name, good, _config(name))
       for name, good in (("alpha", 0.125), ("t_df", 5), ("gap_c0", 1), ("local_null_tau", 1))},
    "SimulationConfig-factor_scales": (
        "each factor_scales entry", 2, _config("factor_scales", lambda v: (v,))),
    "run_sequence-alpha": ("alpha", 0.125, lambda v: run_sequence(_LAM, v)),
    "rank_from_data-alpha": ("alpha", 0.125, lambda v: rank_from_data(_DATA, v)),
    "QuadratureSettings-rel_tol": ("rel_tol", 2.0**-10, lambda v: QuadratureSettings(rel_tol=v)),
    "QuadratureSettings-tail_sigmas": (
        "tail_sigmas", 12, lambda v: QuadratureSettings(tail_sigmas=v)),
    "sample_factors_t-t_df": ("t_df", 5, lambda v: sample_factors_t(2, 5, v, 0)),
    "ks_pvalue_approx-distance": ("distance", 0.25, lambda v: ks_pvalue_approx(v, 10)),
}

_ARRAYS = {
    "plug_in_scale-eigenvalues": ("eigenvalues", _LAM, lambda v: plug_in_scale(v, 2)),
    "log_integral-eigenvalues": ("eigenvalues", _LAM, lambda v: log_integral(1, 3, v, 1, 1)),
    "csv_statistic-eigenvalues": ("eigenvalues", _LAM, lambda v: csv_statistic(v, 1)),
    "run_sequence-eigenvalues": ("eigenvalues", _LAM, lambda v: run_sequence(v, 0.05)),
    "log_integral-lo": ("lo", 1, lambda v: log_integral(v, 3, _LAM, 1, 1)),
    "log_integral-hi": ("hi", 3, lambda v: log_integral(1, v, _LAM, 1, 1)),
    "log_integral-scale2": ("scale2", 1, lambda v: log_integral(1, 3, _LAM, 1, v)),
    "csv_statistic-scale2": ("scale2", 1, lambda v: csv_statistic(_LAM, 1, v)),
    "sample_covariance-data": ("data", _DATA, lambda v: sample_covariance(v)),
    "rank_from_data-data": ("data", _DATA, lambda v: rank_from_data(v, 0.05)),
    "symmetric_eigen-m": ("m", [[2, 1], [1, 2]], lambda v: symmetric_eigen(v)),
    "ks_distance-sample": ("sample", [0.25, 0.5, 0.75], lambda v: ks_distance(v)),
    "make_loadings-factor_scales": ("factor_scales", [2, 1], lambda v: make_loadings(4, 2, v, 0)),
}


def _bad_scalars(good):
    return {"str": str(good), "bool": True, "None": None, "complex": complex(good),
            "0-d array": np.array(good), "list": [good]}


def _bad_arrays(good):
    a = np.asarray(good)
    return {"str": a.astype(str).tolist(), "bool": np.ones_like(a, dtype=bool).tolist(),
            "None": None, "complex": a.astype(complex), "ragged": [a.tolist(), [a.tolist()]],
            "object": a.astype(object)}


def _cases(table, bad_values):
    # csv_statistic's scale2=None asks for the plug-in scale.
    return [pytest.param(argument, kind, id=f"{argument}-{kind}")
            for argument, (_, good, _) in table.items() for kind in bad_values(good)
            if (argument, kind) != ("csv_statistic-scale2", "None")]


@pytest.mark.parametrize("argument, kind", _cases(_SCALARS, _bad_scalars))
def test_scalar_non_reals_are_refused_by_name(argument, kind):
    name, good, call = _SCALARS[argument]
    bad = _bad_scalars(good)[kind]
    with pytest.raises(ValidationError) as info:
        call(bad)
    assert str(info.value) == f"{name} must be a real number, got {bad!r}"


@pytest.mark.parametrize("argument, kind", _cases(_ARRAYS, _bad_arrays))
def test_array_non_reals_are_refused_by_name(argument, kind):
    name, good, call = _ARRAYS[argument]
    with pytest.raises(ValidationError, match=f"^{name} must be an array of real numbers, got "):
        call(_bad_arrays(good)[kind])


def _scalar_spellings(good):
    spellings = {"np.float64": np.float64(good), "np.float32": np.float32(good)}
    if float(good).is_integer():
        spellings.update({"int": int(good), "np.int64": np.int64(good)})
    return spellings


def _array_spellings(good):
    a = np.asarray(good, dtype=np.float64)
    spellings = {"float list": a.tolist(), "float32": a.astype(np.float32)}
    if np.all(a == np.round(a)):
        spellings.update({"int list": a.astype(int).tolist(), "int64": a.astype(np.int64)})
    if a.ndim == 0:
        spellings["np.float32 scalar"] = np.float32(good)
    return spellings


def _same_bytes(call, good, spellings):
    want = pickle.dumps(call(float(good) if np.ndim(good) == 0 else
                             np.asarray(good, dtype=np.float64)))
    for label, value in spellings.items():
        assert pickle.dumps(call(value)) == want, label


@pytest.mark.parametrize("argument", ["SimulationConfig-t_df", "sample_factors_t-t_df"])
@pytest.mark.parametrize("t_df", [2.0, 1.5, float("inf"), float("nan")])
def test_t_df_refusals_share_one_message(argument, t_df):
    with pytest.raises(ValidationError) as info:
        _SCALARS[argument][2](t_df)
    assert str(info.value) == f"t_df must exceed 2 (finite factor covariance), got {t_df}"


@pytest.mark.parametrize("argument", _SCALARS)
def test_numpy_scalars_give_the_same_bytes(argument):
    _, good, call = _SCALARS[argument]
    _same_bytes(call, good, _scalar_spellings(good))


@pytest.mark.parametrize("argument", _ARRAYS)
def test_int_lists_and_float32_arrays_give_the_same_bytes(argument):
    _, good, call = _ARRAYS[argument]
    _same_bytes(call, good, _array_spellings(good))
