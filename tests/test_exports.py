import importlib

import pytest

import covrank


@pytest.mark.parametrize("module", ["dgp", "montecarlo", "sequential", "spectrum", "statistic"])
def test_package_exports_every_public_name_of_each_library_module(module):
    mod = importlib.import_module(f"covrank.{module}")
    for name in mod.__all__:
        assert name in covrank.__all__, name
        assert getattr(covrank, name) is getattr(mod, name), name
