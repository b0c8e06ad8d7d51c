"""Every name a module lists in ``__all__`` resolves.

A stale entry would make ``from remlab.<module> import *`` raise.
"""

import importlib

import pytest


@pytest.mark.parametrize("module", ["model_system", "reml_core", "predictor"])
def test_all_names_resolve(module):
    mod = importlib.import_module(f"remlab.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
