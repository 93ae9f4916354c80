"""The public surface: every name a module exports resolves."""

import importlib

import pytest


@pytest.mark.parametrize("name", ["errors", "models", "numerics", "rate",
                                  "paths", "estimators", "moments"])
def test_all_names_resolve(name):
    # a stale __all__ entry breaks `from levyclocks.<name> import *`
    module = importlib.import_module(f"levyclocks.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
