"""Every name a module lists in ``__all__`` resolves.

A stale entry would make ``from remlab.<module> import *`` raise.  The
package itself resolves its names lazily, on first access.
"""

import importlib

import pytest

import remlab


@pytest.mark.parametrize("module", ["model_system", "reml_core", "predictor"])
def test_all_names_resolve(module):
    mod = importlib.import_module(f"remlab.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_names_resolve():
    assert [name for name in remlab.__all__ if not hasattr(remlab, name)] == []
    assert len(set(remlab.__all__)) == len(remlab.__all__)


def test_dir_lists_every_public_name():
    assert set(remlab.__all__) <= set(dir(remlab))
    assert "__version__" in dir(remlab)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        remlab.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from remlab import no_such_name  # noqa: F401


def test_star_import_and_submodule_imports():
    namespace = {}
    exec("from remlab import *", namespace)
    assert set(remlab.__all__) <= set(namespace)
    from remlab import experiments, invivo, model_system, reml_core
    assert remlab.experiments is experiments
    assert remlab.invivo is invivo
    assert remlab.model_system is model_system
    assert remlab.reml_core is reml_core
    assert remlab.VarianceMode is experiments.VarianceMode is model_system.VarianceMode
