"""Every name the package lists in ``__all__`` resolves and is used.

The package resolves its names lazily, on first access.  A public name
that only the tests use belongs in the tests.
"""

import ast
import glob
import os

import pytest

import remlab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def used_names(paths):
    """Every Name, Attribute and import alias in the files; strings do not count."""
    used = set()
    for path in paths:
        with open(path) as fh:
            for node in ast.walk(ast.parse(fh.read(), path)):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name)
    return used


def test_every_public_name_is_used_outside_the_tests():
    paths = [path for pattern in ("src/remlab/*.py", "perfbench/*.py", "tools/*.py")
             for path in glob.glob(os.path.join(ROOT, pattern))
             if os.path.basename(path) != "__init__.py"]
    assert len(paths) > 10
    used = used_names(paths)
    assert [name for name in remlab.__all__
            if name not in remlab._EXPORTS and name not in used] == []


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
