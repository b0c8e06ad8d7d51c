"""Every name the package lists in ``__all__`` resolves, and everything it
defines is used.

The package resolves its names lazily, on first access.  A function, class,
method or constant that only the tests use belongs in the tests.
"""

import ast
import glob
import os

import pytest

import remlab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def _bound_at_top_level(tree):
    """The names a module's own defs, classes and assignments bind."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def definitions(tree):
    """Every function, class, method and constant a module defines, dunders aside."""
    names = _bound_at_top_level(tree)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names.update(item.name for item in node.body if isinstance(item, ast.FunctionDef))
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def used_names(tree):
    """Every Name and Attribute read, and every import alias; strings do not count."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_every_public_name_is_used_outside_the_tests():
    # a perfbench or tools file's use of a name it binds itself is its own
    # name, not the package's
    sources = [_parse(path) for path in glob.glob(os.path.join(ROOT, "src/remlab/*.py"))]
    scripts = [_parse(path) for pattern in ("perfbench/*.py", "tools/*.py")
               for path in glob.glob(os.path.join(ROOT, pattern))]
    assert len(sources) > 5 and len(scripts) > 5
    used = set().union(*map(used_names, sources),
                       *(used_names(tree) - _bound_at_top_level(tree) for tree in scripts))
    defined = set().union(*map(definitions, sources))
    assert set(remlab.__all__) - set(remlab._EXPORTS) <= defined
    assert sorted(defined - used) == []


def _private_imports(tree):
    """The underscored names a module takes from other package modules: by
    ``from .module import _name``, or as ``module._name`` after
    ``from . import module``."""
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found += [alias.name for alias in node.names if alias.name.startswith("_")]
            if node.module is None:
                modules.update(alias.asname or alias.name for alias in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_imports_a_private_name_of_another():
    # an underscored name is its own module's; one that another module needs
    # is part of the package's interface and gets a public name
    found = {os.path.basename(path): _private_imports(_parse(path))
             for path in glob.glob(os.path.join(ROOT, "src/remlab/*.py"))}
    assert len(found) > 5
    assert {name: names for name, names in found.items() if names} == {}


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
