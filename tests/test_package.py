"""The package namespace: each public name is declared once, in its
module's __all__."""

import importlib
import types

import aggdiff

MODULES = ("classify", "errors", "evolve", "extremal", "field", "functionals", "params", "riesz")


def test_public_names_are_the_modules_all():
    # the package re-exports exactly what its eight modules declare (the
    # function classify shadows its module, hence import_module)
    declared = set().union(*(importlib.import_module(f"aggdiff.{name}").__all__
                             for name in MODULES))
    public = {name for name in dir(aggdiff) if not name.startswith("_")
              and not isinstance(getattr(aggdiff, name), types.ModuleType)}
    assert len(declared) == 66
    assert public == declared
