"""The shape of the public API that outside tooling relies on."""

import importlib
import inspect

import pytest

# the layers whose public functions a per-layer tracer wraps: it replaces
# plain functions only, so a decorated public name would drop out of its view
LAYERS = ("numerics", "evaluation", "algebra", "decompose", "cli", "serialization")


@pytest.mark.parametrize("layer", LAYERS)
def test_public_callables_are_plain_functions(layer):
    mod = importlib.import_module(f"thetadecomp.{layer}")
    for name, obj in vars(mod).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if not (getattr(obj, "__module__", None) or "").startswith("thetadecomp"):
            continue
        assert inspect.isfunction(obj), f"thetadecomp.{layer}.{name} is {type(obj).__name__}"
