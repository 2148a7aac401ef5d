"""The benchmark tracer wraps covercat functions by module and qualname.

``perfbench/tracer.py`` looks each layer up at run time, so a rename in
``covercat`` would only show up when ``perfbench/run.py --trace 1`` runs;
these tests catch it with the rest of the suite.
"""

import importlib
import importlib.util
from pathlib import Path

from covercat.frobenius import EndMatrix
from covercat.scalars import RootOfUnity

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve():
    layers = load_tracer().LAYERS
    assert layers
    for mod_name, qualname, _kind, _stem in layers:
        owner = importlib.import_module(f"covercat.{mod_name}")
        *path, attr = qualname.split(".")
        for name in path:
            owner = getattr(owner, name)
        # the tracer replaces the entry in the owner's own namespace
        assert attr in vars(owner), f"covercat.{mod_name}.{qualname}"


def test_tracer_hook_attributes_exist():
    # the ratio hooks read these from the wrapped calls' arguments
    assert RootOfUnity(0).exponent == 0
    assert EndMatrix.identity(()).data == {}
