"""The names ``perfbench/tracing.py`` wraps must exist in the library.

The tracer looks every traced function up by name only when a traced run
starts, so a renamed or deleted function would otherwise break
``perfbench/run.py --trace 1`` and nothing else.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_name_exists():
    layers = _layers()
    assert layers
    for layer, (modname, names) in layers.items():
        module = importlib.import_module(modname)
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(module, cls_name, None)
                assert isinstance(cls, type), f"{layer}: {modname}.{cls_name} is not a class"
                assert meth in cls.__dict__, f"{layer}: {modname}.{name} is not defined"
            else:
                assert callable(getattr(module, name, None)), f"{layer}: {modname}.{name} is missing"
