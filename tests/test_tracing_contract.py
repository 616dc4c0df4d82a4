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


def test_lp_probe_reads_these_system_fields():
    # the tracer's LP probe takes the system as argument ``sys`` (position 1
    # of maximize, 0 of solve_feasibility) and counts its variables and rows
    # from these fields, so LinearSystem.lt stays while the probe reads it
    import inspect

    from fraccore.exact_linear import LinearSystem, maximize, solve_feasibility

    system = LinearSystem(
        2, equalities=(((1, 0), 0),), leq=(((0, 1), 1),), lt=(((1, 1), 2), ((1, 0), 1))
    )
    assert system.num_vars == 2
    assert (len(system.equalities), len(system.leq), len(system.lt)) == (1, 1, 2)
    for fn, position in ((maximize, 1), (solve_feasibility, 0)):
        assert list(inspect.signature(fn).parameters).index("sys") == position
