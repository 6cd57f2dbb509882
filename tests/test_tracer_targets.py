"""Every function the benchmark tracer wraps must exist under its name.

`perfbench/tracer.py` patches its TARGETS by module and qualified name
when a run asks for `--trace 1`; a renamed or moved function would break
those runs.  This reads the list without installing anything.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

_TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", _TRACER)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod    # dataclasses look their module up here
    spec.loader.exec_module(mod)
    return mod.TARGETS


@pytest.mark.parametrize("target", _targets(), ids=lambda t: f"{t.module}.{t.qualname}")
def test_tracer_target_resolves(target):
    mod = importlib.import_module(target.module)
    if "." in target.qualname:
        # methods are patched through the defining class's own namespace
        cls_name, attr = target.qualname.split(".")
        assert attr in vars(getattr(mod, cls_name))
    else:
        assert callable(getattr(mod, target.qualname))
