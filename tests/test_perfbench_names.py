"""Every name that the benchmark in ``perfbench/`` reads from ``u4class``
resolves, so a ``src/`` change that renames or moves one fails here
rather than in a traced benchmark run.  ``perfbench/tracer.py`` is loaded
by path and only read."""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
    "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


TARGETS = _tracer_targets()


@pytest.mark.parametrize("modname, qualname",
                         [(t[0], t[1]) for t in TARGETS],
                         ids=[t[2] + ":" + t[1] for t in TARGETS])
def test_tracer_target_resolves(modname, qualname):
    module = importlib.import_module(modname)
    if "." in qualname:
        # the tracer wraps a method through its class's own __dict__
        cls_name, attr = qualname.split(".")
        target = vars(getattr(module, cls_name))[attr]
    else:
        target = getattr(module, qualname)
    assert callable(target)


def test_worker_names_resolve():
    from u4class import kernels, resolutions
    assert isinstance(kernels.BACKEND, str)
    assert hasattr(kernels, "_fast")
    assert kernels._fast is None or callable(kernels._fast.unit_pivot_phase)
    assert isinstance(resolutions.max_generators(), int)
