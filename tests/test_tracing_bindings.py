"""The benchmark's tracer (perfbench/tracing.py) still finds what it wraps.

The traced benchmark run replaces module bindings with timing wrappers and
stops on a binding that is gone.  These checks find a renamed or dropped
name in the quick test suite, without a benchmark run.
"""

import inspect
import sys
from pathlib import Path

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import tracing
finally:
    sys.path.remove(PERFBENCH)


def test_every_traced_binding_resolves_to_a_callable():
    for owner, attr, _, _ in tracing.BINDINGS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_imported_bindings_are_called_by_their_module():
    # a wrapper on a name its module imports but never calls would count nothing
    for owner, attr, _, _ in tracing.BINDINGS:
        if inspect.ismodule(owner) and getattr(owner, attr).__module__ != owner.__name__:
            assert f"{attr}(" in inspect.getsource(owner), f"{owner.__name__}.{attr}"


def test_step_counter_target_and_backend_resolve():
    assert callable(tracing._kernels._attempt_step)
    assert tracing._kernels.BACKEND == "numpy"
