import sys

import numpy as np
import pytest
from hypothesis import settings

#: The one hypothesis profile, loaded for every run: a fixed derandomized
#: sequence of examples per test, no example database and no deadline. A
#: ``@settings`` states only its ``max_examples`` budget.
settings.register_profile("gnflow", derandomize=True, database=None, deadline=None)
settings.load_profile("gnflow")


@pytest.fixture
def record_calls(monkeypatch):
    """Record the calls of package functions, as the benchmark's tracer sees them.

    ``record_calls(fn, ...)`` rebinds every name that a loaded ``gnflow``
    module binds to one of the functions to a recording wrapper, so calls
    made through a module's own imported name are seen too. It returns a
    dict mapping each function's name to the list of its calls' positional
    arguments, filled as the calls happen.
    """

    def install(*fns):
        calls = {fn.__name__: [] for fn in fns}
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "gnflow" or name.startswith("gnflow."))]
        for fn in fns:
            def wrapper(*args, _fn=fn, **kwargs):
                calls[_fn.__name__].append(args)
                return _fn(*args, **kwargs)

            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        monkeypatch.setattr(mod, attr, wrapper)
        return calls

    return install


@pytest.fixture
def svd_shapes(monkeypatch):
    """The shapes of the stacks passed to ``np.linalg.svd``, in call order,
    filled as the calls happen."""
    shapes = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return shapes
