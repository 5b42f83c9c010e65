import builtins
import importlib
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import xlunet
import xlunet.tensor as T

settings.register_profile(
    "ci",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("ci")

# Hypothesis writes a failing example's patch file from pytest's report hook,
# and its first import of ``hypothesis.extra._patching`` there pulls in
# libcst, which raises a third-party DeprecationWarning: under
# pyproject.toml's ``error::DeprecationWarning`` that ends the session before
# the falsifying example is printed.  Import it once here, with only that
# category ignored.  libcst is optional: without it the import fails, and
# there is no warning to keep out.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        importlib.import_module("hypothesis.extra._patching")
    except ImportError:
        pass


@pytest.fixture
def rng():
    return np.random.default_rng(0x5EED)


@pytest.fixture(scope="session")
def child_env(pytestconfig):
    """The environment of a fresh interpreter a test starts: it imports this
    package, and the warnings that pyproject.toml's ``filterwarnings`` makes
    errors are errors there too (those of builtin categories: pytest's own
    cannot arise outside pytest)."""
    filters = [
        f for f in pytestconfig.getini("filterwarnings") if f.rsplit(":", 1)[-1] in vars(builtins)
    ]
    return dict(
        os.environ,
        PYTHONPATH=str(Path(xlunet.__file__).parents[1]),
        PYTHONWARNINGS=",".join(filters),
    )


def _subnormals_flush() -> bool:
    """Whether the calling thread flushes a float32 subnormal result to zero."""
    tiny = np.full(1, np.finfo(np.float32).tiny, np.float32)
    return not (tiny * np.float32(0.5)).any()


@pytest.fixture(autouse=True)
def subnormals_stay_representable(request):
    # a leaked flush-to-zero mode would surface later as Hypothesis refusing
    # to draw floats, in whichever test runs next: name the leaking test
    yield
    if _subnormals_flush():
        if T._FENV_CALLS is not None:
            T._swap_flush_bits(0)  # so that later tests start clean
        pytest.fail(f"{request.node.nodeid} left flush-to-zero / denormals-are-zero set")
