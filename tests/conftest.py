import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import xlunet.tensor as T

settings.register_profile(
    "ci",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(0x5EED)


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
