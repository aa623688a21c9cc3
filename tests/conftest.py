import numpy as np
import pytest

from spde_reflect.spaces import make_space
from spde_reflect.models import ModelSpec, Porous, PLaplace, FastDiff


@pytest.fixture(scope="session")
def porous_space():
    """Weighted space with the power-law noise spectrum, gamma = 1."""
    return make_space(16, 1.0, weighted=True, q_amp=1.0, q_decay=0.75)


@pytest.fixture(scope="session")
def plap_space():
    return make_space(16, 1.0, weighted=False, q_amp=1.0, q_decay=0.75)


@pytest.fixture(scope="session")
def ex41_space():
    """Example spectrum gamma = 2, q_i = i^-0.75 (kappa = 8 instance)."""
    return make_space(16, 2.0, weighted=True, q_amp=1.0, q_decay=0.75)


@pytest.fixture(scope="session")
def ex63_space():
    """Fast-diffusion spectrum gamma = 1, q_i = i^-0.6 (kappa = 3 instance)."""
    return make_space(16, 1.0, weighted=True, q_amp=1.0, q_decay=0.6)


@pytest.fixture(scope="session")
def porous_linear():
    return ModelSpec(Porous(r=1.0))


@pytest.fixture(scope="session")
def porous_r2():
    return ModelSpec(Porous(r=2.0))


@pytest.fixture(scope="session")
def plap_p2():
    return ModelSpec(PLaplace(p=2.0))


@pytest.fixture(scope="session")
def fastdiff_half():
    return ModelSpec(FastDiff(r=0.5))


def e_k(n_modes: int, k: int, amp: float = 1.0) -> np.ndarray:
    out = np.zeros(n_modes)
    out[k - 1] = amp
    return out
