import pytest

from _helpers import rotation_fde, scalar_lag_fde
from hopfdelay.fde import J, eigenbasis, find_hopf_pair
from hopfdelay.measures import MatrixDelayMeasure


@pytest.fixture(scope="session")
def vdp_hopf():
    """Normalized eigenbasis of x' = -J x (Hopf frequency already 1)."""
    return eigenbasis(rotation_fde())


@pytest.fixture(scope="session")
def scalar_hopf():
    """Eigenbasis of x' = -(pi/2) x(t-1), read at its Hopf frequency pi/2."""
    L = scalar_lag_fde()
    return eigenbasis(L, find_hopf_pair(L))


@pytest.fixture(scope="session")
def fast_hopf():
    """Normalized eigenbasis of x' = -2.5 J x, read at its Hopf frequency 2.5."""
    return eigenbasis(MatrixDelayMeasure(dim=2, atoms=((0.0, -2.5 * J),)), 2.5)
