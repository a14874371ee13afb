import pytest

from _helpers import rotation_fde, scalar_lag_fde
from hopfdelay.fde import eigenbasis, find_hopf_pair


@pytest.fixture(scope="session")
def vdp_hopf():
    """Normalized eigenbasis of x' = -J x (Hopf frequency already 1)."""
    return eigenbasis(rotation_fde())


@pytest.fixture(scope="session")
def scalar_hopf():
    """Eigenbasis of x' = -(pi/2) x(t-1), read at its Hopf frequency pi/2."""
    L = scalar_lag_fde()
    return eigenbasis(L, find_hopf_pair(L))
