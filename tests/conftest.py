import numpy as np
import pytest

from conformal_lab import green, verify
from conformal_lab.geometry import catalog_build


@pytest.fixture(autouse=True)
def fresh_blowup_passes(monkeypatch):
    """Every test takes the blow-up passes whose Ricci defects and mass
    integrals it reads: one left by an earlier test would hide a kernel
    the test mutates."""
    monkeypatch.setattr(verify, "_DEFECTS", {})
    green._mass_integral.cache_clear()


@pytest.fixture(scope="session")
def sphere3():
    return catalog_build("sphere", 3, {}, {"degree_max": 24})


@pytest.fixture(scope="session")
def sphere4():
    return catalog_build("sphere", 4, {}, {"degree_max": 24})


@pytest.fixture(scope="session")
def sphere5():
    return catalog_build("sphere", 5, {}, {"degree_max": 24})


@pytest.fixture(scope="session")
def s1xs2():
    return catalog_build("product-S1xS2", None,
                         {"length": 2 * np.pi},
                         {"degree_max": 16, "fourier_max": 8})


@pytest.fixture(scope="session")
def s1xs3():
    return catalog_build("product-S1xS3", None,
                         {"length": 2 * np.pi},
                         {"degree_max": 16, "fourier_max": 8})


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)
