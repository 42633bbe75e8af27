import numpy as np
import pytest
from hypothesis import settings

import conefrac as cf
from conefrac.quadrature import DEFAULT_CONFIG

# every property test draws the same examples on every run and keeps no
# example database
settings.register_profile("conefrac", derandomize=True, database=None)
settings.load_profile("conefrac")


@pytest.fixture(scope="session")
def const2():
    return cf.ConstantDensity(2)


@pytest.fixture(scope="session")
def cone2():
    return cf.ConePlateauDensity(2, cf.Cone((1.0, 0.0), 0.3), 1.0, 0.25)


@pytest.fixture(scope="session")
def custom2():
    # cone2's weight as a custom density that declares where it jumps
    return cf.CustomDensity(
        2, evaluator=lambda th: np.where(np.abs(th[:, 0]) >= 0.7, 1.0, 0.25),
        jumps=(0.7,), axis=(1.0, 0.0))


@pytest.fixture(scope="session")
def cfg():
    return DEFAULT_CONFIG


@pytest.fixture(scope="session")
def fast_cfg():
    # loose target for dual-route comparisons where both sides are numeric
    return DEFAULT_CONFIG.with_tol(1e-7, 1e-6)


@pytest.fixture()
def rng():
    return np.random.default_rng(20220822)
