import pytest

from smoothsum.franklin import build_franklin


@pytest.fixture(scope="session")
def fm8():
    return build_franklin(8)


@pytest.fixture(scope="session")
def fm16():
    return build_franklin(16)


@pytest.fixture(scope="session")
def fm24():
    return build_franklin(24)
