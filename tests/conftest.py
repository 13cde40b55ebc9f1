import random

import pytest

from util import standard_corpus


@pytest.fixture(scope="session")
def corpus():
    return standard_corpus()


@pytest.fixture()
def rng():
    return random.Random(987654321)
