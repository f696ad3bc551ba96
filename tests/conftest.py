"""Fixtures shared by the test modules."""

import pytest

from preorderspace import NumberField


@pytest.fixture(scope="module")
def sqrt2():
    """Q(sqrt 2), built once per module, so each module starts from a fresh isolating interval."""
    return NumberField((-2, 0, 1), (1, 2))
