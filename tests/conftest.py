import pytest

from tlpsparse import sensing


@pytest.fixture(autouse=True)
def nothing_held():
    """Each test starts, and leaves, with no matrix held by the matrix CSV
    reader and writer, so no test sees a matrix an earlier one left."""
    sensing._last_read = None
    yield
    sensing._last_read = None
