import pytest

from multires.generators import connected_classes


@pytest.fixture(scope="session")
def classes7():
    """(graph, |Aut|) for every connected isomorphism class with n <= 7."""
    return list(connected_classes(7))
