import pytest

from wildcoh import acceptance


@pytest.fixture(scope="session")
def acceptance_results():
    """Every acceptance check at the default seed, run once per session."""
    return acceptance.run()
