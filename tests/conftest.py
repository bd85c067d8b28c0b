import pytest

from lanemorse import solve_nodal


@pytest.fixture(scope="session")
def nodal():
    """Session-cached factory for nodal solutions (keyed by (p, N))."""
    cache = {}

    def get(p, N=2):
        if (p, N) not in cache:
            cache[p, N] = solve_nodal(p, N=N)
        return cache[p, N]

    return get
