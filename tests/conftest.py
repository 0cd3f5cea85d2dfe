import pytest

from salemkit import core_sets


@pytest.fixture
def tabulated_calls():
    """Start with no unit-root table cached.  Gives a counter of the
    exp_sums calls since then that gathered from a table: each such call
    asks the table cache once, and whether it does depends only on its own
    denominator and phase count."""
    core_sets._unit_roots.cache_clear()

    def count() -> int:
        info = core_sets._unit_roots.cache_info()
        return info.hits + info.misses

    return count
