import pytest

from salemkit import core_sets


@pytest.fixture
def tabulated_calls():
    """Start with no run of exp_sum calls in progress and no unit-root table
    cached, so a test sees only the phase path its own calls choose.  Gives
    a counter of the exp_sum calls since then that gathered from a table:
    each such call asks the table cache once."""
    core_sets._run_denominator = core_sets._run_phases = 0
    core_sets._unit_roots.cache_clear()

    def count() -> int:
        info = core_sets._unit_roots.cache_info()
        return info.hits + info.misses

    return count
