"""Session setup shared by every test module."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st


@pytest.fixture(scope="session", autouse=True)
def unicode_tables_built():
    """Draw one ``st.text`` value before any test runs.

    Hypothesis builds its unicode character tables inside the first text draw
    of a process, and caches them on disk only afterwards. Without this, that
    one-off cost lands on whichever test draws text first, and can fail its
    ``too_slow`` health check when a module runs alone in a fresh checkout.
    """

    @settings(max_examples=1, database=None, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(st.text(min_size=1))
    def draw(_text):
        pass

    draw()
