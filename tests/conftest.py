import pytest

import ucf.search as search


@pytest.fixture(autouse=True)
def _drop_search_pool():
    # A pool forked during one test carries that test's patches into its
    # workers, so none outlives the test that made it.
    yield
    search._drop_pool()
