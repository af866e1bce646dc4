import numpy as np
import pytest

import ucf.search as search


def family_source(rows):
    """A family source for the verify suites: n -> the search._Columns of
    rows[n], a list of (SetFamily on [n], marked separating) pairs, with the
    marks in place of the separating column; no families on a domain that
    rows lacks."""
    def columns(n):
        pairs = rows.get(n, [])
        cols = search._Columns([fam.masks for fam, _ in pairs], n)
        cols.separating = np.array([mark for _, mark in pairs], dtype=bool)
        return cols
    return columns


@pytest.fixture(autouse=True)
def _drop_search_pool():
    # A pool forked during one test carries that test's patches into its
    # workers, so none outlives the test that made it.
    yield
    search._drop_pool()
