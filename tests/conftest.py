"""Checks that hold around every test."""

import pytest

from cavity_loader import numerics


@pytest.fixture(autouse=True)
def no_sharing_block_outlives_a_test():
    # an open block holds its store and would hand it to later tests, which
    # could then pass or fail by what an earlier test left behind
    yield
    store = numerics._STORE.get()
    if store is not None:
        numerics._STORE.set(None)
        pytest.fail(f"a numerics.sharing block is still open, holding {len(store)} entries")
