import gc
import tracemalloc

import pytest


@pytest.fixture()
def retained_bytes():
    """measure(call, repeats): the bytes still allocated per call after
    `repeats` calls of a warmed-up call and a garbage collection."""

    def measure(call, repeats: int) -> float:
        call()
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(repeats):
                call()
            gc.collect()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return (after - before) / repeats

    return measure
