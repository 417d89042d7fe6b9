"""The measuring fixtures of conftest.py read what they claim to."""

from itertools import count


def test_retained_bytes_sees_a_per_call_leak(retained_bytes):
    kept = []
    assert retained_bytes(lambda: kept.append(bytearray(1024)), 10) >= 1000


def test_retained_bytes_forgives_a_one_off_allocation(retained_bytes):
    # call 0 warms up untraced; call 2, the second measured one, stores
    # 2 KB into a container that outlives the measurement
    kept, calls = [], count()

    def call():
        if next(calls) == 2:
            kept.append(bytearray(2048))

    assert retained_bytes(call, 10) < 100
    assert len(kept) == 1
