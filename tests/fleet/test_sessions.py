"""The gateway session table: TTL expiry, LRU cap, explicit teardown."""

import pytest

from repro.errors import ProtocolError
from repro.fleet.sessions import SessionTable


class FakeClock:
    def __init__(self):
        self.ns = 0

    def __call__(self):
        return self.ns

    def advance_s(self, seconds):
        self.ns += int(seconds * 1e9)


def test_open_touch_discard_roundtrip():
    table = SessionTable(capacity=4, ttl_s=30.0)
    entry = table.open(7)
    assert entry.conn_id == 7 and 7 in table
    touched = table.touch(7)
    assert touched.messages == 1
    assert table.discard(7) is entry
    assert 7 not in table and len(table) == 0


def test_touch_unknown_session_raises():
    table = SessionTable(capacity=4, ttl_s=30.0)
    with pytest.raises(ProtocolError, match="expired or was evicted"):
        table.touch(42)


def test_ttl_expiry_reported_with_reason():
    clock = FakeClock()
    evictions = []
    table = SessionTable(capacity=4, ttl_s=10.0, time_source=clock,
                         on_evict=lambda entry, reason:
                         evictions.append((entry.conn_id, reason)))
    table.open(1)
    clock.advance_s(5)
    table.open(2)
    clock.advance_s(6)  # conn 1 is now 11 s idle, conn 2 only 6 s
    assert table.sweep() == 1
    assert evictions == [(1, "ttl")]
    assert 2 in table
    with pytest.raises(ProtocolError):
        table.touch(1)


def test_touch_refreshes_the_ttl():
    clock = FakeClock()
    table = SessionTable(capacity=4, ttl_s=10.0, time_source=clock)
    table.open(1)
    clock.advance_s(8)
    table.touch(1)
    clock.advance_s(8)
    table.touch(1)  # 16 s since open, but only 8 s since the last touch
    assert table.expired == 0


def test_lru_cap_evicts_least_recent():
    evictions = []
    table = SessionTable(capacity=2, ttl_s=60.0,
                         on_evict=lambda entry, reason:
                         evictions.append((entry.conn_id, reason)))
    table.open(1)
    table.open(2)
    table.touch(1)      # 2 becomes the least recently used
    table.open(3)
    assert evictions == [(2, "lru")]
    assert 1 in table and 3 in table and 2 not in table
    assert table.evicted_lru == 1


def test_discard_does_not_fire_evict_callback():
    evictions = []
    table = SessionTable(capacity=4, ttl_s=60.0,
                         on_evict=lambda entry, reason:
                         evictions.append(entry.conn_id))
    table.open(1)
    table.discard(1)
    assert evictions == []


def test_evict_callback_may_reenter_the_table():
    # Callbacks run outside the table lock, so an evict handler that
    # queries the table (as the gateway's does) must not deadlock.
    clock = FakeClock()
    table = SessionTable(capacity=4, ttl_s=10.0, time_source=clock,
                         on_evict=lambda entry, reason: len(table))
    table.open(1)
    clock.advance_s(11)
    assert table.sweep() == 1


def test_snapshot():
    table = SessionTable(capacity=8, ttl_s=60.0)
    table.open(1)
    snapshot = table.snapshot()
    assert snapshot == {"live": 1, "capacity": 8, "expired": 0,
                        "evicted_lru": 0}
