"""Tests for crash-surviving stable storage."""

from repro.sim import EthernetSegment, Simulator, StableStore


def test_log_append_and_read():
    store = StableStore()
    assert store.append("wal", {"seq": 1}) == 0
    assert store.append("wal", {"seq": 2}) == 1
    assert store.read_log("wal") == [{"seq": 1}, {"seq": 2}]
    assert store.log_length("wal") == 2
    store.append("a", 1)
    assert store.read_log("a") == [1]
    assert store.log_length("wal") == 2


def test_read_missing_log_is_empty():
    store = StableStore()
    assert store.read_log("nope") == []
    assert store.log_length("nope") == 0


def test_records_are_isolated_from_caller_mutation():
    store = StableStore()
    record = {"items": [1, 2]}
    store.append("wal", record)
    record["items"].append(3)           # mutate after write
    assert store.read_log("wal") == [{"items": [1, 2]}]
    snapshot = store.read_log("wal")
    snapshot[0]["items"].append(99)     # mutate a read copy
    assert store.read_log("wal") == [{"items": [1, 2]}]


def test_kv_roundtrip_and_isolation():
    store = StableStore()
    store.put("state", {"n": 1})
    value = store.get("state")
    value["n"] = 99
    assert store.get("state") == {"n": 1}
    assert store.get("missing", "dflt") == "dflt"
    assert "state" in store
    assert "missing" not in store


def test_iter_log_yields_copies():
    store = StableStore()
    store.append("wal", [1])
    for record in store.iter_log("wal"):
        record.append(2)
    assert store.read_log("wal") == [[1]]


def test_stable_storage_survives_host_crash():
    sim = Simulator()
    lan = EthernetSegment(sim)
    host = lan.add_host("a")
    host.stable.append("wal", "precious")
    host.stable.put("mode", "capture")
    host.crash()
    host.recover()
    assert host.stable.read_log("wal") == ["precious"]
    assert host.stable.get("mode") == "capture"


def test_write_count_tracks_io():
    store = StableStore()
    store.append("wal", 1)
    store.put("k", 2)
    store.append("wal", 3)
    assert store.write_count == 3
