"""A publisher that restarts fifty times leaves one record, not fifty.

Every restart is a new session (``<host>#<epoch>[~<plane>]``).  Before
``PeerSession`` had a lifetime, each one left a string table, a type
table and view, a reliable window and seven ``reliable.recv[...]``
instruments behind on every daemon that heard it, and seven more rows in
every ``_bus.stat.*`` snapshot — unbounded growth on a bus meant to run
"24 by 7".  Here one publisher restarts fifty times under traffic, with
an interested and a gated receiver, typed and dict payloads, one plane
and two: every message of every epoch is delivered once and in order,
and at every restart each receiver holds at most two records per
publishing plane (the live session and at most one being retired) in
its mapping, its ``wire.*peer_sessions`` gauges and its snapshots.

Run under two hash seeds in CI: retirement walks sets of sessions and
its outcome must not depend on their order.
"""

import pytest

from repro.core import BusConfig, InformationBus, SessionStats, ShardMap
from repro.objects import (AttributeSpec, DataObject, TypeDescriptor,
                           standard_registry)
from repro.sim import CostModel

RESTARTS = 50
#: first elements on both planes of a two-plane host (crc32 map)
SUBJECTS = ("feed.a", "news.a", "feed.b", "quote.a")
PER_EPOCH = 2 * len(SUBJECTS)


def tick_registry():
    registry = standard_registry()
    registry.register(TypeDescriptor(
        "tick", attributes=[AttributeSpec("epoch", "int"),
                            AttributeSpec("n", "int")]))
    return registry


@pytest.mark.parametrize("typed", [False, True], ids=["dict", "typed"])
@pytest.mark.parametrize("shards", [1, 2])
def test_fifty_restarts_leave_bounded_state(shards, typed):
    bus = InformationBus(seed=11, cost=CostModel.ideal(),
                         config=BusConfig(subject_shards=shards,
                                          stat_interval=0.1))
    bus.add_hosts(3)
    inbox = []
    monitor = bus.client("node01", "mon")
    for pattern in ("feed.>", "news.>", "quote.>"):
        monitor.subscribe(pattern, lambda subject, obj, info: inbox.append(
            (subject, obj.get("epoch"), obj.get("n"))))
    snapshots = {}                  # stat subject -> latest snapshot
    bus.client("node02", "browser").subscribe(
        "_bus.stat.>",
        lambda subject, obj, info: snapshots.__setitem__(subject, obj))
    registry = tick_registry()
    publisher = bus.client("node00", "pub",
                           registry=registry if typed else None)

    def payload(epoch, n):
        if typed:
            return DataObject(registry, "tick", epoch=epoch, n=n)
        return {"epoch": epoch, "n": n}

    if shards > 1:                  # both planes carry traffic
        shard_of = ShardMap(shards).shard_of
        assert {shard_of(subject) for subject in SUBJECTS} == {0, 1}
    sent = []
    for epoch in range(RESTARTS + 1):
        # in two halves: back-to-back publishes share a frame, so the
        # first half's frames define the epoch's strings and the second
        # half's, 0.05 s later, reuse them — frames the gate may skip
        for half, pause in ((range(PER_EPOCH // 2), 0.05),
                            (range(PER_EPOCH // 2, PER_EPOCH), 0.25)):
            for n in half:
                subject = SUBJECTS[n % len(SUBJECTS)]
                publisher.publish(subject, payload(epoch, n))
                sent.append((subject, epoch, n))
            bus.run_for(pause)
        # what each receiver holds, read three ways
        for address in ("node01", "node02"):
            for daemon in bus.daemons[address].planes:
                assert 1 <= len(daemon.peers) <= 2, (epoch, address)
                gauges = daemon.metrics.snapshot()
                prefix = f"daemon.{address}.wire."
                assert gauges[prefix + "peer_sessions"]["value"] <= 2
                assert gauges[prefix + "typedef.peer_sessions"]["value"] \
                    <= (2 if typed else 0)
                rows = [name for name in gauges
                        if name.startswith("reliable.recv[")]
                assert len(rows) == len(SessionStats._FIELDS) * len(daemon.peers)
            for subject, snapshot in snapshots.items():
                if not subject.startswith(f"_bus.stat.{address}."):
                    continue
                metrics = snapshot["metrics"]
                records = metrics[f"daemon.{address}.wire.peer_sessions"]
                rows = [name for name in metrics
                        if name.startswith("reliable.recv[")]
                assert records["value"] <= 2
                assert len(rows) <= len(SessionStats._FIELDS) * records["value"]
        if epoch < RESTARTS:
            bus.crash_host("node00")
            bus.run_for(0.1)
            bus.recover_host("node00")
            bus.run_for(0.1)

    # every message of every epoch, once, in per-subject publish order
    # (subjects on different planes are different sessions: unordered)
    for subject in SUBJECTS:
        assert [m for m in inbox if m[0] == subject] == \
            [m for m in sent if m[0] == subject]
    assert len(inbox) == len(sent) == (RESTARTS + 1) * PER_EPOCH
    # the one record left per publishing plane is the live session's
    live = {daemon.session for daemon in bus.daemons["node00"].planes}
    for address in ("node01", "node02"):
        heard = {session for daemon in bus.daemons[address].planes
                 for session in daemon.peers}
        assert heard == live
        ghosts = sum(
            daemon.metrics.get(f"daemon.{address}.wire.stale_sessions").value
            for daemon in bus.daemons[address].planes)
        assert ghosts == 0          # nothing of a dead epoch was replayed
    # the gated receiver really was gated, and nobody lost a message
    assert sum(daemon.skipped_frames
               for daemon in bus.daemons["node02"].planes) > RESTARTS
    assert not any(daemon.skipped_frames
                   for daemon in bus.daemons["node01"].planes)
    assert bus.daemons["node01"].clients["mon"].decode_errors == 0
    assert len(snapshots) == 3 * shards
