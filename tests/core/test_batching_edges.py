"""Edge cases of the outbound batcher with batching on: a cut racing
the delay timer, and re-entrant publishes and flushes from inside a
release callback."""

from repro.core import BatchConfig, Batcher, Envelope, QoS
from repro.sim import Simulator


def envelope(size_payload=50, subject="a.b"):
    return Envelope(subject=subject, sender="x", session="s#0", seq=0,
                    payload=b"\x00" * size_payload, qos=QoS.RELIABLE)


def make_batcher(sim, flush=None, batch_bytes=300, batch_delay=0.01,
                 max_messages=64):
    batches = []
    config = BatchConfig(enabled=True, batch_bytes=batch_bytes,
                         batch_delay=batch_delay, max_messages=max_messages)
    return Batcher(sim, config, flush or batches.append), batches


def test_max_messages_triggers_flush_exactly_at_cap():
    """A group holds at most ``max_messages``: the envelope after the
    cap cuts it, and the full group leaves at once instead of waiting
    out the delay."""
    sim = Simulator()
    batcher, batches = make_batcher(sim, batch_bytes=10**9, max_messages=3)
    for _ in range(3):
        batcher.add(envelope(size_payload=1))
    assert batches == []                    # at the cap: still gathering
    batcher.add(envelope(size_payload=1))   # past it -> cut, leaves now
    assert [len(b) for b in batches] == [3]
    assert batcher.pending == 1
    # the delay timer went with the cut: the 4th follows when the lane
    # is free (always, standalone), not a batch_delay later
    sim.run_until(0.0)
    assert [len(b) for b in batches] == [3, 1]
    sim.run_until(1.0)
    assert len(batches) == 2


def test_bytes_threshold_beats_pending_delay_timer():
    sim = Simulator()
    one = envelope().size
    released = []                           # (time, envelopes)
    batcher, _ = make_batcher(
        sim, flush=lambda batch: released.append((sim.now, len(batch))),
        batch_bytes=int(one * 2.5), batch_delay=0.01)
    batcher.add(envelope())                 # arms the delay timer
    sim.run_until(0.005)
    batcher.add(envelope())
    batcher.add(envelope())                 # would cross bytes mid-window
    assert released == [(0.005, 2)]         # bytes won the race ...
    sim.run_until(0.02)
    # ... and the delay timer went with it: the 3rd left when the lane
    # was free (at once, standalone), and nothing fired at 0.01
    assert released == [(0.005, 2), (0.005, 1)]
    assert batcher.pending == 0


def test_delay_fires_when_bytes_never_reached():
    sim = Simulator()
    batcher, batches = make_batcher(sim, batch_bytes=10**9,
                                    batch_delay=0.01)
    batcher.add(envelope())
    batcher.add(envelope())
    assert batches == []
    sim.run_until(0.011)
    assert [len(b) for b in batches] == [2]


def test_reentrant_add_from_flush_callback_lands_in_next_batch():
    sim = Simulator()
    batches = []
    holder = {}

    def flush(batch):
        batches.append(list(batch))
        if len(batches) == 1:
            # an application reacting to its own flush by publishing
            holder["batcher"].add(envelope(subject="re.entrant"))

    batcher, _ = make_batcher(sim, flush=flush, batch_bytes=10**9)
    holder["batcher"] = batcher
    batcher.add(envelope())
    batcher.add(envelope())
    batcher.flush()                         # -> re-entrant add
    assert [len(b) for b in batches] == [2]
    assert batcher.pending == 1             # not folded into batch 1
    sim.run_until(1.0)                      # its own delay window
    assert [len(b) for b in batches] == [2, 1]
    assert batches[1][0].subject == "re.entrant"


def test_reentrant_flush_does_not_recurse_forever():
    sim = Simulator()
    batches = []
    holder = {}

    def flush(batch):
        batches.append(list(batch))
        # pathological consumer: force-flush from inside the callback
        holder["batcher"].flush()

    batcher, _ = make_batcher(sim, flush=flush, batch_bytes=10**9,
                              max_messages=2)
    holder["batcher"] = batcher
    for _ in range(3):
        batcher.add(envelope())             # the 3rd cuts -> release
    assert [len(b) for b in batches] == [2, 1]
    assert batcher.pending == 0
    sim.run_until(1.0)                      # and no release is left armed
    assert len(batches) == 2


def test_each_group_is_cut_on_its_own_bytes_when_it_leaves():
    """A group is counted from the queue's head when it is released, so
    after a partial drain the next group is cut on its own bytes, an
    envelope bigger than a group leaves alone, and
    :meth:`~Batcher.shutdown` leaves nothing to release."""
    sim = Simulator()
    one = envelope().size
    batcher, batches = make_batcher(sim, batch_bytes=3 * one)
    for _ in range(4):
        batcher.add(envelope())             # the 4th: the first 3 leave
    assert [len(b) for b in batches] == [3]
    for _ in range(3):
        batcher.add(envelope())             # the 7th: the next 3 leave
    assert [len(b) for b in batches] == [3, 3]
    batcher.add(envelope(size_payload=3 * one))
    batcher.flush()
    assert [len(b) for b in batches] == [3, 3, 1, 1]
    batcher.add(envelope())
    batcher.shutdown()
    sim.run_until(1.0)
    assert len(batches) == 4
    assert batcher.pending == 0
