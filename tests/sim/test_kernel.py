"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import PeriodicTimer, SimError, Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "b")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(3.0, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    fired = []
    for label in "abcde":
        sim.schedule(1.0, fired.append, label)
    sim.run()
    assert fired == list("abcde")


def test_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    sim.schedule(0.5, event.cancel)
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimError):
        sim.schedule(-0.1, lambda: None)


def test_nested_scheduling():
    sim = Simulator()
    fired = []

    def outer():
        fired.append("outer")
        sim.schedule(1.0, lambda: fired.append("inner"))

    sim.schedule(1.0, outer)
    sim.run()
    assert fired == ["outer", "inner"]
    assert sim.now == 2.0


def test_run_until_stops_at_deadline():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.schedule(3.0, fired.append, "c")
    sim.run_until(2.5)
    assert fired == ["a", "b"]
    assert sim.now == 2.5
    sim.run()
    assert fired == ["a", "b", "c"]


def test_run_until_advances_clock_even_when_idle():
    sim = Simulator()
    sim.run_until(10.0)
    assert sim.now == 10.0


def test_schedule_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: sim.schedule_at(5.0, fired.append, "x"))
    sim.run()
    assert fired == ["x"]
    assert sim.now == 5.0


def test_stop_interrupts_run():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, sim.stop)
    sim.schedule(3.0, fired.append, "b")
    sim.run()
    assert fired == ["a"]


def test_max_events_guard():
    sim = Simulator()

    def forever():
        sim.schedule(1.0, forever)

    sim.schedule(1.0, forever)
    with pytest.raises(SimError):
        sim.run(max_events=100)


def test_rng_streams_are_deterministic_and_independent():
    sim1 = Simulator(seed=42)
    sim2 = Simulator(seed=42)
    a1 = [sim1.rng("a").random() for _ in range(5)]
    # interleave a different stream in sim2; "a" must be unaffected
    sim2.rng("b").random()
    a2 = [sim2.rng("a").random() for _ in range(5)]
    assert a1 == a2


def test_rng_streams_differ_across_seeds():
    assert Simulator(seed=1).rng("x").random() != \
        Simulator(seed=2).rng("x").random()


def test_periodic_timer_fires_until_stopped():
    sim = Simulator()
    ticks = []
    timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
    sim.schedule(3.5, timer.stop)
    sim.run()
    assert ticks == [1.0, 2.0, 3.0]
    assert timer.stopped


def test_periodic_timer_initial_delay():
    sim = Simulator()
    ticks = []
    timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now),
                          initial_delay=0.25)
    sim.schedule(2.5, timer.stop)
    sim.run()
    assert ticks == [0.25, 1.25, 2.25]


def test_periodic_timer_rejects_bad_interval():
    with pytest.raises(SimError):
        PeriodicTimer(Simulator(), 0.0, lambda: None)


def test_pending_counts_live_events():
    sim = Simulator()
    e1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending() == 2
    e1.cancel()
    assert sim.pending() == 1


def test_pending_exact_through_fire_and_cancel():
    """The O(1) counter stays exact: cancelling an event that already
    fired (protocol cleanup does this constantly) must not skew it."""
    sim = Simulator()
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(4)]
    sim.run_until(2.5)            # events[0] and events[1] fired
    events[0].cancel()            # post-fire cancel: no-op
    events[1].cancel()
    assert sim.pending() == 2
    events[2].cancel()            # genuine cancel of a heaped event
    events[2].cancel()            # idempotent: counted once
    assert sim.pending() == 1
    sim.run()
    assert sim.pending() == 0


def test_heap_compaction_under_timer_churn():
    """Cancelling most of the heap triggers compaction: dead events are
    physically removed instead of lingering until their deadline."""
    sim = Simulator()
    keep = [sim.schedule(1000.0, lambda: None) for _ in range(5)]
    churn = [sim.schedule(2000.0, lambda: None) for _ in range(500)]
    for event in churn:
        event.cancel()
    assert sim.compactions >= 1
    assert len(sim._heap) < 100        # corpses actually evicted
    assert sim.pending() == len(keep)


def test_compaction_preserves_event_order():
    """Same schedule with and without compaction fires identically."""

    def run(churn: int) -> list:
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), fired.append, i)
        doomed = [sim.schedule(50.0 + i, lambda: fired.append("bad"))
                  for i in range(churn)]
        for event in doomed:
            event.cancel()
        sim.run_until(20.0)
        return fired

    quiet = run(churn=2)               # far below the compaction floor
    churned = run(churn=300)           # forces at least one compaction
    assert quiet == churned == list(range(10))


def test_random_schedules_fire_in_time_then_schedule_order():
    """The heap holds ``(time, seq, event)`` tuples compared in C; the
    order they fire in must be time first and schedule order within one
    instant — across cancels, a forced ``_compact()`` and events
    scheduled from inside callbacks — and ``pending()`` must stay exact.
    A few thousand random schedules against a sorted-list model."""
    import random
    rng = random.Random(19930)
    for _round in range(40):
        sim = Simulator()
        fired = []
        live = set()                   # labels scheduled, not yet fired
        handles = {}
        label = 0

        def fire(tag, respawn):
            fired.append(tag)
            live.remove(tag)
            if respawn:                # same-instant and later children
                add(rng.choice([0.0, 0.0, 0.25]))

        def add(delay):
            nonlocal label
            tag = label
            label += 1
            live.add(tag)
            handles[tag] = sim.schedule(delay, fire, tag,
                                        rng.random() < 0.2)

        for _op in range(100):
            roll = rng.random()
            if roll < 0.6:
                # few distinct times: most events tie with another
                add(rng.choice([0.0, 0.5, 0.5, 1.0, 1.0, 1.5, 2.0]))
            elif roll < 0.8 and live:
                tag = rng.choice(sorted(live))
                handles[tag].cancel()
                handles[tag].cancel()          # idempotent
                live.remove(tag)
            elif roll < 0.9:
                sim._compact()
            else:
                sim.run_until(sim.now + rng.choice([0.0, 0.5, 1.0]))
            assert sim.pending() == len(live)
        sim.run()
        assert sim.pending() == 0 and not live
        # every event fired at its own time, ties in schedule order:
        # a label is a schedule index, and children get later labels
        # than anything scheduled before their parent fired
        times = {tag: handles[tag].time for tag in fired}
        assert fired == sorted(fired, key=lambda tag: (times[tag], tag))
